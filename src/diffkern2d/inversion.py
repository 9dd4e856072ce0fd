"""Inverse application, g-operators, theta/psi machinery, and the
rho-function of the inverse operator.

Solves against S (:func:`solve_array`) take the LU, GMRES (MINRES for a
Hermitian S) with the FFT matvec, or, for a lattice kernel that is a jump
plus one separable term, the direct solve through the eigenvectors of the
two Toeplitz factors of S = gamma I + T(v) (x) T(u); every solve is
backward-checked by the FFT matvec.

The rho-function is the bilinear form

    rho(lam, mu) = h1 h2 sum_x e^{-i mu x} (S^{-1} e^{i lam x})(x),

computed either directly (one solve per lam) or through the structured
representation: the pair blocks

    g_ik = [K_3i; K_1i] [I 0] - PiHat_k S^{-1} Pi_i       (i != k),

the normalizer theta(lam) = 1 + lam1 lam2 * quad(e^{i lam (omega - x)} h)
with h = S^{-1} y, y(x) = s(x1 - omega1, x2 - omega2), the coupling matrix
G(lam) built from g_12, g_21 and the side antiderivative operators, and
psi(lam) = theta(lam) G(lam)^{-1} col[0, 1, 0, 1].  A one-dimensional
quadrature of psi at lam against a flipped psi at mu then evaluates rho.

The two g blocks are redundant: g_21 = -U_2 J_2 g_12^* J_1 U_1 with U the
reflect-and-conjugate involution and J the standard skew pair rotation;
the discrete transform mirrors this with quadrature-weighted adjoints.
The evaluator solves only g_12 and derives g_21 by that transform, so its
pair is consistent by construction; ``verify`` solves both blocks and
measures the relation between them.

Finally, sampling rho on the complete midpoint-compatible DFT frequency
grid resolves S^{-1} exactly:  T = E R E^H / (omega1 omega2 n1 n2) where
E = E2 (x) E1 holds the sampled exponentials (they are exactly orthogonal
on the midpoint grid) and R[p, q] = rho(lam_q, mu_p).  Both products with
E are evaluated axis by axis with the n_i x n_i factors E1 and E2, never
with the N x N Kronecker matrix.  The table follows from the axis-1
displacement identity of S^{-1}, X A_1 - A_1^* X = (X G)(H X), and one
solve of its 3 n2 generator columns; where the condition estimate of S
shows its T too inaccurate, one Newton-Schulz step refines T.  For a
real S the solves, their backward check and the reconstructed T are real.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple

import numpy as np
import scipy.linalg

from .errors import (
    ConvergenceError,
    InvalidArgumentError,
    NearSingularGError,
    PoleProximityError,
    SingularOperatorError,
    UnsupportedEvaluationError,
)
from .grid import GridSpec, KernelSamples
from .operators import (
    DENSE_GUARD,
    ConvOperator,
    PiPair,
    apply_along,
    assemble_pi,
    check_dense_guard,
    generator_parts,
    k_op,
    line_integration_op,
    lu_factor_cond,
    pi_factor,
)

__all__ = [
    "solve_array",
    "compute_g_blocks",
    "pair_flip_transform",
    "g_symmetry_residual",
    "RhoEvaluator",
    "build_rho_evaluator",
    "rho_direct",
    "rho_structured",
    "structured_axes",
    "dft_frequencies",
    "build_rho_table",
    "inverse_from_rho",
    "y_samples",
]

COND_LIMIT = 1e12
BACKWARD_TOL = 1e-9     # largest ||S x - b|| / ||b|| a solve may return
GMRES_RTOL = 1e-10      # relative residual each GMRES column must reach
GMRES_RESTART = 50      # Krylov basis length: iterations per restart cycle
GMRES_MAXITER = 5000    # iterations a column may take over all its cycles

# the largest 1-norm condition estimate at which inverse_from_rho keeps the
# generator's T unrefined, 671: its residual grows as cond^2 eps, kept within
# BACKWARD_TOL / 10 (the data are in build_rho_table)
GENERATOR_COND = math.sqrt(BACKWARD_TOL / 10 / np.finfo(float).eps)

# the size of the library's one block rule for blocked work, read only by _blocks
CHECK_BLOCK = 1 << 16


def _blocks(N: int, m: Optional[int] = None):
    """Slices of range(m), m = N by default, for work on the N-long lines
    of an N x m array: about CHECK_BLOCK / 4 entries each (256 KB complex,
    in cache).  Each is a multiple of 8 lines, at least 8, so BLAS's
    micro-tiles fall as on the whole array and the bits are the same."""
    step = 8 * max(1, CHECK_BLOCK // (32 * N))
    return [slice(j, j + step) for j in range(0, N if m is None else m, step)]


# --------------------------------------------------------------------------
# solving against S
# --------------------------------------------------------------------------


def solve_array(S: ConvOperator, rhs: np.ndarray) -> np.ndarray:
    """S^{-1} rhs for an (N,) vector or for each column of an (N, m) block.

    Above DENSE_GUARD a Krylov solver with the FFT matvec solves column by
    column (:func:`_gmres_column`): MINRES for a Hermitian S, GMRES
    otherwise; below, "GMRES" names that solver, MINRES included.
    At desk scale (N <= DENSE_GUARD) one rule in FFT matvecs picks a side:
    the operator's LU when it is cached, otherwise the Krylov side when
    m (k + 1), plus ESTIMATE_SOLVES (k + 1) for the condition estimate
    when none is cached, is within the LU's cost t_lu(N, m) / t_it(N).  k
    is the iteration count of the estimate's first solve, 2 before any, 0
    when it ran on the Kronecker split.  On the Krylov side a lattice
    kernel that is a jump plus one separable term, W = gamma delta + u v^T
    (exp, gaussian, separable, identity), is solved directly through the
    eigenvectors of its two Toeplitz factors (:func:`_split_solve`) when
    the split takes the grid (it refuses max n_i > min n_i^2), and by
    GMRES otherwise.  GMRES, estimate included, may spend at most the LU's
    cost in matvecs; a run that would overdraw them, or that does not
    converge, hands over to the LU, so the worst case costs about twice
    the LU path.  A split solve that meets a zero or non-finite divisor, or
    misses its backward check, hands over to GMRES and the LU, so the
    typed errors are theirs.  A non-finite ``rhs`` column is an
    InvalidArgumentError naming it.

    Below the guard every returned solve has passed a condition check
    against COND_LIMIT: LAPACK's ``gecon`` estimate on the LU path, the
    operator's cached ``onenormest`` estimate, from the split's solves or
    GMRES's, on the Krylov side (see :func:`_cond_estimate`).  Above the
    guard no condition is estimated.  Either way one check by the FFT
    matvec judges the solve, whichever backend ran: ||S x - b|| / ||b|| <=
    BACKWARD_TOL for each column, by :func:`_check_backward` after the LU,
    never against the matrix it factored, and after the split, and by a
    GMRES column's last true residual, within GMRES_RTOL <= BACKWARD_TOL
    (:func:`_gmres_column`).  An empty block returns with no backend run.

    The result is real exactly when S and ``rhs`` are real: the LU path
    solves a complex ``rhs`` against a real S as its real and imaginary
    parts, GMRES runs over real vectors when S and ``rhs`` are both real,
    over complex ones otherwise, and the split keeps the real part of its
    complex solve of a real ``rhs`` against a real S.
    """
    B = np.asarray(rhs)
    N = S.grid.size
    if B.ndim not in (1, 2) or B.shape[0] != N:
        raise InvalidArgumentError(f"rhs shape {B.shape}, expected ({N},) or ({N}, m)")
    if B.size == 0:
        return np.zeros(B.shape, np.result_type(S.lattice_kernel, B, float))
    if not np.isfinite(B).all():
        bad = np.argmin(np.isfinite(B.reshape(N, -1)).all(axis=0))
        raise InvalidArgumentError(f"rhs column {bad} is not finite")
    if N > DENSE_GUARD:
        return _gmres(S, B)[0]
    X = None if S._lu is not None else _krylov_side(S, B)
    if X is None:
        X = _lu_solve(S, B)
        _check_backward(S, B.reshape(N, -1), X.reshape(N, -1))
    return X


# Modelled seconds of the two backends below DENSE_GUARD (see solve_array),
# fitted by nonnegative least squares on relative error, with BLAS at 1
# thread on a 2-vCPU x86-64 VM (Python 3.11, numpy 2.4, scipy 1.17), before
# the Kronecker split existed; no constant has moved since.  Below the guard
# the zero, exp, gaussian and separable kernels timed here now take the
# split, and only kernels that do not split reach GMRES or MINRES: poly,
# the rich model, any edge profile.
#
# LU path, s (assembly + lu_factor + gecon + lu_solve of m real columns):
#
#   grid   measured m = 1 / 64 / 1024     _t_lu m = 1 / 64 / 1024
#   16^2   0.0017  0.0025  0.0153         0.0018  0.0021  0.0067
#   24^2   0.0106  0.0133  0.0552         0.0105  0.0120  0.0356
#   32^2   0.0366  0.0421  0.1229         0.0403  0.0452  0.1198
#   48^2   0.339   0.368   0.640          0.307   0.332   0.710
#   64^2   1.72    1.81    2.57           1.43    1.51    2.70
#
# GMRES, ms per complex column of a 4-column block, k iterations per
# column (zero, exp, separable and rich kernels); (k + 1) _t_it, one
# matvec per iteration and one true residual, is within 10% of every
# entry except 16^2 at k = 1 (0.69x):
#
#   grid   k = 1   k = 2   k = 4   k = 6
#   16^2   0.31    0.30    0.56    0.77
#   24^2   0.24    0.39    0.66    0.93
#   32^2   0.35    0.51    0.83    1.19
#   48^2   0.60    0.81    1.39    1.91
#   64^2   0.85    1.46    2.25    3.10
#
# Complex columns are fitted because every multi-column caller passes
# them; a real column costs about 0.75x as much.  At k = 32 the model
# reads 0.4-0.7x of the measured time for a non-Hermitian S (Gram-Schmidt
# work grows with k), and under MINRES (O(N) more work per iteration) on
# the deconv kernel (k = 34) 0.6-0.75x from 16^2 to 64^2.  Either way the
# Krylov solve is then cheaper than LU by an order of magnitude from 48^2
# up, and the allowance bounds the loss below that.
ESTIMATE_SOLVES = 5     # solves of _cond_estimate, in the model


def _t_it(N: int) -> float:
    """Modelled seconds of one GMRES iteration at N unknowns."""
    return 9.2e-5 + 7.1e-9 * N * np.log2(N)


def _t_lu(N: int, m: int) -> float:
    """Modelled seconds of the LU path for m columns: assembly, factor,
    ``gecon`` and the triangular solves."""
    return 15.2e-12 * N ** 3 + 22.7e-9 * N ** 2 + 0.074e-9 * N ** 2 * m


def _lu_solve(S: ConvOperator, B: np.ndarray) -> np.ndarray:
    lu, piv, cond = S.solve_lu()
    _check_cond(cond)
    return _by_parts(lambda b: scipy.linalg.lu_solve((lu, piv.copy()), b), lu, B)


def _by_parts(f, M: np.ndarray, B: np.ndarray) -> np.ndarray:
    """``f(B)`` for an operation ``f`` linear over the reals with the
    matrix ``M``; a complex ``B`` against a real ``M`` goes as its real and
    imaginary parts, so no complex copy of ``M`` is made."""
    if np.iscomplexobj(B) and not np.iscomplexobj(M):
        return f(B.real) + 1j * f(B.imag)
    return f(B)


def _check_cond(cond: float) -> None:
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise SingularOperatorError(
            f"operator condition estimate {cond:.3e} exceeds {COND_LIMIT:.1e}",
            cond=cond,
        )


def _krylov_side(S: ConvOperator, B: np.ndarray) -> Optional[np.ndarray]:
    """S^{-1} B by the Kronecker split or GMRES when the rule of
    :func:`solve_array` picks the Krylov side and GMRES finishes within
    the LU's cost in FFT matvecs; None hands over to LU."""
    N = S.grid.size
    m = B.reshape(N, -1).shape[1]
    allowance = int(_t_lu(N, m) / _t_it(N))
    est = S._cond_est
    # before any estimate, 2: the fewest iterations measured on any kernel
    # but a multiple of the identity
    k = 2 if est is None else est[1]
    if (m + (ESTIMATE_SOLVES if est is None else 0)) * (k + 1) > allowance:
        return None
    X = _split_solve(S, B)
    if X is not None:
        return X
    est = S._cond_est       # a missed split check dropped its estimate
    try:
        if est is None:
            # the first solve stops once it, the estimate's other solves
            # and m columns like it overdraw
            solve = _GmresSolve(S, allowance, allowance // (ESTIMATE_SOLVES + m))
            est = S._cond_est = (_cond_estimate(S, solve), solve.first)
            allowance -= solve.spent
        _check_cond(est[0])
        if m * (est[1] + 1) > allowance:
            return None
        return _gmres(S, B, allowance)[0]
    except ConvergenceError:
        return None


def _split_solve(S: ConvOperator, B: np.ndarray) -> Optional[np.ndarray]:
    """S^{-1} B through the cached Kronecker split of S
    (:meth:`~diffkern2d.operators.ConvOperator.kron_split`), condition- and
    backward-checked, by its own ``KronSplit.solve``; None hands over when
    S has no split (the split refuses an elongated grid too), or when the
    solve is not finite or misses BACKWARD_TOL.  A miss also drops the split
    and the estimate its solves gave, so later solves take GMRES and
    estimate afresh."""
    split = S.kron_split()
    if split is None:
        return None
    if S._cond_est is None:
        S._cond_est = (_cond_estimate(S, split.solve), 0)
    _check_cond(S._cond_est[0])
    X = split.solve(B)
    if np.isfinite(X).all():
        try:
            _check_backward(S, B.reshape(len(B), -1), X.reshape(len(B), -1))
            return X
        except ConvergenceError:
            pass
    S._split, S._cond_est = False, None
    return None


def _gmres(S: ConvOperator, B: np.ndarray, matvecs=math.inf):
    """``(X, iterations, spent)``: S^{-1} B with the FFT matvec, one column
    at a time (:func:`_gmres_column`: MINRES for a Hermitian S, GMRES
    otherwise), with the iterations and FFT matvecs of all columns.  Each
    column may spend what the ones before it left of ``matvecs``; one that
    misses GMRES_RTOL within its limit, or meets a non-finite value,
    raises ConvergenceError.
    """
    N = S.grid.size
    dtype = np.result_type(S.lattice_kernel, B, float)
    cols = B.reshape(N, -1)
    X = np.empty(cols.shape, dtype=dtype)
    iterations = spent = 0
    for j in range(cols.shape[1]):
        X[:, j], k, used = _gmres_column(S, cols[:, j].astype(dtype), j, matvecs - spent)
        iterations += k
        spent += used
    return X.reshape(B.shape), iterations, spent


def _gmres_column(S: ConvOperator, b: np.ndarray, j: int, matvecs):
    """``(x, iterations, spent)``: S x = b for column ``j`` of a solve.

    A Hermitian S (``S.hermitian``) is solved by MINRES (Paige & Saunders,
    SIAM J. Numer. Anal. 12, 1975): the Lanczos three-term recurrence
    builds the same minimal-residual iterate as unrestarted GMRES from
    O(N) memory, and x is updated every iteration from the last two
    search directions, so a cycle needs no Krylov basis and no restart.
    Any other S is solved by GMRES restarted every GMRES_RESTART
    iterations (Saad & Schultz, SIAM J. Sci. Stat. Comput. 7, 1986), with
    classical Gram-Schmidt run twice (Giraud, Langou & Rozloznik, Comput.
    Math. Appl. 50, 2005).  Both take Givens rotations for the residual
    estimate.  The zero start needs no matvec; each cycle ends with the
    true residual b - S x, which alone decides convergence (the MINRES
    recurrence may drift from it: Sleijpen, van der Vorst & Modersitzki,
    SIAM J. Matrix Anal. Appl. 22, 2000), and a miss starts a new cycle
    from x.  So ``spent`` is one FFT matvec per iteration and one per
    cycle, and ||S x - b|| <= GMRES_RTOL ||b||.  It stops when its
    iterations reach GMRES_MAXITER or the ``matvecs`` left after one true
    residual per cycle so far, raising ConvergenceError with the estimates
    relative to ||b||, as a non-finite or singular step does at once.  It
    solves b scaled exactly by 2^-e, e the binary exponent of max |b_i|, so
    no norm of a finite b overflows; an x that overflows scaled back raises.
    """
    e = int(np.frexp(np.abs(b).max())[1])
    b = np.ldexp(b.view(b.real.dtype), -e).view(b.dtype)   # a complex b by its two parts
    history, x, r, cycles = [], np.zeros_like(b), b, 0
    lanczos = S.hermitian
    # the Krylov basis, or a ring of MINRES's last two Lanczos vectors
    V = np.empty((2 if lanczos else GMRES_RESTART + 1, b.size), b.dtype)
    R = np.zeros((GMRES_RESTART, GMRES_RESTART), b.dtype)   # the rotated Hessenberg matrix
    beta = bnorm = float(np.linalg.norm(b))
    tol = GMRES_RTOL * bnorm

    def fail(why):
        raise ConvergenceError(f"{'MINRES' if lanczos else 'GMRES'} {why} (column {j})",
                               residuals=history)

    while beta > tol:
        cycles += 1
        V[0] = r / beta
        g, rotations, hn = [beta], [], 0.0
        D = np.zeros((2, b.size), b.dtype) if lanczos else None   # MINRES directions
        for k in range(GMRES_MAXITER if lanczos else GMRES_RESTART):
            if len(history) >= min(GMRES_MAXITER, matvecs - cycles):
                fail(f"did not reach rtol={GMRES_RTOL} in {len(history)} iterations")
            v = V[k % len(V)]
            w = S.apply_fft(v)
            if lanczos:
                # S v_k = hn v_{k-1} + alpha v_k + ||w|| v_{k+1}, hn = ||w|| of
                # the step before; column k of the tridiagonal matrix from
                # row lo = max(k - 2, 0), all real
                alpha = float(np.vdot(v, w).real)
                w -= alpha * v
                if k:
                    w -= hn * V[(k - 1) % 2]
                lo, col = max(k - 2, 0), [0.0, hn, alpha][max(2 - k, 0):]
            else:
                basis = V[: k + 1]
                h = (basis @ w.conj()).conj()
                w -= h @ basis
                d = (basis @ w.conj()).conj()
                w -= d @ basis
                lo, col = 0, (h + d).tolist()
            hn = float(np.linalg.norm(w))
            for i, (c, s) in enumerate(rotations[lo:]):   # earlier ones meet zeros
                col[i], col[i + 1] = (c * col[i] + s * col[i + 1],
                                      c * col[i + 1] - s.conjugate() * col[i])
            a = col[-1]
            pivot = math.hypot(abs(a), hn)
            if not 0.0 < pivot < math.inf:
                fail(f"met a non-finite or singular step at iteration {len(history) + 1}")
            phase = a / abs(a) if a else 1.0
            c, s = abs(a) / pivot, phase * hn / pivot
            rotations.append((c, s))
            g[k:] = [c * g[k], -s.conjugate() * g[k]]
            history.append(abs(g[k + 1]) / bnorm)
            if lanczos:
                # d_k = (v_k - R[k-1, k] d_{k-1} - R[k-2, k] d_{k-2}) / R[k, k]
                r2, r1 = ([0.0, 0.0] + col[:-1])[-2:]
                D[k % 2] = (v - r1 * D[(k - 1) % 2] - r2 * D[k % 2]) / (phase * pivot)
                x += g[k] * D[k % 2]
            else:
                R[: k + 1, k] = col[:k] + [phase * pivot]
            if abs(g[k + 1]) <= tol:
                break
            V[(k + 1) % len(V)] = w / hn
        if not lanczos:
            y = scipy.linalg.solve_triangular(R[: k + 1, : k + 1], g[: k + 1], check_finite=False)
            x += y @ V[: k + 1]
        r = b - S.apply_fft(x)
        beta = float(np.linalg.norm(r))
        if not math.isfinite(beta):
            fail(f"true residual is {beta} after {len(history)} iterations")
    with np.errstate(over="ignore"):
        x = np.ldexp(x.view(x.real.dtype), e).view(x.dtype)
    if not np.isfinite(x).all():
        fail(f"solution overflows when scaled back by 2^{e}")
    return x, len(history), len(history) + cycles


class _GmresSolve:
    """b -> S^{-1} b by :func:`_gmres` for :func:`_cond_estimate`: the
    first solve may spend ``first_matvecs`` FFT matvecs and all of them
    ``matvecs``.  ``first`` counts the first solve's iterations and
    ``spent`` the FFT matvecs of all."""

    def __init__(self, S: ConvOperator, matvecs=math.inf, first_matvecs=math.inf):
        self.S, self.matvecs, self.first_matvecs = S, matvecs, first_matvecs
        self.first: Optional[int] = None
        self.spent = 0

    def __call__(self, b: np.ndarray) -> np.ndarray:
        limit = self.first_matvecs if self.first is None else self.matvecs - self.spent
        x, k, used = _gmres(self.S, b.ravel(), limit)
        self.spent += used
        self.first = k if self.first is None else self.first
        return x


def _cond_estimate(S: ConvOperator, solve) -> float:
    """A 1-norm condition estimate of S from ``solve``, b -> S^{-1} b for
    a flat b: the Kronecker split's (``KronSplit.solve``) or GMRES's
    (:class:`_GmresSolve`).

    scipy's ``onenormest`` at t = 1 (Higham & Tisseur, SIAM J. Matrix
    Anal. Appl. 21, 2000) is Hager's estimator of ||S^{-1}||_1 (SIAM J.
    Sci. Stat. Comput. 5, 1984): from ones / N, at most 5 rounds and no
    random numbers.  One extra solve with x_i = (-1)^i (1 + i / (N - 1))
    gives the lower bound 2 ||S^{-1} x||_1 / (3 N) (Higham, ACM TOMS 14,
    1988); the larger bound times the exact ||S||_1 is the estimate.  S is
    persymmetric, J S J = S^T for the index reversal J, so S^{-H} b =
    J conj(S^{-1} J conj(b)) is a solve against S too.
    """
    # imported here so that ``import diffkern2d`` leaves scipy.sparse unloaded
    import scipy.sparse.linalg

    N = S.grid.size
    op = scipy.sparse.linalg.LinearOperator(
        (N, N), matvec=solve, rmatvec=lambda b: solve(b[::-1].conj())[::-1].conj(),
        dtype=np.result_type(S.lattice_kernel, float))
    est = scipy.sparse.linalg.onenormest(op, t=1)
    i = np.arange(N)
    alt = (-1.0) ** i * (1.0 + i / max(N - 1, 1))
    est = max(float(est), 2.0 * float(np.abs(solve(alt)).sum()) / (3 * N))
    return est * S.norm1()


def _check_backward(S: ConvOperator, B: np.ndarray, X: np.ndarray) -> None:
    """Raise ConvergenceError unless every column of the (N, m) solve ``X``
    of ``B`` has ||S x - b|| / ||b|| within BACKWARD_TOL; a nan backward
    error fails.  S x is the FFT matvec over the column blocks of
    :func:`_blocks`, independent of any assembled matrix."""
    for cols in _blocks(*B.shape):
        b = B[:, cols]
        # norms scaled by each column's largest |b|, so no square overflows
        scale = np.abs(b).max(axis=0)
        scale[scale == 0] = 1.0
        bnorm = np.linalg.norm(b / scale, axis=0)
        res = np.linalg.norm((S.apply_fft(X[:, cols]) - b) / scale, axis=0)
        back = np.divide(res, bnorm, out=res, where=bnorm > 0)
        worst = int(np.argmax(back))
        if not back[worst] <= BACKWARD_TOL:
            raise ConvergenceError(
                f"backward error {back[worst]:.3e} above {BACKWARD_TOL:.1e} "
                f"(column {cols.start + worst})",
                residuals=[float(back[worst])],
            )


def _eye_residuals(S: ConvOperator, X: np.ndarray, blocks):
    """S X[:, b] - I[:, b] by the FFT matvec for each column slice b of ``blocks``."""
    for b in blocks:
        D = S.apply_fft(np.ascontiguousarray(X[:, b]))
        k = np.arange(D.shape[1])
        D[b.start + k, k] -= 1.0
        yield D


def _inverse_residual(S: ConvOperator, X: np.ndarray) -> float:
    """||S X - I||_F, by the FFT matvec over the cache-sized column blocks
    of :func:`_blocks`, so the work arrays stay bounded."""
    D = _eye_residuals(S, X, _blocks(*X.shape))
    return float(np.linalg.norm([np.linalg.norm(d) for d in D]))


# --------------------------------------------------------------------------
# pair blocks g_ik and their flip symmetry
# --------------------------------------------------------------------------


def _g_block(i: int, pi_hat: np.ndarray, kops: Dict[str, np.ndarray],
             X: np.ndarray) -> np.ndarray:
    """g_ik = [K_3i; K_1i] [I 0] - PiHat_k X, k = 3 - i, from X = S^{-1} Pi_i,
    one column per pair basis vector: a dense (2 n_i, 2 n_k) block taking
    a stacked pair of side-k functions to a stacked pair of side-i ones.
    The first term acts on the first pair component only, and it is real
    when the kernel is.  Overflow raises no floating-point warning."""
    K = np.vstack([kops[f"K3{i}"], kops[f"K1{i}"]])
    with np.errstate(over="ignore", invalid="ignore"):
        g = np.hstack([K, np.zeros_like(K)]) - pi_hat @ X
    if not np.isfinite(g).all():
        raise InvalidArgumentError(f"g_{i}{3 - i} has non-finite entries")
    return g


def _check_block(g: np.ndarray, grid: GridSpec, i: int) -> np.ndarray:
    """``g`` as an array, which must be shaped as g_ik, (2 n_i, 2 n_k) with
    k = 3 - i."""
    g = np.asarray(g)
    want = (2 * grid.axis_n(i), 2 * grid.axis_n(3 - i))
    if g.shape != want:
        raise InvalidArgumentError(f"g_{i}{3 - i} must have shape {want}, got {g.shape}")
    return g


def compute_g_blocks(S: ConvOperator, samples: KernelSamples,
                     pis: Optional[Dict[int, PiPair]] = None) -> Tuple[np.ndarray, np.ndarray]:
    """Both blocks (g_12, g_21) from one operator and the factor pairs of
    both axes, ``pis`` or else assembled from ``samples``.

    Pi_1 and Pi_2 are solved in one call, so the backend choice of
    :func:`solve_array` weighs all 2 (n1 + n2) columns against one LU.
    """
    pis = pis or {k: assemble_pi(samples, k) for k in (1, 2)}
    kops = {nm: k_op(samples, nm) for nm in ("K11", "K12", "K31", "K32")}
    X = solve_array(S, np.hstack([pis[1].pi, pis[2].pi]))
    split = 2 * S.grid.n2                      # Pi_1 has 2 n2 columns
    return (_g_block(1, pis[2].pi_hat, kops, X[:, :split]),
            _g_block(2, pis[1].pi_hat, kops, X[:, split:]))


def pair_flip_transform(g: np.ndarray, grid: GridSpec, i: int) -> np.ndarray:
    """-U_k J_k g_ik^* J_i U_i, k = 3 - i, as a (2 n_k, 2 n_i) block from
    the (2 n_i, 2 n_k) block ``g``, real when ``g`` is; any other shape is
    an InvalidArgumentError.

    U_j reflects a pair across the side midpoint and conjugates; on
    midpoint samples the reflection is the index reversal rev.
    J_j = i [[0, -I], [I, 0]], and g_ik^* = (h_i / h_k) g^H under the
    h-weighted pair inner products.  Both U factors carry a conjugation,
    so the composite is linear: both P_k conj(J_k) and conj(J_i) P_i,
    with P the pair reversal, are K_n = -i [[0, -rev], [rev, 0]], and
    the matrix is -(h_i / h_k) K_{n_k} g^T K_{n_i}: g^T reversed along
    both axes, its first n_k rows and last n_i columns negated, times
    h_i / h_k.
    """
    g = _check_block(g, grid, i)
    k = 3 - i
    sk = np.repeat([-1.0, 1.0], grid.axis_n(k))[:, None]
    si = np.repeat([1.0, -1.0], grid.axis_n(i))
    return (grid.axis_h(i) / grid.axis_h(k)) * sk * g.T[::-1, ::-1] * si


def g_symmetry_residual(g12: np.ndarray, g21: np.ndarray, grid: GridSpec) -> float:
    """|| g_21 - (-U_2 J_2 g_12^* J_1 U_1) || / || g_21 ||, Frobenius."""
    g21 = _check_block(g21, grid, 2)
    pred = pair_flip_transform(g12, grid, 1)
    return float(np.linalg.norm(g21 - pred) / np.linalg.norm(g21))


# --------------------------------------------------------------------------
# the evaluator: h, theta, G, psi, rho
# --------------------------------------------------------------------------


def y_samples(samples: KernelSamples) -> np.ndarray:
    """y(x) = s(x1 - omega1, x2 - omega2) at the midpoints, flat layout.

    x - omega = -(omega - x), and omega - x runs over the midpoints in
    reverse, so y is s(-t1, -t2) read backwards along both axes.
    """
    return samples.s_neg_neg()[::-1, ::-1].T.reshape(samples.grid.size)


class RhoEvaluator:
    """Holds g_12 and the h samples; evaluates theta, psi and rho.

    g_21 is derived from g_12 by the exact flip (:func:`pair_flip_transform`),
    so the pair is consistent by construction.  It writes no state after
    construction, so threads may share it.
    """

    def __init__(self, grid: GridSpec, g12: np.ndarray, h_values: np.ndarray):
        h_values = np.asarray(h_values)
        if h_values.shape != (grid.size,):
            raise InvalidArgumentError(
                f"h must have shape ({grid.size},), got {h_values.shape}")
        self.g21 = pair_flip_transform(g12, grid, 1)
        self.g12 = np.asarray(g12)
        self.h_values = h_values
        self.grid = grid

    # -- scalar normalizer ------------------------------------------------

    def _theta(self, lam) -> complex:
        l1, l2 = complex(lam[0]), complex(lam[1])
        if l1 == 0 or l2 == 0:
            return 1.0 + 0j
        g = self.grid
        e1 = np.exp(1j * l1 * (g.omega1 - g.x1))
        e2 = np.exp(1j * l2 * (g.omega2 - g.x2))
        E = g.outer_flat(e1, e2)
        return complex(1.0 + l1 * l2 * g.h1 * g.h2 * np.sum(E * self.h_values))

    # -- coupling matrix ---------------------------------------------------

    def _assemble_G(self, lam) -> np.ndarray:
        l1, l2 = complex(lam[0]), complex(lam[1])
        g = self.grid
        n1, n2 = g.n1, g.n2
        T1 = np.eye(n1) - l1 * line_integration_op(g, 1)
        T2 = np.eye(n2) - l2 * line_integration_op(g, 2)
        G = np.zeros((2 * (n1 + n2), 2 * (n1 + n2)), dtype=complex, order="F")
        G[:n1, :n1] = T1
        G[n1:2 * n1, n1:2 * n1] = T1
        G[2 * n1:2 * n1 + n2, 2 * n1:2 * n1 + n2] = T2
        G[2 * n1 + n2:, 2 * n1 + n2:] = T2
        G[:2 * n1, 2 * n1:] = 1j * l2 * self.g12
        G[2 * n1:, :2 * n1] = 1j * l1 * self.g21
        return G

    # -- special solutions -------------------------------------------------

    def psi(self, lam) -> Tuple[np.ndarray, np.ndarray]:
        """psi(lam) = theta(lam) G(lam)^{-1} col[0, 1, 0, 1], split by side;
        ``lam`` must be one finite pair, shape (2,).  Each call assembles
        G(lam) afresh in Fortran order and factors it in place; its LU lives
        only in this call."""
        if np.shape(lam) != (2,):
            raise InvalidArgumentError(f"lam must be one pair, shape (2,); got {np.shape(lam)}")
        key = tuple(map(complex, _pairs(lam, "lam")[0]))
        g = self.grid
        n1, n2 = g.n1, g.n2
        G = self._assemble_G(key)
        lu, piv, cond = lu_factor_cond(G, np.linalg.norm(G, 1))
        if cond > COND_LIMIT:
            raise NearSingularGError(
                f"G(lam) condition estimate {cond:.3e} exceeds {COND_LIMIT:.1e} "
                f"at lam={key}", lam=key, cond=cond,
            )
        rhs = np.concatenate(
            [np.zeros(n1), np.ones(n1), np.zeros(n2), np.ones(n2)]
        ).astype(complex)
        x = scipy.linalg.lu_solve((lu, piv), rhs)
        th = self._theta(key)
        return th * x[: 2 * n1], th * x[2 * n1:]


def build_rho_evaluator(S: ConvOperator, samples: KernelSamples) -> RhoEvaluator:
    """g_12 and h = S^{-1} y from one solve of the 2 n2 + 1 columns
    [Pi_1 | y], wrapped in an evaluator, which derives g_21.  Of the two
    factor pairs only Pi_1 and PiHat_2 are built."""
    kops = {nm: k_op(samples, nm) for nm in ("K11", "K31")}
    X = solve_array(S, np.column_stack([pi_factor(samples, 1), y_samples(samples)]))
    g12 = _g_block(1, pi_factor(samples, 2, hat=True), kops, X[:, :-1])
    return RhoEvaluator(S.grid, g12, X[:, -1].copy())


# --------------------------------------------------------------------------
# rho evaluation
# --------------------------------------------------------------------------


def _exp_grid(grid: GridSpec, lams) -> np.ndarray:
    """Columns e^{i lam x} at the midpoints, flat layout: (N, k) for k pairs."""
    lams = np.asarray(lams, dtype=complex).reshape(-1, 2)
    e1 = np.exp(1j * grid.x1[:, None] * lams[:, 0])
    e2 = np.exp(1j * grid.x2[:, None] * lams[:, 1])
    return (e2[:, None, :] * e1[None, :, :]).reshape(grid.size, -1)


def _pairs(x, name: str) -> np.ndarray:
    """``x``, finite and of shape (2,) or (k, 2), as a complex (k, 2) array."""
    a = np.asarray(x, dtype=complex)
    if a.shape != (2,) and not (a.ndim == 2 and a.shape[1] == 2 and len(a)):
        raise InvalidArgumentError(f"{name} must have shape (2,) or (k, 2), got {a.shape}")
    if not np.isfinite(a).all():
        raise InvalidArgumentError(f"{name} must be finite")
    return a.reshape(-1, 2)


def rho_direct(S: ConvOperator, lam, mu):
    """rho(lam, mu) by quadrature of e^{-i mu x} S^{-1} e^{i lam x}.

    ``lam`` and ``mu`` are each one pair (l1, l2), giving a complex, or a
    (k, 2) array of pairs, giving the (k_lam, k_mu) block of rho from one
    batched solve over the distinct lam.  Any other shape is an
    InvalidArgumentError.
    """
    g = S.grid
    lams, where = np.unique(_pairs(lam, "lam"), axis=0, return_inverse=True)
    Em = _exp_grid(g, -_pairs(mu, "mu"))
    X = solve_array(S, _exp_grid(g, lams))
    R = g.h1 * g.h2 * (X.T @ Em)[where.reshape(-1)]
    if np.ndim(lam) == 1 and np.ndim(mu) == 1:
        return complex(R[0, 0])
    return R


# a coordinate k is separated when |mu_k - lam_k| >= POLE_RTOL max(1, |lam_k|)
POLE_RTOL = 1e-6


def structured_axes(lam, mu, i: Optional[int] = None):
    """``(axis, admissible)`` of :func:`rho_structured` for lam and mu of
    shape (2,) or (k, 2), as two (k_lam, k_mu) arrays: the side i whose
    form evaluates each pair (``i``, or the axis with the larger separation
    when it is None), and whether mu_k is separated from lam_k for the
    other axis k = 3 - i (see POLE_RTOL)."""
    if i not in (None, 1, 2):
        raise InvalidArgumentError(f"axis must be 1 or 2, got {i}")
    lams, mus = _pairs(lam, "lam")[:, None], _pairs(mu, "mu")[None]
    gap = np.abs(mus - lams)
    sep = gap >= POLE_RTOL * np.maximum(1.0, np.abs(lams))
    # prefer the axis with the larger separation: the 1/(mu_k - lam_k)
    # prefactor amplifies quadrature error near a coincidence
    axis = (np.where(sep[..., 1] & (~sep[..., 0] | (gap[..., 1] >= gap[..., 0])), 1, 2)
            if i is None else np.full(gap.shape[:2], i))
    return axis, np.where(axis == 1, sep[..., 1], sep[..., 0])


def rho_structured(ev: RhoEvaluator, lam, mu, i: Optional[int] = None):
    """rho from the structured representation, integrating over side i.

    rho = (mu_k - lam_k)^{-1} e^{-i omega . mu}
          * h_i sum_a conj((J_i U_i psi_i(mu))(a)) . psi_i(lam)(a)

    with k = 3 - i; :func:`structured_axes` picks i and the admissible
    pairs.  One pair each of ``lam`` and ``mu`` gives a complex, (k, 2)
    arrays the (k_lam, k_mu) block, nan at inadmissible pairs, from psi at
    each distinct lam and mu and one matrix product per side.  A single
    inadmissible pair raises UnsupportedEvaluationError if it coincides in
    both coordinates (no limit formula is evaluated at the removable
    singularity), else PoleProximityError naming the other form.
    """
    axis, ok = structured_axes(lam, mu, i)
    lams, mus = _pairs(lam, "lam"), _pairs(mu, "mu")
    one = np.ndim(lam) == np.ndim(mu) == 1
    if one and not ok[0, 0] and (i is None or not structured_axes(lam, mu)[1][0, 0]):
        raise UnsupportedEvaluationError(
            "mu coincides with lam in both coordinates at "
            f"lam={tuple(map(complex, lams[0]))}, mu={tuple(map(complex, mus[0]))}")
    if one and not ok[0, 0]:
        raise PoleProximityError(f"|mu_{3 - i} - lam_{3 - i}| below pole tolerance; "
                                 f"use the i={3 - i} form", suggested_axis=3 - i)
    R = np.full(ok.shape, complex(np.nan, np.nan))
    if ok.any():
        g = ev.grid
        (ul, li), (um, mi) = (np.unique(p, axis=0, return_inverse=True) for p in (lams, mus))
        # psi once per distinct pair of lam and mu together
        both, which = np.unique(np.concatenate([ul, um]), axis=0, return_inverse=True)
        psis = [ev.psi(p) for p in both]
        which = which.reshape(-1)
        psi_l, psi_m = [psis[j] for j in which[:len(ul)]], [psis[j] for j in which[len(ul):]]
        quad = []
        for s in (0, 1):
            # [p2, -p1] for p = psi_i(mu, omega_i - x_i), the exact index
            # reversal on midpoints, which also swaps the two halves
            W = np.array([p[s][::-1] for p in psi_m]) * np.repeat([1, -1], g.axis_n(s + 1))
            QW = np.array([p[s] for p in psi_l]) @ W.T
            quad.append(1j * g.axis_h(s + 1) * QW[li.reshape(-1)][:, mi.reshape(-1)])
        d = mus[None] - lams[:, None]
        denom = np.where(ok, np.where(axis == 1, d[..., 1], d[..., 0]), 1.0)
        pref = np.exp(-1j * (g.omega1 * mus[:, 0] + g.omega2 * mus[:, 1]))
        R[ok] = (pref / denom * np.where(axis == 1, *quad))[ok]
    return complex(R[0, 0]) if one else R


# --------------------------------------------------------------------------
# exact inverse reconstruction from rho
# --------------------------------------------------------------------------


def dft_frequencies(grid: GridSpec) -> Tuple[np.ndarray, np.ndarray]:
    """Frequencies 2 pi m / omega_i with m in [-n_i/2, n_i/2).

    Midpoint-sampled exponentials at these frequencies are exactly
    orthogonal under the weighted inner product.
    """
    m1 = np.arange(-(grid.n1 // 2), grid.n1 - grid.n1 // 2)
    m2 = np.arange(-(grid.n2 // 2), grid.n2 - grid.n2 // 2)
    return 2 * np.pi * m1 / grid.omega1, 2 * np.pi * m2 / grid.omega2


def _basis_factors(grid: GridSpec) -> Tuple[np.ndarray, np.ndarray]:
    """The n_i x n_i sampled exponentials E1, E2 of the DFT basis
    E = E2 (x) E1: E_i[j, m] = e^{i lam_m x_j} = e^{2 pi i m (j + 1/2) / n_i}."""
    l1, l2 = dft_frequencies(grid)
    return (np.exp(1j * grid.x1[:, None] * l1),
            np.exp(1j * grid.x2[:, None] * l2))


def _apply_basis(E1: np.ndarray, E2: np.ndarray, grid: GridSpec, X: np.ndarray) -> np.ndarray:
    """(E2 (x) E1) X for n_i x n_i factors E_i, columns lam1-fastest,
    applied axis by axis."""
    return apply_along(E2, apply_along(E1, X, grid, 1), grid, 2)


def build_rho_table(S: ConvOperator) -> np.ndarray:
    """rho on the full DFT frequency grid from the generator of S^{-1}.

    Returns the (N, N) Fortran-ordered array R with R[p, q] =
    rho(lam_q, mu_p), where lam and mu run over the pairs of
    :func:`dft_frequencies`, flattened lam1-fastest like the grid: pair q
    is (l1[q % n1], l2[q // n1]).  R = h1 h2 E^H X E with X = S^{-1}.

    With (G, H) = ``discrete_generator(S, 1)``, X obeys X A_1 - A_1^* X =
    U V, U = X G and V = H X.  One solve of the 3 n2 columns [Phi, One,
    J Psi^T] (:func:`~diffkern2d.operators.generator_parts`; real for a
    real S) gives both: S^T = J S J, so One^T X = (J X J One)^T and
    Psi X = (J X J Psi^T)^T.  On the DFT basis calA_1 e_lam = d_lam e_lam -
    (h1 / (2 s_lam)) e_lam2 (x) 1, with s_lam = sin(lam1 h1 / 2), so

        (h1/2) sin((mu1 - lam1) h1/2) R / (h1 h2)
            = s_lam s_mu (E^H U)(V E) + (h1/2) s_mu T_1 - (h1/2) s_lam T_2,

    T_1 = e_mu^H X (e_lam2 (x) 1) and T_2 = (e_mu2 (x) 1)^H X e_lam, both
    read from X One.  Where mu1 = lam1 the sine vanishes, and R is the
    mu1-derivative of the right side, which adds E^H (x1 . U).  The axis
    products are n_i x n_i (:func:`_apply_basis`); the one N x N array is
    R, filled a block of rows of R^T at a time (:func:`_blocks`).

    This is the inversion-formula route of Kailath, Kung & Morf (J. Math.
    Anal. Appl. 68, 1979) and Heinig & Rost (1984).  It is forward-stable
    but not backward-stable: its T has a forward error near cond eps, as
    the dense inverse's has, but a residual ||S T - I|| near cond^2 eps.
    So above GENERATOR_COND, for the 1-norm condition estimate that the
    solve left on S (``gecon`` on the LU path, ``onenormest`` on the
    Kronecker split or the GMRES path), :func:`inverse_from_rho` refines T
    by one Newton-Schulz step.
    An LU that this call's own solve factored is dropped before R is
    allocated; one the caller factored stays.  ``reconstruction_error``
    from the N unit columns solved by the LU / the generator / the
    generator and the step, at 32x32 unless noted, with the estimate in
    brackets (-: no step):

        exp                            2.3e-13 / 5.3e-13 / -         [1.3]
        gaussian amp 8, width 0.15     4.1e-13 / 1.3e-11 / -         [574]
          the same at 64x64            1.7e-12 / 5.1e-11 / -         [621]
          at 31x33 on 1.7 x 0.9        6.9e-13 / 1.2e-10 / 2.5e-14   [2,101]
        gaussian amp 20, width 0.1     8.2e-13 / 4.1e-10 / 4.3e-14   [3,516]
        gaussian amp 40, width 0.08    2.1e-12 / 1.4e-9  / 1.6e-13   [26,786]
        gaussian amp 60, width 0.07    7.7e-12 / 1.2e-8  / 4.8e-13   [44,573]

    The generator reads at most cond^2 eps on every gaussian row, so below
    the guard, cond^2 eps <= BACKWARD_TOL / 10 (cond <= 671), it stays 10x
    inside the 1e-9 tolerance of ``reconstruct``; R is within 4e-11 of the
    dense table on the last three.  Refused above DENSE_GUARD before solving.
    """
    return _rho_table(S)[0]


def _rho_table(S: ConvOperator) -> Tuple[np.ndarray, float]:
    """:func:`build_rho_table`'s R and the condition estimate of S it left."""
    g = S.grid
    check_dense_guard(g, "rho table")
    n1, n2, h1 = g.n1, g.n2, g.h1
    own_lu = S._lu is None
    U, V = _generator_solve(S)
    cond = S._lu[2] if S._lu is not None else S._cond_est[0]
    if own_lu:
        S._lu = None
    E1, E2 = _basis_factors(g)
    E1H, E2H = E1.conj().T, E2.conj().T
    B = _apply_basis(E1H, E2H, g, U)                                   # E^H U, [p, :]
    U *= np.tile(g.x1, n2)[:, None]
    Bx = _apply_basis(E1H, E2H, g, U)                                  # E^H (x1 . U)
    C = _apply_basis(E1.T, E2.T, g, V.T)                               # (V E)^T, [q, :]
    del U, V
    # X One = (i / h1) U's last n2 columns and One^T X is V's first n2 rows
    T1, T1x = ((1j / h1) * (A[:, n2:] @ E2) for A in (B, Bx))         # [p, q2]
    T2 = C[:, :n2] @ E2.conj()                                         # [q, p2]
    theta = np.pi * np.arange(-(n1 // 2), n1 - n1 // 2) / n1           # lam1 h1 / 2
    s, c = np.sin(theta), np.cos(theta)
    hh = g.h1 * g.h2

    # where mu1 = lam1 (m = p1 = q1), the mu1-derivative, with s = s_m, c = c_m
    # and T1x = E^H (x1 . X One) E2 (d/dmu1 of e_mu^H is -i (x1 . e_mu)^H):
    # R / (h1 h2) = (2/h1) s c (E^H U)(V E) - i (2/h1)^2 s^2 (E^H (x1 . U))(V E)
    #               + c T_1 - i (2/h1) s T1x, as [m, p2, q2]
    def by_m(A):
        return A.reshape(n2, n1, -1).transpose(1, 0, 2)

    Cm = by_m(C).transpose(0, 2, 1)
    sm, cm = s[:, None, None], c[:, None, None]
    diag = by_m(B) @ Cm
    diag *= (2 / h1) * sm * cm
    diag -= (1j * (2 / h1) ** 2 * sm ** 2) * (by_m(Bx) @ Cm)
    diag += cm * by_m(T1)
    diag -= (1j * (2 / h1) * sm) * by_m(T1x)
    diag *= hh
    del Bx, T1x, Cm

    # elsewhere divide by the sine of (mu1 - lam1) h1 / 2, [q1, p1]; 0 where it vanishes
    d = np.arange(n1)
    inv_sine = np.zeros((n1, n1))
    np.divide(1.0, np.sin(np.pi * (d[None, :] - d[:, None]) / n1), out=inv_sine,
              where=d[None, :] != d[:, None])
    s_flat = s[np.arange(g.size) % n1][:, None]                        # s of row p or q
    B *= s_flat                                                         # [p, :]
    C *= (2 * hh / h1) * s_flat                                         # [q, :]
    T1 *= hh * s_flat                                                   # [p, q2]
    T2 *= hh * s_flat                                                   # [q, p2]
    R = np.empty((g.size, g.size), complex, order="F")
    RT = R.T                                                            # [q, p], C-ordered
    for cols in _blocks(g.size):
        q = np.arange(g.size)[cols]
        block = np.matmul(C[cols], B.T, out=RT[cols])
        block += T1.T[q // n1]
        block -= np.repeat(T2[cols], n1, axis=1)
        block *= np.tile(inv_sine[q % n1], n2)
    m = np.arange(n1)
    RT.reshape(n2, n1, n2, n1)[:, m, :, m] = diag.transpose(0, 2, 1)
    return R, cond


def _generator_solve(S: ConvOperator) -> Tuple[np.ndarray, np.ndarray]:
    """``(U, V) = (X G, H X)`` for X = S^{-1} and ``(G, H) =
    discrete_generator(S, 1)``, from one solve of the 3 n2 columns
    [Phi, One, J Psi^T], real for a real S: G = i h1 [Phi, -One], and
    by persymmetry, J S J = S^T, One^T X = (J X J One)^T with J One = One
    column-reversed, and Psi X = (J X J Psi^T)^T."""
    n2 = S.grid.n2
    Phi, One, Psi = generator_parts(S, 1)
    Y = solve_array(S, np.hstack([Phi, One, Psi.T[::-1]]))
    U = 1j * S.grid.h1 * np.hstack([Y[:, :n2], -Y[:, n2:2 * n2]])
    V = np.hstack([Y[::-1, 2 * n2 - 1:n2 - 1:-1], Y[::-1, 2 * n2:]]).T
    return U, V


def inverse_from_rho(S: ConvOperator) -> np.ndarray:
    """Dense S^{-1} from its rho table: T = E R E^H / (omega1 omega2 n1 n2).

    Exact at the discrete level because the sampled exponentials form an
    orthogonal basis.  E R and E (E R)^H = (E R E^H)^H are each evaluated
    axis by axis, in place on the table, E on a block of its columns and
    then E^H on a block of its rows at a time.  For a real lattice kernel
    the exact T is real: its real part is written over the first half of
    the table's buffer, a block of columns at a time, and T is a float64
    view of that buffer; otherwise T is the table's array.  Above
    GENERATOR_COND one Newton-Schulz step refines T, for a real kernel
    over the second half of that buffer; a complex T fills the buffer, so
    its step takes one more complex N x N array.  T is Fortran-ordered,
    like the unblocked (E R E^H)^H transposed, which fixes the summation
    order of svds in ``cond_S``.  ``reconstruct`` judges T by ||S T - I||_F
    and ||T S - I||_F, both by the FFT matvec.  Like the table, T is
    refused above DENSE_GUARD.
    """
    if not isinstance(S, ConvOperator):
        raise InvalidArgumentError(f"expected a ConvOperator, got {type(S).__name__}")
    R, cond = _rho_table(S)
    g = S.grid
    E1, E2 = _basis_factors(g)
    for cols in _blocks(g.size):
        R[:, cols] = _apply_basis(E1, E2, g, R[:, cols])
    # R.T becomes TH = E (E R)^H = (E R E^H)^H a block of columns at a time
    for rows in _blocks(g.size):
        R.T[:, rows] = _apply_basis(E1, E2, g, R[rows].conj().T)
    scale = 1.0 / (g.omega1 * g.omega2 * g.size)
    if np.iscomplexobj(S.lattice_kernel):
        np.conjugate(R, out=R)
        R *= scale
        T, out = R, None
    else:
        # the real T in the first half of R's buffer, Fortran-ordered: column j
        # of T lies in column j // 2 of R, so columns taken in increasing order
        # are read before they are written over; the second half is then free
        T, out = (R.T.reshape(-1).view(float)[k * R.size:(k + 1) * R.size].reshape(R.shape).T
                  for k in (0, 1))
        for cols in _blocks(g.size):
            np.multiply(R[:, cols].real, scale, out=T[:, cols])
    if cond <= GENERATOR_COND:
        return T
    # T + T (I - S T) (Schulz, ZAMM 13, 1933; Pan & Schreiber, SIAM J. Sci. Stat. Comput. 12,
    # 1991): residual cond^2 eps -> cond eps.  A panel P of N / 8 columns at a time, D = S T[:, P]
    # - I[:, P] over P's _blocks, then out[:, P]^T = D^T T^T, one GEMM on C-ordered operands; on
    # 8-column panels it is memory-bound (48x48, BLAS at 1 thread: 3.9 s, against 1.6 s at 256)
    out = np.empty_like(T) if out is None else out
    blocks = _blocks(g.size)
    k = -(-len(blocks) // 8)
    for panel in (blocks[i:i + k] for i in range(0, len(blocks), k)):
        D = np.hstack(list(_eye_residuals(S, T, panel)))
        P = slice(panel[0].start, panel[0].start + D.shape[1])
        np.matmul(D.T, T.T, out=out[:, P].T)
        np.subtract(T[:, P], out[:, P], out=out[:, P])
    return out
