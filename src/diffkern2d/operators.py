"""Discrete operators on the rectangle and the identity checks.

Contains the convolution operator S (FFT fast path plus guarded dense
assembly), the side antiderivatives calA_k, the eight one-sided building
blocks M_jk, the K-family, the factor pairs Pi_k / PiHat_k, and the
residual / rank diagnostics for the two families of displacement
identities

    A_k S - S A_k^*           = i Pi_k PiHat_k            (on the rectangle)
    calA_i M_4k - M_4k A_i^*  = i (K_1i M_2i + K_2i K_4)  (on a side, i != k)

All derivative-containing definitions are realized derivative-free: the
sign factors of the kernel are expanded analytically (d/dx sgn = 2 delta),
so only smooth samples and quadrature sums appear below.  The grid
operators A_k and A_k^* are calA_k and its adjoint applied along axis k
(:func:`apply_along`); no N x N Kronecker matrix is formed.

The displacement D_k = A_k S - S A_k^* has an exact thin generator,
read from prefix sums of the lattice kernel because calA - calA^* =
i h 1 1^T (:func:`discrete_generator`); its rank is counted from the
2 n_i x 2 n_i core of the two factors, without forming D.  The identity
residual reads the dense S (so it runs up to DENSE_GUARD) but never
multiplies by calA_k: since calA = i h (L + I/2), with L the strict lower
all-ones matrix, D_k is i h_k times a sum of prefix sums of S
(:func:`displacement_identity_residual`), in S's own dtype.
"""

from __future__ import annotations

import threading
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.fft
import scipy.linalg
from scipy.linalg import get_lapack_funcs

from .errors import InvalidArgumentError
from .grid import GridSpec, KernelSamples

__all__ = [
    "ConvOperator",
    "PiPair",
    "lu_factor_cond",
    "line_integration_op",
    "apply_along",
    "m_op",
    "k_op",
    "assemble_pi",
    "pi_factor",
    "displacement_identity_residual",
    "m4_identity_residual",
    "discrete_generator",
    "generator_parts",
    "displacement_rank",
    "DENSE_GUARD",
    "check_dense_guard",
]

# ConvOperator.dense, its LU and the rho table refuse grids with more points than
# this (each N x N array, and the identity checks on the dense S, are
# O(N^2) memory); above it solve_array runs GMRES with the FFT matvec.
DENSE_GUARD = 64 * 64


def check_dense_guard(grid: GridSpec, what: str) -> None:
    """InvalidArgumentError refusing ``what``, an N x N array, above DENSE_GUARD."""
    if grid.size > DENSE_GUARD:
        raise InvalidArgumentError(f"{what} refused at {grid.n1}x{grid.n2} ({grid.size} "
                                   f"points); keep n1*n2 <= {DENSE_GUARD}")


# --------------------------------------------------------------------------
# the convolution operator S
# --------------------------------------------------------------------------


class ConvOperator:
    """S = c I + per-axis convolutions + full 2-D convolution.

    Action on a grid function (x1-fastest flat layout):

        (S f)[a,b] = c f[a,b] + h1 sum_a' dbeta[(a-a')h1] f[a',b]
                   + h2 sum_b' dalpha[(b-b')h2] f[a,b']
                   + h1 h2 sum v[(a-a')h1, (b-b')h2] f[a',b'].

    The three convolution parts and the jump are folded into one combined
    difference-lattice kernel W so the fast path is a single 2-D circular
    convolution with a precomputed spectral table; the dense assembly is
    the BTTB matrix with entry W at offset (a-a', b-b').  When W is real
    the table's half spectrum is kept too, and real input is convolved
    with real transforms along x1; complex input or a complex W takes the
    full complex path.
    """

    def __init__(self, samples: KernelSamples):
        g = samples.grid
        self.grid = g

        n1, n2 = g.n1, g.n2
        W = (g.h1 * g.h2) * np.asarray(samples.v_lat, dtype=complex)
        W = W.copy()
        W[:, n2 - 1] += g.h1 * samples.dbeta_lat
        W[n1 - 1, :] += g.h2 * samples.dalpha_lat
        W[n1 - 1, n2 - 1] += samples.c
        if np.max(np.abs(W.imag)) == 0.0:
            W = W.real.copy()
        self.lattice_kernel = W  # (2n1-1, 2n2-1), [p1 + n1-1, p2 + n2-1]
        # S is Hermitian exactly when W(-p) = conj W(p); not up to roundoff
        self.hermitian = bool(np.array_equal(W, W[::-1, ::-1].conj()))

        # circulant embedding, (2n2, 2n1) for [b, a]-ordered 2-D views
        C = np.zeros((2 * n2, 2 * n1), dtype=W.dtype)
        p1 = np.arange(-(n1 - 1), n1)
        p2 = np.arange(-(n2 - 1), n2)
        C[np.ix_(p2 % (2 * n2), p1 % (2 * n1))] = W.T
        self.spectrum = scipy.fft.fft2(C)
        # rfft2(C) for a real C: the non-negative frequencies of the last axis
        self.half_spectrum = (None if np.iscomplexobj(C)
                              else self.spectrum[:, : n1 + 1].copy())

        self._dense: Optional[np.ndarray] = None
        self._lu = None
        self._cond_est = None   # (estimate, GMRES iterations of its first solve)
        self._lock = threading.RLock()  # solve_lu assembles under the lock

    # -- application paths ------------------------------------------------

    def apply_fft(self, flat: np.ndarray) -> np.ndarray:
        """S f for a flat (N,) vector, or for each column of an (N, m) block.

        On the (2 n2, 2 n1) circulant embedding only the first n2 rows are
        nonzero in and kept out, so the x1 transforms run on those rows
        alone: forward along x1 then x2, inverse along x2 then x1.  Real
        input through a real kernel is convolved in real arithmetic
        (``rfft``/``irfft`` along x1, half the spectrum) and gives a real
        result; otherwise the full complex path runs.  No adjoint path is
        needed: S is persymmetric, J S J = S^T for the index reversal J, so
        S^H f = J conj(S J conj(f)).
        """
        g = self.grid
        flat = np.asarray(flat)
        if flat.ndim not in (1, 2) or flat.shape[0] != g.size:
            raise InvalidArgumentError(
                f"input shape {flat.shape}, expected ({g.size},) or ({g.size}, m)"
            )
        flat = flat.astype(np.result_type(flat, float), copy=False)  # never single precision
        f3 = flat.reshape(g.size, -1).T.reshape(-1, g.n2, g.n1)
        real = self.half_spectrum is not None and np.isrealobj(flat)
        fwd, inv = (scipy.fft.rfft, scipy.fft.irfft) if real else (scipy.fft.fft, scipy.fft.ifft)
        spec = scipy.fft.fft(fwd(f3, 2 * g.n1), 2 * g.n2, axis=1, overwrite_x=True)
        spec *= self.half_spectrum if real else self.spectrum
        rows = scipy.fft.ifft(spec, axis=1, overwrite_x=True)[:, : g.n2]
        out = inv(rows, 2 * g.n1)[:, :, : g.n1]
        return out.reshape(-1, g.size).T.reshape(flat.shape)

    def norm1(self) -> float:
        """||S||_1 in O(N): column (a', b') of |S| sums the n1 x n2 window
        of |lattice_kernel| starting at (n1-1-a', n2-1-b'), read from 2-D
        prefix sums."""
        n1, n2 = self.grid.n1, self.grid.n2
        P = np.zeros((2 * n1, 2 * n2))
        P[1:, 1:] = np.abs(self.lattice_kernel).cumsum(0).cumsum(1)
        windows = P[n1:, n2:] - P[:n1, n2:] - P[n1:, :n2] + P[:n1, :n2]
        return float(windows.max())

    # -- dense assembly ----------------------------------------------------

    def dense(self) -> np.ndarray:
        """The N x N matrix for the dense identity checks, assembled once
        (solve_lu factors it when it is cached); refused above DENSE_GUARD."""
        if self._dense is None:
            check_dense_guard(self.grid, "dense assembly")
            with self._lock:
                if self._dense is None:
                    self._dense = self._assemble_dense()
        return self._dense

    def _assemble_dense(self) -> np.ndarray:
        # S[(b, a), (b', a')] = W[a-a'+n1-1, b-b'+n2-1]: window (n1-1-a', n2-1-b') at (a, b)
        n1, n2, N = self.grid.n1, self.grid.n2, self.grid.size
        windows = np.lib.stride_tricks.sliding_window_view(self.lattice_kernel, (n1, n2))
        return np.ascontiguousarray(windows[::-1, ::-1].transpose(3, 2, 1, 0)).reshape(N, N)

    def solve_lu(self):
        """Cached ``(lu, piv, cond)``, factored and condition-estimated once:
        of the matrix ``dense`` cached, else of an assembly of its own, kept
        no longer than the factoring; refused above DENSE_GUARD.  Callers solving
        with it pass a copy of ``piv``: scipy's getrs wrapper shifts the
        pivots in place while it runs, which races between threads."""
        if self._lu is None:
            with self._lock:
                if self._lu is None:
                    check_dense_guard(self.grid, "dense assembly")
                    # lu_factor copies its input, so a cached dense() stays intact
                    D = self._dense if self._dense is not None else self._assemble_dense()
                    self._lu = lu_factor_cond(D, self.norm1())
        return self._lu


def lu_factor_cond(mat: np.ndarray, anorm: Optional[float] = None):
    """``(lu, piv, cond)``: the LU of ``mat`` and LAPACK's 1-norm condition
    estimate, ``inf`` when the factor is exactly singular.  ``anorm`` is
    ||mat||_1 when the caller knows it, computed otherwise."""
    if anorm is None:
        anorm = np.linalg.norm(mat, 1)
    with warnings.catch_warnings():
        # exact singularity is reported through cond, not as a warning
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(mat)
    rcond, info = get_lapack_funcs("gecon", (lu,))(lu, anorm)
    cond = np.inf if (info != 0 or rcond == 0.0) else 1.0 / rcond
    return lu, piv, cond


# --------------------------------------------------------------------------
# antiderivative operators
# --------------------------------------------------------------------------


def line_integration_op(grid: GridSpec, axis: int) -> np.ndarray:
    """calA_k = i int_0^{x_k} on one side: i h (strict lower cumulative +
    1/2 current), the midpoint antiderivative.  On grid functions A_k is
    this matrix applied along axis k (:func:`apply_along`), and A_k^* its
    conjugate transpose."""
    n = grid.axis_n(axis)
    h = grid.axis_h(axis)
    return 1j * h * (np.tril(np.ones((n, n)), -1) + 0.5 * np.eye(n))


def apply_along(mat: np.ndarray, x: np.ndarray, grid: GridSpec, axis: int) -> np.ndarray:
    """(I (x) mat) x for axis 1, (mat (x) I) x for axis 2.

    ``mat`` is n_axis x n_axis; ``x`` is a flat (N,) grid function or an
    (N, m) block of them, x1-fastest.  Uses (B (x) A) vec X = vec(A X B^T)
    instead of forming the N x N Kronecker matrix.
    """
    n = grid.axis_n(axis)
    x = np.asarray(x)
    if mat.shape != (n, n) or x.shape[:1] != (grid.size,) or x.ndim > 2:
        raise InvalidArgumentError(
            f"apply_along: matrix {mat.shape} and input {x.shape} on a "
            f"{grid.n1}x{grid.n2} grid, axis {axis}"
        )
    if axis == 1:
        out = mat @ x.reshape(grid.n2, grid.n1, -1)
    else:
        out = mat @ x.reshape(grid.n2, -1)
    return out.reshape(x.shape)


# --------------------------------------------------------------------------
# M operators
# --------------------------------------------------------------------------


def _offsets(n: int) -> np.ndarray:
    idx = np.arange(n)
    return idx[:, None] - idx[None, :] + (n - 1)


def m_op(samples: KernelSamples, j: int, k: int) -> np.ndarray:
    """One of the eight blocks M_jk, derivative-free.

    Expansions realized here (axis-2 variants shown; axis-1 swaps roles):

    * M_11 f = (c/2 + beta(x1)) f(x2) + 1/2 h2 (alpha' * f)(x2)
               + h2 (sigma_x2(x1, .) * f)(x2)          [line -> grid]
    * M_21 f = h1 sum_t1 f(t1, x2)                     [grid -> line]
    * M_31 f = f(x2) broadcast over x1                 [line -> grid]
    * M_41 f = (c/2) M_21 f + 1/2 h2 (alpha' * M_21 f)
               - h1 sum beta(-t1) f(t1, .)
               - h1 h2 sum sigma_x2(-t1, . - t2) f(t)  [grid -> line]
    """
    g = samples.grid
    n1, n2, h1, h2 = g.n1, g.n2, g.h1, g.h2
    c = samples.c

    def zeros(shape, *read):    # the samples' dtype, at least float
        return np.zeros(shape, dtype=np.result_type(float, c, *read))

    if (j, k) == (2, 1):
        return np.kron(np.eye(n2), h1 * np.ones((1, n1)))
    if (j, k) == (2, 2):
        return np.kron(h2 * np.ones((1, n2)), np.eye(n1))
    if (j, k) == (3, 1):
        return np.kron(np.eye(n2), np.ones((n1, 1)))
    if (j, k) == (3, 2):
        return np.kron(np.ones((n2, 1)), np.eye(n1))

    if (j, k) == (1, 1):
        P2 = _offsets(n2)                      # (b, b')
        M = zeros((n2, n1, n2), samples.dalpha_lat, samples.sigma_x2_posmid, samples.beta_pos)
        M += (0.5 * h2 * samples.dalpha_lat[P2])[:, None, :]
        M += h2 * samples.sigma_x2_posmid[:, P2].transpose(1, 0, 2)
        diag = 0.5 * c + samples.beta_pos      # (n1,)
        M[np.arange(n2), :, np.arange(n2)] += diag[None, :]
        return M.reshape(g.size, n2)

    if (j, k) == (1, 2):
        P1 = _offsets(n1)                      # (a, a')
        M = zeros((n2, n1, n1), samples.dbeta_lat, samples.sigma_x1_posmid, samples.alpha_pos)
        M += (0.5 * h1 * samples.dbeta_lat[P1])[None, :, :]
        M += h1 * samples.sigma_x1_posmid[P1, :].transpose(2, 0, 1)
        diag = 0.5 * c + samples.alpha_pos     # (n2,)
        M[:, np.arange(n1), np.arange(n1)] += diag[:, None]
        return M.reshape(g.size, n1)

    if (j, k) == (4, 1):
        P2 = _offsets(n2)                      # M is [b, b', a']
        M = zeros((n2, n2, n1), samples.dalpha_lat, samples.sigma_x2_negmid, samples.beta_neg)
        M += (0.5 * h1 * h2 * samples.dalpha_lat[P2])[:, :, None]
        M -= h1 * h2 * samples.sigma_x2_negmid[:, P2].transpose(1, 2, 0)
        M[np.arange(n2), np.arange(n2), :] += 0.5 * c * h1 - h1 * samples.beta_neg
        return M.reshape(n2, g.size)

    if (j, k) == (4, 2):
        P1 = _offsets(n1)                      # M is [a, b', a']
        M = zeros((n1, n2, n1), samples.dbeta_lat, samples.sigma_x1_negmid, samples.alpha_neg)
        M += (0.5 * h1 * h2 * samples.dbeta_lat[P1])[:, None, :]
        M -= h1 * h2 * samples.sigma_x1_negmid[P1, :].transpose(0, 2, 1)
        M[np.arange(n1), :, np.arange(n1)] += (0.5 * c * h2 - h2 * samples.alpha_neg)[None, :]
        return M.reshape(n1, g.size)

    raise InvalidArgumentError(f"no operator M_{j}{k}: j in 1..4, k in 1..2")


# --------------------------------------------------------------------------
# K operators
# --------------------------------------------------------------------------


def k_op(samples: KernelSamples, name: str) -> np.ndarray:
    """K-family: side-to-side and total quadratures of the kernel.

    K11 f = -h2 sum s(x1, -t2) f(t2); K12 its axis swap;
    K21/K22 map a scalar to the constant-ones side function;
    K31/K32 integrate one side onto constants of the other;
    K4 f = h1 h2 sum s(-t) f(t), a scalar.
    """
    g = samples.grid
    n1, n2, h1, h2 = g.n1, g.n2, g.h1, g.h2

    if name == "K11":
        return -h2 * samples.s_pos_neg()
    if name == "K12":
        return -h1 * samples.s_neg_pos().T
    if name == "K21":
        return np.ones((n1, 1))
    if name == "K22":
        return np.ones((n2, 1))
    if name == "K31":
        return h2 * np.ones((n1, n2))
    if name == "K32":
        return h1 * np.ones((n2, n1))
    if name == "K4":
        return (h1 * h2 * samples.s_neg_neg().T).reshape(1, g.size)
    raise InvalidArgumentError(
        f"unknown K operator {name!r}; expected K11, K12, K21, K22, K31, K32 or K4"
    )


# --------------------------------------------------------------------------
# factor pairs and identity diagnostics
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class PiPair:
    """Pi_k = [M_1k  M_3k] and PiHat_k = [M_2k; M_4k] for one axis."""

    axis: int
    pi: np.ndarray       # N x 2 n_i, i != k: side pair -> flat grid function
    pi_hat: np.ndarray   # 2 n_i x N: flat grid function -> side pair


def assemble_pi(samples: KernelSamples, k: int) -> PiPair:
    return PiPair(axis=k, pi=pi_factor(samples, k), pi_hat=pi_factor(samples, k, hat=True))


def pi_factor(samples: KernelSamples, k: int, hat: bool = False) -> np.ndarray:
    """Pi_k = [M_1k  M_3k], or PiHat_k = [M_2k; M_4k] when ``hat``."""
    if k not in (1, 2):
        raise InvalidArgumentError(f"axis must be 1 or 2, got {k}")
    if hat:
        return np.vstack([m_op(samples, 2, k), m_op(samples, 4, k)])
    return np.hstack([m_op(samples, 1, k), m_op(samples, 3, k)])


def displacement_identity_residual(S: ConvOperator, pi: PiPair) -> float:
    """|| A_k S - S A_k^* - i Pi_k PiHat_k ||_F / ||S||_F, with k the axis
    of ``pi``, from the dense S and no product with calA_k.

    calA = i h (L + I/2), with L the strict lower all-ones matrix, gives
    A_k S - S A_k^* = i h_k (C_r(D) + C_c(D) - D) for D = S.dense(), where
    C_r and C_c are the inclusive cumulative sums over the axis-k part of
    the row and of the column index.  So the residual is
    || h_k (C_r(D) + C_c(D) - D) - Pi_k PiHat_k ||_F / ||D||_F: O(N^2) work
    besides Pi_k PiHat_k, in one N x N work array of the dtype of D and the
    factors (a real S stays real).  Each sum runs over at most n_k terms, as
    in the Kronecker formula A_k D - D A_k^*: on the rich model at 32x32
    (residual about 1e-6) this reads 1.5e-11 relative off an
    extended-precision value, and that formula 2.1e-11.
    """
    g, k = S.grid, pi.axis
    D = S.dense().reshape(g.n2, g.n1, g.n2, g.n1)     # [b, a, b', a']
    dtype = np.result_type(D, pi.pi, pi.pi_hat)
    work = np.cumsum(D, axis=4 - k, dtype=dtype)       # C_c(D)
    # add C_r(D) - D, the exclusive row sums, from a running sum
    rows, work_rows = np.moveaxis(D, 2 - k, 0), np.moveaxis(work, 2 - k, 0)
    running = np.zeros_like(work_rows[0])
    for j in range(len(rows) - 1):
        running += rows[j]
        work_rows[j + 1] += running
    work *= g.axis_h(k)
    work -= (pi.pi @ pi.pi_hat).reshape(work.shape)
    return float(np.linalg.norm(work) / max(np.linalg.norm(D), np.finfo(float).tiny))


def m4_identity_residual(samples: KernelSamples, i: int, k: int) -> float:
    """|| calA_i M_4k - M_4k A_i^* - i (K_1i M_2i + K_2i K_4) ||_F, normalized.

    Normalization is by ||calA_i M_4k||_F so the value is scale-free.
    """
    if i == k:
        raise InvalidArgumentError("the side identity needs i != k")
    g = samples.grid
    M4k = m_op(samples, 4, k)
    calA = line_integration_op(g, i)
    M4k_Astar = apply_along(calA, M4k.conj().T, g, i).conj().T
    K1 = k_op(samples, "K11" if i == 1 else "K12")
    M2 = m_op(samples, 2, i)
    K2 = k_op(samples, "K21" if i == 1 else "K22")
    K4 = k_op(samples, "K4")
    R = calA @ M4k - M4k_Astar - 1j * (K1 @ M2 + K2 @ K4)
    denom = np.linalg.norm(calA @ M4k)
    return float(np.linalg.norm(R) / max(denom, np.finfo(float).tiny))


def discrete_generator(S: ConvOperator, k: int):
    """``(G, H)``, the exact thin factors of D_k = A_k S - S A_k^* = G H.

    Along axis k, S is block Toeplitz: block (b, b') is the Toeplitz
    matrix of the symbol t = W[:, b - b'] (b indexes the other axis, i).
    Since calA - calA^* = i h_k 1 1^T, every block obeys
    calA T - T calA^* = i h_k (F(a) - F(-a' - 1)), with F(m) the sum of
    t(p) over p <= m.  So G = i h_k [Phi, -One] (N x 2 n_i) and
    H = [One^T; Psi] (2 n_i x N), where Phi[(b, a), b'] = F_{b-b'}(a),
    Psi[b, (b', a')] = F_{b-b'}(-a' - 1) and One[(b, a), b'] = [b = b']
    (:func:`generator_parts`).
    """
    Phi, One, Psi = generator_parts(S, k)
    return 1j * S.grid.axis_h(k) * np.hstack([Phi, -One]), np.vstack([One.T, Psi])


def generator_parts(S: ConvOperator, k: int):
    """``(Phi, One, Psi)`` of :func:`discrete_generator` for axis k, in the
    lattice kernel's dtype (One is real).  For k = 2 the roles of the axes
    swap, and the rows of Phi and One and the columns of Psi are put back
    in the x1-fastest order."""
    if k not in (1, 2):
        raise InvalidArgumentError(f"axis must be 1 or 2, got {k}")
    W = S.lattice_kernel if k == 1 else S.lattice_kernel.T
    n, m = S.grid.axis_n(k), S.grid.axis_n(3 - k)
    F = np.zeros((2 * n, 2 * m - 1), dtype=W.dtype)
    F[1:] = W.cumsum(0)                      # F(p) = F[p + n]
    blocks = _offsets(m)                     # (b, b') -> b - b' + m - 1
    Phi = F[n:][:, blocks].transpose(1, 0, 2).reshape(n * m, m)
    Psi = F[n - 1::-1][:, blocks].transpose(1, 2, 0).reshape(m, n * m)
    One = np.repeat(np.eye(m), n, axis=0)
    if k == 2:      # (a, b) x2-fastest order back to x1-fastest
        Phi, One = (A.reshape(m, n, -1).transpose(1, 0, 2).reshape(n * m, -1) for A in (Phi, One))
        Psi = Psi.reshape(-1, m, n).transpose(0, 2, 1).reshape(-1, n * m)
    return Phi, One, Psi


def displacement_rank(S: ConvOperator, k: int, rel_tol: float = 1e-10) -> int:
    """Numerical rank of D = A_k S - S A_k^*, read from its generator.

    With D = G H from :func:`discrete_generator`, G = Q1 R1 and
    H^H = Q2 R2, D = Q1 (R1 R2^H) Q2^H: the singular values of D are
    those of the 2 n_i x 2 n_i core R1 R2^H, i = 3 - k.  The rank counts
    those above ``rel_tol * s1``; it is at most 2 n_i by construction.
    """
    if not (np.isfinite(rel_tol) and rel_tol >= 0):
        raise InvalidArgumentError(f"rel_tol must be finite and >= 0, got {rel_tol}")
    G, H = discrete_generator(S, k)
    core = np.linalg.qr(G, mode="r") @ np.linalg.qr(H.conj().T, mode="r").conj().T
    sv = np.linalg.svd(core, compute_uv=False)
    return int(np.sum(sv > rel_tol * sv[0]))

