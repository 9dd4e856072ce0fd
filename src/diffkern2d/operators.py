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

The displacement rank is read from a randomized sketch, not a dense SVD:
2 n_i + 12 complex Gaussian probes from a fixed seed (0), with Q = qr(D
Omega) and B = Q^H D.  The count is certified by ||D - Q B||_F <= 0.1
rel_tol s1(B), and the probes double until it holds.  Where doubling
stops paying (the residual is at roundoff, below roughly N * eps relative
to s1) or would reach N, the singular values of D itself are counted.
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
from .grid import GridFn, GridSpec, KernelSamples

__all__ = [
    "Space",
    "LinOp",
    "ConvOperator",
    "PiPair",
    "lu_factor_cond",
    "conv_apply",
    "line_integration_op",
    "apply_along",
    "m_op",
    "k_op",
    "assemble_pi",
    "displacement_identity_residual",
    "m4_identity_residual",
    "displacement_rank",
    "export_dense_csv",
    "DENSE_GUARD",
]

# Dense assembly is mandatory below this many grid points and refused
# above it unless forced (the identity checks are O(N^2) memory).
DENSE_GUARD = 64 * 64


@dataclass(frozen=True)
class Space:
    """Source/target descriptor: 'grid', 'line', 'pair', or 'scalar'."""

    kind: str
    grid: GridSpec
    axis: Optional[int] = None

    def __post_init__(self):
        if self.kind not in ("grid", "line", "pair", "scalar"):
            raise InvalidArgumentError(f"unknown space kind {self.kind!r}")
        if self.kind in ("line", "pair") and self.axis not in (1, 2):
            raise InvalidArgumentError("line/pair spaces need axis 1 or 2")

    @property
    def dim(self) -> int:
        if self.kind == "grid":
            return self.grid.size
        if self.kind == "scalar":
            return 1
        n = self.grid.axis_n(self.axis)
        return n if self.kind == "line" else 2 * n


@dataclass(frozen=True)
class LinOp:
    """Dense-backed linear operator between two described spaces."""

    source: Space
    target: Space
    mat: np.ndarray

    def __post_init__(self):
        if self.mat.shape != (self.target.dim, self.source.dim):
            raise InvalidArgumentError(
                f"matrix shape {self.mat.shape} does not match spaces "
                f"({self.target.dim}, {self.source.dim})"
            )

    def apply(self, vec: np.ndarray) -> np.ndarray:
        vec = np.asarray(vec)
        if vec.shape != (self.source.dim,):
            raise InvalidArgumentError(
                f"input shape {vec.shape}, expected ({self.source.dim},)"
            )
        return self.mat @ vec

    def dense(self) -> np.ndarray:
        return self.mat


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
    with ``rfft2``/``irfft2``; complex input or a complex W takes the
    full ``fft2`` path.
    """

    def __init__(self, samples: KernelSamples):
        g = samples.grid
        self.grid = g
        self.samples = samples
        self.c = samples.c

        n1, n2 = g.n1, g.n2
        W = (g.h1 * g.h2) * np.asarray(samples.v_lat, dtype=complex)
        W = W.copy()
        W[:, n2 - 1] += g.h1 * samples.dbeta_lat
        W[n1 - 1, :] += g.h2 * samples.dalpha_lat
        W[n1 - 1, n2 - 1] += samples.c
        if np.max(np.abs(W.imag)) == 0.0:
            W = W.real.copy()
        self.lattice_kernel = W  # (2n1-1, 2n2-1), [p1 + n1-1, p2 + n2-1]

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

    def apply_fft(self, flat: np.ndarray, adjoint: bool = False) -> np.ndarray:
        """S f for a flat (N,) vector, or for each column of an (N, m) block;
        S^H f with ``adjoint``.

        Real input through a real kernel is convolved in real arithmetic
        (``rfft2``/``irfft2``, half the spectrum) and gives a real result;
        otherwise the full complex ``fft2`` path runs.  S = P^T C P for the
        zero padding P and the circulant embedding C, so S^H = P^T C^H P
        multiplies by the conjugated (half) spectrum instead.
        """
        g = self.grid
        flat = np.asarray(flat)
        f3 = flat.reshape(g.size, -1).T.reshape(-1, g.n2, g.n1)
        shape = (2 * g.n2, 2 * g.n1)   # zero-padded to the circulant embedding
        if self.half_spectrum is not None and np.isrealobj(flat):
            spec = scipy.fft.rfft2(f3, s=shape)
            spec *= self.half_spectrum.conj() if adjoint else self.half_spectrum
            out = scipy.fft.irfft2(spec, s=shape, overwrite_x=True)
        else:
            spec = scipy.fft.fft2(f3, s=shape)
            spec *= self.spectrum.conj() if adjoint else self.spectrum
            out = scipy.fft.ifft2(spec, overwrite_x=True)
        out = out[:, : g.n2, : g.n1]
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

    def apply_dense(self, flat: np.ndarray) -> np.ndarray:
        return self.dense() @ np.asarray(flat)

    def apply(self, flat: np.ndarray) -> np.ndarray:
        flat = np.asarray(flat)
        if flat.shape != (self.grid.size,):
            raise InvalidArgumentError(
                f"grid mismatch: input shape {flat.shape}, expected ({self.grid.size},)"
            )
        return self.apply_fft(flat)

    # -- dense assembly ----------------------------------------------------

    def dense(self, force: bool = False) -> np.ndarray:
        if self._dense is None:
            if self.grid.size > DENSE_GUARD and not force:
                raise InvalidArgumentError(
                    f"dense assembly refused at {self.grid.n1}x{self.grid.n2} "
                    f"({self.grid.size} points > guard {DENSE_GUARD}); pass force=True"
                )
            with self._lock:
                if self._dense is None:
                    self._dense = self._assemble_dense()
        return self._dense

    def _assemble_dense(self) -> np.ndarray:
        g = self.grid
        n1, n2, N = g.n1, g.n2, g.size
        W = self.lattice_kernel
        A = np.arange(n1)
        B = np.arange(n2)
        P1 = A[:, None] - A[None, :] + (n1 - 1)   # (a, a')
        P2 = B[:, None] - B[None, :] + (n2 - 1)   # (b, b')
        out = np.empty((N, N), dtype=W.dtype)
        for b in range(n2):
            # block[a, b', a'] = W[p1(a,a'), p2(b,b')]
            block = W[P1[:, None, :], P2[b][None, :, None]]
            out[b * n1:(b + 1) * n1, :] = block.reshape(n1, N)
        return out

    def solve_lu(self):
        """Cached ``(lu, piv, cond)`` of the dense assembly, factored and
        condition-estimated once (desk-scale solves).  Callers solving with
        it pass a copy of ``piv``: scipy's getrs wrapper shifts the pivots
        in place while it runs, which races between threads."""
        if self._lu is None:
            with self._lock:
                if self._lu is None:
                    self._lu = lu_factor_cond(self.dense())
        return self._lu


def lu_factor_cond(mat: np.ndarray):
    """``(lu, piv, cond)``: the LU of ``mat`` and LAPACK's 1-norm condition
    estimate, ``inf`` when the factor is exactly singular."""
    anorm = np.linalg.norm(mat, 1)
    with warnings.catch_warnings():
        # exact singularity is reported through cond, not as a warning
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(mat)
    rcond, info = get_lapack_funcs("gecon", (lu,))(lu, anorm)
    cond = np.inf if (info != 0 or rcond == 0.0) else 1.0 / rcond
    return lu, piv, cond


def conv_apply(S: ConvOperator, f: GridFn) -> GridFn:
    """S f on matching grids."""
    if f.grid != S.grid:
        raise InvalidArgumentError("grid mismatch between operator and argument")
    return GridFn(S.grid, S.apply(f.values))


# --------------------------------------------------------------------------
# antiderivative operators
# --------------------------------------------------------------------------


def line_integration_op(grid: GridSpec, axis: int) -> LinOp:
    """calA_k = i int_0^{x_k} on one side: i h (strict lower cumulative +
    1/2 current), the midpoint antiderivative.  On grid functions A_k is
    this matrix applied along axis k (:func:`apply_along`), and A_k^* its
    conjugate transpose."""
    n = grid.axis_n(axis)
    h = grid.axis_h(axis)
    sp = Space("line", grid, axis)
    return LinOp(sp, sp, 1j * h * (np.tril(np.ones((n, n)), -1) + 0.5 * np.eye(n)))


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


def m_op(samples: KernelSamples, j: int, k: int) -> LinOp:
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
    grid_sp = Space("grid", g)
    line1 = Space("line", g, 1)
    line2 = Space("line", g, 2)

    if (j, k) == (2, 1):
        return LinOp(grid_sp, line2, np.kron(np.eye(n2), h1 * np.ones((1, n1))))
    if (j, k) == (2, 2):
        return LinOp(grid_sp, line1, np.kron(h2 * np.ones((1, n2)), np.eye(n1)))
    if (j, k) == (3, 1):
        return LinOp(line2, grid_sp, np.kron(np.eye(n2), np.ones((n1, 1))))
    if (j, k) == (3, 2):
        return LinOp(line1, grid_sp, np.kron(np.ones((n2, 1)), np.eye(n1)))

    if (j, k) == (1, 1):
        P2 = _offsets(n2)                      # (b, b')
        M = np.zeros((n2, n1, n2), dtype=complex)
        M += (0.5 * h2 * samples.dalpha_lat[P2])[:, None, :]
        M += h2 * samples.sigma_x2_posmid[:, P2].transpose(1, 0, 2)
        diag = 0.5 * c + samples.beta_pos      # (n1,)
        M[np.arange(n2), :, np.arange(n2)] += diag[None, :]
        return LinOp(line2, grid_sp, M.reshape(g.size, n2))

    if (j, k) == (1, 2):
        P1 = _offsets(n1)                      # (a, a')
        M = np.zeros((n2, n1, n1), dtype=complex)
        M += (0.5 * h1 * samples.dbeta_lat[P1])[None, :, :]
        M += h1 * samples.sigma_x1_posmid[P1, :].transpose(2, 0, 1)
        diag = 0.5 * c + samples.alpha_pos     # (n2,)
        M[:, np.arange(n1), np.arange(n1)] += diag[:, None]
        return LinOp(line1, grid_sp, M.reshape(g.size, n1))

    if (j, k) == (4, 1):
        P2 = _offsets(n2)
        M = np.zeros((n2, n2, n1), dtype=complex)      # [b, b', a']
        M += (0.5 * h1 * h2 * samples.dalpha_lat[P2])[:, :, None]
        M -= h1 * h2 * samples.sigma_x2_negmid[:, P2].transpose(1, 2, 0)
        M[np.arange(n2), np.arange(n2), :] += 0.5 * c * h1 - h1 * samples.beta_neg
        return LinOp(grid_sp, line2, M.reshape(n2, g.size))

    if (j, k) == (4, 2):
        P1 = _offsets(n1)
        M = np.zeros((n1, n2, n1), dtype=complex)      # [a, b', a']
        M += (0.5 * h1 * h2 * samples.dbeta_lat[P1])[:, None, :]
        M -= h1 * h2 * samples.sigma_x1_negmid[P1, :].transpose(0, 2, 1)
        M[np.arange(n1), :, np.arange(n1)] += (0.5 * c * h2 - h2 * samples.alpha_neg)[None, :]
        return LinOp(grid_sp, line1, M.reshape(n1, g.size))

    raise InvalidArgumentError(f"no operator M_{j}{k}: j in 1..4, k in 1..2")


# --------------------------------------------------------------------------
# K operators
# --------------------------------------------------------------------------


def k_op(samples: KernelSamples, name: str) -> LinOp:
    """K-family: side-to-side and total quadratures of the kernel.

    K11 f = -h2 sum s(x1, -t2) f(t2); K12 its axis swap;
    K21/K22 map a scalar to the constant-ones side function;
    K31/K32 integrate one side onto constants of the other;
    K4 f = h1 h2 sum s(-t) f(t), a scalar.
    """
    g = samples.grid
    n1, n2, h1, h2 = g.n1, g.n2, g.h1, g.h2
    line1 = Space("line", g, 1)
    line2 = Space("line", g, 2)
    scalar = Space("scalar", g)
    grid_sp = Space("grid", g)

    if name == "K11":
        return LinOp(line2, line1, -h2 * samples.s_pos_neg())
    if name == "K12":
        return LinOp(line1, line2, -h1 * samples.s_neg_pos().T)
    if name == "K21":
        return LinOp(scalar, line1, np.ones((n1, 1)))
    if name == "K22":
        return LinOp(scalar, line2, np.ones((n2, 1)))
    if name == "K31":
        return LinOp(line2, line1, h2 * np.ones((n1, n2)))
    if name == "K32":
        return LinOp(line1, line2, h1 * np.ones((n2, n1)))
    if name == "K4":
        row = (h1 * h2 * samples.s_neg_neg().T).reshape(1, g.size)
        return LinOp(grid_sp, scalar, row)
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
    pi: LinOp       # PairFn(i) -> GridFn
    pi_hat: LinOp   # GridFn -> PairFn(i)


def assemble_pi(samples: KernelSamples, k: int) -> PiPair:
    g = samples.grid
    if k not in (1, 2):
        raise InvalidArgumentError(f"axis must be 1 or 2, got {k}")
    i = 2 if k == 1 else 1
    pair = Space("pair", g, i)
    grid_sp = Space("grid", g)
    m1, m3 = m_op(samples, 1, k), m_op(samples, 3, k)
    m2, m4 = m_op(samples, 2, k), m_op(samples, 4, k)
    pi = LinOp(pair, grid_sp, np.hstack([m1.mat, m3.mat]))
    pi_hat = LinOp(grid_sp, pair, np.vstack([m2.mat, m4.mat]))
    return PiPair(axis=k, pi=pi, pi_hat=pi_hat)


def _displacement(S: ConvOperator, k: int) -> np.ndarray:
    """A_k S - S A_k^* (dense), with S A_k^* = (A_k S^*)^*."""
    D = S.dense()
    calA = line_integration_op(S.grid, k).mat
    return (apply_along(calA, D, S.grid, k)
            - apply_along(calA, D.conj().T, S.grid, k).conj().T)


def displacement_identity_residual(S: ConvOperator, pi: PiPair, k: int) -> float:
    """|| A_k S - S A_k^* - i Pi_k PiHat_k ||_F / ||S||_F (dense)."""
    if k != pi.axis:
        raise InvalidArgumentError(f"PiPair is for axis {pi.axis}, asked for {k}")
    R = _displacement(S, k) - 1j * (pi.pi.mat @ pi.pi_hat.mat)
    return float(np.linalg.norm(R) / np.linalg.norm(S.dense()))


def m4_identity_residual(samples: KernelSamples, i: int, k: int) -> float:
    """|| calA_i M_4k - M_4k A_i^* - i (K_1i M_2i + K_2i K_4) ||_F, normalized.

    Normalization is by ||calA_i M_4k||_F so the value is scale-free.
    """
    if i == k:
        raise InvalidArgumentError("the side identity needs i != k")
    g = samples.grid
    M4k = m_op(samples, 4, k).mat
    calA = line_integration_op(g, i).mat
    M4k_Astar = apply_along(calA, M4k.conj().T, g, i).conj().T
    K1 = k_op(samples, "K11" if i == 1 else "K12").mat
    M2 = m_op(samples, 2, i).mat
    K2 = k_op(samples, "K21" if i == 1 else "K22").mat
    K4 = k_op(samples, "K4").mat
    R = calA @ M4k - M4k_Astar - 1j * (K1 @ M2 + K2 @ K4)
    denom = np.linalg.norm(calA @ M4k)
    return float(np.linalg.norm(R) / max(denom, np.finfo(float).tiny))


def displacement_rank(S: ConvOperator, k: int, rel_tol: float = 1e-10) -> int:
    """Numerical rank of D = A_k S - S A_k^*, certified from a sketch.

    Randomized range finder (Halko, Martinsson & Tropp, SIAM Rev. 53(2),
    2011): Omega is p complex Gaussian probes from ``default_rng(0)``,
    drawn inside the call, Q = qr(D Omega) and B = Q^H D.  The rank is the
    number of singular values of B above ``rel_tol * s1(B)``, accepted when
    ||D - Q B||_F <= 0.1 rel_tol s1(B): by Weyl's inequality every singular
    value of D is then within that margin of B's, so the cutoff holds for
    D itself.  Otherwise p doubles, starting from 2 n_i + 12, i = 3 - k,
    ten above the identity's 2 n_i + 2 bound.  When doubling p does not
    at least halve ||D - Q B||_F, or the next p would reach N, the
    residual is at roundoff (a ``rel_tol`` below roughly N * eps) and the
    singular values of D itself are counted, as a square Q would give.
    Counts below that floor are roundoff for any method.
    """
    if not (np.isfinite(rel_tol) and rel_tol >= 0):
        raise InvalidArgumentError(f"rel_tol must be finite and >= 0, got {rel_tol}")
    D = _displacement(S, k)
    N = D.shape[0]
    rng = np.random.default_rng(0)
    p = 2 * S.grid.axis_n(3 - k) + 12
    last = np.inf
    while p < N:
        omega = rng.standard_normal((N, p)) + 1j * rng.standard_normal((N, p))
        Q = np.linalg.qr(D @ omega)[0]
        B = Q.conj().T @ D
        sv = np.linalg.svd(B, compute_uv=False)
        resid = np.linalg.norm(D - Q @ B)
        if resid <= 0.1 * rel_tol * sv[0]:
            return int(np.sum(sv > rel_tol * sv[0]))
        if resid > 0.5 * last:
            break
        last, p = resid, 2 * p
    sv = np.linalg.svd(D, compute_uv=False)
    return int(np.sum(sv > rel_tol * sv[0]))


def export_dense_csv(mat: np.ndarray, path) -> None:
    """Row-major CSV, full-precision scientific notation.

    Complex matrices are written as interleaved re,im column pairs.
    """
    mat = np.asarray(mat)
    if np.iscomplexobj(mat):
        inter = np.empty((mat.shape[0], 2 * mat.shape[1]))
        inter[:, 0::2] = mat.real
        inter[:, 1::2] = mat.imag
        np.savetxt(path, inter, delimiter=",", fmt="%.17e")
    else:
        np.savetxt(path, mat, delimiter=",", fmt="%.17e")
