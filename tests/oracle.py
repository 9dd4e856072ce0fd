"""Independent brute-force references used as ground truth in tests.

Everything here is deliberately built the slow way: literal quadrature of
the kernel followed by centered finite differences for the outer
derivatives (step h/2 on a half-shifted lattice, so the sign jumps are
crossed rather than sampled), dense inverses instead of structured
solves, and a plain 1-D difference-kernel solver for tensor-product
cross-checks.  The error of these routes is qualitatively different from
the analytic expansions in :mod:`diffkern2d.operators`, so agreement
between the two is evidence rather than shared bias.  No command of the
package runs any of it; tests import it as ``from oracle import ...``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from diffkern2d.errors import InvalidArgumentError, SingularOperatorError
from diffkern2d.grid import GridSpec, KernelModel, KernelSamples
from diffkern2d.operators import m_op


def s_values(model: KernelModel, x1, x2) -> np.ndarray:
    """Evaluate the model's s(x) pointwise with sgn(0) = 0."""
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    s1, s2 = np.sign(x1), np.sign(x2)
    return (0.25 * model.c * s1 * s2
            + 0.5 * s1 * model.alpha(x2)
            + 0.5 * s2 * model.beta(x1)
            + model.sigma(x1, x2))


def grid_inner(grid: GridSpec, f: np.ndarray, g: np.ndarray) -> complex:
    """h1 h2 sum f conj(g) on the rectangle."""
    return grid.h1 * grid.h2 * complex(np.sum(np.asarray(f) * np.conj(g)))


def quadrant_sum_residual(samples: KernelSamples) -> float:
    """Max |h-weighted quadrant sum| of the smooth samples.

    Zero (to roundoff) after :func:`diffkern2d.grid.normalize_kernel`: for
    every second argument the h1-weighted sum of sigma(-t1, .) over the t1
    midpoints vanishes, and symmetrically for the first argument.
    """
    g = samples.grid
    r1 = np.abs(g.h1 * samples.sigma_np.sum(axis=0)).max()
    r2 = np.abs(g.h1 * samples.sigma_nn.sum(axis=0)).max()
    r3 = np.abs(g.h2 * samples.sigma_pn.sum(axis=1)).max()
    r4 = np.abs(g.h2 * samples.sigma_nn.sum(axis=1)).max()
    # lattice second/first arguments, via the model
    m = samples.model
    lat2 = (g.p2 * g.h2)[None, :]
    lat1 = (g.p1 * g.h1)[:, None]
    r5 = np.abs(g.h1 * np.asarray(m.sigma(-g.x1[:, None], lat2)).sum(axis=0)).max()
    r6 = np.abs(g.h2 * np.asarray(m.sigma(lat1, -g.x2[None, :])).sum(axis=1)).max()
    return float(max(r1, r2, r3, r4, r5, r6))


# --------------------------------------------------------------------------
# M_jk blocks
# --------------------------------------------------------------------------


def oracle_m_op(samples: KernelSamples, j: int, k: int) -> np.ndarray:
    """M_jk by literal quadrature of s and centered differences.

    The derivative step is h/2, which puts every s evaluation on the
    half-integer difference lattice: the sign jump is crossed by the
    centered stencil (reproducing the delta weight exactly) and never
    sampled at 0.
    """
    g = samples.grid
    model = samples.model
    n1, n2, h1, h2 = g.n1, g.n2, g.h1, g.h2
    x1, x2 = g.x1, g.x2

    if (j, k) in ((2, 1), (2, 2), (3, 1), (3, 2)):
        # no derivative involved: the quadrature/broadcast form is already exact
        return m_op(samples, j, k)

    if (j, k) == (1, 1):
        # (M_11 f)(x) = d/dx2 int s(x1, x2 - t2) f(t2) dt2
        d = 0.5 * h2
        D = x2[:, None] - x2[None, :]                     # (b, b')
        Fp = s_values(model, x1[:, None, None], (D + d)[None, :, :])
        Fm = s_values(model, x1[:, None, None], (D - d)[None, :, :])
        M = h2 * (Fp - Fm) / (2 * d)                      # [a, b, b']
        mat = M.transpose(1, 0, 2).reshape(g.size, n2)

    elif (j, k) == (1, 2):
        d = 0.5 * h1
        D = x1[:, None] - x1[None, :]                     # (a, a')
        Fp = s_values(model, (D + d)[:, None, :], x2[None, :, None])
        Fm = s_values(model, (D - d)[:, None, :], x2[None, :, None])
        M = h1 * (Fp - Fm) / (2 * d)                      # [a, b, a']
        mat = M.transpose(1, 0, 2).reshape(g.size, n1)

    elif (j, k) == (4, 1):
        # (M_41 f)(x2) = -d/dx2 int s(-t1, x2 - t2) f(t) dt
        d = 0.5 * h2
        D = x2[:, None] - x2[None, :]                     # (b, b')
        Fp = s_values(model, -x1[:, None, None], (D + d)[None, :, :])
        Fm = s_values(model, -x1[:, None, None], (D - d)[None, :, :])
        M = -h1 * h2 * (Fp - Fm) / (2 * d)                # [a', b, b']
        mat = M.transpose(1, 2, 0).reshape(n2, g.size)

    elif (j, k) == (4, 2):
        d = 0.5 * h1
        D = x1[:, None] - x1[None, :]                     # (a, a')
        Fp = s_values(model, (D + d)[:, None, :], -x2[None, :, None])
        Fm = s_values(model, (D - d)[:, None, :], -x2[None, :, None])
        M = -h1 * h2 * (Fp - Fm) / (2 * d)                # [a, b', a']
        mat = M.reshape(n1, g.size)

    else:
        raise InvalidArgumentError(f"no operator M_{j}{k}")
    # the values come from a user-supplied kernel model
    if not np.all(np.isfinite(mat)):
        raise InvalidArgumentError("oracle operator has non-finite entries")
    return mat


# --------------------------------------------------------------------------
# 1-D difference-kernel operator
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Kernel1D:
    """1-D operator S = c I + conv(v) on (0, omega), midpoint grid."""

    omega: float
    n: int
    c: complex
    v_lat: np.ndarray    # v at p h, p = -(n-1)..n-1

    def __post_init__(self):
        if self.v_lat.shape != (2 * self.n - 1,):
            raise InvalidArgumentError(
                f"v samples must have length {2*self.n - 1}, got {self.v_lat.shape}"
            )

    @property
    def h(self) -> float:
        return self.omega / self.n

    @property
    def midpoints(self) -> np.ndarray:
        return (np.arange(self.n) + 0.5) * self.h

    def dense(self) -> np.ndarray:
        idx = np.arange(self.n)
        P = idx[:, None] - idx[None, :] + (self.n - 1)
        return self.c * np.eye(self.n) + self.h * self.v_lat[P]


def kernel1d_from_profile(omega: float, n: int, c: complex, vfun) -> Kernel1D:
    h = omega / n
    p = np.arange(-(n - 1), n)
    return Kernel1D(omega, n, c, np.asarray(vfun(p * h), dtype=complex))


def rho_1d(k1: Kernel1D, lam: complex, mu: complex) -> complex:
    """1-D reflection-coefficient form: h sum e^{-i mu x} (S^{-1} e^{i lam x})."""
    x = k1.midpoints
    S = k1.dense()
    el = np.exp(1j * complex(lam) * x)
    em = np.exp(-1j * complex(mu) * x)
    try:
        sol = np.linalg.solve(S, el)
    except np.linalg.LinAlgError as exc:
        raise SingularOperatorError(f"1-D operator is singular: {exc}") from exc
    if np.linalg.cond(S) > 1e12:
        raise SingularOperatorError("1-D operator is numerically singular")
    return complex(k1.h * np.sum(em * sol))

