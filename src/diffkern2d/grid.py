"""Grids and the structured kernel model.

Every discretization convention of the library lives here:

* Midpoint collocation on the rectangle (0, omega1) x (0, omega2) with
  uniform steps h_i = omega_i / n_i and midpoints x_i^(a) = (a + 1/2) h_i.
* Grid functions are stored flat with the x1 index fastest: the value at
  (x1^(a), x2^(b)) sits at flat index b * n1 + a.  Reshaped 2-D views are
  (n2, n1) arrays indexed [b, a].
* Discrete inner products carry the quadrature weights: h1*h2 on the
  rectangle, h_i on a side.
* Differences of midpoints land on the integer lattice p_i * h_i with
  |p_i| <= n_i - 1, so sign factors in the kernel are never sampled at 0
  by the difference-kernel machinery.

The kernel model is the four-part decomposition

    s(x) = c/4 sgn(x1) sgn(x2) + 1/2 sgn(x1) alpha(x2)
           + 1/2 sgn(x2) beta(x1) + sigma(x),

whose mixed derivative is c*delta + delta(x1) alpha'(x2)
+ delta(x2) beta'(x1) + v(x) with v = d^2 sigma / dx1 dx2.  The induced
operator is identity-plus-convolutions:

    S f = c f + h1 (beta' *_1 f) + h2 (alpha' *_2 f) + h1 h2 (v * f).

The package never evaluates s pointwise: :func:`sample_kernel` evaluates
each part on the sample families the operators read, and the operators
combine those samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidArgumentError, KernelEvaluationError

__all__ = [
    "GridSpec",
    "KernelModel",
    "KernelSamples",
    "make_grid",
    "sample_kernel",
    "normalize_kernel",
]


@dataclass(frozen=True)
class GridSpec:
    """Rectangle dimensions and midpoint-grid resolution."""

    omega1: float
    omega2: float
    n1: int
    n2: int

    def __post_init__(self):
        if not (self.omega1 > 0 and self.omega2 > 0):
            raise InvalidArgumentError(
                f"rectangle sides must be positive, got ({self.omega1}, {self.omega2})"
            )
        if self.n1 < 2 or self.n2 < 2:
            raise InvalidArgumentError(
                f"need at least 2 points per side, got ({self.n1}, {self.n2})"
            )

    @property
    def h1(self) -> float:
        return self.omega1 / self.n1

    @property
    def h2(self) -> float:
        return self.omega2 / self.n2

    @property
    def size(self) -> int:
        return self.n1 * self.n2

    @property
    def x1(self) -> np.ndarray:
        """Midpoints along the first axis."""
        return (np.arange(self.n1) + 0.5) * self.h1

    @property
    def x2(self) -> np.ndarray:
        return (np.arange(self.n2) + 0.5) * self.h2

    @property
    def p1(self) -> np.ndarray:
        """Difference-lattice offsets along axis 1, -(n1-1)..n1-1."""
        return np.arange(-(self.n1 - 1), self.n1)

    @property
    def p2(self) -> np.ndarray:
        return np.arange(-(self.n2 - 1), self.n2)

    def axis_n(self, axis: int) -> int:
        self._check_axis(axis)
        return self.n1 if axis == 1 else self.n2

    def axis_h(self, axis: int) -> float:
        self._check_axis(axis)
        return self.h1 if axis == 1 else self.h2

    @staticmethod
    def _check_axis(axis: int):
        if axis not in (1, 2):
            raise InvalidArgumentError(f"axis must be 1 or 2, got {axis}")

    def to2d(self, flat: np.ndarray) -> np.ndarray:
        """Flat (n1*n2,) vector -> (n2, n1) array indexed [b, a]."""
        return np.asarray(flat).reshape(self.n2, self.n1)

    def outer_flat(self, f1: np.ndarray, f2: np.ndarray) -> np.ndarray:
        """Flat grid function f1(x1) * f2(x2) from per-axis samples."""
        return (np.asarray(f2)[:, None] * np.asarray(f1)[None, :]).reshape(self.size)


def make_grid(omega1: float, omega2: float, n1: int, n2: int) -> GridSpec:
    """Validated GridSpec constructor."""
    if not isinstance(n1, (int, np.integer)) or not isinstance(n2, (int, np.integer)):
        raise InvalidArgumentError(f"point counts must be integers, got ({n1!r}, {n2!r})")
    return GridSpec(float(omega1), float(omega2), int(n1), int(n2))


# --------------------------------------------------------------------------
# kernel model
# --------------------------------------------------------------------------

Fun1 = Callable[[np.ndarray], np.ndarray]
Fun2 = Callable[[np.ndarray, np.ndarray], np.ndarray]


def _zeros1(u):
    return np.zeros(np.shape(u))


def _zeros2(x1, x2):
    return np.zeros(np.broadcast(np.asarray(x1), np.asarray(x2)).shape)


@dataclass(frozen=True)
class KernelModel:
    """Structured kernel: jump coefficient, edge profiles, smooth part.

    ``alpha``/``beta`` take arguments anywhere on (-omega2, omega2) /
    (-omega1, omega1); the sigma family is defined on the extended
    rectangle.  ``v`` must be the mixed partial of ``sigma`` (checked by
    finite differences in the test suite, not at construction).  The
    package evaluates the parts one by one (:func:`sample_kernel`,
    :func:`normalize_model`); s itself, summed from them pointwise, is
    evaluated only by the test suite's references.
    """

    c: complex = 1.0
    alpha: Fun1 = _zeros1
    dalpha: Fun1 = _zeros1
    beta: Fun1 = _zeros1
    dbeta: Fun1 = _zeros1
    sigma: Fun2 = _zeros2
    sigma_x1: Fun2 = _zeros2
    sigma_x2: Fun2 = _zeros2
    v: Fun2 = _zeros2
    name: str = "custom"


def _eval_checked(label: str, fn: Callable, *args) -> np.ndarray:
    """fn(*args) as an array; a non-finite value raises KernelEvaluationError
    naming the evaluator and the first offending index.  Floating-point
    warnings inside fn are not raised: the inf or nan they leave is what
    this check reports."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        out = np.asarray(fn(*args))
    if not np.all(np.isfinite(out)):
        bad = np.argwhere(~np.isfinite(out))
        idx = tuple(bad[0]) if bad.size else ()
        raise KernelEvaluationError(
            f"kernel evaluator '{label}' returned a non-finite value", point=idx
        )
    return out


@dataclass(frozen=True)
class KernelSamples:
    """The kernel samples some discrete operator reads, on one grid.

    Lattice arrays are (2n1-1, 2n2-1), indexed [p1 + n1 - 1, p2 + n2 - 1]
    so the zero difference sits at the center.  The mixed and corner
    families sample the smooth part where the one-sided building blocks
    need it: mixed = one argument at (+-)midpoints, the other on the
    lattice; corner = both arguments at (+-)midpoints.  Readers:

    * S reads c, v_lat, dalpha_lat and dbeta_lat;
    * M_1k reads c, the lattice derivatives, alpha_pos / beta_pos and
      the posmid family; M_4k the same with alpha_neg / beta_neg and
      the negmid family;
    * K11, K12 and K4 read the corner families sigma_pn, sigma_np and
      sigma_nn through :meth:`s_pos_neg`, :meth:`s_neg_pos` and
      :meth:`s_neg_neg`; the h right-hand side y reads s_neg_neg too.
    """

    grid: GridSpec
    model: KernelModel
    c: complex
    v_lat: np.ndarray        # v at (p1 h1, p2 h2)
    dalpha_lat: np.ndarray   # alpha'(p2 h2), (2n2-1,)
    dbeta_lat: np.ndarray    # beta'(p1 h1), (2n1-1,)
    alpha_pos: np.ndarray    # alpha(+x2 midpoints)
    alpha_neg: np.ndarray    # alpha(-x2 midpoints)
    beta_pos: np.ndarray
    beta_neg: np.ndarray
    sigma_x2_posmid: np.ndarray  # sigma_x2(+x1 mid, lattice2), (n1, 2n2-1)
    sigma_x2_negmid: np.ndarray  # sigma_x2(-x1 mid, lattice2)
    sigma_x1_posmid: np.ndarray  # sigma_x1(lattice1, +x2 mid), (2n1-1, n2)
    sigma_x1_negmid: np.ndarray
    sigma_pn: np.ndarray     # sigma(+x1 mid, -x2 mid), (n1, n2)
    sigma_np: np.ndarray     # sigma(-x1 mid, +x2 mid)
    sigma_nn: np.ndarray     # sigma(-x1 mid, -x2 mid)
    normalized: bool = False

    def __post_init__(self):
        expected = (2 * self.grid.n1 - 1, 2 * self.grid.n2 - 1)
        if self.v_lat.shape != expected:
            raise InvalidArgumentError(f"v_lat must have shape {expected}")

    def s_pos_neg(self) -> np.ndarray:
        """s(x1, -t2) on midpoints, (n1, n2): sign factors are (+, -)."""
        return (-0.25 * self.c
                + 0.5 * self.alpha_neg[None, :]
                - 0.5 * self.beta_pos[:, None]
                + self.sigma_pn)

    def s_neg_pos(self) -> np.ndarray:
        """s(-t1, x2) on midpoints, (n1, n2) indexed [a, b]."""
        return (-0.25 * self.c
                - 0.5 * self.alpha_pos[None, :]
                + 0.5 * self.beta_neg[:, None]
                + self.sigma_np)

    def s_neg_neg(self) -> np.ndarray:
        """s(-t1, -t2) on midpoints, (n1, n2)."""
        return (0.25 * self.c
                - 0.5 * self.alpha_neg[None, :]
                - 0.5 * self.beta_neg[:, None]
                + self.sigma_nn)


def sample_kernel(model: KernelModel, grid: GridSpec) -> KernelSamples:
    """Evaluate the kernel model on every sample family one grid needs."""
    L1 = (grid.p1 * grid.h1)[:, None]
    L2 = (grid.p2 * grid.h2)[None, :]
    x1, x2 = grid.x1, grid.x2
    return KernelSamples(
        grid=grid,
        model=model,
        c=model.c,
        v_lat=_eval_checked("v", model.v, L1, L2),
        dalpha_lat=_eval_checked("dalpha", model.dalpha, grid.p2 * grid.h2),
        dbeta_lat=_eval_checked("dbeta", model.dbeta, grid.p1 * grid.h1),
        alpha_pos=_eval_checked("alpha", model.alpha, x2),
        alpha_neg=_eval_checked("alpha", model.alpha, -x2),
        beta_pos=_eval_checked("beta", model.beta, x1),
        beta_neg=_eval_checked("beta", model.beta, -x1),
        sigma_x2_posmid=_eval_checked("sigma_x2", model.sigma_x2, x1[:, None], L2),
        sigma_x2_negmid=_eval_checked("sigma_x2", model.sigma_x2, -x1[:, None], L2),
        sigma_x1_posmid=_eval_checked("sigma_x1", model.sigma_x1, L1, x2[None, :]),
        sigma_x1_negmid=_eval_checked("sigma_x1", model.sigma_x1, L1, -x2[None, :]),
        sigma_pn=_eval_checked("sigma", model.sigma, x1[:, None], -x2[None, :]),
        sigma_np=_eval_checked("sigma", model.sigma, -x1[:, None], x2[None, :]),
        sigma_nn=_eval_checked("sigma", model.sigma, -x1[:, None], -x2[None, :]),
    )


def normalize_model(model: KernelModel, grid: GridSpec) -> KernelModel:
    """Re-center the smooth part so its quadrant quadratures vanish.

    Subtracts the per-argument discrete means over the quadrants with one
    negative coordinate and adds back the total mean:

        sigma_hat(x1, x2) = sigma(x1, x2) - m2(x1) - m1(x2) + m12,
        m1(x2) = mean_a sigma(-x1_a, x2),   m2(x1) = mean_b sigma(x1, -x2_b),

    where the means run over the grid midpoints.  The derivative
    evaluators are adjusted consistently; the mixed partial v is
    untouched, so the induced operator S is exactly unchanged.  Only the
    smooth part is re-centered; c, alpha, beta are left alone.
    """
    xn1 = -grid.x1
    xn2 = -grid.x2

    def mean_first(fn, x2):
        x2 = np.asarray(x2, dtype=float)
        block = fn(xn1.reshape((-1,) + (1,) * x2.ndim), x2[None, ...])
        return np.asarray(block).mean(axis=0)

    def mean_second(fn, x1):
        x1 = np.asarray(x1, dtype=float)
        block = fn(np.asarray(x1)[..., None], xn2.reshape((1,) * x1.ndim + (-1,)))
        return np.asarray(block).mean(axis=-1)

    # an overflowing mean leaves inf in sigma_hat, which sampling reports
    with np.errstate(over="ignore", invalid="ignore"):
        m12 = complex(np.asarray(model.sigma(xn1[:, None], xn2[None, :])).mean())
    if m12.imag == 0:
        m12 = m12.real

    sig, sig1, sig2 = model.sigma, model.sigma_x1, model.sigma_x2

    def sigma_hat(x1, x2):
        return sig(x1, x2) - mean_second(sig, x1) - mean_first(sig, x2) + m12

    def sigma_x1_hat(x1, x2):
        return sig1(x1, x2) - mean_second(sig1, x1) + _zeros2(x1, x2)

    def sigma_x2_hat(x1, x2):
        return sig2(x1, x2) - mean_first(sig2, x2) + _zeros2(x1, x2)

    return KernelModel(
        c=model.c,
        alpha=model.alpha, dalpha=model.dalpha,
        beta=model.beta, dbeta=model.dbeta,
        sigma=sigma_hat, sigma_x1=sigma_x1_hat, sigma_x2=sigma_x2_hat,
        v=model.v,
        name=model.name,
    )


def normalize_kernel(samples: KernelSamples) -> KernelSamples:
    """Sampled view of :func:`normalize_model`.  Samples that are already
    normalized are returned as they are, so closures never nest."""
    if samples.normalized:
        return samples
    hat = normalize_model(samples.model, samples.grid)
    out = sample_kernel(hat, samples.grid)
    object.__setattr__(out, "normalized", True)
    return out
