"""Builtin kernel families and edge-profile builders.

Families set the smooth part sigma (and its derivatives) in closed form;
``alpha``/``beta`` edge profiles can be attached independently, except for
``separable`` which fixes them so that the 2-D operator is exactly the
tensor product of two 1-D difference-kernel operators.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidArgumentError
from .grid import KernelModel, _zeros1, _zeros2

__all__ = [
    "identity_kernel",
    "exp_kernel",
    "poly_kernel",
    "gaussian_kernel",
    "separable_kernel",
    "separable_factors",
    "PROFILE_KINDS",
    "make_profile",
    "with_profiles",
]


def identity_kernel(c: float = 1.0) -> KernelModel:
    """S = c I: pure jump part, no convolutions."""
    return KernelModel(c=c, name="identity")


def exp_kernel(c: float = 1.0, amp: float = 0.15, b1: float = 1.0, b2: float = 0.7) -> KernelModel:
    """sigma(x) = amp * exp(b1 x1 + b2 x2)."""
    def E(x1, x2):
        return amp * np.exp(b1 * np.asarray(x1) + b2 * np.asarray(x2))
    return KernelModel(
        c=c,
        sigma=E,
        sigma_x1=lambda x1, x2: b1 * E(x1, x2),
        sigma_x2=lambda x1, x2: b2 * E(x1, x2),
        v=lambda x1, x2: b1 * b2 * E(x1, x2),
        name="exp",
    )


def poly_kernel(c: float = 1.0, amp: float = 0.3, q: float = 0.5) -> KernelModel:
    """sigma(x) = amp * (x1 x2 + q x1^2 x2^2)."""
    def S(x1, x2):
        x1 = np.asarray(x1); x2 = np.asarray(x2)
        return amp * (x1 * x2 + q * x1**2 * x2**2)
    return KernelModel(
        c=c,
        sigma=S,
        sigma_x1=lambda x1, x2: amp * (np.asarray(x2) + 2 * q * np.asarray(x1) * np.asarray(x2)**2),
        sigma_x2=lambda x1, x2: amp * (np.asarray(x1) + 2 * q * np.asarray(x1)**2 * np.asarray(x2)),
        v=lambda x1, x2: amp * (1.0 + 4 * q * np.asarray(x1) * np.asarray(x2)) + _zeros2(x1, x2),
        name="poly",
    )


def gaussian_kernel(c: float = 1.0, amp: float = 0.4, width: float = 0.45) -> KernelModel:
    """sigma(x) = amp * exp(-(x1^2 + x2^2) / (2 width^2))."""
    w2 = width * width

    def E(x1, x2):
        x1 = np.asarray(x1); x2 = np.asarray(x2)
        return amp * np.exp(-(x1**2 + x2**2) / (2 * w2))

    return KernelModel(
        c=c,
        sigma=E,
        sigma_x1=lambda x1, x2: -np.asarray(x1) / w2 * E(x1, x2),
        sigma_x2=lambda x1, x2: -np.asarray(x2) / w2 * E(x1, x2),
        v=lambda x1, x2: np.asarray(x1) * np.asarray(x2) / (w2 * w2) * E(x1, x2),
        name="gaussian",
    )


def separable_factors(c1=1.0, amp1=0.3, r1=0.8, c2=1.0, amp2=0.25, r2=-0.5):
    """The two 1-D factor descriptions (c_i, v_i) with v_i(u) = amp_i e^{r_i u}."""
    if r1 == 0 or r2 == 0:
        raise InvalidArgumentError("separable profile rates must be nonzero")
    v1 = lambda u: amp1 * np.exp(r1 * np.asarray(u))
    v2 = lambda u: amp2 * np.exp(r2 * np.asarray(u))
    return (c1, v1), (c2, v2)


def separable_kernel(c1=1.0, amp1=0.3, r1=0.8, c2=1.0, amp2=0.25, r2=-0.5) -> KernelModel:
    """Tensor product of two 1-D operators c_i I + conv(v_i).

    With V_i an antiderivative of v_i the four parts are c = c1 c2,
    alpha = c1 V2, beta = c2 V1 and sigma = V1 V2, which makes the
    discrete 2-D operator exactly the Kronecker product of the 1-D ones.
    """
    (c1, v1), (c2, v2) = separable_factors(c1, amp1, r1, c2, amp2, r2)
    V1 = lambda u: (amp1 / r1) * np.exp(r1 * np.asarray(u))
    V2 = lambda u: (amp2 / r2) * np.exp(r2 * np.asarray(u))
    return KernelModel(
        c=c1 * c2,
        alpha=lambda u: c1 * V2(u), dalpha=lambda u: c1 * v2(u),
        beta=lambda u: c2 * V1(u), dbeta=lambda u: c2 * v1(u),
        sigma=lambda x1, x2: V1(x1) * V2(x2),
        sigma_x1=lambda x1, x2: v1(x1) * V2(x2),
        sigma_x2=lambda x1, x2: V1(x1) * v2(x2),
        v=lambda x1, x2: v1(x1) * v2(x2),
        name="separable",
    )


PROFILE_KINDS = ("none", "exp", "sin", "cos")


def make_profile(kind: str, amp: float = 0.1, rate: float = 1.0):
    """Edge profile (f, f') of the given kind: none, exp, sin, or cos."""
    if kind == "none":
        return _zeros1, _zeros1
    if kind == "exp":
        return (lambda u: amp * np.exp(rate * np.asarray(u)),
                lambda u: amp * rate * np.exp(rate * np.asarray(u)))
    if kind == "sin":
        return (lambda u: amp * np.sin(rate * np.asarray(u)),
                lambda u: amp * rate * np.cos(rate * np.asarray(u)))
    if kind == "cos":
        return (lambda u: amp * np.cos(rate * np.asarray(u)),
                lambda u: -amp * rate * np.sin(rate * np.asarray(u)))
    raise InvalidArgumentError(f"unknown profile kind {kind!r}, expected one of {PROFILE_KINDS}")


def with_profiles(model: KernelModel,
                  alpha=("none", 0.0, 0.0),
                  beta=("none", 0.0, 0.0)) -> KernelModel:
    """Attach alpha/beta edge profiles to a kernel model."""
    a, da = make_profile(*alpha)
    b, db = make_profile(*beta)
    return KernelModel(
        c=model.c, alpha=a, dalpha=da, beta=b, dbeta=db,
        sigma=model.sigma, sigma_x1=model.sigma_x1,
        sigma_x2=model.sigma_x2, v=model.v,
        name=model.name,
    )
