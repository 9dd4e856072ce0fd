"""Shared fixtures, model builders and dense assembly helpers for the test
suite.  The brute-force references (quadrature ``M_jk``, the pointwise s,
the 1-D solver) are in ``oracle.py``; tests import both modules by name."""

import numpy as np
import pytest

from diffkern2d.grid import (
    GridSpec,
    KernelModel,
    make_grid,
    normalize_kernel,
    sample_kernel,
)
from diffkern2d.kernels import (
    exp_kernel,
    gaussian_kernel,
    identity_kernel,
    poly_kernel,
    separable_kernel,
    with_profiles,
)
from diffkern2d.operators import ConvOperator


def rich_model():
    """exp smooth part with nonzero alpha/beta edge profiles."""
    return with_profiles(
        exp_kernel(c=1.0, amp=0.12, b1=0.9, b2=0.6),
        alpha=("sin", 0.1, 1.3),
        beta=("exp", 0.08, 0.5),
    )


def x1_only_model():
    """Operator acting along x1 only: S = (c I + conv(v1)) (x) I."""
    return separable_kernel(c1=1.0, amp1=0.3, r1=0.8, c2=1.0, amp2=0.0, r2=1.0)


def even_model():
    """v = 0.5 exp(-(x1^2 + x2^2)) and the unit jump: one separable term
    whose Toeplitz factors are real symmetric."""
    return KernelModel(v=lambda x1, x2: 0.5 * np.exp(-(x1**2 + x2**2)), name="even")


MODEL_BUILDERS = {
    "zero": lambda: identity_kernel(c=1.0),
    "exp": lambda: exp_kernel(),
    "poly": lambda: poly_kernel(),
    "gaussian": lambda: gaussian_kernel(),
    "separable": lambda: separable_kernel(),
    "rich": rich_model,
}


def samples_for(model, n1, n2=None, omega1=1.0, omega2=1.0, normalize=True):
    grid = make_grid(omega1, omega2, n1, n2 if n2 is not None else n1)
    samples = sample_kernel(model, grid)
    return normalize_kernel(samples) if normalize else samples


def operator_for(model, n1, n2=None, **kw) -> ConvOperator:
    return ConvOperator(samples_for(model, n1, n2, **kw))


def dense_oracle_S(samples) -> np.ndarray:
    """Entrywise dense assembly straight from the model evaluators.

    Independent of ConvOperator's lattice-kernel assembly: every entry is
    computed from its own kernel evaluation at the difference offsets.
    """
    g = samples.grid
    m = samples.model
    n1, n2 = g.n1, g.n2
    S = np.zeros((g.size, g.size), dtype=complex)
    for b in range(n2):
        for a in range(n1):
            row = b * n1 + a
            for bp in range(n2):
                for ap in range(n1):
                    col = bp * n1 + ap
                    d1 = (a - ap) * g.h1
                    d2 = (b - bp) * g.h2
                    val = g.h1 * g.h2 * complex(np.asarray(m.v(d1, d2)))
                    if bp == b:
                        val += g.h1 * complex(np.asarray(m.dbeta(d1)))
                    if ap == a:
                        val += g.h2 * complex(np.asarray(m.dalpha(d2)))
                    if row == col:
                        val += samples.c
                    S[row, col] = val
    return S


def kron_integration(g, axis) -> np.ndarray:
    """A_k as an N x N Kronecker matrix with a hand-built midpoint stencil
    i h (strict lower cumulative + 1/2 current)."""
    n, h = g.axis_n(axis), g.axis_h(axis)
    stencil = 1j * h * (np.tril(np.ones((n, n)), -1) + 0.5 * np.eye(n))
    if axis == 1:
        return np.kron(np.eye(g.n2), stencil)
    return np.kron(stencil, np.eye(g.n1))


def convergence_orders(values):
    """Successive log2 ratios of a decreasing residual sequence."""
    v = np.asarray(values, dtype=float)
    return [float(np.log2(v[j] / v[j + 1])) for j in range(len(v) - 1)]


@pytest.fixture
def grid8() -> GridSpec:
    return make_grid(1.0, 1.0, 8, 8)


@pytest.fixture
def exp_samples8():
    return samples_for(exp_kernel(), 8)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def ones_model():
    """sigma identically 1 (zero derivatives), c = 1."""
    return KernelModel(
        c=1.0,
        sigma=lambda x1, x2: np.ones(np.broadcast(np.asarray(x1), np.asarray(x2)).shape),
        name="ones",
    )
