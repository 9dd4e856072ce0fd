"""Grid conventions, kernel sampling, and normalization."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from diffkern2d.errors import InvalidArgumentError, KernelEvaluationError
from diffkern2d.grid import (
    KernelModel,
    make_grid,
    normalize_kernel,
    normalize_model,
    sample_kernel,
)
from diffkern2d.kernels import exp_kernel, identity_kernel, poly_kernel
from diffkern2d.operators import ConvOperator

from conftest import MODEL_BUILDERS, samples_for
from oracle import grid_inner, quadrant_sum_residual


def on_lattice(fn, g):
    """fn on the difference lattice (p1 h1, p2 h2), indexed [p1 + n1-1, p2 + n2-1]."""
    return fn((g.p1 * g.h1)[:, None], (g.p2 * g.h2)[None, :])


class TestMakeGrid:
    def test_unit_square(self):
        g = make_grid(1.0, 1.0, 4, 4)
        assert g.h1 == 0.25 and g.h2 == 0.25
        assert_allclose(g.x1, [0.125, 0.375, 0.625, 0.875])
        assert_allclose(g.x2, [0.125, 0.375, 0.625, 0.875])

    def test_anisotropic(self):
        g = make_grid(2.0, 1.0, 8, 4)
        assert g.h1 == 0.25 and g.h2 == 0.25

    def test_invalid_counts(self):
        with pytest.raises(InvalidArgumentError):
            make_grid(1.0, 1.0, 0, 4)
        with pytest.raises(InvalidArgumentError):
            make_grid(1.0, 1.0, 4, 1)

    def test_invalid_sides(self):
        with pytest.raises(InvalidArgumentError):
            make_grid(-1.0, 1.0, 4, 4)
        with pytest.raises(InvalidArgumentError):
            make_grid(1.0, 0.0, 4, 4)

    @pytest.mark.parametrize("sides", [(np.inf, 1.0), (1.0, np.inf), (np.nan, 1.0)])
    def test_non_finite_sides(self, sides):
        # h_i = omega_i / n_i must be a finite spacing
        with pytest.raises(InvalidArgumentError, match="positive and finite"):
            make_grid(*sides, 4, 4)

    def test_layout_is_x1_fastest(self):
        g = make_grid(1.0, 2.0, 3, 4)
        flat = np.arange(g.size)
        arr = g.to2d(flat)
        # value at (a, b) lives at flat index b * n1 + a
        assert arr[2, 1] == 2 * g.n1 + 1
        assert_allclose(arr.reshape(g.size), flat)

    def test_outer_flat(self):
        g = make_grid(1.0, 1.0, 3, 2)
        f1 = np.array([1.0, 2.0, 3.0])
        f2 = np.array([10.0, 20.0])
        v = g.outer_flat(f1, f2)
        assert v[0 * 3 + 1] == 2.0 * 10.0
        assert v[1 * 3 + 2] == 3.0 * 20.0


class TestQuadratureExactness:
    def test_dft_exponentials_orthogonal(self):
        # midpoint-sampled e^{i lam x} at lam = 2 pi m / omega are exactly
        # orthogonal: <e_lam, e_mu> = omega1 omega2 delta
        g = make_grid(1.5, 0.75, 8, 6)
        ms = [(0, 0), (1, 0), (-2, 1), (3, -2), (2, 2)]
        vecs = {}
        for m1, m2 in ms:
            l1 = 2 * np.pi * m1 / g.omega1
            l2 = 2 * np.pi * m2 / g.omega2
            vecs[(m1, m2)] = g.outer_flat(np.exp(1j * l1 * g.x1), np.exp(1j * l2 * g.x2))
        for ka in ms:
            for kb in ms:
                ip = grid_inner(g, vecs[ka], vecs[kb])
                want = g.omega1 * g.omega2 if ka == kb else 0.0
                assert abs(ip - want) < 1e-12


class TestSampleKernel:
    def test_identity_model(self):
        g = make_grid(1.0, 1.0, 4, 4)
        s = sample_kernel(identity_kernel(c=1.0), g)
        assert s.c == 1.0
        assert np.all(on_lattice(s.model.sigma, g) == 0) and np.all(s.v_lat == 0)
        assert np.all(s.dalpha_lat == 0) and np.all(s.dbeta_lat == 0)

    def test_bilinear_sigma_v_is_one(self):
        # sigma = x1 x2 has mixed partial identically 1
        g = make_grid(1.0, 1.0, 2, 2)
        s = sample_kernel(poly_kernel(c=1.0, amp=1.0, q=0.0), g)
        assert_allclose(s.v_lat, np.ones((3, 3)))

    def test_exp_v_equals_sigma(self):
        # sigma = e^{x1 + x2}: v = sigma pointwise; cross-checked against
        # finite differences of the sigma samples themselves
        g = make_grid(1.0, 1.0, 4, 4)
        s = sample_kernel(exp_kernel(c=1.0, amp=1.0, b1=1.0, b2=1.0), g)
        sig = on_lattice(s.model.sigma, g)
        assert_allclose(s.v_lat, sig, rtol=1e-14)
        fd = (sig[2:, 2:] - sig[:-2, 2:] - sig[2:, :-2] + sig[:-2, :-2]) / (4 * g.h1 * g.h2)
        err = np.abs(fd - s.v_lat[1:-1, 1:-1]).max()
        assert err < 0.05 * np.abs(s.v_lat).max()

    def test_lattice_fd_reproduces_v_at_order_two(self):
        # pointwise relative error so the growing lattice extent cannot
        # inflate the error constant between refinements
        errs = []
        for n in (8, 16, 32):
            g = make_grid(1.0, 1.0, n, n)
            s = sample_kernel(exp_kernel(), g)
            sig = on_lattice(s.model.sigma, g)
            fd = (sig[2:, 2:] - sig[:-2, 2:] - sig[2:, :-2] + sig[:-2, :-2]) / (4 * g.h1 * g.h2)
            v = s.v_lat[1:-1, 1:-1]
            errs.append((np.abs(fd - v) / np.abs(v)).max())
        orders = [np.log2(errs[j] / errs[j + 1]) for j in range(2)]
        assert min(orders) >= 1.9

    def test_non_finite_evaluator_rejected(self, grid8):
        # v is read by S on the lattice, which holds x2 = 0
        bad = KernelModel(c=1.0, v=lambda x1, x2: np.asarray(x1) / np.asarray(x2))
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(KernelEvaluationError):
                sample_kernel(bad, grid8)

    def test_non_finite_profile_names_evaluator_and_point(self, grid8):
        # dbeta is sampled on the lattice p1 h1, p1 = -7..7; p1 = 5 is the
        # first offset above 0.5, at index 5 + 7
        bad = KernelModel(c=1.0, dbeta=lambda u: np.where(np.asarray(u) > 0.5, np.inf, 0.0))
        with pytest.raises(KernelEvaluationError, match="'dbeta'") as err:
            sample_kernel(bad, grid8)
        assert err.value.point == (12,)

    def test_model_derivative_consistency(self, rng):
        # finite-difference cross-check of sigma_x1, sigma_x2, v against
        # sigma at random interior points, measured order ~2
        m = exp_kernel(amp=0.5, b1=1.1, b2=0.6)
        pts = rng.uniform(-0.4, 0.4, size=(20, 2))
        for fd_of, target in (("x1", m.sigma_x1), ("x2", m.sigma_x2), ("v", m.v)):
            errs = []
            for step in (1e-2, 5e-3):
                worst = 0.0
                for x1, x2 in pts:
                    if fd_of == "x1":
                        fd = (m.sigma(x1 + step, x2) - m.sigma(x1 - step, x2)) / (2 * step)
                    elif fd_of == "x2":
                        fd = (m.sigma(x1, x2 + step) - m.sigma(x1, x2 - step)) / (2 * step)
                    else:
                        fd = (m.sigma(x1 + step, x2 + step) - m.sigma(x1 - step, x2 + step)
                              - m.sigma(x1 + step, x2 - step) + m.sigma(x1 - step, x2 - step)
                              ) / (4 * step * step)
                    worst = max(worst, abs(fd - target(x1, x2)))
                errs.append(worst)
            assert np.log2(errs[0] / errs[1]) >= 1.9


class TestNormalize:
    def test_fixed_point(self):
        s = samples_for(exp_kernel(), 4)          # already normalized
        assert normalize_kernel(s) is s           # no second layer of closures
        g = s.grid
        again = sample_kernel(normalize_model(normalize_model(exp_kernel(), g), g), g)
        for fn in ("sigma", "sigma_x1"):
            diff = on_lattice(getattr(again.model, fn), g) - on_lattice(getattr(s.model, fn), g)
            assert np.abs(diff).max() <= 1e-14
        assert np.abs(again.sigma_nn - s.sigma_nn).max() <= 1e-14

    def test_constant_sigma_cancels(self, ones_model):
        g = make_grid(1.0, 1.0, 4, 4)
        s = normalize_kernel(sample_kernel(ones_model, g))
        assert np.abs(on_lattice(s.model.sigma, g)).max() <= 1e-14
        assert quadrant_sum_residual(s) <= 1e-14

    def test_exp_quadrant_sums_vanish(self):
        g = make_grid(1.0, 1.0, 4, 4)
        raw = sample_kernel(exp_kernel(), g)
        assert quadrant_sum_residual(raw) > 1e-3   # genuinely off before
        s = normalize_kernel(raw)
        assert quadrant_sum_residual(s) <= 1e-13

    def test_operator_part_unchanged(self):
        # v, alpha', beta', c define S, so normalization leaves S's lattice
        # kernel bit for bit, on every model kernel and a complex one
        models = [*MODEL_BUILDERS.values(), lambda: exp_kernel(amp=0.05 + 0.1j)]
        for build in models:
            for n1, n2, omega1, omega2 in [(8, 8, 1.0, 1.0), (13, 10, 1.7, 0.9)]:
                raw = samples_for(build(), n1, n2, omega1, omega2, normalize=False)
                s = normalize_kernel(raw)
                assert s is not raw
                assert np.array_equal(ConvOperator(s).lattice_kernel,
                                      ConvOperator(raw).lattice_kernel)
                assert s.c == raw.c
