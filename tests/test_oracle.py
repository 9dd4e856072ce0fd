"""Brute-force reference implementations and their agreement contracts."""

import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from diffkern2d.errors import InvalidArgumentError, SingularOperatorError
from diffkern2d.grid import KernelModel, make_grid
from diffkern2d.kernels import exp_kernel, identity_kernel, separable_factors
from diffkern2d.operators import ConvOperator, m_op
from diffkern2d.oracle import (
    Kernel1D,
    extract_generating_kernel,
    generating_kernel_corner_table,
    kernel1d_from_profile,
    oracle_m_op,
    rebuild_from_corner_table,
    rho_1d,
)

from conftest import kron_integration, rich_model, samples_for


class TestOracleMOps:
    def test_all_zero_kernel_gives_zero(self):
        s = samples_for(identity_kernel(c=0.0), 4, normalize=False)
        for j, k in ((1, 1), (1, 2), (4, 1), (4, 2)):
            assert np.abs(oracle_m_op(s, j, k)).max() == 0.0

    def test_broadcast_block_is_exact(self):
        s = samples_for(identity_kernel(c=1.0), 4)
        got = oracle_m_op(s, 3, 1)
        assert_allclose(got, m_op(s, 3, 1), rtol=0, atol=0)

    def test_jump_part_reproduced_exactly(self):
        # the centered stencil crosses the sign jump with weight 2/h,
        # reproducing the delta contribution with no error at all
        s = samples_for(identity_kernel(c=1.0), 6)
        for j, k in ((1, 1), (1, 2), (4, 1), (4, 2)):
            assert np.abs(oracle_m_op(s, j, k) - m_op(s, j, k)).max() <= 1e-14

    def test_non_finite_model_rejected(self):
        # the oracle evaluates the model off the sampled lattice, where the
        # samples' own finite check never looked
        s = samples_for(exp_kernel(), 4)
        bad = KernelModel(c=1.0, name="nan",
                          sigma=lambda x1, x2: np.full(np.broadcast(x1, x2).shape, np.nan))
        with pytest.raises(InvalidArgumentError, match="non-finite"):
            oracle_m_op(dataclasses.replace(s, model=bad), 1, 1)

    @pytest.mark.parametrize("jk", [(1, 1), (1, 2), (4, 1), (4, 2)])
    def test_disagreement_with_analytic_path_halves(self, jk):
        j, k = jk
        gaps = []
        for n in (8, 16, 32):
            s = samples_for(rich_model(), n)
            gap = np.abs(oracle_m_op(s, j, k) - m_op(s, j, k)).max()
            gaps.append(gap / np.abs(m_op(s, j, k)).max())
        orders = [np.log2(gaps[i] / gaps[i + 1]) for i in range(2)]
        assert min(orders) >= 0.8, (jk, gaps)


class TestGeneratingKernel:
    def test_identity_gives_indicator(self):
        g = make_grid(1.0, 1.0, 4, 4)
        q = extract_generating_kernel(np.eye(16), g, (2, 3))
        chi = np.zeros((4, 4))
        chi[:3, :2] = 1.0
        assert_allclose(q, chi.reshape(16), rtol=0, atol=0)

    def test_out_of_range_point(self):
        g = make_grid(1.0, 1.0, 4, 4)
        with pytest.raises(InvalidArgumentError):
            extract_generating_kernel(np.eye(16), g, (4, 0))

    def test_antiderivative_operator_cumulative_form(self):
        # Q = A1: q(x, t) = i h1 (strict-upper cumulative + 1/2 current)
        # of the indicator along axis 1, computed by hand
        g = make_grid(1.0, 1.0, 4, 4)
        A1 = kron_integration(g, 1)
        a, b = 3, 2
        q = extract_generating_kernel(A1, g, (a, b))
        chi = np.zeros((4, 4))
        chi[:b, :a] = 1.0
        stencil = np.triu(np.ones((4, 4)), 1) + 0.5 * np.eye(4)
        hand = 1j * g.h1 * (chi @ stencil.T)
        assert_allclose(q, hand.reshape(16), rtol=0, atol=1e-15)

    def test_round_trip_conv_operator(self, rng):
        s = samples_for(exp_kernel(), 6)
        S = ConvOperator(s)
        qtab = generating_kernel_corner_table(S.dense(), s.grid)
        for _ in range(5):
            f = rng.standard_normal(36) + 1j * rng.standard_normal(36)
            want = S.apply_fft(f)
            got = rebuild_from_corner_table(qtab, s.grid, f)
            assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()

    def test_round_trip_random_dense(self, rng):
        g = make_grid(1.0, 1.0, 4, 4)
        for _ in range(20):
            Q = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
            qtab = generating_kernel_corner_table(Q, g)
            f = rng.standard_normal(16) + 1j * rng.standard_normal(16)
            got = rebuild_from_corner_table(qtab, g, f)
            assert np.abs(got - Q @ f).max() <= 1e-10 * np.abs(Q @ f).max()


class TestRho1D:
    def test_identity_geometric_sum(self):
        k1 = Kernel1D(1.0, 8, 1.0, np.zeros(15))
        lam, mu = 1.3, 0.4
        x = k1.midpoints
        want = k1.h * np.sum(np.exp(1j * (lam - mu) * x))
        assert abs(rho_1d(k1, lam, mu) - want) <= 1e-13
        assert abs(rho_1d(k1, lam, lam) - 1.0) <= 1e-13   # = omega at lam = mu

    def test_two_assembly_routes_agree(self):
        import scipy.linalg

        (c1, v1), _ = separable_factors()
        k1 = kernel1d_from_profile(1.0, 12, c1, v1)
        # independent route: scipy.linalg.toeplitz from column/row samples
        col = k1.v_lat[k1.n - 1:]
        row = k1.v_lat[: k1.n][::-1]
        T = c1 * np.eye(12) + k1.h * scipy.linalg.toeplitz(col, row)
        lam, mu = 0.9, -0.6
        x = k1.midpoints
        el = np.exp(1j * lam * x)
        em = np.exp(-1j * mu * x)
        want = k1.h * np.sum(em * np.linalg.solve(T, el))
        assert abs(rho_1d(k1, lam, mu) - want) <= 1e-12

    def test_singular_1d_rejected(self):
        k1 = Kernel1D(1.0, 6, 0.0, np.ones(11))   # rank-one
        with pytest.raises(SingularOperatorError):
            rho_1d(k1, 1.0, 1.0)

