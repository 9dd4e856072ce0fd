"""Brute-force reference implementations and their agreement contracts."""

import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from diffkern2d.errors import InvalidArgumentError, SingularOperatorError
from diffkern2d.grid import KernelModel
from diffkern2d.kernels import exp_kernel, identity_kernel, separable_factors
from diffkern2d.operators import m_op

from conftest import rich_model, samples_for
from oracle import Kernel1D, kernel1d_from_profile, oracle_m_op, rho_1d


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

