"""Residual verification of the two displacement-identity families."""

import numpy as np
import pytest

from diffkern2d import operators
from diffkern2d.errors import InvalidArgumentError
from diffkern2d.kernels import exp_kernel, identity_kernel
from diffkern2d.operators import (
    ConvOperator,
    assemble_pi,
    displacement_identity_residual,
    displacement_rank,
    k_op,
    line_integration_op,
    m4_identity_residual,
    m_op,
)

from conftest import (
    MODEL_BUILDERS,
    convergence_orders,
    kron_integration,
    rich_model,
    samples_for,
    x1_only_model,
)


def residuals_at(model, n):
    s = samples_for(model, n)
    S = ConvOperator(s)
    out = {}
    for k in (1, 2):
        out[f"disp_k{k}"] = displacement_identity_residual(S, assemble_pi(s, k), k)
    out["side_21"] = m4_identity_residual(s, 2, 1)
    out["side_12"] = m4_identity_residual(s, 1, 2)
    return out


class TestExactJumpCase:
    def test_identities_exact_for_pure_jump(self):
        # S = c I satisfies both identity families to roundoff
        res = residuals_at(identity_kernel(c=1.0), 8)
        for name, val in res.items():
            assert val <= 1e-12, f"{name} = {val}"

    def test_exact_for_scaled_jump(self):
        res = residuals_at(identity_kernel(c=2.5), 8)
        assert max(res.values()) <= 1e-12


class TestSmoothConvergence:
    @pytest.mark.parametrize("builder", [exp_kernel, rich_model])
    def test_residuals_halve_under_refinement(self, builder):
        seq = [residuals_at(builder(), n) for n in (8, 16)]
        for name in seq[0]:
            ratio = seq[0][name] / seq[1][name]
            assert ratio >= 1.6, f"{name}: ratio {ratio}"

    def test_fitted_orders_exp(self):
        seq = [residuals_at(exp_kernel(), n) for n in (8, 16, 32)]
        for name in seq[0]:
            orders = convergence_orders([r[name] for r in seq])
            assert min(orders) >= 0.8, f"{name}: {orders}"


class TestSideIdentityErrors:
    def test_equal_axes_rejected(self):
        s = samples_for(exp_kernel(), 4)
        with pytest.raises(InvalidArgumentError):
            m4_identity_residual(s, 1, 1)


class TestDisplacementRank:
    @pytest.mark.parametrize("tag", ["zero", "exp", "separable", "gaussian"])
    @pytest.mark.parametrize("n", [8, 16])
    def test_rank_bound_all_kernels(self, tag, n):
        s = samples_for(MODEL_BUILDERS[tag](), n)
        S = ConvOperator(s)
        assert displacement_rank(S, 1) <= 2 * n + 2
        assert displacement_rank(S, 2) <= 2 * n + 2

    def test_pure_jump_small_grid(self):
        # A1 - A1* itself: one rank-one block per x2 row
        s = samples_for(identity_kernel(c=1.0), 4)
        S = ConvOperator(s)
        r = displacement_rank(S, 1)
        assert r <= 2 * 4 + 2
        assert r == 4

    def test_exp_kernel_rank(self):
        s = samples_for(exp_kernel(), 8)
        assert displacement_rank(ConvOperator(s), 1) <= 18

    def test_axis1_only_kernel(self):
        # S = S_1 (x) I commutes with nothing along axis 2 except through
        # the rank-one 1-D displacement: measured rank is exactly n1
        s = samples_for(x1_only_model(), 8)
        S = ConvOperator(s)
        r = displacement_rank(S, 2)
        assert r == 8
        assert r <= 2 * 8 + 2

    def test_rank_tolerance_sensitivity(self):
        s = samples_for(exp_kernel(), 8)
        S = ConvOperator(s)
        loose = displacement_rank(S, 1, rel_tol=1e-2)
        tight = displacement_rank(S, 1, rel_tol=1e-14)
        assert loose <= tight


SVD_CASES = [(tag, n1, n2) for tag in sorted(MODEL_BUILDERS)
             for n1, n2 in ((8, 8), (16, 16), (5, 7), (12, 20))] + [("rich", 32, 32)]


class TestSketchedRank:
    # the sketched, certified rank against a dense SVD of the displacement
    # built here from N x N Kronecker matrices; n = 32 for one kernel only,
    # where rel_tol = 1e-14 doubles the probes up to N
    @pytest.mark.parametrize("tag,n1,n2", SVD_CASES,
                             ids=[f"{t}-{a}x{b}" for t, a, b in SVD_CASES])
    def test_matches_dense_svd(self, tag, n1, n2):
        omegas = {} if n1 == n2 else {"omega1": 1.7, "omega2": 0.9}
        S = ConvOperator(samples_for(MODEL_BUILDERS[tag](), n1, n2=n2, **omegas))
        D = S.dense()
        for k in (1, 2):
            A = kron_integration(S.grid, k)
            sv = np.linalg.svd(A @ D - D @ A.conj().T, compute_uv=False)
            for rel_tol in (1e-2, 1e-10, 1e-14):
                want = int(np.sum(sv > rel_tol * sv[0]))
                assert displacement_rank(S, k, rel_tol=rel_tol) == want

    @pytest.mark.parametrize("tag", sorted(MODEL_BUILDERS))
    def test_certificate_holds_at_first_sketch(self, tag, monkeypatch):
        # at the default rel_tol one sketch of 2 n_i + 12 probes suffices:
        # no resketch, so no SVD of anything N x N
        S = ConvOperator(samples_for(MODEL_BUILDERS[tag](), 12, n2=20, omega1=1.7, omega2=0.9))
        shapes = []
        qr = np.linalg.qr

        def spy(a, *args, **kw):
            shapes.append(a.shape)
            return qr(a, *args, **kw)

        monkeypatch.setattr(np.linalg, "qr", spy)
        for k, n_i in ((1, 20), (2, 12)):
            shapes.clear()
            displacement_rank(S, k)
            assert shapes == [(240, 2 * n_i + 12)]

    def test_deterministic(self):
        S = ConvOperator(samples_for(rich_model(), 16))
        first = displacement_rank(S, 1)
        np.random.seed(3)   # global numpy state plays no part
        assert displacement_rank(S, 1) == first

    @pytest.mark.parametrize("rel_tol", [float("nan"), float("inf"), -1e-10])
    def test_bad_rel_tol_rejected(self, rel_tol):
        S = ConvOperator(samples_for(exp_kernel(), 4))
        with pytest.raises(InvalidArgumentError):
            displacement_rank(S, 1, rel_tol=rel_tol)


class TestRankCertificate:
    # a displacement with a spectrum set here, on an 8 x 8 grid: N = 64 and
    # the first sketch has p0 = 2 * 8 + 12 = 28 probes, so each count below
    # is out of reach of one sketch and needs the doubling loop
    P0 = 28

    def rank_of(self, monkeypatch, sv):
        rng = np.random.default_rng(11)
        N = sv.size
        U = np.linalg.qr(rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N)))[0]
        V = np.linalg.qr(rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N)))[0]
        disp = (U * sv) @ V.conj().T
        monkeypatch.setattr(operators, "_displacement", lambda S, k: disp)
        return displacement_rank(ConvOperator(samples_for(exp_kernel(), 8)), 1)

    def test_exact_rank_above_first_sketch(self, monkeypatch):
        sv = np.r_[np.linspace(1.0, 0.5, self.P0 + 5), np.zeros(64 - self.P0 - 5)]
        assert self.rank_of(monkeypatch, sv) == self.P0 + 5

    def test_geometric_decay_across_cutoff(self, monkeypatch):
        # 0.25^16 = 2.3e-10 is above the 1e-10 cutoff, 0.25^17 = 5.8e-11 below
        sv = np.r_[np.ones(self.P0), 0.25 ** np.arange(1, 64 - self.P0 + 1)]
        assert self.rank_of(monkeypatch, sv) == self.P0 + 16


class TestAnisotropicGrids:
    # rectangular grids with unequal sides catch axis mixups that square
    # grids hide
    def test_jump_kernel_exact_off_square(self):
        s = samples_for(identity_kernel(c=1.0), 6, n2=10, omega1=1.7, omega2=0.9)
        S = ConvOperator(s)
        assert displacement_identity_residual(S, assemble_pi(s, 1), 1) <= 1e-12
        assert displacement_identity_residual(S, assemble_pi(s, 2), 2) <= 1e-12
        assert m4_identity_residual(s, 2, 1) <= 1e-12
        assert m4_identity_residual(s, 1, 2) <= 1e-12

    def test_smooth_kernel_converges_off_square(self):
        vals = []
        for n1, n2 in ((6, 10), (12, 20)):
            s = samples_for(rich_model(), n1, n2=n2, omega1=1.7, omega2=0.9)
            S = ConvOperator(s)
            vals.append(displacement_identity_residual(S, assemble_pi(s, 1), 1))
        assert vals[0] / vals[1] >= 1.6

    @pytest.mark.parametrize("tag", ["rich", "separable"])
    def test_diagnostics_match_kron_formula_off_square(self, tag):
        # residual, rank and side identity against N x N Kronecker
        # matrices built here, on an odd non-square grid
        s = samples_for(MODEL_BUILDERS[tag](), 5, n2=7, omega1=1.7, omega2=0.9)
        S = ConvOperator(s)
        g, D = s.grid, S.dense()
        for k in (1, 2):
            A = kron_integration(g, k)
            disp = A @ D - D @ A.conj().T
            pp = assemble_pi(s, k)
            want = np.linalg.norm(disp - 1j * pp.pi.mat @ pp.pi_hat.mat) / np.linalg.norm(D)
            got = displacement_identity_residual(S, pp, k)
            assert abs(got - want) <= 1e-12 * want
            sv = np.linalg.svd(disp, compute_uv=False)
            assert displacement_rank(S, k) == int(np.sum(sv > 1e-10 * sv[0]))

            i = 3 - k
            M4k = m_op(s, 4, k).mat
            line = line_integration_op(g, i).mat
            side = line @ M4k - M4k @ kron_integration(g, i).conj().T - 1j * (
                k_op(s, "K11" if i == 1 else "K12").mat @ m_op(s, 2, i).mat
                + k_op(s, "K21" if i == 1 else "K22").mat @ k_op(s, "K4").mat)
            want = np.linalg.norm(side) / np.linalg.norm(line @ M4k)
            assert abs(m4_identity_residual(s, i, k) - want) <= 1e-12 * want


class TestJumpCaseClosedForm:
    def test_displacement_is_row_constant_block(self):
        # for S = I the displacement A1 - A1* equals i h1 x (all-ones along
        # axis 1), which is also i Pi_1 PiHat_1 with the jump expansions
        s = samples_for(identity_kernel(c=1.0), 4)
        S = ConvOperator(s)
        g = s.grid
        A = kron_integration(g, 1)
        D = S.dense()
        disp = A @ D - D @ A.conj().T
        want = 1j * g.h1 * np.kron(np.eye(4), np.ones((4, 4)))
        assert np.abs(disp - want).max() <= 1e-14
        pp = assemble_pi(s, 1)
        assert np.abs(disp - 1j * pp.pi.mat @ pp.pi_hat.mat).max() <= 1e-14
