"""Residual verification of the two displacement-identity families."""

import tracemalloc

import numpy as np
import pytest

from diffkern2d.errors import InvalidArgumentError
from diffkern2d.kernels import exp_kernel, identity_kernel
from diffkern2d.operators import (
    ConvOperator,
    assemble_pi,
    discrete_generator,
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
        out[f"disp_k{k}"] = displacement_identity_residual(S, assemble_pi(s, k))
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
    # the rank read from the generator's core against a dense SVD of the
    # displacement built here from N x N Kronecker matrices, at three
    # tolerances down to roundoff; n = 32 for one kernel only
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


GENERATOR_CASES = [(tag, n1, n2) for tag in [*MODEL_BUILDERS, "complex"]
                   for n1, n2 in ((8, 8), (5, 7), (12, 9), (7, 4))]


class TestDiscreteGenerator:
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("tag,n1,n2", GENERATOR_CASES,
                             ids=[f"{t}-{a}x{b}" for t, a, b in GENERATOR_CASES])
    def test_matches_kron_displacement(self, tag, n1, n2, k):
        # G H against A_k S - S A_k^* from N x N Kronecker matrices, with
        # unequal sides and a complex kernel
        model = exp_kernel(amp=0.05 + 0.1j) if tag == "complex" else MODEL_BUILDERS[tag]()
        S = ConvOperator(samples_for(model, n1, n2=n2, omega1=1.3, omega2=0.9))
        A, D = kron_integration(S.grid, k), S.dense()
        disp = A @ D - D @ A.conj().T
        G, H = discrete_generator(S, k)
        n_i = S.grid.axis_n(3 - k)
        assert G.shape == (n1 * n2, 2 * n_i) and H.shape == (2 * n_i, n1 * n2)
        assert np.linalg.norm(G @ H - disp) <= 1e-13 * np.linalg.norm(disp)

    def test_bad_axis(self):
        S = ConvOperator(samples_for(exp_kernel(), 4))
        with pytest.raises(InvalidArgumentError):
            discrete_generator(S, 3)


class TestAnisotropicGrids:
    # rectangular grids with unequal sides catch axis mixups that square
    # grids hide
    def test_jump_kernel_exact_off_square(self):
        s = samples_for(identity_kernel(c=1.0), 6, n2=10, omega1=1.7, omega2=0.9)
        S = ConvOperator(s)
        assert displacement_identity_residual(S, assemble_pi(s, 1)) <= 1e-12
        assert displacement_identity_residual(S, assemble_pi(s, 2)) <= 1e-12
        assert m4_identity_residual(s, 2, 1) <= 1e-12
        assert m4_identity_residual(s, 1, 2) <= 1e-12

    def test_smooth_kernel_converges_off_square(self):
        vals = []
        for n1, n2 in ((6, 10), (12, 20)):
            s = samples_for(rich_model(), n1, n2=n2, omega1=1.7, omega2=0.9)
            S = ConvOperator(s)
            vals.append(displacement_identity_residual(S, assemble_pi(s, 1)))
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
            want = np.linalg.norm(disp - 1j * pp.pi @ pp.pi_hat) / np.linalg.norm(D)
            got = displacement_identity_residual(S, pp)
            assert abs(got - want) <= 1e-12 * want
            sv = np.linalg.svd(disp, compute_uv=False)
            assert displacement_rank(S, k) == int(np.sum(sv > 1e-10 * sv[0]))

            i = 3 - k
            M4k = m_op(s, 4, k)
            line = line_integration_op(g, i)
            side = line @ M4k - M4k @ kron_integration(g, i).conj().T - 1j * (
                k_op(s, "K11" if i == 1 else "K12") @ m_op(s, 2, i)
                + k_op(s, "K21" if i == 1 else "K22") @ k_op(s, "K4"))
            want = np.linalg.norm(side) / np.linalg.norm(line @ M4k)
            assert abs(m4_identity_residual(s, i, k) - want) <= 1e-12 * want


RESIDUAL_CASES = [(tag, n1, n2) for tag in [*MODEL_BUILDERS, "complex"]
                  for n1, n2 in ((8, 8), (5, 7), (12, 9), (7, 4), (6, 10))]


class TestDisplacementResidual:
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("tag,n1,n2", RESIDUAL_CASES,
                             ids=[f"{t}-{a}x{b}" for t, a, b in RESIDUAL_CASES])
    def test_matches_kron_formula(self, tag, n1, n2, k):
        # the prefix-sum residual against A D - D A^* - i Pi PiHat from N x N
        # Kronecker matrices; absolute, since poly's exact residual is ~1e-16
        model = exp_kernel(amp=0.05 + 0.1j) if tag == "complex" else MODEL_BUILDERS[tag]()
        s = samples_for(model, n1, n2=n2, omega1=1.7, omega2=0.9)
        S, pp = ConvOperator(s), assemble_pi(s, k)
        A, D = kron_integration(S.grid, k), S.dense()
        R = A @ D - D @ A.conj().T - 1j * pp.pi @ pp.pi_hat
        want = np.linalg.norm(R) / np.linalg.norm(D)
        assert abs(displacement_identity_residual(S, pp) - want) <= 1e-14

    @pytest.mark.parametrize("k", [1, 2])
    def test_zero_operator_reads_zero(self, k):
        # c = 0 and no kernel: S, Pi_k PiHat_k and so the residual vanish,
        # with no 0/0
        s = samples_for(identity_kernel(c=0.0), 4, n2=5, normalize=False)
        assert displacement_identity_residual(ConvOperator(s), assemble_pi(s, k)) == 0.0

    @pytest.mark.parametrize("k", [1, 2])
    def test_memory_stays_below_three_dense_copies(self, k):
        # with D cached, room for one real work array and a real Pi PiHat;
        # a single complex N x N temporary takes 16 N^2 bytes on its own
        s = samples_for(rich_model(), 32)
        S, pp = ConvOperator(s), assemble_pi(s, k)
        S.dense()
        tracemalloc.start()
        try:
            displacement_identity_residual(S, pp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 8 * S.grid.size ** 2


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
        assert np.abs(disp - 1j * pp.pi @ pp.pi_hat).max() <= 1e-14
