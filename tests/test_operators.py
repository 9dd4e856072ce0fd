"""Convolution operator, antiderivative operators, M/K blocks, Pi pairs."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from diffkern2d.errors import InvalidArgumentError
from diffkern2d.grid import make_grid
from diffkern2d.kernels import exp_kernel, identity_kernel, poly_kernel
from diffkern2d.operators import (
    ConvOperator,
    apply_along,
    assemble_pi,
    k_op,
    line_integration_op,
    m_op,
    pi_factor,
)

from conftest import (
    MODEL_BUILDERS,
    dense_oracle_S,
    kron_integration,
    rich_model,
    samples_for,
)
from oracle import grid_inner, s_values


class TestConvApply:
    def test_identity_operator(self, rng):
        S = ConvOperator(samples_for(identity_kernel(c=1.0), 8))
        f = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        assert_allclose(S.apply_fft(f), f, rtol=0, atol=1e-14)

    def test_constant_kernel_integrates_to_area(self):
        # c = 0, v = 1: S f is the plain integral of f, = 1 for f = 1
        S = ConvOperator(samples_for(poly_kernel(c=0.0, amp=1.0, q=0.0), 8,
                                     normalize=False))
        out = S.apply_fft(np.ones(64))
        assert_allclose(out, np.ones(64), rtol=0, atol=1e-13)

    def test_matches_entrywise_dense_oracle(self):
        s = samples_for(exp_kernel(), 8)
        S = ConvOperator(s)
        g = s.grid
        f = g.outer_flat(g.x1, g.x2)                # f = x1 x2 sampled
        oracle = dense_oracle_S(s)
        got = S.apply_fft(f)
        want = oracle @ f
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_fft_and_dense_paths_agree(self, rng):
        for n in (8, 16, 32):
            S = ConvOperator(samples_for(exp_kernel(), n))
            D = S.dense()
            for _ in range(10):
                f = rng.standard_normal(n * n) + 1j * rng.standard_normal(n * n)
                diff = np.linalg.norm(S.apply_fft(f) - D @ f) / np.linalg.norm(D @ f)
                assert diff <= 1e-12

    @pytest.mark.parametrize("kernel", ["real", "complex"])
    @pytest.mark.parametrize("n1,n2", [(8, 8), (5, 7), (7, 4)])
    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("cols", [None, 3])
    def test_fft_matches_dense_any_input(self, rng, kernel, n1, n2, dtype, cols):
        # the half-spectrum path (real input, real kernel) and the full
        # complex path, on square and odd non-square grids
        model = rich_model() if kernel == "real" else exp_kernel(amp=0.05 + 0.1j)
        S = ConvOperator(samples_for(model, n1, n2=n2, omega1=1.7, omega2=0.9))
        shape = (n1 * n2,) if cols is None else (n1 * n2, cols)
        f = rng.standard_normal(shape).astype(dtype)
        if dtype is complex:
            f += 1j * rng.standard_normal(shape)
        got, want = S.apply_fft(f), S.dense() @ f
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    @staticmethod
    def padded_apply(S, flat):
        """The full padded formula: one rfft2/irfft2 (or fft2/ifft2) on the
        (2 n2, 2 n1) circulant embedding, with the leading block kept."""
        import scipy.fft

        g = S.grid
        f3 = flat.reshape(g.size, -1).T.reshape(-1, g.n2, g.n1)
        shape = (2 * g.n2, 2 * g.n1)
        if S.half_spectrum is not None and np.isrealobj(flat):
            out = scipy.fft.irfft2(scipy.fft.rfft2(f3, s=shape) * S.half_spectrum, s=shape)
        else:
            out = scipy.fft.ifft2(scipy.fft.fft2(f3, s=shape) * S.spectrum)
        return out[:, : g.n2, : g.n1].reshape(-1, g.size).T.reshape(flat.shape)

    @pytest.mark.parametrize("tag", [*MODEL_BUILDERS, "complex"])
    @pytest.mark.parametrize("n1,n2", [(5, 7), (12, 9), (7, 4)])
    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("cols", [None, 3])
    def test_pruned_fft_matches_dense_and_padded(self, rng, tag, n1, n2, dtype, cols):
        # the x1 transforms run on the n2 data rows only; the result is the
        # full padded formula's, and real stays real through a real kernel
        model = exp_kernel(amp=0.05 + 0.1j) if tag == "complex" else MODEL_BUILDERS[tag]()
        S = ConvOperator(samples_for(model, n1, n2=n2, omega1=1.7, omega2=0.9))
        shape = (n1 * n2,) if cols is None else (n1 * n2, cols)
        f = rng.standard_normal(shape).astype(dtype)
        if dtype is complex:
            f += 1j * rng.standard_normal(shape)
        got, want, padded = S.apply_fft(f), S.dense() @ f, self.padded_apply(S, f)
        assert got.shape == want.shape and got.dtype == want.dtype == padded.dtype
        if tag != "complex" and dtype is float:
            assert got.dtype == np.float64
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
        assert np.linalg.norm(got - padded) <= 1e-15 * np.linalg.norm(padded)

    @pytest.mark.parametrize("tag", [*MODEL_BUILDERS, "complex"])
    @pytest.mark.parametrize("n1,n2", [(8, 8), (5, 7), (12, 9), (7, 4)])
    def test_persymmetric(self, tag, n1, n2):
        # J S J = S^T for the index reversal J, entry for entry: the
        # condition estimate's S^{-H} solves rest on it
        model = exp_kernel(amp=0.05 + 0.1j) if tag == "complex" else MODEL_BUILDERS[tag]()
        D = ConvOperator(samples_for(model, n1, n2=n2, omega1=1.7, omega2=0.9)).dense()
        assert np.array_equal(D[::-1, ::-1], D.T)

    @pytest.mark.parametrize("tag", [*MODEL_BUILDERS, "complex"])
    @pytest.mark.parametrize("n1,n2", [(8, 8), (5, 7), (12, 9)])
    def test_norm1_matches_dense(self, tag, n1, n2):
        model = exp_kernel(amp=0.05 + 0.1j) if tag == "complex" else MODEL_BUILDERS[tag]()
        S = ConvOperator(samples_for(model, n1, n2=n2, omega1=1.7, omega2=0.9))
        want = np.linalg.norm(S.dense(), 1)
        assert abs(S.norm1() - want) <= 1e-12 * want

    def test_dense_has_constant_diagonals(self):
        s = samples_for(exp_kernel(), 6)
        D = ConvOperator(s).dense()
        g = s.grid
        scale = np.abs(D).max()
        seen = {}
        for b in range(g.n2):
            for a in range(g.n1):
                for bp in range(g.n2):
                    for ap in range(g.n1):
                        key = (a - ap, b - bp)
                        val = D[b * g.n1 + a, bp * g.n1 + ap]
                        if key in seen:
                            assert abs(val - seen[key]) <= 1e-12 * scale
                        else:
                            seen[key] = val

    def test_grid_mismatch_rejected(self):
        S = ConvOperator(samples_for(identity_kernel(), 8))
        with pytest.raises(InvalidArgumentError):
            S.apply_fft(np.zeros(16))               # a 4 x 4 grid function

    def test_apply_fft_rejects_bad_shape(self):
        S = ConvOperator(samples_for(identity_kernel(), 8))
        for shape in ((65,), (64, 2, 2)):
            with pytest.raises(InvalidArgumentError):
                S.apply_fft(np.zeros(shape))

    def test_dense_guard(self):
        s = samples_for(identity_kernel(), 80, normalize=False)
        S = ConvOperator(s)
        with pytest.raises(InvalidArgumentError):
            S.dense()


class TestIntegrationOps:
    def test_antiderivative_of_ones_is_ix(self):
        g = make_grid(1.0, 1.0, 4, 4)
        calA = line_integration_op(g, 1)
        out = apply_along(calA, np.ones(16).astype(complex), g, 1)
        want = g.outer_flat(1j * g.x1, np.ones(4))
        assert_allclose(out, want, rtol=0, atol=1e-15)

    def test_sum_with_adjoint_on_ones(self):
        # (A1 + A1*) 1 = i (2 x1 - omega1): the two integration ranges
        # join into the full interval minus the reflected part
        g = make_grid(1.0, 1.0, 4, 4)
        calA = line_integration_op(g, 1)
        ones = np.ones(16)
        out = apply_along(calA, ones, g, 1) + apply_along(calA.conj().T, ones, g, 1)
        want = g.outer_flat(1j * (2 * g.x1 - g.omega1), np.ones(4))
        assert_allclose(out, want, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("adjoint", [False, True], ids=["fwd", "adj"])
    @pytest.mark.parametrize("cols", [None, 3], ids=["vec", "block"])
    @pytest.mark.parametrize("axis", [1, 2])
    def test_against_kron_oracle(self, rng, axis, cols, adjoint):
        # non-square grid with unequal sides; a real (N,) vector or a
        # complex (N, m) block
        g = make_grid(1.3, 2.0, 5, 8)
        calA = line_integration_op(g, axis)
        oracle = kron_integration(g, axis)
        if adjoint:
            calA, oracle = calA.conj().T, oracle.conj().T
        if cols is None:
            f = rng.standard_normal(g.size)
        else:
            f = rng.standard_normal((g.size, cols)) + 1j * rng.standard_normal((g.size, cols))
        out = apply_along(calA, f, g, axis)
        assert out.shape == f.shape
        assert_allclose(out, oracle @ f, rtol=0, atol=1e-14)

    def test_shape_check(self):
        g = make_grid(1.0, 1.0, 4, 6)
        with pytest.raises(InvalidArgumentError):
            apply_along(np.eye(4), np.ones(24), g, 2)
        with pytest.raises(InvalidArgumentError):
            apply_along(np.eye(4), np.ones(23), g, 1)

    def test_adjoint_on_ones(self):
        # A1* 1 = -i (omega1 - x1): integration from x1 up to the far side
        g = make_grid(1.0, 1.0, 4, 4)
        calA = line_integration_op(g, 1)
        adj = apply_along(calA.conj().T, np.ones(16).astype(complex), g, 1)
        assert_allclose(adj, g.outer_flat(-1j * (g.omega1 - g.x1), np.ones(4)),
                        rtol=0, atol=1e-15)

    def test_adjoint_consistency(self, rng):
        g = make_grid(1.3, 0.8, 6, 5)
        f = rng.standard_normal(g.size) + 1j * rng.standard_normal(g.size)
        h = rng.standard_normal(g.size) + 1j * rng.standard_normal(g.size)
        for axis in (1, 2):
            calA = line_integration_op(g, axis)
            lhs = grid_inner(g, apply_along(calA, f, g, axis), h)
            rhs = grid_inner(g, f, apply_along(calA.conj().T, h, g, axis))
            assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)

    def test_line_op_matches_grid_stencil(self):
        g = make_grid(1.0, 1.0, 4, 6)
        calA = line_integration_op(g, 2)
        out = calA @ np.ones(6).astype(complex)
        assert_allclose(out, 1j * g.x2, rtol=0, atol=1e-15)


class TestMOps:
    def test_m31_broadcast(self):
        s = samples_for(exp_kernel(), 4)
        g = s.grid
        out = m_op(s, 3, 1) @ np.ones(4).astype(complex)
        assert_allclose(out, np.ones(16), rtol=0, atol=0)
        # and the line function m32 broadcasts along the other axis
        out2 = m_op(s, 3, 2) @ np.arange(4).astype(complex)
        assert_allclose(g.to2d(out2)[2, :], np.arange(4))

    def test_all_zero_kernel_gives_zero_m11(self):
        s = samples_for(identity_kernel(c=0.0), 4, normalize=False)
        assert np.abs(m_op(s, 1, 1)).max() == 0.0
        assert np.abs(m_op(s, 4, 2)).max() == 0.0

    def test_jump_only_expansions(self):
        # c = 1, everything else 0: M11 = broadcast/2, M41 = M21/2
        s = samples_for(identity_kernel(c=1.0), 6)
        M11 = m_op(s, 1, 1)
        M31 = m_op(s, 3, 1)
        assert_allclose(M11, 0.5 * M31, rtol=0, atol=1e-15)
        M41 = m_op(s, 4, 1)
        M21 = m_op(s, 2, 1)
        assert_allclose(M41, 0.5 * M21, rtol=0, atol=1e-15)

    def test_row_sum_operator(self):
        s = samples_for(exp_kernel(), 4)
        g = s.grid
        f = np.arange(16.0)
        out = m_op(s, 2, 1) @ f.astype(complex)
        want = g.h1 * g.to2d(f).sum(axis=1)
        assert_allclose(out, want)

    def test_invalid_jk(self):
        s = samples_for(exp_kernel(), 4)
        with pytest.raises(InvalidArgumentError):
            m_op(s, 5, 1)
        with pytest.raises(InvalidArgumentError):
            m_op(s, 1, 3)


class TestKOps:
    def test_constant_embedding(self):
        s = samples_for(exp_kernel(), 5)
        out = k_op(s, "K21") @ np.array([1.0 + 0j])
        assert_allclose(out, np.ones(5), rtol=0, atol=0)
        out2 = k_op(s, "K22") @ np.array([1.0 + 0j])
        assert_allclose(out2, np.ones(5), rtol=0, atol=0)

    def test_side_integral_of_ones(self):
        # K31 integrates over (0, omega2): f = 1 gives omega2 on every x1
        s = samples_for(exp_kernel(), 4, omega2=1.0)
        out = k_op(s, "K31") @ np.ones(4).astype(complex)
        assert_allclose(out, np.ones(4), rtol=0, atol=1e-15)

    def test_total_quadrature_jump_only(self):
        # K4 on f = 1 with the pure jump kernel: quadrature of s(-t) = c/4
        s = samples_for(identity_kernel(c=1.0), 8)
        got = k_op(s, "K4") @ np.ones(64).astype(complex)
        assert_allclose(got, [0.25], rtol=0, atol=1e-15)
        # dense quadrature oracle for a smooth kernel
        s2 = samples_for(exp_kernel(), 8)
        m = s2.model
        g = s2.grid
        want = 0.0
        for b in range(8):
            for a in range(8):
                want += g.h1 * g.h2 * complex(
                    np.asarray(s_values(m, -g.x1[a], -g.x2[b])))
        got2 = k_op(s2, "K4") @ np.ones(64).astype(complex)
        assert abs(got2[0] - want) <= 1e-13

    def test_k11_uses_sign_expansion(self):
        # s(x1, -t2) = -c/4 + alpha(-t2)/2 - beta(x1)/2 + sigma(x1, -t2)
        s = samples_for(identity_kernel(c=1.0), 4)
        got = k_op(s, "K11")
        assert_allclose(got, 0.25 * s.grid.h2 * np.ones((4, 4)), rtol=0, atol=1e-15)

    def test_unknown_name(self):
        s = samples_for(exp_kernel(), 4)
        with pytest.raises(InvalidArgumentError):
            k_op(s, "K13")


class TestPiPair:
    def test_all_zero_kernel_blocks(self):
        s = samples_for(identity_kernel(c=0.0), 4, normalize=False)
        pp = assemble_pi(s, 1)
        n2, N = 4, 16
        assert np.abs(pp.pi[:, :n2]).max() == 0.0           # M11 = 0
        assert_allclose(pp.pi[:, n2:], m_op(s, 3, 1))       # M31 survives
        assert_allclose(pp.pi_hat[:n2, :], m_op(s, 2, 1))
        assert np.abs(pp.pi_hat[n2:, :]).max() == 0.0       # M41 = 0

    def test_pihat_on_ones_jump_kernel(self):
        # c=1, rest 0, unit square: PiHat_1 1 = [1; 1/2]
        s = samples_for(identity_kernel(c=1.0), 8)
        out = assemble_pi(s, 1).pi_hat @ np.ones(64).astype(complex)
        assert_allclose(out[:8], np.ones(8), rtol=0, atol=1e-14)
        assert_allclose(out[8:], 0.5 * np.ones(8), rtol=0, atol=1e-14)

    def test_product_rank_bound(self):
        s = samples_for(exp_kernel(), 8)
        pp = assemble_pi(s, 1)
        prod = pp.pi @ pp.pi_hat
        rank = np.linalg.matrix_rank(prod, tol=1e-10)
        assert rank <= 2 * s.grid.n2

    def test_bad_axis(self):
        s = samples_for(exp_kernel(), 4)
        with pytest.raises(InvalidArgumentError):
            assemble_pi(s, 3)
        with pytest.raises(InvalidArgumentError):
            pi_factor(s, 0, hat=True)

    @pytest.mark.parametrize("k", [1, 2])
    def test_factors_one_at_a_time(self, k):
        s = samples_for(rich_model(), 5, n2=7, omega1=1.7, omega2=0.9)
        pp = assemble_pi(s, k)
        assert np.array_equal(pi_factor(s, k), pp.pi)
        assert np.array_equal(pi_factor(s, k, hat=True), pp.pi_hat)

