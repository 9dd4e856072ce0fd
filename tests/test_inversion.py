"""Solving, g blocks, theta/psi, rho (direct and structured), inverse
reconstruction, and the test-side structure check."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from diffkern2d import inversion
from diffkern2d.errors import (
    ConvergenceError,
    InvalidArgumentError,
    PoleProximityError,
    SingularOperatorError,
    UnsupportedEvaluationError,
)
from diffkern2d.grid import KernelModel, make_grid
from diffkern2d.inversion import (
    RhoEvaluator,
    build_rho_evaluator,
    build_rho_table,
    compute_g_blocks,
    dft_frequencies,
    g_symmetry_residual,
    inverse_from_rho,
    pair_flip_transform,
    rho_direct,
    rho_structured,
    solve_array,
    structured_axes,
    y_samples,
)
from diffkern2d.kernels import exp_kernel, identity_kernel, poly_kernel, separable_kernel
from diffkern2d.operators import ConvOperator, apply_along, assemble_pi, k_op

from conftest import MODEL_BUILDERS, convergence_orders, rich_model, samples_for
from oracle import check_difference_kernel, rho_table_unit_basis, s_values


def deconv_model():
    """The deconv benchmark's kernel, Hermitian: MINRES needs about 34
    iterations at 64^2."""
    from diffkern2d.kernels import gaussian_kernel

    return gaussian_kernel(amp=8.0, width=0.15)


def restart_operator():
    """A non-Hermitian operator whose GMRES crosses several restarts:
    gaussian amp 10 with an exp beta profile, 96 x 80 on 1.7 x 0.9."""
    from diffkern2d.kernels import gaussian_kernel, with_profiles

    model = with_profiles(gaussian_kernel(amp=10.0, width=0.15), beta=("exp", 0.08, 0.5))
    S = ConvOperator(samples_for(model, 96, n2=80, omega1=1.7, omega2=0.9))
    assert not S.hermitian
    return S


class TestSolve:
    def test_identity_returns_rhs(self, rng):
        S = ConvOperator(samples_for(identity_kernel(c=1.0), 8))
        rhs = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        out = solve_array(S, rhs)
        assert_allclose(out, rhs, rtol=0, atol=1e-13)

    def test_round_trip(self, rng):
        S = ConvOperator(samples_for(exp_kernel(), 8))
        f0 = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        rhs = S.apply_fft(f0)
        rec = solve_array(S, rhs)
        assert np.linalg.norm(rec - f0) / np.linalg.norm(f0) <= 1e-9

    def test_rank_one_operator_rejected(self):
        # c = 0 with constant v: S integrates to a constant, rank one
        S = ConvOperator(samples_for(poly_kernel(c=0.0, amp=1.0, q=0.0), 6,
                                     normalize=False))
        with pytest.raises(SingularOperatorError):
            solve_array(S, np.ones(36))

    def test_rank_one_operator_rejected_on_iterative_path(self):
        # one column at 40^2 starts on GMRES, whose rank-one solves fail
        # and hand over to the LU and its condition check
        S = ConvOperator(samples_for(poly_kernel(c=0.0, amp=1.0, q=0.0), 40,
                                     normalize=False))
        with pytest.raises(SingularOperatorError):
            solve_array(S, np.ones(1600))

    def test_condition_limit_from_estimate(self, monkeypatch):
        monkeypatch.setattr(inversion, "COND_LIMIT", 1.0)
        S = ConvOperator(samples_for(deconv_model(), 48))
        with pytest.raises(SingularOperatorError) as err:
            solve_array(S, np.ones(48 * 48))
        assert S._dense is None
        assert err.value.cond == S._cond_est[0] > 1.0

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_empty_block_returns_at_once(self, dtype, monkeypatch):
        estimates = []
        monkeypatch.setattr(inversion, "_cond_estimate",
                            lambda *args: estimates.append(1) or (1.0, 2, 0.0))
        S = ConvOperator(samples_for(exp_kernel(), 24))
        X = solve_array(S, np.zeros((576, 0), dtype=dtype))
        assert X.shape == (576, 0) and X.dtype == np.dtype(dtype)
        assert estimates == [] and S._cond_est is None and S._lu is None

    def test_shape_check(self):
        S = ConvOperator(samples_for(exp_kernel(), 8))
        with pytest.raises(InvalidArgumentError):
            solve_array(S, np.ones(63))
        with pytest.raises(InvalidArgumentError):
            solve_array(S, np.ones((64, 2, 2)))

    @pytest.mark.parametrize("n", [8, 80])     # dense LU / GMRES above the guard
    def test_block_rhs_matches_column_solves(self, n, rng):
        S = ConvOperator(samples_for(exp_kernel(amp=0.05), n, normalize=False))
        B = rng.standard_normal((n * n, 3)) + 1j * rng.standard_normal((n * n, 3))
        X = solve_array(S, B)
        assert X.shape == B.shape
        for j in range(3):
            col = solve_array(S, B[:, j])
            assert np.linalg.norm(X[:, j] - col) <= 1e-12 * np.linalg.norm(col)

    def test_backward_error_checked_for_every_column(self, rng, monkeypatch):
        monkeypatch.setattr(inversion, "BACKWARD_TOL", 0.0)
        S = ConvOperator(samples_for(exp_kernel(), 8))
        B = np.zeros((64, 3), dtype=complex)
        B[:, 2] = rng.standard_normal(64)
        with pytest.raises(ConvergenceError, match="column 2"):
            solve_array(S, B)

    def test_nan_solution_fails_backward_check(self):
        S = ConvOperator(samples_for(exp_kernel(), 8))
        B = np.ones((64, 2))
        with pytest.raises(ConvergenceError, match="column 0"):
            inversion._check_backward(S, B, np.full_like(B, np.nan))

    @staticmethod
    def lu_path_returning(S, monkeypatch, spoil):
        """Make solve_array's LU path (its factor cached) return
        ``spoil(X)``, for its backward check to judge."""
        S.solve_lu()
        solve = inversion._lu_solve
        monkeypatch.setattr(inversion, "_lu_solve", lambda S, B: spoil(solve(S, B)))

    def test_dense_check_names_perturbed_column_past_first_block(self, rng, monkeypatch):
        monkeypatch.setattr(inversion, "CHECK_BLOCK", 64)   # 8 columns per block, the floor
        S = ConvOperator(samples_for(exp_kernel(), 8))
        B = rng.standard_normal((64, 10))
        bump = []

        def perturb(X):
            X[3, 9] += sum(bump)
            return X

        self.lu_path_returning(S, monkeypatch, perturb)
        solve_array(S, B)       # every block passes unperturbed
        bump.append(1e-3)
        with pytest.raises(ConvergenceError, match=r"\(column 9\)"):
            solve_array(S, B)

    def test_check_names_column_in_shorter_last_block(self, rng, monkeypatch):
        # an N x m block, m not N: 8 columns per block, the last of 5
        monkeypatch.setattr(inversion, "CHECK_BLOCK", 64)
        S = ConvOperator(samples_for(exp_kernel(), 8))
        blocks = inversion._blocks(64, 21)
        assert [len(range(21)[cols]) for cols in blocks] == [8, 8, 5]
        B = rng.standard_normal((64, 21))
        X = np.linalg.solve(S.dense(), B)
        inversion._check_backward(S, B, X)      # every block passes
        X[3, 19] += 1e-3
        with pytest.raises(ConvergenceError, match=r"\(column 19\)"):
            inversion._check_backward(S, B, X)

    def test_mis_assembled_matrix_fails_the_lu_check(self, rng, monkeypatch):
        # the LU solves the nudged matrix to rounding, so only a check
        # independent of the assembly sees that it is not S
        assemble = ConvOperator._assemble_dense

        def nudged(self, order="C"):
            D = assemble(self, order)
            D[5, 7] += 1e-6
            return D

        monkeypatch.setattr(ConvOperator, "_assemble_dense", nudged)
        S = ConvOperator(samples_for(exp_kernel(), 8))
        S.solve_lu()
        with pytest.raises(ConvergenceError, match="backward error"):
            solve_array(S, rng.standard_normal((64, 3)))

    def test_lu_keeps_no_dense_copy(self, rng):
        # the LU factors an assembly of its own; dense() still assembles
        # and caches S for its callers
        S = ConvOperator(samples_for(exp_kernel(), 8))
        B = rng.standard_normal((64, 64))
        X = solve_array(S, B)
        assert S._lu is not None and S._dense is None
        D = S.dense()
        assert S._dense is D and D.shape == (64, 64)
        assert np.linalg.norm(D @ X - B) <= 1e-12 * np.linalg.norm(B)

    def test_dense_check_fails_nan_solution(self, monkeypatch):
        S = ConvOperator(samples_for(exp_kernel(), 8))
        self.lu_path_returning(S, monkeypatch, lambda X: np.full_like(X, np.nan))
        with pytest.raises(ConvergenceError, match=r"\(column 0\)"):
            solve_array(S, np.ones((64, 3)))

    def test_dense_check_of_complex_rhs_matches_fft_check(self, rng, monkeypatch):
        # the check of a complex rhs against a real S reads the backward
        # error of the assembled matrix's product
        monkeypatch.setattr(inversion, "BACKWARD_TOL", -1.0)   # report every column
        S = ConvOperator(samples_for(exp_kernel(), 5, n2=7, omega1=1.7, omega2=0.9))
        assert np.isrealobj(S.dense())
        B = rng.standard_normal((35, 6)) + 1j * rng.standard_normal((35, 6))
        X = np.linalg.solve(S.dense(), B)
        X += 1e-3 * np.arange(6) * (rng.standard_normal((35, 6)) + 1j)

        for j in range(6):
            with pytest.raises(ConvergenceError) as err:
                inversion._check_backward(S, B[:, [j]], X[:, [j]])
            dense = np.linalg.norm(S.dense() @ X[:, j] - B[:, j]) / np.linalg.norm(B[:, j])
            assert abs(err.value.residuals[0] - dense) <= 1e-13

    @pytest.mark.filterwarnings("error")
    def test_huge_rhs_passes_the_backward_check(self, rng):
        # entries near 1e300 square past the largest double; each column's
        # norms are scaled by its largest entry
        S = ConvOperator(samples_for(exp_kernel(), 8))
        B = 1e300 * rng.standard_normal((64, 3))
        X = solve_array(S, B)
        assert S._lu is not None
        assert np.linalg.norm(S.apply_fft(X[:, 0] / 1e300) - B[:, 0] / 1e300) <= (
            1e-12 * np.linalg.norm(B[:, 0] / 1e300))
        with pytest.raises(ConvergenceError, match="column 1"):
            inversion._check_backward(S, B, X + [[0.0, 1e295, 0.0]])

    @pytest.mark.filterwarnings("error")
    # GMRES (exp) and MINRES (gaussian), below / above the guard
    @pytest.mark.parametrize("n,model", [
        pytest.param(40, exp_kernel, id="40"), pytest.param(80, exp_kernel, id="80"),
        pytest.param(40, deconv_model, id="40-hermitian"),
        pytest.param(80, deconv_model, id="80-hermitian")])
    def test_huge_rhs_on_the_gmres_path(self, n, model):
        # ||b|| squares past the largest double; the column is solved
        # scaled by a power of two, so its backward error on the scaled
        # vectors is its last true residual
        S = ConvOperator(samples_for(model(), n))
        b = 1e155 * np.ones(n * n)
        x = solve_array(S, b)
        assert S._lu is None
        e = np.frexp(1e155)[1]
        xs, bs = np.ldexp(x, -e), np.ldexp(b, -e)
        assert np.linalg.norm(S.apply_fft(xs) - bs) <= inversion.GMRES_RTOL * np.linalg.norm(bs)

    @pytest.mark.parametrize("n1,n2", [(8, 8), (66, 64)])   # below / above the guard
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rhs_rejected(self, n1, n2, bad):
        import warnings

        S = ConvOperator(samples_for(exp_kernel(), n1, n2=n2))
        B = np.ones((n1 * n2, 3), dtype=complex)
        B[5, 1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidArgumentError, match="rhs column 1 "):
                solve_array(S, B)
            with pytest.raises(InvalidArgumentError, match="rhs column 0 "):
                solve_array(S, B[:, 1])
        assert S._lu is None and S._cond_est is None

    @pytest.mark.parametrize("tag", ["zero", "exp", "poly", "gaussian",
                                     "separable", "rich"])
    def test_round_trip_every_kernel(self, tag, rng):
        from conftest import MODEL_BUILDERS

        S = ConvOperator(samples_for(MODEL_BUILDERS[tag](), 8))
        f0 = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        rec = solve_array(S, S.apply_fft(f0))
        assert np.linalg.norm(rec - f0) / np.linalg.norm(f0) <= 1e-9

    def test_iterative_path_above_dense_guard(self, rng):
        # 80 x 80 > dense guard: GMRES with the FFT matvec
        S = ConvOperator(samples_for(exp_kernel(amp=0.05), 80, normalize=False))
        f0 = rng.standard_normal(6400)
        rec = solve_array(S, S.apply_fft(f0))
        assert np.linalg.norm(rec - f0) / np.linalg.norm(f0) <= 1e-8

    def test_iterative_non_convergence_reports_history(self, monkeypatch):
        from diffkern2d.errors import ConvergenceError

        monkeypatch.setattr(inversion, "GMRES_RTOL", 1e-300)
        monkeypatch.setattr(inversion, "GMRES_MAXITER", 120)
        columns = []
        real = inversion._gmres_column

        def spy(S, b, j, matvecs):
            columns.append(j)
            return real(S, b, j, matvecs)

        monkeypatch.setattr(inversion, "_gmres_column", spy)
        S = ConvOperator(samples_for(exp_kernel(), 80, normalize=False))
        with pytest.raises(ConvergenceError, match=r"column 0\)") as err:
            solve_array(S, np.ones(6400))
        assert len(err.value.residuals) > 0
        # the cap counts iterations over all cycles: two restarts in, after
        # cycles of 50, 50 and 20 iterations, one estimate each
        assert columns == [0] and "did not reach" in str(err.value)
        assert len(err.value.residuals) == 120
        assert all(type(r) is float for r in err.value.residuals)
        # column 0 is zero and converges at once; column 1 fails
        B = np.zeros((6400, 2), dtype=complex)
        B[:, 1] = 1j
        with pytest.raises(ConvergenceError, match=r"column 1\)"):
            solve_array(S, B)

    @pytest.mark.parametrize("n", [8, 80])     # dense LU / GMRES above the guard
    @pytest.mark.parametrize("kernel", ["real", "complex"])
    def test_result_dtype(self, n, kernel, rng):
        # the result is real exactly when S and the right-hand side are real
        amp = 0.05 if kernel == "real" else 0.05 + 0.1j
        S = ConvOperator(samples_for(exp_kernel(amp=amp), n, normalize=False))
        b = rng.standard_normal(n * n)
        want = np.float64 if kernel == "real" else np.complex128
        assert solve_array(S, b).dtype == want
        assert solve_array(S, b + 1j * b).dtype == np.complex128

    def test_iterative_complex_block_round_trips(self, rng):
        # real S, complex block above the guard; column 1 has a zero
        # imaginary part
        S = ConvOperator(samples_for(exp_kernel(amp=0.05), 80, normalize=False))
        F = rng.standard_normal((6400, 2)) + 1j * rng.standard_normal((6400, 2))
        F[:, 1] = F[:, 1].real
        rec = solve_array(S, S.apply_fft(F))
        assert np.linalg.norm(rec - F) <= 1e-8 * np.linalg.norm(F)
        assert np.linalg.norm(rec[:, 1].imag) <= 1e-8 * np.linalg.norm(F[:, 1])


class TestBackendChoice:
    """Below the guard the cost rule of solve_array picks LU or GMRES."""

    @pytest.fixture
    def gmres_calls(self, monkeypatch):
        # one entry per GMRES column solve
        calls = []
        real = inversion._gmres_column

        def spy(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(inversion, "_gmres_column", spy)
        return calls

    def test_one_column_at_8_takes_lu(self, rng, gmres_calls):
        S = ConvOperator(samples_for(exp_kernel(), 8))
        f0 = rng.standard_normal(64)
        rec = solve_array(S, S.apply_fft(f0))
        assert S._lu is not None and gmres_calls == []
        assert np.linalg.norm(rec - f0) <= 1e-12 * np.linalg.norm(f0)

    def test_one_deconv_column_at_48_takes_gmres(self, rng, gmres_calls):
        S = ConvOperator(samples_for(deconv_model(), 48))
        f0 = rng.standard_normal(48 * 48)
        rec = solve_array(S, S.apply_fft(f0))
        assert S._dense is None and S._lu is None
        assert S._cond_est is not None and len(gmres_calls) > 1
        assert np.linalg.norm(rec - f0) <= 1e-8 * np.linalg.norm(f0)

    def test_rho_table_block_at_32_takes_lu(self, rng, gmres_calls):
        S = ConvOperator(samples_for(exp_kernel(), 32))
        B = rng.standard_normal((1024, 1024)) + 1j * rng.standard_normal((1024, 1024))
        solve_array(S, B)
        assert S._lu is not None and gmres_calls == []

    def test_g_blocks_at_32_take_lu_without_estimate(self, gmres_calls):
        # 128 pair columns priced at two iterations each lose to one LU
        # before any condition estimate is run
        samples = samples_for(exp_kernel(), 32)
        S = ConvOperator(samples)
        compute_g_blocks(S, samples)
        assert S._lu is not None and gmres_calls == []
        assert S._cond_est is None


    def test_gaussian_evaluator_at_32_hands_over_after_one_gmres_solve(self, gmres_calls):
        # the 2 n2 + 1 columns are priced for GMRES at two iterations; the
        # estimate's first solve needs far more (88, by MINRES: the kernel
        # is Hermitian), and once the whole job at its count so far
        # overdraws the LU's cost it stops and the LU takes over
        from diffkern2d.kernels import gaussian_kernel

        s = samples_for(gaussian_kernel(amp=8.0, width=0.15), 32, omega1=1.7, omega2=0.9)
        S = ConvOperator(s)
        build_rho_evaluator(S, s)
        assert len(gmres_calls) == 1
        assert S._lu is not None and S._cond_est is None

    def test_estimate_hands_over_once_its_first_solve_cannot_fit(self):
        # deconv's P2 config in CI: one column, gaussian amp 8 at 40 x 24
        # on 1.7 x 0.9, Hermitian.  The estimate's first solve would take
        # 88 MINRES iterations, so it, the estimate's other solves and the
        # column cannot fit the allowance (215 matvecs); that solve stops
        # at its share and the LU takes over.  Spending the whole
        # allowance on the estimate first took 214 matvecs.
        from diffkern2d.kernels import gaussian_kernel

        S = ConvOperator(samples_for(gaussian_kernel(amp=8.0, width=0.15), 40, n2=24,
                                     omega1=1.7, omega2=0.9))
        f0 = np.random.default_rng(2).integers(0, 256, 40 * 24).astype(float)
        b = S.apply_fft(f0)
        calls = []
        apply_fft = S.apply_fft
        S.apply_fft = lambda f: calls.append(1) or apply_fft(f)
        rec = solve_array(S, b)
        N = S.grid.size
        allowance = int(inversion._t_lu(N, 1) / inversion._t_it(N))
        assert 0 < len(calls) <= allowance // (inversion.ESTIMATE_SOLVES + 1)
        assert S._lu is not None and S._cond_est is None
        assert np.linalg.norm(rec - f0) <= 1e-12 * np.linalg.norm(f0)


class TestGmres:
    """The restarted GMRES of _gmres: agreement with scipy's, its paths,
    its matvec count and its failures."""

    @staticmethod
    def counting(S):
        """Count S's FFT matvecs."""
        calls = []
        real = S.apply_fft

        def spy(f):
            calls.append(1)
            return real(f)

        S.apply_fft = spy
        return calls

    @pytest.mark.parametrize("tag", list(MODEL_BUILDERS))
    @pytest.mark.parametrize("n1,n2", [(5, 7), (12, 9), (48, 40)])
    def test_agrees_with_scipy_gmres(self, tag, n1, n2, rng):
        import scipy.linalg
        import scipy.sparse.linalg

        from diffkern2d.cli import _cond_2

        S = ConvOperator(samples_for(MODEL_BUILDERS[tag](), n1, n2=n2, omega1=1.7, omega2=0.9))
        D = S.dense()
        # cond_2 by Lanczos, which TestCond2 pins to np.linalg.cond
        cond = _cond_2(S, scipy.linalg.inv(D, assume_a="general"))
        rtol = inversion.GMRES_RTOL
        for b in (rng.standard_normal(n1 * n2),
                  rng.standard_normal(n1 * n2) + 1j * rng.standard_normal(n1 * n2)):
            x = inversion._gmres(S, b)[0]
            op = scipy.sparse.linalg.LinearOperator(D.shape, matvec=S.apply_fft, dtype=x.dtype)
            ref, info = scipy.sparse.linalg.gmres(
                op, b, rtol=rtol, atol=0.0, restart=inversion.GMRES_RESTART,
                maxiter=inversion.GMRES_MAXITER // inversion.GMRES_RESTART)
            assert info == 0 and x.dtype == np.result_type(D, b)
            for sol in (x, ref):
                assert np.linalg.norm(D @ sol - b) <= rtol * np.linalg.norm(b)
            assert np.linalg.norm(x - ref) <= 10 * cond * rtol * np.linalg.norm(ref)

    def test_restart_path(self, rng):
        S = restart_operator()
        f0 = rng.standard_normal(S.grid.size)
        b = S.apply_fft(f0)
        calls = self.counting(S)
        x, k, spent = inversion._gmres(S, b)
        assert k > 3 * inversion.GMRES_RESTART
        # one matvec per iteration and one true residual per cycle
        assert len(calls) == spent == k + -(-k // inversion.GMRES_RESTART)
        assert np.linalg.norm(S.apply_fft(x) - b) <= inversion.GMRES_RTOL * np.linalg.norm(b)
        assert np.linalg.norm(x - f0) <= 1e-6 * np.linalg.norm(f0)

    def test_allowance_bounds_the_matvecs(self, rng):
        # the restart path's column spends one matvec per iteration and one
        # true residual per cycle; every smaller allowance stops it within
        # what it allows, the exact one solves it unchanged
        S = restart_operator()
        b = S.apply_fft(rng.standard_normal(S.grid.size))
        calls = self.counting(S)
        x, k, spent = inversion._gmres(S, b)
        assert k > 3 * inversion.GMRES_RESTART and len(calls) == spent
        for allowance in (0, 1, 2, 51, 52, 120, spent - 1):
            calls.clear()
            with pytest.raises(ConvergenceError, match=r"^GMRES did not reach .*\(column 0\)"):
                inversion._gmres(S, b, allowance)
            assert len(calls) <= allowance
        calls.clear()
        X, k2, spent2 = inversion._gmres(S, b, spent)
        assert np.array_equal(X, x) and (k2, spent2) == (k, spent) == (k, len(calls))
        # the columns of a block share one allowance
        calls.clear()
        with pytest.raises(ConvergenceError, match=r"\(column 1\)"):
            inversion._gmres(S, np.column_stack([b, b]), 2 * spent - 1)
        assert len(calls) <= 2 * spent - 1

    def test_zero_column_costs_nothing(self, rng):
        S = ConvOperator(samples_for(exp_kernel(), 12, n2=9))
        calls = self.counting(S)
        x, k, spent = inversion._gmres(S, np.zeros(108))
        assert k == spent == 0 and calls == [] and not x.any() and x.dtype == np.float64
        B = np.zeros((108, 3), dtype=complex)
        B[:, 1] = rng.standard_normal(108)
        X, k, spent = inversion._gmres(S, B)
        assert not X[:, [0, 2]].any() and k == 2 and len(calls) == spent == k + 1

    def test_exact_breakdown_on_multiple_of_identity(self, rng):
        # S = c I: the first Arnoldi step breaks down with the exact solution
        S = ConvOperator(samples_for(identity_kernel(c=2.5), 9, n2=7, normalize=False))
        b = rng.standard_normal(63) + 1j * rng.standard_normal(63)
        calls = self.counting(S)
        x, k, spent = inversion._gmres(S, b)
        assert k == 1 and len(calls) == spent == 2
        assert_allclose(x, b / 2.5, rtol=0, atol=1e-15 * np.abs(b).max())

    @pytest.mark.parametrize("scale,model", [
        pytest.param(2.0 ** -600, rich_model, id="2^-600"),
        pytest.param(2.0 ** 600, rich_model, id="2^600"),
        pytest.param(2.0 ** -600, deconv_model, id="2^-600-hermitian"),
        pytest.param(2.0 ** 600, deconv_model, id="2^600-hermitian")])
    def test_power_of_two_rhs_scales_the_solution_exactly(self, scale, model, rng):
        S = ConvOperator(samples_for(model(), 12, n2=9, omega1=1.7, omega2=0.9))
        B = rng.standard_normal((108, 2)) + 1j * rng.standard_normal((108, 2))
        X, k, spent = inversion._gmres(S, B)
        Y, k2, spent2 = inversion._gmres(S, scale * B)
        assert np.array_equal(Y, scale * X) and (k2, spent2) == (k, spent)

    @pytest.mark.filterwarnings("error")
    def test_solution_overflowing_when_scaled_back_is_reported(self):
        # S = 1e-300 I (Hermitian) and 1e-300 I plus a small exp part (not
        # Hermitian): the scaled column solves to about 0.5e300, which
        # column 1's scale of 2^34 takes past the largest double
        B = np.column_stack([np.ones(64), 1e10 * np.ones(64)])
        for model, hermitian in ((identity_kernel(c=1e-300), True),
                                 (exp_kernel(c=1e-300, amp=1e-302), False)):
            S = ConvOperator(samples_for(model, 8, normalize=False))
            assert S.hermitian == hermitian
            with pytest.raises(ConvergenceError, match=r"overflows when scaled back .*\(column 1\)"):
                inversion._gmres(S, B)

    @pytest.mark.parametrize("tag", list(MODEL_BUILDERS))
    def test_matvecs_per_column(self, tag, rng):
        S = ConvOperator(samples_for(MODEL_BUILDERS[tag](), 12, n2=9, omega1=1.7, omega2=0.9))
        B = rng.standard_normal((108, 3)) + 1j * rng.standard_normal((108, 3))
        calls = self.counting(S)
        _, k, spent = inversion._gmres(S, B)
        assert len(calls) == spent == k + 3         # every column within one cycle

    def test_gmres_solves_skip_the_dense_check(self, rng, monkeypatch):
        checks = []
        real = inversion._check_backward

        def spy(S, B, X):
            checks.append(S)
            return real(S, B, X)

        monkeypatch.setattr(inversion, "_check_backward", spy)
        above = ConvOperator(samples_for(exp_kernel(amp=0.05), 80, normalize=False))
        solve_array(above, rng.standard_normal((6400, 2)))
        below = ConvOperator(samples_for(deconv_model(), 48))
        solve_array(below, rng.standard_normal(48 * 48))
        assert below._cond_est is not None and below._lu is None
        assert checks == []
        lu = ConvOperator(samples_for(exp_kernel(), 8))
        solve_array(lu, rng.standard_normal(64))
        assert len(checks) == 1 and checks[0] is lu

    def test_overflowing_matvec_fails_within_one_cycle(self):
        # finite lattice kernels and spectra whose matvecs overflow, through
        # GMRES (exp) and MINRES (gaussian)
        from diffkern2d.kernels import gaussian_kernel

        for model, hermitian in ((exp_kernel(amp=1e306, c=1.0), False),
                                 (gaussian_kernel(amp=1e306, c=1.0), True)):
            S = ConvOperator(samples_for(model, 80, normalize=False))
            assert np.isfinite(S.lattice_kernel).all() and np.isfinite(S.spectrum).all()
            assert S.hermitian == hermitian
            calls = self.counting(S)
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(ConvergenceError, match=r"non-finite .*\(column 0\)") as err:
                    solve_array(S, np.ones(6400))
            assert 0 < len(calls) < 50
            assert isinstance(err.value.residuals, list)


class TestMinres:
    """MINRES, the column solver's path for a Hermitian S: the flag that
    picks it, agreement with a dense solve, its matvec count, allowance
    and cycles, and its memory."""

    EXPECTED = {"zero": True, "exp": False, "poly": True, "gaussian": True,
                "separable": False, "rich": False}

    @staticmethod
    def odd_samples():
        """The deconv kernel on an odd, non-square grid: 17 x 11 on 1.7 x 0.9,
        where MINRES needs 82-84 iterations for a standard-normal rhs."""
        return samples_for(deconv_model(), 17, n2=11, omega1=1.7, omega2=0.9)

    def complex_hermitian_operator(self):
        """The odd-grid deconv kernel with its lattice v times e^{i theta(p)},
        theta odd: a complex Hermitian S."""
        import dataclasses

        s = self.odd_samples()
        g = s.grid
        p1 = np.arange(-(g.n1 - 1), g.n1)[:, None] * g.h1
        p2 = np.arange(-(g.n2 - 1), g.n2)[None, :] * g.h2
        S = ConvOperator(dataclasses.replace(s, v_lat=s.v_lat * np.exp(1j * (3 * p1 - 2 * p2))))
        assert np.iscomplexobj(S.lattice_kernel)
        return S

    @pytest.mark.parametrize("tag", list(MODEL_BUILDERS))
    @pytest.mark.parametrize("n1,n2", [(8, 8), (17, 11), (64, 64)])
    def test_flag_set_exactly_for_hermitian_kernels(self, tag, n1, n2):
        S = ConvOperator(samples_for(MODEL_BUILDERS[tag](), n1, n2=n2, omega1=1.7, omega2=0.9))
        assert S.hermitian is self.EXPECTED[tag]
        if S.hermitian and S.grid.size < 1000:
            assert_allclose(S.dense(), S.dense().conj().T, rtol=0, atol=0)

    def test_flag_refuses_a_kernel_hermitian_only_to_roundoff(self):
        import dataclasses

        s = samples_for(deconv_model(), 12, n2=9)
        v = s.v_lat.copy()
        v[0, 0] = np.nextafter(v[0, 0], np.inf)
        assert ConvOperator(s).hermitian
        assert not ConvOperator(dataclasses.replace(s, v_lat=v)).hermitian

    @pytest.mark.parametrize("kernel", ["real", "complex"])
    def test_agrees_with_dense_solve_on_odd_grid(self, kernel, rng):
        S = (ConvOperator(self.odd_samples()) if kernel == "real"
             else self.complex_hermitian_operator())
        D = S.dense()
        assert S.hermitian and np.array_equal(D, D.conj().T)
        cond = np.linalg.cond(D)
        for b in (rng.standard_normal(187),
                  rng.standard_normal(187) + 1j * rng.standard_normal(187)):
            calls = TestGmres.counting(S)
            x, k, spent = inversion._gmres(S, b)
            ref = np.linalg.solve(D, b)
            assert x.dtype == np.result_type(D, b) and len(calls) == spent == k + 1
            assert np.linalg.norm(D @ x - b) <= inversion.GMRES_RTOL * np.linalg.norm(b)
            assert np.linalg.norm(x - ref) <= 10 * cond * inversion.GMRES_RTOL * np.linalg.norm(ref)

    def test_allowance_bounds_the_matvecs(self, rng):
        # as on the GMRES path: every smaller allowance stops the column
        # within what it allows, the exact one solves it unchanged
        S = ConvOperator(self.odd_samples())
        b = rng.standard_normal(187)
        calls = TestGmres.counting(S)
        x, k, spent = inversion._gmres(S, b)
        assert k > inversion.GMRES_RESTART and len(calls) == spent == k + 1
        for allowance in range(spent):
            calls.clear()
            with pytest.raises(ConvergenceError, match=r"^MINRES did not reach .*\(column 0\)"):
                inversion._gmres(S, b, allowance)
            assert len(calls) <= allowance
        calls.clear()
        X, k2, spent2 = inversion._gmres(S, b, spent)
        assert np.array_equal(X, x) and (k2, spent2) == (k, spent) == (k, len(calls))

    def test_missed_true_residual_starts_a_new_cycle(self, rng):
        # the first Lanczos matvec reads S scaled by 1 + 1e-6, so the first
        # cycle's recurrence ends at an x whose true residual misses; a
        # second cycle from that x solves the column
        S = ConvOperator(self.odd_samples())
        b = rng.standard_normal(187)
        real, calls = S.apply_fft, []

        def skewed(f):
            calls.append(1)
            return real(f) * (1 + 1e-6 if len(calls) == 1 else 1)

        S.apply_fft = skewed
        x, k, spent = inversion._gmres(S, b)
        assert len(calls) == spent == k + 2
        assert np.linalg.norm(real(x) - b) <= inversion.GMRES_RTOL * np.linalg.norm(b)

    def test_holds_no_krylov_basis(self, rng):
        # a column of N = 7680 doubles takes 61 kB; GMRES's basis alone
        # takes GMRES_RESTART + 1 of them, MINRES a handful plus the
        # matvec's work arrays
        import tracemalloc

        S = ConvOperator(samples_for(deconv_model(), 96, n2=80, omega1=1.7, omega2=0.9))
        b = rng.standard_normal(S.grid.size)
        S.apply_fft(b)
        tracemalloc.start()
        try:
            x, k, _ = inversion._gmres(S, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert k > inversion.GMRES_RESTART
        assert peak <= 20 * b.nbytes < (inversion.GMRES_RESTART + 1) * b.nbytes

    def test_well_conditioned_kernel_that_stalled_gmres_solves(self):
        # gaussian amp 40, width 0.08 at 128^2, above the dense guard: GMRES(50)
        # raised ConvergenceError after 5000 iterations on the blurred seeded
        # image; MINRES reaches GMRES_RTOL in a few hundred
        from diffkern2d.kernels import gaussian_kernel

        S = ConvOperator(samples_for(gaussian_kernel(amp=40.0, width=0.08), 128))
        f = np.random.default_rng(3).integers(0, 256, S.grid.size).astype(float)
        b = S.apply_fft(f)
        x = solve_array(S, b)
        assert S.hermitian and S._lu is None
        assert np.linalg.norm(S.apply_fft(x) - b) <= inversion.GMRES_RTOL * np.linalg.norm(b)


class TestConditionEstimate:
    @pytest.mark.parametrize("tag", [*MODEL_BUILDERS, "complex"])
    @pytest.mark.parametrize("n1,n2", [(8, 8), (5, 7), (12, 9)])
    def test_within_factor_three_of_exact(self, tag, n1, n2):
        from diffkern2d.inversion import _cond_estimate

        model = exp_kernel(amp=0.05 + 0.1j) if tag == "complex" else MODEL_BUILDERS[tag]()
        S = ConvOperator(samples_for(model, n1, n2=n2, omega1=1.7, omega2=0.9))
        D = S.dense()
        exact = np.linalg.norm(D, 1) * np.linalg.norm(np.linalg.inv(D), 1)
        calls = TestGmres.counting(S)
        cond, k, spent = _cond_estimate(S)
        # a lower bound up to the GMRES tolerance, and deterministic
        assert exact / 3 <= cond <= exact * (1 + 1e-9)
        assert k >= 1 and spent == len(calls) > k
        assert _cond_estimate(S)[0] == cond

    @pytest.mark.parametrize("kernel", ["real", "complex"])
    def test_draws_no_random_numbers(self, kernel, monkeypatch):
        # onenormest with one column, t = 1, never samples a random sign vector
        model = rich_model() if kernel == "real" else exp_kernel(amp=0.05 + 0.1j)
        S = ConvOperator(samples_for(model, 5, n2=7, omega1=1.7, omega2=0.9))
        want = inversion._cond_estimate(S)

        def refuse(*args, **kwargs):
            raise AssertionError("a random number was drawn")

        monkeypatch.setattr(np.random, "randint", refuse)
        assert inversion._cond_estimate(S) == want

    def test_allowance_bounds_the_matvecs(self, monkeypatch):
        # every allowance below the estimate's spend stops it within what it
        # allows; the ConvergenceError crosses onenormest unless the extra
        # alternating-sign solve, the last one, raises it
        S = ConvOperator(samples_for(rich_model(), 5, n2=7, omega1=1.7, omega2=0.9))
        spends = []
        real = inversion._gmres

        def spy(S, b, matvecs):
            out = real(S, b, matvecs)
            spends.append(out[2])
            return out

        monkeypatch.setattr(inversion, "_gmres", spy)
        want = inversion._cond_estimate(S)
        spent, last = want[2], spends[-1]
        assert spent == sum(spends) and len(spends) >= 3
        calls = TestGmres.counting(S)
        for allowance in range(spent):
            calls.clear()
            with pytest.raises(ConvergenceError, match=r"did not reach") as err:
                inversion._cond_estimate(S, allowance, allowance)
            assert len(calls) <= allowance
            crossed = any("onenormest" in str(entry.path) for entry in err.traceback)
            assert crossed == (allowance < spent - last)
        calls.clear()
        assert inversion._cond_estimate(S, spent, spent) == want and len(calls) == spent

    @pytest.mark.parametrize("kernel", ["real", "complex"])
    def test_adjoint_solve_matches_dense(self, kernel, monkeypatch):
        # the second solve is S^{-H} sign(y) for the first one's y, taken as
        # J conj(S^{-1} J conj(sign(y))) by persymmetry
        model = rich_model() if kernel == "real" else exp_kernel(amp=0.05 + 0.1j)
        S = ConvOperator(samples_for(model, 5, n2=7, omega1=1.7, omega2=0.9))
        calls = []
        real = inversion._gmres

        def spy(S, b, matvecs):
            out = real(S, b, matvecs)
            calls.append((b, out[0]))
            return out

        monkeypatch.setattr(inversion, "_gmres", spy)
        inversion._cond_estimate(S)
        (_, y), (b, x) = calls[:2]
        xi = y / np.abs(y)
        assert np.array_equal(b, xi[::-1].conj())
        want = np.linalg.solve(S.dense().conj().T, xi)
        assert np.linalg.norm(x[::-1].conj() - want) <= 1e-10 * np.linalg.norm(want)


class TestSharedFactorizationThreads:
    """One operator and one evaluator shared by several threads: every LU
    solve must use its own pivot array, or concurrent solves corrupt it."""

    def test_threads_match_serial(self, rng):
        import sys
        import threading

        def build():
            s = samples_for(exp_kernel(), 32)
            S = ConvOperator(s)
            return S, build_rho_evaluator(S, s)

        S_ref, ev_ref = build()
        rhs = [rng.standard_normal(1024) + 1j * rng.standard_normal(1024) for _ in range(6)]
        lams = [(0.4 * k - 1.3, 1.1 - 0.3 * k) for k in range(8)]
        want_x = [solve_array(S_ref, b) for b in rhs]
        want_psi = [np.concatenate(ev_ref.psi(lam)) for lam in lams]

        S, ev = build()
        start = threading.Barrier(4)
        errors = []

        def work(t):
            try:
                start.wait(timeout=30)
                for rep in range(5):
                    for j in range(len(rhs)):
                        k = (j + t + rep) % len(rhs)
                        x = solve_array(S, rhs[k])
                        assert np.linalg.norm(x - want_x[k]) <= 1e-12 * np.linalg.norm(want_x[k])
                    for j in range(len(lams)):
                        k = (j + 3 * t) % len(lams)
                        p = np.concatenate(ev.psi(lams[k]))
                        assert np.linalg.norm(p - want_psi[k]) <= 1e-12 * np.linalg.norm(want_psi[k])
            except Exception as exc:      # reported by the main thread
                errors.append(exc)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=120)
        finally:
            sys.setswitchinterval(old)
        assert not any(th.is_alive() for th in threads)
        assert errors == []


class TestComputeG:
    def test_shapes(self):
        s = samples_for(exp_kernel(), 4, n2=8)
        S = ConvOperator(s)
        g12, g21 = compute_g_blocks(S, s)
        assert g12.shape == (8, 16)      # (2 n1, 2 n2)
        assert g21.shape == (16, 8)

    def test_jump_kernel_matches_hand_assembly(self):
        # for S = I, g_12 acts by constants:
        # g_12 [f1; f2] = [ (q(f1)/2 - q(f2)) 1 ; -q(f2)/2 1 ],  q = h2-sum
        s = samples_for(identity_kernel(c=1.0), 6)
        S = ConvOperator(s)
        g12, _ = compute_g_blocks(S, s)
        g = s.grid
        n = 6
        hand = np.zeros((2 * n, 2 * n), dtype=complex)
        hand[:n, :n] = 0.5 * g.h2
        hand[:n, n:] = -g.h2
        hand[n:, n:] = -0.5 * g.h2
        assert np.abs(g12 - hand).max() <= 1e-12

    def test_matches_full_dense_inverse_route(self):
        # oracle: assemble with an explicit matrix inverse instead of the
        # column-solve path
        s = samples_for(exp_kernel(), 8)
        S = ConvOperator(s)
        pis = {1: assemble_pi(s, 1), 2: assemble_pi(s, 2)}
        kops = {nm: k_op(s, nm) for nm in ("K11", "K12", "K31", "K32")}
        g12 = compute_g_blocks(S, s)[0]
        n1 = 8
        Dinv = np.linalg.inv(S.dense())
        first = np.zeros((2 * n1, 2 * n1), dtype=complex)
        first[:n1, :n1] = kops["K31"]
        first[n1:, :n1] = kops["K11"]
        oracle = first - pis[2].pi_hat @ Dinv @ pis[1].pi
        assert np.abs(g12 - oracle).max() <= 1e-10 * np.abs(oracle).max()

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("tag", [*MODEL_BUILDERS, "complex", "integer"])
    def test_blocks_take_the_kernel_dtype(self, tag, k):
        # real kernels give real Pi, PiHat and g blocks; integer-valued
        # samples are floored at float64
        def ints(value):
            return lambda *x: np.full(np.broadcast(*map(np.asarray, x)).shape, value)

        if tag == "complex":
            model = exp_kernel(amp=0.05 + 0.1j)
        elif tag == "integer":      # c = 1, alpha = beta = sigma = 1: S = I
            model = KernelModel(c=1, alpha=ints(1), dalpha=ints(0), beta=ints(1),
                                dbeta=ints(0), sigma=ints(1), sigma_x1=ints(0),
                                sigma_x2=ints(0), v=ints(0))
        else:
            model = MODEL_BUILDERS[tag]()
        s = samples_for(model, 6, n2=5, normalize=tag != "integer")
        want = np.complex128 if tag == "complex" else np.float64
        pi = assemble_pi(s, k)
        g_mats = compute_g_blocks(ConvOperator(s), s)
        assert [m.dtype for m in (pi.pi, pi.pi_hat, *g_mats)] == [want] * 4

    def test_evaluator_builds_only_pi_1_and_pihat_2(self, monkeypatch):
        from diffkern2d import operators

        s = samples_for(rich_model(), 6, n2=5, omega1=1.7, omega2=0.9)
        built = []
        real = operators.m_op

        def spy(samples, j, k):
            built.append((j, k))
            return real(samples, j, k)

        monkeypatch.setattr(operators, "m_op", spy)
        ev = build_rho_evaluator(ConvOperator(s), s)
        assert sorted(built) == [(1, 1), (2, 2), (3, 1), (4, 2)]
        g12 = compute_g_blocks(ConvOperator(s), s)[0]
        assert np.abs(ev.g12 - g12).max() <= 1e-12 * np.abs(g12).max()

    @pytest.mark.filterwarnings("error")
    def test_overflowing_block_reported_as_non_finite(self):
        # K_31 - PiHat_2 X past the largest double, on one-point shapes
        kops = {"K31": np.full((1, 1), 1e308), "K11": np.full((1, 1), 1e308)}
        with pytest.raises(InvalidArgumentError, match="g_12 has non-finite entries"):
            inversion._g_block(1, np.full((2, 1), -1.0), kops, np.full((1, 2), 1e308))

    def test_misplaced_block_rejected(self):
        # g_21 handed over where g_12 belongs: on a 5 x 7 grid its shape
        # (14, 10) is not g_12's (10, 14)
        s = samples_for(exp_kernel(), 5, n2=7, omega1=1.7, omega2=0.9)
        S = ConvOperator(s)
        _, g21 = compute_g_blocks(S, s)
        h = np.zeros(S.grid.size)
        with pytest.raises(InvalidArgumentError, match=r"shape \(10, 14\)"):
            pair_flip_transform(g21, S.grid, 1)
        with pytest.raises(InvalidArgumentError, match=r"shape \(10, 14\)"):
            RhoEvaluator(S.grid, g21, h)


def dense_k_flip(g, grid, i):
    """The pair flip as -(h_i / h_k) K_{n_k} g^T K_{n_i} with the dense
    K_n = -i [[0, -rev], [rev, 0]]: the reference for pair_flip_transform."""
    k = 3 - i

    def K(n):
        rev, Z = np.eye(n)[::-1], np.zeros((n, n))
        return -1j * np.block([[Z, -rev], [rev, Z]])

    return -(grid.axis_h(i) / grid.axis_h(k)) * K(grid.axis_n(k)) @ g.T @ K(grid.axis_n(i))


class TestGSymmetry:
    @pytest.mark.parametrize("i", [1, 2])
    @pytest.mark.parametrize("n1,n2", [(5, 7), (8, 8), (12, 9)])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_flip_matches_dense_k_formula(self, rng, i, n1, n2, dtype):
        grid = make_grid(1.7, 0.9, n1, n2)
        shape = (2 * grid.axis_n(i), 2 * grid.axis_n(3 - i))
        g = rng.standard_normal(shape).astype(dtype)
        if dtype is complex:
            g += 1j * rng.standard_normal(shape)
        got = pair_flip_transform(g, grid, i)
        assert got.dtype == np.dtype(dtype)
        assert np.array_equal(got, dense_k_flip(g, grid, i))

    def test_jump_kernel_exact(self):
        s = samples_for(identity_kernel(c=1.0), 8)
        g12, g21 = compute_g_blocks(ConvOperator(s), s)
        assert g_symmetry_residual(g12, g21, s.grid) <= 1e-13

    def test_residual_decreases(self):
        vals = []
        for n in (8, 16):
            s = samples_for(exp_kernel(), n)
            g12, g21 = compute_g_blocks(ConvOperator(s), s)
            vals.append(g_symmetry_residual(g12, g21, s.grid))
        assert vals[0] / vals[1] >= 1.6

    def test_residual_decreases_with_unequal_steps(self):
        # h1 != h2: the adjoint's weight ratio h_i / h_k is visible only here
        vals = []
        for n1, n2 in ((6, 10), (12, 20)):
            s = samples_for(rich_model(), n1, n2=n2, omega1=1.7, omega2=0.9)
            g12, g21 = compute_g_blocks(ConvOperator(s), s)
            vals.append(g_symmetry_residual(g12, g21, s.grid))
        assert vals[1] <= 1e-3 and vals[0] / vals[1] >= 1.6

    def test_flip_transform_is_involution(self):
        s = samples_for(exp_kernel(), 8)
        g12, _ = compute_g_blocks(ConvOperator(s), s)
        back = pair_flip_transform(pair_flip_transform(g12, s.grid, 1), s.grid, 2)
        assert np.abs(back - g12).max() <= 1e-12 * np.abs(g12).max()
        assert back.shape == g12.shape

    def test_evaluator_derives_g21_by_exact_flip(self):
        # odd, non-square grid, unequal steps and a complex kernel: the
        # evaluator solves g_12 (as compute_g_blocks does) and flips it
        s = samples_for(exp_kernel(amp=0.05 + 0.1j), 5, n2=7, omega1=1.7, omega2=0.9)
        S = ConvOperator(s)
        ev = build_rho_evaluator(S, s)
        g12, _ = compute_g_blocks(ConvOperator(s), s)
        assert np.array_equal(ev.g21, pair_flip_transform(ev.g12, s.grid, 1))
        assert ev.g21.shape == (14, 10) and ev.g21.dtype == np.complex128
        assert np.abs(ev.g12 - g12).max() <= 1e-12 * np.abs(g12).max()


def evaluator_for(model, n, **kw):
    s = samples_for(model, n, **kw)
    S = ConvOperator(s)
    return S, s, build_rho_evaluator(S, s)


class TestEvaluatorH:
    @pytest.mark.parametrize("amp,want", [(0.05, np.float64), (0.05 + 0.1j, np.complex128)])
    def test_h_dtype_follows_kernel(self, amp, want):
        s = samples_for(exp_kernel(amp=amp), 8)
        S = ConvOperator(s)
        ev = build_rho_evaluator(S, s)
        assert ev.h_values.dtype == want
        assert np.linalg.norm(S.apply_fft(ev.h_values) - y_samples(s)) <= 1e-12 * np.linalg.norm(y_samples(s))

    @pytest.mark.parametrize("tag", [*MODEL_BUILDERS, "complex"])
    @pytest.mark.parametrize("n1,n2", [(5, 7), (8, 8)])
    @pytest.mark.parametrize("normalize", [False, True])
    def test_y_matches_model(self, tag, n1, n2, normalize):
        # y(x) = s(x - omega), read from the model at the shifted midpoints
        model = exp_kernel(amp=0.05 + 0.1j) if tag == "complex" else MODEL_BUILDERS[tag]()
        s = samples_for(model, n1, n2=n2, omega1=1.7, omega2=0.9, normalize=normalize)
        g = s.grid
        want = s_values(s.model, (g.x1 - g.omega1)[:, None], (g.x2 - g.omega2)[None, :])
        want = want.T.reshape(g.size)
        assert np.abs(y_samples(s) - want).max() <= 1e-14 * np.abs(want).max()


class TestTheta:
    def test_jump_kernel_closed_form(self):
        # y = 1/4 so h = 1/4 and theta is a product of geometric sums
        S, s, ev = evaluator_for(identity_kernel(c=1.0), 8)
        g = S.grid
        for lam in [(0.9, 1.7), (-1.2, 0.4)]:
            q1 = g.h1 * np.sum(np.exp(1j * lam[0] * (g.omega1 - g.x1)))
            q2 = g.h2 * np.sum(np.exp(1j * lam[1] * (g.omega2 - g.x2)))
            want = 1.0 + 0.25 * lam[0] * lam[1] * q1 * q2
            got = ev._theta(lam)
            assert abs(got - want) <= 1e-13 * max(1.0, abs(want))

    def test_exactly_one_on_axes(self):
        S, s, ev = evaluator_for(exp_kernel(), 8)
        assert ev._theta((0.0, 3.7)) == 1.0 + 0j
        assert ev._theta((2.5, 0.0)) == 1.0 + 0j
        assert ev._theta((0.0, 0.0)) == 1.0 + 0j

    def test_sum_order_invariance(self):
        # reorder the quadrature: sum over x2 first, then x1
        S, s, ev = evaluator_for(exp_kernel(), 8)
        g = S.grid
        lam = (1.3, -0.8)
        h2d = g.to2d(ev.h_values)
        e1 = np.exp(1j * lam[0] * (g.omega1 - g.x1))
        e2 = np.exp(1j * lam[1] * (g.omega2 - g.x2))
        reordered = 1.0 + lam[0] * lam[1] * g.h1 * g.h2 * np.sum(
            e1 * (h2d.T @ e2))
        assert abs(ev._theta(lam) - reordered) <= 1e-13 * abs(reordered)


class TestCouplingMatrix:
    def test_zero_frequency_is_identity(self):
        S, s, ev = evaluator_for(exp_kernel(), 6)
        G = ev._assemble_G((0.0, 0.0))
        assert_allclose(G, np.eye(2 * (6 + 6)), rtol=0, atol=0)

    def test_one_sided_frequency_block_triangular(self):
        S, s, ev = evaluator_for(exp_kernel(), 6)
        G = ev._assemble_G((0.7, 0.0))
        n1 = 6
        assert np.abs(G[: 2 * n1, 2 * n1:]).max() == 0.0     # upper coupling off
        assert np.abs(G[2 * n1:, : 2 * n1]).max() > 0.0
        # lower-right block is the identity
        assert_allclose(G[2 * n1:, 2 * n1:], np.eye(12), rtol=0, atol=0)

    def test_matches_independent_assembly(self):
        S, s, ev = evaluator_for(exp_kernel(), 8)
        g = S.grid
        lam = (1.0, 1.0)
        n1, n2 = 8, 8
        calA1 = 1j * g.h1 * (np.tril(np.ones((n1, n1)), -1) + 0.5 * np.eye(n1))
        calA2 = 1j * g.h2 * (np.tril(np.ones((n2, n2)), -1) + 0.5 * np.eye(n2))
        T1 = np.eye(n1) - lam[0] * calA1
        T2 = np.eye(n2) - lam[1] * calA2
        want = np.zeros((2 * (n1 + n2), 2 * (n1 + n2)), dtype=complex)
        want[:n1, :n1] = want[n1:2*n1, n1:2*n1] = T1
        want[2*n1:2*n1+n2, 2*n1:2*n1+n2] = want[2*n1+n2:, 2*n1+n2:] = T2
        want[:2*n1, 2*n1:] = 1j * lam[1] * ev.g12
        want[2*n1:, :2*n1] = 1j * lam[0] * ev.g21
        got = ev._assemble_G(lam)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


class TestPsi:
    def test_zero_frequency(self):
        S, s, ev = evaluator_for(exp_kernel(), 6)
        p1, p2 = ev.psi((0.0, 0.0))
        want = np.concatenate([np.zeros(6), np.ones(6)])
        assert_allclose(p1, want, rtol=0, atol=1e-14)
        assert_allclose(p2, want, rtol=0, atol=1e-14)

    def test_one_sided_frequency_triangular_solve(self):
        # lam = (0, l2): theta = 1 and the second side solves
        # (I - l2 calA_2) psi_2 = [0; 1] independently of the coupling
        S, s, ev = evaluator_for(exp_kernel(), 6)
        g = S.grid
        l2 = 1.4
        p1, p2 = ev.psi((0.0, l2))
        calA2 = 1j * g.h2 * (np.tril(np.ones((6, 6)), -1) + 0.5 * np.eye(6))
        T2 = np.eye(6) - l2 * calA2
        want_second = np.linalg.solve(T2, np.ones(6).astype(complex))
        assert_allclose(p2[6:], want_second, rtol=1e-12, atol=1e-13)
        assert_allclose(p2[:6], np.zeros(6), rtol=0, atol=1e-13)

    def test_matches_dense_inverse_route(self):
        S, s, ev = evaluator_for(exp_kernel(), 8)
        lam = (1.0, 2.0)
        G = ev._assemble_G(lam)
        x = np.linalg.inv(G) @ np.concatenate(
            [np.zeros(8), np.ones(8), np.zeros(8), np.ones(8)]).astype(complex)
        th = ev._theta(lam)
        p1, p2 = ev.psi(lam)
        got = np.concatenate([p1, p2])
        assert np.abs(got - th * x).max() <= 1e-10 * np.abs(th * x).max()

    @pytest.mark.parametrize("lam", [(0.3, 1.1, 9.0), (0.3,), ((0.3, 1.1),)])
    def test_one_pair_only(self, lam):
        S, s, ev = evaluator_for(exp_kernel(), 6)
        with pytest.raises(InvalidArgumentError, match="shape"):
            ev.psi(lam)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        S, s, ev = evaluator_for(exp_kernel(), 6)
        with pytest.raises(InvalidArgumentError, match="^lam must be finite"):
            ev.psi((0.3, bad))


class TestRhoDirect:
    def test_jump_kernel_closed_form(self):
        S = ConvOperator(samples_for(identity_kernel(c=1.0), 8))
        g = S.grid
        lam = (1.1, -0.7)
        mu = (0.4, 0.9)
        want = (g.h1 * np.sum(np.exp(1j * (lam[0] - mu[0]) * g.x1))
                * g.h2 * np.sum(np.exp(1j * (lam[1] - mu[1]) * g.x2)))
        got = rho_direct(S, lam, mu)
        assert abs(got - want) <= 1e-12 * abs(want)
        # lam = mu gives exactly the rectangle area
        same = rho_direct(S, lam, lam)
        assert abs(same - g.omega1 * g.omega2) <= 1e-12

    def test_scaling_in_jump_coefficient(self):
        lam, mu = (0.8, 1.2), (-0.3, 0.5)
        S1 = ConvOperator(samples_for(identity_kernel(c=1.0), 8))
        S2 = ConvOperator(samples_for(identity_kernel(c=2.0), 8))
        r1 = rho_direct(S1, lam, mu)
        r2 = rho_direct(S2, lam, mu)
        assert abs(r2 - r1 / 2.0) <= 1e-12 * abs(r1)

    def test_separable_kernel_factors(self):
        from diffkern2d.kernels import separable_factors
        from oracle import kernel1d_from_profile, rho_1d

        n = 16
        S = ConvOperator(samples_for(separable_kernel(), n, normalize=False))
        (c1, v1), (c2, v2) = separable_factors()
        k1 = kernel1d_from_profile(1.0, n, c1, v1)
        k2 = kernel1d_from_profile(1.0, n, c2, v2)
        for lam in [(0.7, 1.3), (-1.1, 0.4)]:
            for mu in [(1.9, -0.5), (0.3, 2.2)]:
                whole = rho_direct(S, lam, mu)
                parts = rho_1d(k1, lam[0], mu[0]) * rho_1d(k2, lam[1], mu[1])
                assert abs(whole - parts) <= 1e-10 * abs(whole)


class TestRhoDirectBatch:
    def test_block_matches_per_lambda_solves(self):
        from diffkern2d.config import RunConfig

        cfg = RunConfig()
        S = ConvOperator(samples_for(exp_kernel(), 16))
        g = S.grid
        lams = [(l1, l2) for l2 in cfg.rho_lambda2 for l1 in cfg.rho_lambda1]
        mus = [(m1, m2) for m2 in cfg.rho_mu2 for m1 in cfg.rho_mu1]
        got = rho_direct(S, np.array(lams), np.array(mus))
        assert got.shape == (25, 25)
        X1, X2 = np.meshgrid(g.x1, g.x2)            # [b, a]: flat layout
        x1, x2 = X1.reshape(-1), X2.reshape(-1)
        for a, lam in enumerate(lams):
            x = solve_array(S, np.exp(1j * (lam[0] * x1 + lam[1] * x2)))
            for b, mu in enumerate(mus):
                want = g.h1 * g.h2 * np.sum(np.exp(-1j * (mu[0] * x1 + mu[1] * x2)) * x)
                assert abs(got[a, b] - want) <= 1e-12 * abs(want)
        # the scalar call is the 1 x 1 block; a repeated lam repeats its row
        assert rho_direct(S, lams[7], mus[11]) == pytest.approx(got[7, 11], rel=1e-14)
        again = rho_direct(S, np.array([lams[3], lams[0], lams[3]]), np.array(mus))
        assert_allclose(again, got[[3, 0, 3]], rtol=1e-14, atol=0)


class TestRhoArguments:
    @pytest.mark.parametrize("form,lam,mu", [
        ("direct", np.full((2, 3), 0.5), (0.3, 0.4)),
        ("direct", (0.1, 0.2, 0.3, 0.4), (0.3, 0.4)),
        ("direct", (0.1, 0.2), (0.3, 0.4, 0.5, 0.6)),
        ("direct", np.zeros((0, 2)), (0.3, 0.4)),
        ("structured", (0.3, 1.1, 9.0), (1.9, -0.5)),
        ("structured", (0.3, 1.1), (1.9,)),
        ("structured", np.zeros((0, 2)), (1.9, -0.5)),
        ("structured", (0.3, 1.1), np.full((2, 3), 0.5)),
    ], ids=["lam-2x3", "lam-flat-4", "mu-flat-4", "lam-empty",
            "structured-lam-3", "structured-mu-1", "structured-lam-empty",
            "structured-mu-2x3"])
    def test_malformed_pairs_rejected(self, form, lam, mu):
        # each of lam and mu is one pair (l1, l2) or a (k, 2) array of
        # pairs; nothing else is read as pairs
        S, s, ev = evaluator_for(exp_kernel(), 6)
        with pytest.raises(InvalidArgumentError, match="shape"):
            if form == "direct":
                rho_direct(S, lam, mu)
            else:
                rho_structured(ev, lam, mu)

    @pytest.mark.parametrize("form", ["direct", "structured", "axes"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["lam", "mu"])
    def test_non_finite_pairs_rejected(self, form, bad, name):
        # a typed error naming the argument, before any solve or warning
        S, s, ev = evaluator_for(exp_kernel(), 6)
        args = {"lam": (2.0, 3.0), "mu": (2.5, 1.5), name: (bad, 1.0)}
        with pytest.raises(InvalidArgumentError, match=f"^{name} must be finite"):
            if form == "direct":
                rho_direct(S, args["lam"], args["mu"])
            elif form == "structured":
                rho_structured(ev, args["lam"], args["mu"])
            else:
                structured_axes(args["lam"], args["mu"])


class TestRhoStructured:
    @pytest.mark.parametrize("i", [None, 1, 2])
    def test_block_matches_single_pairs(self, i):
        # repeated and coincident pairs (mu_1 == lam_1, mu == lam) and both
        # axis forms; a single pair with no admissible form raises, and the
        # block holds nan there, where the axis rule marks it
        S, s, ev = evaluator_for(rich_model(), 6, n2=9, omega1=1.7, omega2=0.9)
        lams = np.array([(0.7, 1.3), (-1.1, 0.4), (0.7, 1.3), (2.0, -0.5)])
        mus = np.array([(1.9, -0.5), (0.7, 2.0), (0.7, 1.3), (-1.1, 0.4), (0.3, 1.3)])
        block = rho_structured(ev, lams, mus, i=i)
        admissible = structured_axes(lams, mus, i)[1]
        assert block.shape == admissible.shape == (4, 5)
        skipped = 0
        for a, lam in enumerate(lams):
            for b, mu in enumerate(mus):
                try:
                    want = rho_structured(ev, lam, mu, i=i)
                except (PoleProximityError, UnsupportedEvaluationError):
                    skipped += 1
                    assert not admissible[a, b] and np.isnan(block[a, b])
                    continue
                assert admissible[a, b]
                assert abs(block[a, b] - want) <= 1e-13 * abs(want)
        assert 0 < skipped < block.size
        row = rho_structured(ev, lams[1], mus, i=i)
        assert row.shape == (1, 5)
        assert_allclose(row[0], block[1], rtol=1e-13, atol=0)

    def test_one_factorization_per_distinct_pair(self, monkeypatch):
        # lam and mu share pairs: G is factored once per distinct pair of
        # the two together, however often a pair recurs
        S, s, ev = evaluator_for(rich_model(), 6, n2=9, omega1=1.7, omega2=0.9)
        lams = np.array([(0.7, 1.3), (-1.1, 0.4), (0.7, 1.3)])
        mus = np.array([(1.9, -0.5), (0.7, 1.3), (-1.1, 0.4), (1.9, -0.5)])
        factored = []
        real = inversion.lu_factor_cond

        def spy(mat):
            factored.append(mat)
            return real(mat)

        monkeypatch.setattr(inversion, "lu_factor_cond", spy)
        rho_structured(ev, lams, mus)
        assert len(factored) == 3

    def test_tracks_direct_for_jump_kernel(self):
        S, s, ev = evaluator_for(identity_kernel(c=1.0), 8)
        lam, mu = (0.7, 1.3), (1.9, -0.5)
        d = rho_direct(S, lam, mu)
        st = rho_structured(ev, lam, mu, i=1)
        rel = abs(st - d) / abs(d)
        assert rel < 0.05          # discretization-level agreement at n = 8

    def test_convergence_to_direct(self):
        errs = []
        for n in (8, 16, 32):
            S, s, ev = evaluator_for(exp_kernel(), n)
            worst = 0.0
            for lam in [(0.7, 1.3), (-1.1, 0.4)]:
                for mu in [(1.9, -0.5), (0.3, 2.2)]:
                    d = rho_direct(S, lam, mu)
                    st = rho_structured(ev, lam, mu, i=1)
                    worst = max(worst, abs(st - d) / abs(d))
            errs.append(worst)
        assert min(convergence_orders(errs)) >= 0.8

    def test_both_axis_forms_agree(self):
        S, s, ev = evaluator_for(exp_kernel(), 8)
        lam, mu = (0.7, 1.3), (1.9, -0.5)
        d = rho_direct(S, lam, mu)
        r1 = rho_structured(ev, lam, mu, i=1)
        r2 = rho_structured(ev, lam, mu, i=2)
        direct_gap = abs(r1 - d) / abs(d)
        assert abs(r1 - r2) / abs(d) <= 10 * direct_gap

    def test_pole_proximity_errors(self):
        S, s, ev = evaluator_for(exp_kernel(), 6)
        lam = (0.7, 1.3)
        with pytest.raises(PoleProximityError) as err:
            rho_structured(ev, lam, (2.0, 1.3), i=1)
        assert err.value.suggested_axis == 2
        with pytest.raises(PoleProximityError) as err:
            rho_structured(ev, lam, (0.7, 2.0), i=2)
        assert err.value.suggested_axis == 1
        with pytest.raises(UnsupportedEvaluationError):
            rho_structured(ev, lam, lam)

    def test_auto_axis_choice(self):
        S, s, ev = evaluator_for(exp_kernel(), 6)
        lam = (0.7, 1.3)
        # mu_2 == lam_2: auto must fall back to the i = 2 form
        val = rho_structured(ev, lam, (2.0, 1.3))
        want = rho_structured(ev, lam, (2.0, 1.3), i=2)
        assert val == want

    # (lam, mu, outcome for i = None, 1, 2): an int is the axis whose form
    # gives the value, ("pole", k) a PoleProximityError suggesting k,
    # "both" an UnsupportedEvaluationError; i = 3 is always rejected
    POLE_TABLE = {
        "separated": ((0.7, 1.3), (1.9, -0.5), (1, 1, 2)),
        "near_axis1": ((0.7, 1.3), (0.7 + 1e-9, 2.0), (1, 1, ("pole", 1))),
        "near_axis2": ((0.7, 1.3), (2.0, 1.3 + 1e-9), (2, ("pole", 2), 2)),
        "equal": ((0.7, 1.3), (0.7, 1.3), ("both", "both", "both")),
        # the tolerance has an absolute floor of POLE_RTOL at lam_k = 0
        "lam1_zero": ((0.0, 1.3), (5e-7, 2.0), (1, 1, ("pole", 1))),
    }

    @pytest.mark.parametrize("i", [None, 1, 2, 3])
    @pytest.mark.parametrize("case", list(POLE_TABLE))
    def test_pole_rule_table(self, case, i):
        S, s, ev = evaluator_for(exp_kernel(), 6)
        lam, mu, outcomes = self.POLE_TABLE[case]
        if i == 3:
            with pytest.raises(InvalidArgumentError, match="axis must be 1 or 2"):
                rho_structured(ev, lam, mu, i=i)
            return
        want = outcomes[0 if i is None else i]
        if want == "both":
            with pytest.raises(UnsupportedEvaluationError, match="both coordinates"):
                rho_structured(ev, lam, mu, i=i)
        elif isinstance(want, tuple):
            with pytest.raises(PoleProximityError) as err:
                rho_structured(ev, lam, mu, i=i)
            assert err.value.suggested_axis == want[1]
        else:
            val = rho_structured(ev, lam, mu, i=i)
            assert np.isfinite(val)
            assert val == rho_structured(ev, lam, mu, i=want)


class TestInverseFromRho:
    def test_jump_kernel_reconstructs_identity(self):
        S = ConvOperator(samples_for(identity_kernel(c=1.0), 8))
        T = inverse_from_rho(S)
        assert np.abs(T - np.eye(64)).max() <= 1e-10

    def test_exp_kernel_matches_dense_inverse(self):
        S = ConvOperator(samples_for(exp_kernel(), 8))
        T = inverse_from_rho(S)
        want = np.linalg.inv(S.dense())
        assert np.linalg.norm(T - want) / np.linalg.norm(want) <= 1e-9

    @pytest.mark.parametrize("tag", ["rich", "gaussian"])
    def test_odd_non_square_grid_matches_dense_inverse(self, tag):
        # 5 x 7 with unequal sides: an axis swap in E = E2 (x) E1 shows here
        S = ConvOperator(samples_for(MODEL_BUILDERS[tag](), 5, n2=7, omega1=1.7, omega2=0.9))
        T = inverse_from_rho(S)
        want = np.linalg.inv(S.dense())
        assert np.linalg.norm(T - want) / np.linalg.norm(want) <= 1e-9

    @pytest.mark.parametrize("n1,n2,omega1,omega2", [(8, 8, 1.0, 1.0), (5, 7, 1.7, 0.9)])
    def test_complex_kernel_matches_dense_inverse(self, n1, n2, omega1, omega2):
        S = ConvOperator(samples_for(exp_kernel(amp=0.05 + 0.1j), n1, n2=n2,
                                     omega1=omega1, omega2=omega2))
        T = inverse_from_rho(S)
        want = np.linalg.inv(S.dense())
        assert np.iscomplexobj(T)
        assert np.linalg.norm(T - want) / np.linalg.norm(want) <= 1e-9

    def test_real_operator_gives_real_inverse(self):
        S = ConvOperator(samples_for(exp_kernel(), 5, n2=7, omega1=1.7, omega2=0.9))
        T = inverse_from_rho(S)
        assert T.dtype == np.float64
        # E R E^H / (omega1 omega2 N) with the dense N x N basis E = E2 (x) E1
        # is complex; its imaginary part is roundoff and its real part is T
        g = S.grid
        l1, l2 = dft_frequencies(g)
        E = np.kron(np.exp(1j * np.outer(g.x2, l2)), np.exp(1j * np.outer(g.x1, l1)))
        full = E @ build_rho_table(S) @ E.conj().T / (g.omega1 * g.omega2 * g.size)
        assert np.abs(full.imag).max() <= 1e-12 * np.abs(full).max()
        assert np.abs(full.real - T).max() <= 1e-12 * np.abs(T).max()

    @pytest.mark.parametrize("amp", [0.15, 0.05 + 0.1j])
    def test_table_indexing(self, amp):
        # R[p, q] = rho(lam_q, mu_p), frequency pairs flattened lam1-fastest
        S = ConvOperator(samples_for(exp_kernel(amp=amp), 5, n2=7, omega1=1.7, omega2=0.9))
        R = build_rho_table(S)
        n1, N = S.grid.n1, S.grid.size
        assert R.shape == (N, N)
        l1, l2 = dft_frequencies(S.grid)
        for p, q in [(0, 0), (0, N - 1), (N - 1, 0), (N - 1, N - 1), (3, 17), (22, 9), (12, 12)]:
            want = rho_direct(S, (l1[q % n1], l2[q // n1]), (l1[p % n1], l2[p // n1]))
            assert abs(R[p, q] - want) <= 1e-10 * abs(want), (p, q)

    def test_real_operator_table_takes_one_real_solve(self, monkeypatch):
        # the 3 n2 generator columns [Phi, One, J Psi^T], not the N unit ones
        from diffkern2d.operators import generator_parts

        calls = []

        def spy(S, rhs, *args, **kwargs):
            calls.append(rhs)
            return solve_array(S, rhs, *args, **kwargs)

        monkeypatch.setattr(inversion, "solve_array", spy)
        S = ConvOperator(samples_for(exp_kernel(), 8))
        build_rho_table(S)
        assert len(calls) == 1
        assert calls[0].shape == (64, 24) and np.isrealobj(calls[0])
        Phi, One, Psi = generator_parts(S, 1)
        assert np.array_equal(calls[0], np.hstack([Phi, One, Psi.T[::-1]]))

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 33])
    def test_basis_factors_orthogonal(self, n):
        # E_i^H E_i = n_i I on the midpoint grid, which the table and
        # inverse_from_rho rely on to invert E with E^H
        from diffkern2d.inversion import _basis_factors
        for E in _basis_factors(make_grid(1.7, 0.9, n, n)):
            assert np.abs(E.conj().T @ E - n * np.eye(n)).max() <= 1e-12

    @pytest.mark.parametrize("fn", [build_rho_table, inverse_from_rho])
    def test_refused_above_dense_guard_before_any_solve(self, fn, monkeypatch):
        # 66 x 64 = 4,224 points: the N x N rhs and table are never made
        def no_solve(*args, **kwargs):
            raise AssertionError("solve_array called above the dense guard")

        monkeypatch.setattr(inversion, "solve_array", no_solve)
        S = ConvOperator(samples_for(exp_kernel(), 66, n2=64))
        with pytest.raises(InvalidArgumentError,
                           match=r"rho table refused at 66x64 \(4224 points\); "
                                 r"keep n1\*n2 <= 4096"):
            fn(S)

    @staticmethod
    def unblocked_inverse(S, R):
        """T = E R E^H / (omega1 omega2 N) by whole-array products,
        Kronecker factors axis by axis."""
        g = S.grid
        E1, E2 = inversion._basis_factors(g)
        ER = apply_along(E2, apply_along(E1, R, g, 1), g, 2).conj()
        TH = apply_along(E2, apply_along(E1, ER.T, g, 1), g, 2)   # (E R E^H)^H
        scale = 1.0 / (g.omega1 * g.omega2 * g.size)
        if np.isrealobj(S.lattice_kernel):
            return TH.real.T * scale
        return TH.conj().T * scale

    BLOCK_CASES = [(0.15, 9, 7, True), (0.15, 17, 13, False),
                   (0.05 + 0.1j, 11, 10, True), (0.05 + 0.1j, 20, 13, False)]

    @pytest.mark.parametrize("amp,n1,n2,patched", BLOCK_CASES)
    def test_blocks_match_unblocked_products_bit_for_bit(self, amp, n1, n2, patched,
                                                         monkeypatch):
        # patched: 16 lines per block; either way N is no multiple of the
        # block, so the last block is shorter.  T is the unblocked product
        # of the table it was built from, and the Newton-Schulz step, which
        # an ill-conditioned S takes, agrees with the unblocked
        # T + T (I - S T) and is reproducible bit for bit.
        if patched:
            monkeypatch.setattr(inversion, "CHECK_BLOCK", 64 * n1 * n2)
        blocks = inversion._blocks(n1 * n2)
        step = blocks[0].stop
        assert len(blocks) > 1 and len(range(n1 * n2)[blocks[-1]]) < step
        s = samples_for(exp_kernel(amp=amp), n1, n2=n2, omega1=1.7, omega2=0.9)
        tables, table = [], inversion._rho_table
        monkeypatch.setattr(inversion, "_rho_table",
                            lambda S: tables.append(table(S)) or tables[-1])
        R, T = build_rho_table(ConvOperator(s)), inverse_from_rho(ConvOperator(s))
        T0 = self.unblocked_inverse(ConvOperator(s), R)
        assert T.dtype == T0.dtype and np.array_equal(T, T0)
        # T keeps the unblocked layout, which fixes svds's summation order, in
        # the table's own buffer (its first half for a real kernel)
        assert T.flags.f_contiguous and np.shares_memory(T, tables[-1][0])
        monkeypatch.setattr(inversion, "GENERATOR_COND", 0.0)
        S = ConvOperator(s)
        T1, T2 = inverse_from_rho(S), inverse_from_rho(ConvOperator(s))
        want = T0 + T0 @ (np.eye(S.grid.size) - S.apply_fft(T0))
        assert T1.dtype == T0.dtype and T1.flags.f_contiguous and not np.array_equal(T1, T0)
        assert np.linalg.norm(T1 - want) <= 1e-13 * np.linalg.norm(want)
        assert np.array_equal(T1, T2)
        # a real kernel's step fills the second half of the table's buffer
        assert np.shares_memory(T2, tables[-1][0]) == np.isrealobj(T2)

    @pytest.mark.parametrize("amp,n1,n2,patched", BLOCK_CASES)
    def test_blocked_table_matches_unit_basis(self, amp, n1, n2, patched, monkeypatch):
        if patched:
            monkeypatch.setattr(inversion, "CHECK_BLOCK", 64 * n1 * n2)
        S = ConvOperator(samples_for(exp_kernel(amp=amp), n1, n2=n2, omega1=1.7, omega2=0.9))
        R, R0 = build_rho_table(S), rho_table_unit_basis(S)
        assert R.flags.f_contiguous
        assert np.abs(R - R0).max() <= 1e-11 * np.abs(R0).max()

    @staticmethod
    def traced_peak_units(model):
        """Traced peak of inverse_from_rho on ``model`` at 32^2, in units of
        one complex N x N array."""
        import tracemalloc

        S = ConvOperator(samples_for(model, 32))
        tracemalloc.start()
        try:
            inverse_from_rho(S)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / (16 * S.grid.size ** 2)

    def test_traced_peak_at_32_within_three_arrays(self):
        # Real S: R (one unit) and the generator's N x 3 n2 work arrays, 1.24
        # in all; the LU is dropped before R is made, and T is written over
        # R's buffer.  The LU kept beside R and a fresh real T read 2, a
        # dense S kept beside its LU 2.5, products that each made a fresh
        # array 4.
        assert self.traced_peak_units(exp_kernel()) <= 1.5

    def test_traced_peak_of_complex_kernel_at_32(self):
        # Complex S: R, one unit, and the generator's work arrays, 1.38 in
        # all; the LU (one unit) kept beside R read 2.24, the unit basis's X
        # 3, and a dense S kept beside its LU 4.
        assert self.traced_peak_units(exp_kernel(amp=0.05 + 0.1j)) <= 1.5

    def test_traced_peak_of_newton_step_at_32(self):
        # Estimate 2.7e4, so the step runs: R and the generator's work
        # arrays, 1.24 in all, as without the step; the step writes T + T (I
        # - S T) over the second half of R's buffer, with one panel of N / 8
        # columns beside it.  Solving the N unit columns instead read 1.56.
        from diffkern2d.kernels import gaussian_kernel

        assert self.traced_peak_units(gaussian_kernel(amp=40.0, width=0.08)) <= 1.3

    def test_non_operator_rejected(self):
        with pytest.raises(InvalidArgumentError):
            inverse_from_rho(np.eye(4))

    def test_frequency_grid_definition(self):
        g = make_grid(2.0, 1.0, 6, 5)
        l1, l2 = dft_frequencies(g)
        assert_allclose(l1, 2 * np.pi * np.arange(-3, 3) / 2.0)
        assert_allclose(l2, 2 * np.pi * np.arange(-2, 3) / 1.0)


class TestGeneratorTable:
    """build_rho_table from U = X G and V = H X, X = S^{-1}, against the
    dense unit-basis table, and its guard on the condition estimate."""

    @pytest.mark.parametrize("tag", list(MODEL_BUILDERS))
    @pytest.mark.parametrize("n1,n2", [(5, 7), (2, 6), (6, 2), (2, 3), (13, 10), (3, 2)])
    def test_every_family_matches_unit_basis(self, tag, n1, n2):
        # odd, even and non-square grids on unequal sides, n_i = 2 included
        S = ConvOperator(samples_for(MODEL_BUILDERS[tag](), n1, n2=n2, omega1=1.7, omega2=0.9))
        R, R0 = build_rho_table(S), rho_table_unit_basis(S)
        assert np.abs(R - R0).max() <= 1e-11 * np.abs(R0).max()

    @pytest.mark.parametrize("model,n1,n2", [
        (exp_kernel(amp=0.05 + 0.1j), 11, 10), (exp_kernel(amp=0.05 + 0.1j), 20, 13),
        (deconv_model(), 32, 32), (identity_kernel(c=1.0), 8, 8)])
    def test_complex_and_gaussian_match_unit_basis(self, model, n1, n2):
        S = ConvOperator(samples_for(model, n1, n2=n2, omega1=1.7, omega2=0.9))
        R, R0 = build_rho_table(S), rho_table_unit_basis(S)
        assert np.abs(R - R0).max() <= 1e-11 * np.abs(R0).max()

    @pytest.mark.parametrize("model,n1,n2", [
        (exp_kernel(), 8, 8), (rich_model(), 5, 7), (exp_kernel(amp=0.05 + 0.1j), 6, 9)])
    def test_u_v_are_x_g_and_h_x(self, model, n1, n2):
        from diffkern2d.operators import discrete_generator

        S = ConvOperator(samples_for(model, n1, n2=n2, omega1=1.7, omega2=0.9))
        X = np.linalg.inv(S.dense())
        G, H = discrete_generator(S, 1)
        U, V = inversion._generator_solve(S)
        for got, want in ((U, X @ G), (V, H @ X)):
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("amp,width", [(20.0, 0.1), (40.0, 0.08)])
    def test_ill_conditioned_kernel_takes_one_newton_step(self, amp, width, monkeypatch):
        # 1-norm estimates 3.5e3 and 2.7e4, above GENERATOR_COND (671): the
        # generator's T has a residual near cond^2 eps (4.1e-10 and 1.4e-9),
        # and one Newton-Schulz step brings it below the 8.2e-13 and 2.1e-12
        # of a table solved from the N unit columns
        from diffkern2d.cli import _inverse_residual
        from diffkern2d.kernels import gaussian_kernel

        factored, tables, table = self.count_factoring(monkeypatch), [], inversion._rho_table

        def spy(S):
            # a copy, as inverse_from_rho works in place on the table
            R, cond = table(S)
            tables.append((R.copy(order="K"), cond))
            return R, cond

        monkeypatch.setattr(inversion, "_rho_table", spy)
        S = ConvOperator(samples_for(gaussian_kernel(amp=amp, width=width), 32))
        T = inverse_from_rho(S)
        R, cond = tables[0]
        assert cond > inversion.GENERATOR_COND
        assert len(tables) == 1 and len(factored) == 1 and R.flags.f_contiguous
        R0 = rho_table_unit_basis(S)
        assert np.abs(R - R0).max() <= 1e-9 * np.abs(R0).max()
        assert _inverse_residual(S, T) <= 5e-13

    @staticmethod
    def count_factoring(monkeypatch):
        """A list that gets one entry per LU solve_lu factors."""
        from diffkern2d import operators

        factored, factor = [], operators.lu_factor_cond
        monkeypatch.setattr(operators, "lu_factor_cond",
                            lambda *a, **k: factored.append(1) or factor(*a, **k))
        return factored

    @pytest.mark.parametrize("guard", [np.inf, 0.0], ids=["generator", "stepped"])
    @pytest.mark.parametrize("caller_factored", [False, True])
    def test_lu_left_as_found(self, guard, caller_factored, monkeypatch):
        # an LU the table's own solve factored is dropped once its solve is
        # done, whether or not the Newton-Schulz step then runs; one the
        # caller factored stays
        monkeypatch.setattr(inversion, "GENERATOR_COND", guard)
        S = ConvOperator(samples_for(exp_kernel(), 12, n2=10, omega1=1.7, omega2=0.9))
        lu = S.solve_lu() if caller_factored else None
        factored = self.count_factoring(monkeypatch)
        if guard:
            got, want = build_rho_table(S), rho_table_unit_basis(S)
        else:
            got, want = inverse_from_rho(S), np.linalg.inv(S.dense())
        assert S._lu is lu and len(factored) == (0 if caller_factored else 1)
        assert np.abs(got - want).max() <= 1e-11 * np.abs(want).max()

    def test_guard_constant(self):
        # cond^2 eps <= BACKWARD_TOL / 10
        eps = np.finfo(float).eps
        assert inversion.GENERATOR_COND ** 2 * eps == pytest.approx(inversion.BACKWARD_TOL / 10)
        assert 670 < inversion.GENERATOR_COND < 672


class TestStructureCheck:
    def test_conv_operator_certifies(self):
        s = samples_for(exp_kernel(), 6)
        S = ConvOperator(s)
        assert check_difference_kernel(S.dense(), s.grid) <= 1e-12

    def test_random_matrix_is_far(self, rng):
        g = make_grid(1.0, 1.0, 4, 4)
        Q = rng.standard_normal((16, 16))
        assert check_difference_kernel(Q, g) > 0.3          # O(1) misfit for noise

    def test_round_trip_through_rho(self):
        s = samples_for(exp_kernel(), 8)
        S = ConvOperator(s)
        T = inverse_from_rho(S)
        assert check_difference_kernel(np.linalg.inv(T), s.grid) <= 1e-8

    def test_non_square_rejected(self):
        g = make_grid(1.0, 1.0, 4, 4)
        with pytest.raises(InvalidArgumentError):
            check_difference_kernel(np.zeros((16, 15)), g)
