"""Acceptance suite: one test per criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
Grids stay at desk scale (dense work <= 32x32 except the timing check,
which forces one 128x128 dense assembly).
"""

import time

import numpy as np

from diffkern2d.cli import main
from diffkern2d.config import RunConfig
from diffkern2d.inversion import (
    build_rho_evaluator,
    check_difference_kernel,
    compute_g_blocks,
    g_symmetry_residual,
    inverse_from_rho,
    pair_flip_transform,
    rho_direct,
    rho_structured,
)
from diffkern2d.kernels import exp_kernel, identity_kernel, separable_factors, separable_kernel
from diffkern2d.operators import (
    ConvOperator,
    assemble_pi,
    displacement_identity_residual,
    displacement_rank,
    m4_identity_residual,
    m_op,
)

from conftest import MODEL_BUILDERS, rich_model, samples_for
from oracle import kernel1d_from_profile, oracle_m_op, rho_1d


def report(num, desc, ok, detail):
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {desc} ({detail})")
    assert ok, f"criterion {num}: {desc}: {detail}"


def fitted_order(sizes, vals):
    return float(-np.polyfit(np.log2(np.asarray(sizes, float)),
                             np.log2(np.asarray(vals, float)), 1)[0])


LAM_PAIRS = [(l1, l2) for l1 in RunConfig().rho_lambda1 for l2 in RunConfig().rho_lambda2]
MU_PAIRS = [(m1, m2) for m1 in RunConfig().rho_mu1 for m2 in RunConfig().rho_mu2]


def test_criterion_1_exact_identity_case():
    t0 = time.perf_counter()
    s = samples_for(identity_kernel(c=1.0), 8)
    S = ConvOperator(s)
    vals = [
        displacement_identity_residual(S, assemble_pi(s, 1)),
        displacement_identity_residual(S, assemble_pi(s, 2)),
        m4_identity_residual(s, 2, 1),
        m4_identity_residual(s, 1, 2),
    ]
    elapsed = time.perf_counter() - t0
    ok = max(vals) <= 1e-12 and elapsed < 5.0
    report(1, "exact identity case (c=1, rest 0)", ok,
           f"max residual {max(vals):.2e}, {elapsed:.2f}s")


def test_criterion_2_identity_convergence():
    sizes = (8, 16, 32)
    series = {"disp_k1": [], "disp_k2": [], "side_21": [], "side_12": []}
    for n in sizes:
        s = samples_for(exp_kernel(), n)
        S = ConvOperator(s)
        series["disp_k1"].append(displacement_identity_residual(S, assemble_pi(s, 1)))
        series["disp_k2"].append(displacement_identity_residual(S, assemble_pi(s, 2)))
        series["side_21"].append(m4_identity_residual(s, 2, 1))
        series["side_12"].append(m4_identity_residual(s, 1, 2))
    orders = {k: fitted_order(sizes, v) for k, v in series.items()}
    ok = all(o >= 0.8 for o in orders.values())
    report(2, "identity residual convergence, exp kernel", ok,
           ", ".join(f"{k}={v:.2f}" for k, v in orders.items()))


def test_criterion_3_displacement_rank_bound():
    worst = []
    for tag in ("zero", "exp", "separable", "gaussian"):
        for n in (8, 16):
            s = samples_for(MODEL_BUILDERS[tag](), n)
            S = ConvOperator(s)
            for k in (1, 2):
                r = displacement_rank(S, k)
                worst.append((tag, n, k, r, 2 * n + 2, r <= 2 * n + 2))
    ok = all(w[-1] for w in worst)
    peak = max(worst, key=lambda w: w[3] / w[4])
    report(3, "displacement rank <= 2 n_i + 2 on all test kernels", ok,
           f"tightest {peak[0]} n={peak[1]} k={peak[2]}: rank {peak[3]} <= {peak[4]}")


def test_criterion_4_g_symmetry():
    sizes = (8, 16, 32)
    vals = []
    invol = 0.0
    for n in sizes:
        s = samples_for(exp_kernel(), n)
        S = ConvOperator(s)
        g12, g21 = compute_g_blocks(S, s)
        vals.append(g_symmetry_residual(g12, g21, s.grid))
        back = pair_flip_transform(pair_flip_transform(g12, s.grid, 1), s.grid, 2)
        invol = max(invol, float(np.abs(back - g12).max() / np.abs(g12).max()))
    order = fitted_order(sizes, vals)
    ok = order >= 0.8 and invol <= 1e-12
    report(4, "g flip symmetry converges, transform is an involution", ok,
           f"order {order:.2f}, involution {invol:.1e}")


def test_criterion_5_structured_rho():
    sizes = (8, 16, 32)
    errs, cross = [], []
    theta_axis_ok = True
    for n in sizes:
        s = samples_for(exp_kernel(), n)
        S = ConvOperator(s)
        ev = build_rho_evaluator(S, s)
        worst = 0.0
        worst_cross = 0.0
        for lam in LAM_PAIRS:
            for mu in MU_PAIRS:
                d = rho_direct(S, lam, mu)
                r1 = rho_structured(ev, lam, mu, i=1)
                r2 = rho_structured(ev, lam, mu, i=2)
                worst = max(worst, abs(r1 - d) / abs(d))
                worst_cross = max(worst_cross, abs(r1 - r2) / abs(d))
        errs.append(worst)
        cross.append(worst_cross)
        theta_axis_ok &= (ev._theta((0.0, 1.7)) == 1.0 and ev._theta((2.3, 0.0)) == 1.0)
    order = fitted_order(sizes, errs)
    cross_ok = all(c <= 10 * e for c, e in zip(cross, errs))
    ok = order >= 0.8 and cross_ok and theta_axis_ok
    report(5, "structured rho converges to direct rho; both axis forms agree", ok,
           f"order {order:.2f}, errs {['%.1e' % e for e in errs]}, "
           f"cross<=10x {cross_ok}, theta axis exact {theta_axis_ok}")


def test_criterion_6_separable_factorization():
    n = 16
    S = ConvOperator(samples_for(separable_kernel(), n, normalize=False))
    (c1, v1), (c2, v2) = separable_factors()
    k1 = kernel1d_from_profile(1.0, n, c1, v1)
    k2 = kernel1d_from_profile(1.0, n, c2, v2)
    worst = 0.0
    for lam in [(0.7, 1.3), (-1.1, 0.4), (2.0, -0.8)]:
        for mu in [(1.9, -0.5), (0.3, 2.2), (-0.9, 1.0)]:
            whole = rho_direct(S, lam, mu)
            parts = rho_1d(k1, lam[0], mu[0]) * rho_1d(k2, lam[1], mu[1])
            worst = max(worst, abs(whole - parts) / abs(whole))
    ok = worst <= 1e-10
    report(6, "tensor kernel rho factors into 1-D products", ok, f"max {worst:.2e}")


def test_criterion_7_inverse_from_rho_exact():
    worst = ("", 0.0)
    for tag, builder in MODEL_BUILDERS.items():
        s = samples_for(builder(), 8)
        S = ConvOperator(s)
        T = inverse_from_rho(S)
        want = np.linalg.inv(S.dense())
        err = float(np.linalg.norm(T - want) / np.linalg.norm(want))
        if err > worst[1]:
            worst = (tag, err)
    ok = worst[1] <= 1e-9
    report(7, "inverse reconstructed from the rho table, every kernel", ok,
           f"worst {worst[0]}: {worst[1]:.2e}")


def test_criterion_8_round_trip_structure():
    worst = ("", 0.0)
    for tag, builder in MODEL_BUILDERS.items():
        s = samples_for(builder(), 8)
        S = ConvOperator(s)
        T = inverse_from_rho(S)
        res = check_difference_kernel(np.linalg.inv(T), s.grid)
        if res > worst[1]:
            worst = (tag, res)
    ok = worst[1] <= 1e-8
    report(8, "re-inverted reconstruction has difference-kernel structure", ok,
           f"worst {worst[0]}: {worst[1]:.2e}")


def test_criterion_9_oracle_agreement():
    sizes = (8, 16, 32)
    orders = {}
    for j, k in ((1, 1), (1, 2), (4, 1), (4, 2)):
        gaps = []
        for n in sizes:
            s = samples_for(rich_model(), n)
            gap = np.abs(oracle_m_op(s, j, k) - m_op(s, j, k)).max()
            gaps.append(gap / np.abs(m_op(s, j, k)).max())
        orders[f"M{j}{k}"] = fitted_order(sizes, gaps)
    order_ok = all(o >= 0.8 for o in orders.values())

    rng = np.random.default_rng(42)
    agree = 0.0
    for n in sizes:
        S = ConvOperator(samples_for(exp_kernel(), n))
        D = S.dense()
        for _ in range(100):
            f = rng.standard_normal(n * n) + 1j * rng.standard_normal(n * n)
            ref = D @ f
            agree = max(agree, float(np.linalg.norm(S.apply_fft(f) - ref)
                                     / np.linalg.norm(ref)))
    ok = order_ok and agree <= 1e-12
    report(9, "analytic operators track the brute-force oracle; FFT = dense", ok,
           ", ".join(f"{k}={v:.2f}" for k, v in orders.items())
           + f"; fft/dense {agree:.1e}")


def test_criterion_10_fft_speedup():
    n = 128
    s = samples_for(exp_kernel(), n, normalize=False)
    S = ConvOperator(s)
    D = S._assemble_dense()          # past the guard; excluded from timing
    f = np.random.default_rng(0).standard_normal(n * n)

    def best_of(fn, reps=5):
        best = np.inf
        for _ in range(reps):
            t0 = time.perf_counter()
            fn(f)
            best = min(best, time.perf_counter() - t0)
        return best

    D @ f                            # warm both paths
    S.apply_fft(f)
    t_dense = best_of(lambda v: D @ v)
    t_fft = best_of(S.apply_fft)
    speedup = t_dense / t_fft
    ok = speedup >= 10.0
    report(10, "FFT matvec at 128x128 is >= 10x faster than dense", ok,
           f"dense {t_dense*1e3:.1f} ms, fft {t_fft*1e3:.2f} ms, x{speedup:.0f}")


def test_criterion_11_cli_determinism(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("kernel = exp\nc = 1.0\namp = 0.15\nb1 = 1.0\nb2 = 0.7\n"
                   "sizes = 8,12\n")
    blobs = []
    for run in ("a", "b"):
        out = tmp_path / run
        code = main(["verify", "--config", str(cfg), "--out", str(out),
                     "--seed", "3"])
        assert code == 0
        blobs.append((out / "verify_report.json").read_bytes())
    identical = blobs[0] == blobs[1]

    # the suite exercised nothing beyond this package and its declared deps
    import diffkern2d

    mods = {m.split(".")[1] for m in list(__import__("sys").modules)
            if m.startswith("diffkern2d.")}
    expected = {"errors", "grid", "kernels", "operators", "inversion",
                "config", "fileio", "cli"}
    self_contained = mods <= expected | {"__main__"}
    ok = identical and self_contained
    report(11, "verify reports are byte-identical; primary build is self-contained",
           ok, f"identical {identical}, modules {sorted(mods)}")
