"""Command-line front end.

    diffkern2d <verify|rho|deconv|reconstruct> --config <path>
               [--out <dir>] [--sizes 8,16,32] [--seed N]
               [--tol-override key=value] [--input image]

Exit codes: 0 all contracts pass, 1 contract failure, 2 usage/config
error.  Reports are byte-identical for a fixed (config, seed) at a fixed
BLAS thread count: sorted JSON keys, shortest round-trip float repr, no
timestamps.  ``rho`` evaluates the whole direct rho table from one
batched solve against S, at any grid size.  Above 64 x 64 points
``verify`` (the dense S) and ``reconstruct`` (the dense inverse from the
rho table, judged by its two residuals) exit 2 before sampling.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path
from typing import Optional

import numpy as np
import scipy.sparse.linalg

from . import fileio
from .config import RunConfig, check_seed, load_config, parse_sizes
from .errors import DiffKernError, InvalidArgumentError
from .grid import normalize_kernel, sample_kernel
from .inversion import (
    _blocks,
    _by_parts,
    _eye_residuals,
    build_rho_evaluator,
    g_symmetry_residual,
    compute_g_blocks,
    inverse_from_rho,
    pair_flip_transform,
    rho_direct,
    rho_structured,
    solve_array,
    structured_axes,
)
from .operators import (
    ConvOperator,
    apply_along,
    assemble_pi,
    check_dense_guard,
    discrete_generator,
    displacement_identity_residual,
    displacement_rank,
    line_integration_op,
    m4_identity_residual,
)

SCHEMA = "diffkern2d-report-1"


def fit_order(sizes, residuals, exact_tol: float) -> dict:
    """Least-squares slope of log2(residual) against log2(n).

    Residuals at or below ``exact_tol`` short-circuit to an exact pass
    (the identity-kernel case is satisfied to roundoff, where no order
    can be fitted).
    """
    res = np.asarray(residuals, dtype=float)
    if np.all(res <= exact_tol):
        return {"exact": True, "order": None, "residuals": list(res)}
    res = np.maximum(res, 1e-300)
    slope = np.polyfit(np.log2(np.asarray(sizes, dtype=float)), np.log2(res), 1)[0]
    return {"exact": False, "order": float(-slope), "residuals": list(res)}


def _build_samples(cfg: RunConfig, n: Optional[int] = None):
    """Kernel samples on the config's grid, or on an n x n one."""
    grid = cfg.make_grid() if n is None else cfg.make_grid(n, n)
    samples = sample_kernel(cfg.build_model(), grid)
    if cfg.normalize:
        samples = normalize_kernel(samples)
    return samples


# --------------------------------------------------------------------------
# verify
# --------------------------------------------------------------------------


def cmd_verify(cfg: RunConfig, out: Path) -> int:
    tol = cfg.tolerances
    sizes = cfg.sizes
    for n in sizes:     # refused above the guard before any work
        check_dense_guard(cfg.make_grid(n, n), "dense assembly")
    rng = np.random.default_rng(cfg.seed)

    per_size = {}
    series = {"displacement_k1": [], "displacement_k2": [],
              "side_i2_k1": [], "side_i1_k2": [], "g_symmetry": []}
    contracts = []

    for n in sizes:
        samples = _build_samples(cfg, n)
        S = ConvOperator(samples)
        dense = S.dense()
        # the g blocks solve against S first, so a near-singular S raises
        # SingularOperatorError before a residual's norm can overflow
        pis = {k: assemble_pi(samples, k) for k in (1, 2)}
        g12, g21 = compute_g_blocks(S, samples, pis)

        r_k1 = displacement_identity_residual(S, pis[1])
        r_k2 = displacement_identity_residual(S, pis[2])
        r_21 = m4_identity_residual(samples, 2, 1)
        r_12 = m4_identity_residual(samples, 1, 2)

        gsym = g_symmetry_residual(g12, g21, S.grid)
        back = pair_flip_transform(pair_flip_transform(g12, S.grid, 1), S.grid, 2)
        invol = float(np.linalg.norm(back - g12) / np.linalg.norm(g12))

        ranks = {k: displacement_rank(S, k, rel_tol=tol["rank_rel"]) for k in (1, 2)}
        bounds = {1: 2 * S.grid.n2 + 2, 2: 2 * S.grid.n1 + 2}

        # the same probes check D_k w = A_k S w - S A_k^* w, applied
        # through the FFT, against the generator factors G (H w)
        gens = [(k, line_integration_op(S.grid, k), *discrete_generator(S, k))
                for k in (1, 2)]
        agree = gen_agree = 0.0
        for probe in range(5):
            f = rng.standard_normal(S.grid.size) + 1j * rng.standard_normal(S.grid.size)
            if probe == 0:
                f = f.real      # the real half-spectrum path that deconv takes
            Sf = S.apply_fft(f)
            dense_f = _by_parts(dense.__matmul__, dense, f)
            agree = max(agree, np.linalg.norm(Sf - dense_f) / np.linalg.norm(dense_f))
            for k, calA, G, H in gens:
                disp_f = (apply_along(calA, Sf, S.grid, k)
                          - S.apply_fft(apply_along(calA.conj().T, f, S.grid, k)))
                diff = np.linalg.norm(disp_f - G @ (H @ f))
                gen_agree = max(gen_agree, float(diff / np.linalg.norm(disp_f)))

        per_size[str(n)] = {
            "displacement_k1": r_k1, "displacement_k2": r_k2,
            "side_i2_k1": r_21, "side_i1_k2": r_12,
            "g_symmetry": gsym, "involution": invol,
            "rank_k1": ranks[1], "rank_k2": ranks[2],
            "rank_bound_k1": bounds[1], "rank_bound_k2": bounds[2],
            "fft_dense_agreement": agree,
            "generator_agreement": gen_agree,
        }
        series["displacement_k1"].append(r_k1)
        series["displacement_k2"].append(r_k2)
        series["side_i2_k1"].append(r_21)
        series["side_i1_k2"].append(r_12)
        series["g_symmetry"].append(gsym)

        contracts.append(("rank_k1_within_bound_n%d" % n, ranks[1] <= bounds[1],
                          ranks[1], bounds[1]))
        contracts.append(("rank_k2_within_bound_n%d" % n, ranks[2] <= bounds[2],
                          ranks[2], bounds[2]))
        contracts.append(("involution_n%d" % n, invol <= tol["involution"],
                          invol, tol["involution"]))
        contracts.append(("fft_dense_agreement_n%d" % n, agree <= tol["agreement"],
                          agree, tol["agreement"]))
        contracts.append(("generator_agreement_n%d" % n, gen_agree <= tol["agreement"],
                          gen_agree, tol["agreement"]))

    orders = {}
    for name, vals in series.items():
        fit = fit_order(sizes, vals, tol["exact"])
        orders[name] = fit
        ok = fit["exact"] or fit["order"] >= tol["min_order"]
        contracts.append((f"order_{name}", bool(ok),
                          "exact" if fit["exact"] else fit["order"], tol["min_order"]))

    overall = all(ok for _, ok, _, _ in contracts)
    report = {
        "schema": SCHEMA,
        "command": "verify",
        "config": cfg.echo(),
        "per_size": per_size,
        "orders": orders,
        "contracts": [
            {"name": nm, "pass": ok, "value": val, "threshold": thr}
            for nm, ok, val, thr in contracts
        ],
        "overall_pass": overall,
    }
    fileio.write_json_report(out / "verify_report.json", report)
    fileio.write_convergence_csv(out / "convergence.csv", sizes, series)
    fileio.write_convergence_svg(out / "convergence.svg", sizes, series)
    for nm, ok, val, thr in contracts:
        if not ok:
            print(f"FAIL {nm}: {val} vs {thr}", file=sys.stderr)
    return 0 if overall else 1


# --------------------------------------------------------------------------
# rho tables
# --------------------------------------------------------------------------


def cmd_rho(cfg: RunConfig, out: Path) -> int:
    tol = cfg.tolerances
    samples = _build_samples(cfg)
    S = ConvOperator(samples)
    ev = build_rho_evaluator(S, samples)

    # every (lam, mu) pair, lam outer and mu inner
    lams = [(l1, l2) for l2 in cfg.rho_lambda2 for l1 in cfg.rho_lambda1]
    mus = [(m1, m2) for m2 in cfg.rho_mu2 for m1 in cfg.rho_mu1]
    pairs = [(lam, mu) for lam in lams for mu in mus]
    coords = np.array([lam + mu for lam, mu in pairs], dtype=complex)
    L, M = np.reshape(lams, (-1, 2)), np.reshape(mus, (-1, 2))
    direct = rho_direct(S, L, M).reshape(-1)
    struct = rho_structured(ev, L, M).reshape(-1)
    # pairs without an admissible form, by the axis rule and never by isnan
    skip = ~structured_axes(L, M)[1].reshape(-1)
    skipped = [{"lam": list(lam), "mu": list(mu),
                "reason": "mu coincides with lam in both coordinates at "
                          f"lam={tuple(map(complex, lam))}, mu={tuple(map(complex, mu))}"}
               for (lam, mu), s in zip(pairs, skip) if s]

    # |z| by hypot, as abs(complex) takes it (numpy's complex abs can move
    # the last bit); a nan from rho_structured is not skipped: it fails
    diff, ref = struct[~skip] - direct[~skip], direct[~skip]
    errs = np.hypot(diff.real, diff.imag) / np.maximum(np.hypot(ref.real, ref.imag), 1e-300)
    evaluated = errs.size
    max_err = errs.max() if evaluated else None
    ok = evaluated > 0 and max_err <= tol["rho_max_rel_err"]
    report = {
        "schema": SCHEMA,
        "command": "rho",
        "config": cfg.echo(),
        "lambda1": cfg.rho_lambda1, "lambda2": cfg.rho_lambda2,
        "mu1": cfg.rho_mu1, "mu2": cfg.rho_mu2,
        "pairs_total": len(pairs),
        "pairs_evaluated": evaluated,
        "pairs_skipped": len(skipped),
        "skipped": skipped,
        "max_rel_diff": max_err,
        "bound": tol["rho_max_rel_err"],
        "overall_pass": bool(ok),
        "explanation": (None if evaluated else
                        "every (lam, mu) pair coincides in both coordinates; "
                        "no admissible one-axis form exists"),
    }
    fileio.write_rho_csv(out / "rho_direct.csv", coords, direct)
    fileio.write_rho_csv(out / "rho_structured.csv", coords, struct)
    fileio.write_json_report(out / "rho_report.json", report)
    if not ok:
        msg = report["explanation"] or f"max rel diff {max_err} above {tol['rho_max_rel_err']}"
        print(f"FAIL rho: {msg}", file=sys.stderr)
    return 0 if ok else 1


# --------------------------------------------------------------------------
# deconvolution demo
# --------------------------------------------------------------------------


def cmd_deconv(cfg: RunConfig, out: Path, input_path: str) -> int:
    grid = cfg.make_grid()
    img, maxval = fileio.read_image(input_path)
    if img.shape != (grid.n2, grid.n1):
        raise InvalidArgumentError(
            f"image is {img.shape[1]}x{img.shape[0]} (cols x rows) but the "
            f"grid needs {grid.n1}x{grid.n2}"
        )
    S = ConvOperator(_build_samples(cfg))

    f = img.reshape(grid.size)
    blurred = S.apply_fft(f)
    recovered = solve_array(S, blurred)

    peak = float(maxval) if maxval is not None else float(np.abs(img).max() or 1.0)
    # error and peak scaled exactly by 2^-e, e the peak's exponent: no square overflows
    peak_e, e = np.frexp(peak)
    mse_e = float(np.mean(np.ldexp(np.abs(recovered - f), -e) ** 2))
    with np.errstate(over="ignore"):
        mse = float(np.ldexp(mse_e, 2 * e))
    psnr = float("inf") if mse_e == 0 else 10.0 * np.log10(peak_e * peak_e / mse_e)

    rec2d = grid.to2d(recovered.real)
    blur2d = grid.to2d(np.asarray(blurred).real)
    if maxval is not None:
        fileio.write_pgm(out / "recovered.pgm", rec2d, maxval)
        fileio.write_pgm(out / "blurred.pgm", blur2d, maxval)
    fileio.write_matrix_csv(out / "recovered.csv", rec2d)
    fileio.write_matrix_csv(out / "blurred.csv", blur2d)

    ok = psnr >= cfg.tolerances["psnr_min"]
    report = {
        "schema": SCHEMA,
        "command": "deconv",
        "config": cfg.echo(),
        "psnr_db": psnr,
        "psnr_min": cfg.tolerances["psnr_min"],
        "mse": mse,
        "peak": peak,
        "overall_pass": bool(ok),
    }
    fileio.write_json_report(out / "deconv_report.json", report)
    if not ok:
        print(f"FAIL deconv: PSNR {psnr:.2f} dB below "
              f"{cfg.tolerances['psnr_min']}", file=sys.stderr)
    return 0 if ok else 1


# --------------------------------------------------------------------------
# inverse reconstruction
# --------------------------------------------------------------------------


def _cond_2(S: ConvOperator, T: np.ndarray) -> float:
    """cond_2(S) = ||S||_2 ||S^{-1}||_2 from the largest singular value of
    S, by the FFT matvec, and of an inverse T of it.

    ``reconstruct`` passes T, the inverse built from the rho table; it is
    S^{-1} to within its residual r = ||S T - I||_2, so ||T||_2 is
    ||S^{-1}||_2 to within a factor 1 +- r.  Each singular value comes
    from Lanczos (ARPACK through ``svds``; Golub & Kahan, SIAM J. Numer.
    Anal. B 2, 1965) in a few dozen matvecs instead of a full SVD, with
    S^H b = J conj(S J conj(b)) by persymmetry.  The start vector x_i =
    (-1)^i (1 + i / (N - 1)), the one ``inversion._cond_estimate`` uses,
    keeps the number reproducible.  S is scaled by 2^-e and T by 2^e, e
    the binary exponent of ||S||_1, so that neither Lanczos product
    S^H S nor T^H T overflows or underflows for a kernel of extreme size;
    the scaling is exact and cancels in the product.
    """
    N = S.grid.size
    e = math.frexp(S.norm1())[1] - 1
    op = scipy.sparse.linalg.LinearOperator(
        (N, N), matvec=S.apply_fft, rmatvec=lambda b: S.apply_fft(b[::-1].conj())[::-1].conj(),
        dtype=np.result_type(S.lattice_kernel, float))
    i = np.arange(N)
    v0 = (-1.0) ** i * (1.0 + i / (N - 1))
    s_max, s_inv_max = (
        scipy.sparse.linalg.svds(M, k=1, return_singular_vectors=False, tol=0, v0=v0)[0]
        for M in (op * 2.0 ** -e, scipy.sparse.linalg.aslinearoperator(T) * 2.0 ** e)
    )
    return float(s_max * s_inv_max)


def _inverse_residual(S: ConvOperator, X: np.ndarray) -> float:
    """||S X - I||_F, by the FFT matvec over the cache-sized column blocks
    of ``inversion._blocks``, so the work arrays stay bounded."""
    D = _eye_residuals(S, X, _blocks(*X.shape))
    return float(np.linalg.norm([np.linalg.norm(d) for d in D]))


def cmd_reconstruct(cfg: RunConfig, out: Path) -> int:
    """T = S^{-1} from the rho table, judged with no dense inverse.

    ``reconstruction_error`` = ||S T - I||_F bounds ||T - S^{-1}||_F /
    ||S^{-1}||_F, and ``structure_residual`` = ||T S - I||_F bounds the
    relative misfit of T^{-1}'s best difference-kernel fit, as S is BTTB
    and T^{-1} - S = T^{-1} (I - T S) (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., 2002, section 14.1).  By persymmetry,
    J S J = S^T, ||T S - I||_F = ||S (J T^T J) - I||_F.
    """
    tol = cfg.tolerances
    check_dense_guard(cfg.make_grid(), "dense assembly")
    S = ConvOperator(_build_samples(cfg))
    T = inverse_from_rho(S)
    rec_err = _inverse_residual(S, T)
    structure = _inverse_residual(S, T.T[::-1, ::-1])

    ok = rec_err <= tol["reconstruct"] and structure <= tol["structure"]
    report = {
        "schema": SCHEMA,
        "command": "reconstruct",
        "config": cfg.echo(),
        "reconstruction_error": rec_err,
        "reconstruction_tol": tol["reconstruct"],
        "structure_residual": structure,
        "structure_tol": tol["structure"],
        "cond_S": _cond_2(S, T),
        "overall_pass": bool(ok),
    }
    fileio.write_json_report(out / "reconstruct_report.json", report)
    if not ok:
        print(f"FAIL reconstruct: error {rec_err}, structure {structure}",
              file=sys.stderr)
    return 0 if ok else 1


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="diffkern2d",
        description="Difference-kernel operators on a rectangle: verification, "
                    "rho tables, deconvolution, inverse reconstruction.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name in ("verify", "rho", "deconv", "reconstruct"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="kernel/run config file")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--sizes", default=None, help="comma list, e.g. 8,16,32")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--tol-override", action="append", default=[],
                       metavar="KEY=VALUE", help="override a named tolerance")
        if name == "deconv":
            p.add_argument("--input", required=True, help="P2 graymap or CSV matrix")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.sizes is not None:
            cfg.sizes = parse_sizes(args.sizes, field="--sizes")
        if args.seed is not None:
            cfg.seed = check_seed(args.seed, field="--seed")
        for item in args.tol_override:
            if "=" not in item:
                raise InvalidArgumentError(f"bad --tol-override {item!r}, expected KEY=VALUE")
            key, value = item.split("=", 1)
            cfg.set_tolerance(key.strip(), value.strip())

        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)

        if args.command == "verify":
            return cmd_verify(cfg, out)
        if args.command == "rho":
            return cmd_rho(cfg, out)
        if args.command == "deconv":
            return cmd_deconv(cfg, out, args.input)
        return cmd_reconstruct(cfg, out)
    except (DiffKernError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
