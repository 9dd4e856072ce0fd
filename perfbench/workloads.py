"""The benchmark's workloads: seeded inputs, CLI arguments and output checks.

Every workload is one diffkern2d command.  Its ``prepare`` function writes
the inputs for a seed into a directory and returns a ``Case``; ``Case.argv`` gives
the command line for one invocation and ``Case.check`` inspects that
invocation's outputs against references the benchmark computes itself.
The checks never compare report bytes between versions of the program,
only values against independent references with stated tolerances.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

RHO_N = 32
RHO_COUNT = 5             # values per lambda / mu axis, so 5*5 x 5*5 = 625 pairs
RHO_RANGE = (-2.5, 2.8)
RHO_SEPARATION = 0.4      # every mu_k at least this far from every lambda_k
RHO_SAMPLE = 8            # rho_direct entries re-solved by the checker
VERIFY_SIZES = (8, 16, 24, 32)
DECONV_SMALL = 64         # n1 * n2 == DENSE_GUARD: dense LU path
DECONV_LARGE = 256        # above the guard: GMRES with the FFT matvec
# A sharp gaussian: GMRES needs 35 FFT matvecs at 256x256 on every seed tried
# (9 with the default width), so an invocation lasts about 1.2 s instead of
# 0.4 s, long enough for its per-run median to be steady on a noisy host.
DECONV_KERNEL = "kernel = gaussian\namp = 8.0\nwidth = 0.15\n"
RECONSTRUCT_N = 32

# rich model of the test suite: exp smooth part plus sin / exp edge profiles
RICH_MODEL = (
    "kernel = exp\nc = 1.0\namp = 0.12\nb1 = 0.9\nb2 = 0.6\n"
    "alpha = sin\nalpha_amp = 0.1\nalpha_rate = 1.3\n"
    "beta = exp\nbeta_amp = 0.08\nbeta_rate = 0.5\n"
)


@dataclass
class Case:
    """Inputs of one run; the same inputs serve every invocation of the run."""

    args: List[str]
    checker: Callable[[Path], List[str]]
    details: Dict[str, object] = field(default_factory=dict)

    def argv(self, out_dir: Path) -> List[str]:
        return self.args + ["--out", str(out_dir)]

    def check(self, out_dir: Path) -> List[str]:
        """Problems found in one invocation's outputs; empty when correct."""
        try:
            return self.checker(out_dir)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            return [f"unreadable output: {type(exc).__name__}: {exc}"]


# --------------------------------------------------------------------------
# seeded inputs
# --------------------------------------------------------------------------


def draw_lambda_mu(rng: np.random.Generator, count: int = RHO_COUNT,
                   lo: float = RHO_RANGE[0], hi: float = RHO_RANGE[1],
                   separation: float = RHO_SEPARATION):
    """``count`` lambda and ``count`` mu values in [lo, hi], sorted, with
    every mu at least ``separation`` away from every lambda."""
    while True:
        lam = np.sort(rng.uniform(lo, hi, count))
        mus = []
        for _ in range(100 * count):
            m = rng.uniform(lo, hi)
            if np.min(np.abs(lam - m)) >= separation:
                mus.append(m)
                if len(mus) == count:
                    return [float(v) for v in lam], sorted(float(v) for v in mus)


def _floats(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _write(path: Path, text: str) -> Path:
    path.write_text(text)
    return path


def _load_report(out_dir: Path, name: str) -> dict:
    return json.loads((out_dir / name).read_text())


def _common_problems(report: dict) -> List[str]:
    return [] if report.get("overall_pass") is True else ["overall_pass is not true"]


def _use_library(src: Path) -> None:
    """Make diffkern2d importable from the checkout's sources."""
    import sys

    if str(src) not in sys.path:
        sys.path.insert(0, str(src))


def _dense_operator(src: Path, config_path: Path, n: Optional[int] = None):
    """The library's dense S for a config (at n x n when given) and its grid."""
    _use_library(src)
    from diffkern2d.config import load_config
    from diffkern2d.grid import normalize_kernel, sample_kernel
    from diffkern2d.operators import ConvOperator

    cfg = load_config(config_path)
    grid = cfg.make_grid(n, n) if n else cfg.make_grid()
    samples = sample_kernel(cfg.build_model(), grid)
    if cfg.normalize:
        samples = normalize_kernel(samples)
    return ConvOperator(samples).dense(), grid


# --------------------------------------------------------------------------
# rho
# --------------------------------------------------------------------------


def _read_rho_csv(path: Path) -> np.ndarray:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return np.array([[float(x) for x in row] for row in rows[1:]])


def _exp_flat(x1, x2, k1, k2) -> np.ndarray:
    """e^{i k x} on the midpoints, x1 index fastest."""
    return np.kron(np.exp(1j * k2 * x2), np.exp(1j * k1 * x1))


def prepare_rho(seed: int, work: Path, src: Path) -> Case:
    rng = np.random.default_rng(seed)
    lam1, mu1 = draw_lambda_mu(rng)
    lam2, mu2 = draw_lambda_mu(rng)
    config_path = _write(work / "rho.cfg", (
        f"kernel = exp\nn1 = {RHO_N}\nn2 = {RHO_N}\nseed = {seed}\n"
        f"rho_lambda1 = {_floats(lam1)}\nrho_lambda2 = {_floats(lam2)}\n"
        f"rho_mu1 = {_floats(mu1)}\nrho_mu2 = {_floats(mu2)}\n"
    ))
    lams = [(l1, l2) for l2 in lam2 for l1 in lam1]
    mus = [(m1, m2) for m2 in mu2 for m1 in mu1]
    expected_pairs = [lam + mu for lam in lams for mu in mus]
    sample = sorted(rng.choice(len(expected_pairs), RHO_SAMPLE, replace=False).tolist())

    D, grid = _dense_operator(src, config_path)
    x1 = (np.arange(grid.n1) + 0.5) * grid.h1
    x2 = (np.arange(grid.n2) + 0.5) * grid.h2
    rhs = np.column_stack([_exp_flat(x1, x2, *expected_pairs[k][:2]) for k in sample])
    sol = np.linalg.solve(D, rhs)
    reference = {
        k: complex(grid.h1 * grid.h2 * np.sum(_exp_flat(x1, x2, -expected_pairs[k][2],
                                                        -expected_pairs[k][3]) * sol[:, j]))
        for j, k in enumerate(sample)
    }
    coords = np.array(expected_pairs)

    def check(out: Path) -> List[str]:
        report = _load_report(out, "rho_report.json")
        problems = _common_problems(report)
        if report["pairs_evaluated"] != len(expected_pairs):
            problems.append(f"{report['pairs_evaluated']} of {len(expected_pairs)} pairs evaluated")
        direct = _read_rho_csv(out / "rho_direct.csv")
        struct = _read_rho_csv(out / "rho_structured.csv")
        if direct.shape != (len(expected_pairs), 10) or struct.shape != direct.shape:
            return problems + [f"rho tables have shapes {direct.shape}, {struct.shape}"]
        if not np.array_equal(direct[:, 0:8:2], coords) or np.any(direct[:, 1:8:2]):
            problems.append("rho_direct.csv does not list the configured (lam, mu) pairs")
        d = direct[:, 8] + 1j * direct[:, 9]
        s = struct[:, 8] + 1j * struct[:, 9]
        for k, ref in reference.items():
            err = abs(d[k] - ref) / abs(ref)
            if not err <= 1e-8:
                problems.append(f"rho_direct row {k}: relative error {err:.3e} against a dense solve")
        rel = np.abs(s - d) / np.maximum(np.abs(d), 1e-300)
        worst = float(np.max(rel))
        if not worst <= report["bound"]:
            problems.append(f"structured vs direct rho differ by {worst:.3e}")
        if not abs(worst - report["max_rel_diff"]) <= 1e-6 * worst:
            problems.append(f"report max_rel_diff {report['max_rel_diff']} != tables' {worst}")
        return problems

    return Case(["rho", "--config", str(config_path)], check,
                {"lambda1": lam1, "lambda2": lam2, "mu1": mu1, "mu2": mu2})


# --------------------------------------------------------------------------
# verify
# --------------------------------------------------------------------------


def displacement_ranks(D: np.ndarray, n: int, h: float, rel_tol: float) -> Dict[int, int]:
    """Numerical ranks of A_k D - D A_k^* for both axes of an n x n grid."""
    cal_a = 1j * h * (np.tril(np.ones((n, n)), -1) + 0.5 * np.eye(n))
    ranks = {}
    for k, A in ((1, np.kron(np.eye(n), cal_a)), (2, np.kron(cal_a, np.eye(n)))):
        sv = np.linalg.svd(A @ D - D @ A.conj().T, compute_uv=False)
        ranks[k] = int(np.sum(sv > rel_tol * sv[0])) if sv[0] > 0 else 0
    return ranks


def prepare_verify(seed: int, work: Path, src: Path) -> Case:
    sizes = ",".join(str(n) for n in VERIFY_SIZES)
    config_path = _write(work / "verify.cfg", RICH_MODEL + f"sizes = {sizes}\n")
    _use_library(src)
    from diffkern2d.config import default_tolerances

    rank_rel = default_tolerances()["rank_rel"]
    reference = {}
    for n in VERIFY_SIZES:
        D, grid = _dense_operator(src, config_path, n)
        reference[n] = displacement_ranks(D, n, grid.h1, rank_rel)

    def check(out: Path) -> List[str]:
        report = _load_report(out, "verify_report.json")
        problems = _common_problems(report)
        for n, ranks in reference.items():
            row = report["per_size"][str(n)]
            for k in (1, 2):
                got = row[f"rank_k{k}"]
                if got != ranks[k]:
                    problems.append(f"n={n} rank_k{k} {got}, checker's SVD gives {ranks[k]}")
                if got > 2 * n + 2:
                    problems.append(f"n={n} rank_k{k} {got} above the 2n+2 bound")
        return problems

    return Case(["verify", "--config", str(config_path), "--seed", str(seed)], check,
                {"ranks": {str(n): r for n, r in reference.items()}})


# --------------------------------------------------------------------------
# deconv
# --------------------------------------------------------------------------


def _prepare_deconv(n: int, seed: int, work: Path) -> Case:
    rng = np.random.default_rng(seed)
    image = rng.integers(0, 256, size=(n, n)).astype(float)
    image_path = work / f"image{n}.csv"
    np.savetxt(image_path, image, delimiter=",", fmt="%d")
    config_path = _write(work / f"deconv{n}.cfg",
                         DECONV_KERNEL + f"n1 = {n}\nn2 = {n}\nseed = {seed}\n")
    peak = float(np.abs(image).max())

    def check(out: Path) -> List[str]:
        problems = _common_problems(_load_report(out, "deconv_report.json"))
        recovered = np.loadtxt(out / "recovered.csv", delimiter=",", ndmin=2)
        if recovered.shape != image.shape:
            return problems + [f"recovered image has shape {recovered.shape}"]
        err = float(np.max(np.abs(recovered - image)))
        if not err <= 1e-6 * peak:
            problems.append(f"recovered image differs from the input by {err:.3e}")
        return problems

    return Case(["deconv", "--config", str(config_path), "--input", str(image_path),
                 "--seed", str(seed)], check)


def prepare_deconv_small(seed: int, work: Path, src: Path) -> Case:
    return _prepare_deconv(DECONV_SMALL, seed, work)


def prepare_deconv_large(seed: int, work: Path, src: Path) -> Case:
    return _prepare_deconv(DECONV_LARGE, seed, work)


# --------------------------------------------------------------------------
# reconstruct
# --------------------------------------------------------------------------


def prepare_reconstruct(seed: int, work: Path, src: Path) -> Case:
    rng = np.random.default_rng(seed)
    amp, b1, b2 = rng.uniform(0.1, 0.2), rng.uniform(0.8, 1.2), rng.uniform(0.5, 0.9)
    config_path = _write(work / "reconstruct.cfg", (
        f"kernel = exp\namp = {amp!r}\nb1 = {b1!r}\nb2 = {b2!r}\n"
        f"n1 = {RECONSTRUCT_N}\nn2 = {RECONSTRUCT_N}\nseed = {seed}\n"
    ))
    D, _ = _dense_operator(src, config_path)
    cond = float(np.linalg.cond(D))

    def check(out: Path) -> List[str]:
        report = _load_report(out, "reconstruct_report.json")
        problems = _common_problems(report)
        if not report["reconstruction_error"] <= report["reconstruction_tol"]:
            problems.append(f"reconstruction error {report['reconstruction_error']}")
        if not report["structure_residual"] <= report["structure_tol"]:
            problems.append(f"structure residual {report['structure_residual']}")
        if not abs(report["cond_S"] - cond) <= 1e-6 * cond:
            problems.append(f"cond_S {report['cond_S']}, checker's gives {cond}")
        return problems

    return Case(["reconstruct", "--config", str(config_path), "--seed", str(seed)], check,
                {"amp": amp, "b1": b1, "b2": b2, "cond": cond})


# name -> prepare(seed, work dir, src dir); BENCHMARK.json says why each is here
WORKLOADS = {
    "rho-n32": prepare_rho,
    "verify-ladder": prepare_verify,
    "deconv-n64": prepare_deconv_small,
    "deconv-n256": prepare_deconv_large,
    "reconstruct-n32": prepare_reconstruct,
}
