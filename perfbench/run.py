"""diffkern2d benchmark: CLI commands timed end to end in fresh processes.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Each invocation spawns ``worker.py``, which imports ``diffkern2d.cli``
from the checkout's ``src/`` and calls ``cli.main`` on inputs generated
here from the seed.  The loop is closed: one invocation at a time, the
next one starting when the previous one has been checked, until
``--seconds`` have passed.

With ``--trace 0`` the metrics are the end-to-end ones (medians over the
run's invocations):

* ``wall_s``: duration of ``cli.main`` in the worker;
* ``setup_s``: spawn of the worker until ``diffkern2d.cli`` is imported,
  also sampled by workers that only import;
* ``peak_rss_mb``: the worker's ``ru_maxrss`` after the command.

With ``--trace 1`` traced and untraced invocations alternate; the traced
ones install ``tracer.py``'s wrappers and give the per-layer metrics.
Every invocation's outputs are checked (``workloads.py``); an invocation
that exits non-zero, raises or fails its check counts in ``failed``.

BLAS runs single-threaded in the workers and here, and
``DIFFKERN2D_THREADS`` is removed from the workers' environment.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)   # before numpy is imported

import argparse
import json
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_ONLY_SPAWNS = 3
WORKER_TIMEOUT_S = 150.0

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402

# per-layer metrics from span self times: name -> span names summed
LAYER_TIMES = {
    "grid.sample_s": ["grid.sample"],
    "operators.build_s": ["operators.build"],
    "operators.dense_s": ["operators.dense"],
    "operators.apply_fft_s": ["operators.apply_fft"],
    "operators.apply_dense_s": ["operators.apply_dense"],
    "operators.pi_s": ["operators.pi"],
    "operators.displacement_residual_s": ["operators.displacement_residual"],
    "operators.displacement_rank_s": ["operators.displacement_rank"],
    "operators.side_residual_s": ["operators.side_residual"],
    "inversion.factor_s": ["inversion.factor_S", "inversion.factor_G"],
    "inversion.factor_S_s": ["inversion.factor_S"],
    "inversion.factor_G_s": ["inversion.factor_G"],
    "inversion.cond_s": ["inversion.cond"],
    "inversion.solve_s": ["inversion.solve"],
    "inversion.g_blocks_s": ["inversion.g_blocks"],
    "inversion.evaluator_s": ["inversion.evaluator"],
    "inversion.psi_s": ["inversion.psi"],
    "inversion.rho_direct_s": ["inversion.rho_direct"],
    "inversion.rho_structured_s": ["inversion.rho_structured"],
    "inversion.rho_table_s": ["inversion.rho_table"],
    "inversion.inverse_from_rho_s": ["inversion.inverse_from_rho"],
    "inversion.structure_check_s": ["inversion.structure_check"],
    "fileio.read_s": ["fileio.read"],
    "fileio.write_s": ["fileio.write"],
}
LAYER_CALLS = {
    "grid.sample_calls": "grid.sample",
    "operators.dense_count": "operators.dense",
    "operators.apply_fft_calls": "operators.apply_fft",
    "operators.apply_dense_calls": "operators.apply_dense",
    "inversion.cond_calls": "inversion.cond",
    "inversion.solve_calls": "inversion.solve",
    "inversion.rho_direct_calls": "inversion.rho_direct",
    "inversion.rho_structured_calls": "inversion.rho_structured",
    "inversion.psi_calls": "inversion.psi",
}
LAYER_COUNTERS = ["operators.dense_bytes", "inversion.factor_S_count", "inversion.factor_G_count",
                  "inversion.factor_S_flops", "inversion.factor_G_flops",
                  "inversion.solve_rhs", "fileio.bytes_written"]
LAYERS = ("grid", "operators", "inversion", "fileio", "cli")


# --------------------------------------------------------------------------
# machine block
# --------------------------------------------------------------------------


def _blas_threads() -> Dict[str, int]:
    """Thread count reported by each OpenBLAS loaded in this process."""
    import ctypes

    found = {}
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if len(line.split()) == 6}
    libs = sorted(p for p in paths if "openblas" in Path(p).name and ".so" in Path(p).name)
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(lib).name] = fn()
                break
    return found


def machine() -> dict:
    import scipy
    import scipy.linalg  # noqa: F401  loads scipy's BLAS

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    scipy_blas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        blas_threads = _blas_threads()
    except OSError:
        blas_threads = {}
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": f"{blas['name']} {blas['version']}",
        "scipy_blas": f"{scipy_blas['name']} {scipy_blas['version']}",
        "blas_threads_set": BLAS_THREADS,
        "blas_threads_reported": blas_threads,
        "DIFFKERN2D_THREADS": "unset",
    }


# --------------------------------------------------------------------------
# invocations
# --------------------------------------------------------------------------


def _worker_env() -> dict:
    env = dict(os.environ)
    env.pop("DIFFKERN2D_THREADS", None)
    env.pop("PYTHONPATH", None)
    return env


def spawn(result_path: Path, traced: bool = False, argv: Optional[List[str]] = None) -> dict:
    """Run one worker; its result, plus ``setup_s`` and ``stderr``."""
    cmd = [sys.executable, str(HERE / "worker.py"), str(SRC), str(result_path),
           "1" if traced else "0"] + list(argv or [])
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=_worker_env(), cwd=ROOT)
    try:
        _, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        _, err = proc.communicate()
        return {"exit": None, "stderr": f"killed after {WORKER_TIMEOUT_S} s"}
    stderr = err.decode(errors="replace")
    if proc.returncode != 0 or not result_path.exists():
        return {"exit": proc.returncode, "stderr": stderr}
    result = json.loads(result_path.read_text())
    result_path.unlink()
    result.update(exit=proc.returncode, stderr=stderr, setup_s=result["ready"] - spawned)
    return result


def setup_sample(work: Path) -> float:
    result = spawn(work / "setup.json")
    if "setup_s" not in result:
        raise RuntimeError(f"worker could not import diffkern2d.cli from {SRC}:\n"
                           f"{result['stderr']}")
    return result["setup_s"]


def invoke(case, work: Path, index: int, traced: bool) -> dict:
    """One checked invocation: timings, peak RSS and the problems found."""
    out = work / f"out{index}"
    result = spawn(work / f"result{index}.json", traced, case.argv(out))
    problems = []
    if "rc" not in result:
        problems.append(f"worker exited {result['exit']}: {result['stderr'][-2000:]}")
    elif result["error"]:
        problems.append(result["error"])
    elif result["rc"] != 0:
        problems.append(f"exit code {result['rc']}: {result['stderr'][-2000:]}")
    else:
        problems += case.check(out)
    shutil.rmtree(out, ignore_errors=True)
    record = {"traced": traced, "problems": problems}
    if "rc" in result:
        record.update(setup_s=result["setup_s"], wall_s=result["end"] - result["start"],
                      peak_rss_mb=result["maxrss_kb"] / 1024.0, trace=result.get("trace"))
    return record


# --------------------------------------------------------------------------
# metrics
# --------------------------------------------------------------------------


def quartiles(values: List[float]) -> dict:
    values = sorted(values)
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values),
            "values": values}


def layer_metrics(summary: dict, wall_s: float) -> Dict[str, float]:
    """Per-layer metrics of one traced invocation."""
    layers = summary["layers"]
    counters = summary["counters"]
    absent = {"calls": 0, "self_s": 0.0}
    metrics = {name: sum(layers.get(s, absent)["self_s"] for s in spans)
               for name, spans in LAYER_TIMES.items()}
    metrics.update({name: layers.get(span, absent)["calls"] for name, span in LAYER_CALLS.items()})
    metrics.update({name: counters.get(name, 0) for name in LAYER_COUNTERS})
    for what in ("count", "flops"):
        metrics[f"inversion.factor_{what}"] = sum(
            metrics[f"inversion.factor_{kind}_{what}"] for kind in ("S", "G"))
    calls = metrics["inversion.psi_calls"]
    unique = summary["distinct"].get("inversion.psi", 0)
    metrics["inversion.psi_unique"] = unique
    metrics["inversion.psi_hit_ratio"] = (calls - unique) / calls if calls else 0.0
    for layer in LAYERS:
        busy = sum(r["self_s"] for span, r in layers.items() if span.split(".")[0] == layer)
        metrics[f"{layer}.self_s"] = busy
        metrics[f"{layer}.share"] = busy / wall_s
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (SRC / "diffkern2d" / "cli.py").is_file():
        raise RuntimeError(f"no diffkern2d sources under {SRC}")
    work = OUT / f"{name}-seed{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setups = [setup_sample(work) for _ in range(1 if trace else SETUP_ONLY_SPAWNS)]
        case = WORKLOADS[name](seed, work, SRC)
        records = []
        deadline = time.monotonic() + seconds
        while True:
            traced = trace and len(records) % 2 == 1
            records.append(invoke(case, work, len(records), traced))
            if time.monotonic() >= deadline and (not trace or len(records) >= 2):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = [r for r in records if r["problems"]]
    ok = [r for r in records if not r["problems"]]
    result = {"workload": name, "seed": seed, "trace": int(trace), "details": case.details,
              "attempted": len(records), "failed": len(failed),
              "problems": [r["problems"] for r in failed]}
    if trace:
        plain = [r["wall_s"] for r in ok if not r["traced"]]
        traced = [r for r in ok if r["traced"]]
        per_inv = [layer_metrics(r["trace"], r["wall_s"]) for r in traced]
        stats = {k: quartiles([m[k] for m in per_inv]) for k in (per_inv[0] if per_inv else ())}
        if plain and traced:
            stats["trace.overhead_s"] = {
                "median": statistics.median(r["wall_s"] for r in traced) - statistics.median(plain),
                "n": len(traced) + len(plain)}
        result["traced_invocations"] = [r["trace"] for r in traced]
    else:
        stats = {
            "wall_s": quartiles([r["wall_s"] for r in ok]) if ok else None,
            "setup_s": quartiles(setups + [r["setup_s"] for r in records if "setup_s" in r]),
            "peak_rss_mb": quartiles([r["peak_rss_mb"] for r in ok]) if ok else None,
        }
    result["stats"] = stats
    return result


# --------------------------------------------------------------------------
# reporting
# --------------------------------------------------------------------------


def declared_metrics(trace: bool) -> Dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("_bytes", "_written")):
        return "B"
    if name.endswith(("share", "ratio")):
        return "ratio"
    return "flop" if name.endswith("flops") else "count"


def report(result: dict) -> dict:
    """Print the run's details; returns the result line."""
    name, attempted, failed = result["workload"], result["attempted"], result["failed"]
    print(f"workload {name}  seed {result['seed']}  trace {result['trace']}  "
          f"invocations {attempted}  failed {failed}  fail_frac {failed / attempted:.4g}")
    if result["details"]:
        print("  inputs " + json.dumps(result["details"]))
    for problems in result["problems"][:5]:
        print("  FAILED: " + "; ".join(problems)[:2000])
    for key, st in sorted(result["stats"].items()):
        if st is None:
            continue
        spread = f"  q1 {st['q1']:.6g}  q3 {st['q3']:.6g}" if "q1" in st else ""
        print(f"  {key:36s} median {st['median']:.6g} {_unit(key)}{spread}  n={st['n']}")
        if not result["trace"]:
            print("      all: " + " ".join(f"{v:.6g}" for v in st["values"]))
    declared = declared_metrics(bool(result["trace"]))
    metrics = {key: {"value": result["stats"][key]["median"], "unit": unit}
               for key, unit in declared.items() if result["stats"].get(key) is not None}
    return {"correct": failed == 0 and len(metrics) == len(declared),
            "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        print("machine " + json.dumps(machine(), sort_keys=True))
        lines = {}
        for name in names:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace))
            lines[name] = report(result)
            if args.trace:
                OUT.mkdir(exist_ok=True)
                path = OUT / f"trace-{name}-seed{args.seed}.json"
                path.write_text(json.dumps(result, indent=1, sort_keys=True, default=str))
                print(f"  trace written to {path.relative_to(ROOT)}")
    except (RuntimeError, OSError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if len(names) > 1:
        for name, line in lines.items():
            print(f"{name} {json.dumps(line)}")
        line = {"correct": all(l["correct"] for l in lines.values()),
                "attempted": sum(l["attempted"] for l in lines.values()),
                "failed": sum(l["failed"] for l in lines.values()), "metrics": {}}
    else:
        line = lines[names[0]]
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
