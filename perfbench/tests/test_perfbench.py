"""Tests of the benchmark itself: span arithmetic, seeded inputs, checks.

    python3 -m pytest perfbench/tests -q
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, layer_table  # noqa: E402


# --------------------------------------------------------------------------
# self time
# --------------------------------------------------------------------------


def test_self_time_subtracts_the_union_of_child_spans():
    spans = [
        ["root", 0.0, 10.0, None],
        ["a", 1.0, 4.0, 0],
        ["b", 3.0, 6.0, 0],      # overlaps a: the overlap is subtracted once
        ["leaf", 2.0, 3.0, 1],
        ["a", 8.0, 12.0, 0],     # runs past its parent: clipped to 8..10
    ]
    table = layer_table(spans)
    assert table["root"]["self_s"] == pytest.approx(10.0 - (5.0 + 2.0))
    assert table["a"]["calls"] == 2
    assert table["a"]["total_s"] == pytest.approx(3.0 + 4.0)
    assert table["a"]["self_s"] == pytest.approx((3.0 - 1.0) + 4.0)
    assert table["b"]["self_s"] == pytest.approx(3.0)
    assert table["leaf"]["self_s"] == pytest.approx(1.0)


def test_wrapped_calls_nest_and_self_times_add_up_to_the_root():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(20000)))

    def body():
        inner()
        inner()
        return sum(range(20000))

    outer = tracer.wrap("outer", body)
    outer()
    assert [s[3] for s in tracer.spans] == [None, 0, 0]
    table = tracer.summary()["layers"]
    assert table["inner"]["calls"] == 2
    total = sum(row["self_s"] for row in table.values())
    assert total == pytest.approx(table["outer"]["total_s"], rel=1e-9)


def test_counters_hook_runs_after_the_span_closes():
    tracer = Tracer()
    seen = []
    f = tracer.wrap("f", lambda x: 2 * x,
                    lambda t, args, result: seen.append((t.open_names(), args, result)))
    assert f(3) == 6
    assert seen == [([], (3,), 6)]


# --------------------------------------------------------------------------
# seeded inputs
# --------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(50))
def test_lambda_mu_stay_in_range_and_apart(seed):
    lo, hi = workloads.RHO_RANGE
    lam, mu = workloads.draw_lambda_mu(np.random.default_rng(seed))
    assert len(lam) == len(mu) == workloads.RHO_COUNT
    assert all(lo <= v <= hi for v in lam + mu)
    gaps = np.abs(np.subtract.outer(np.array(mu), np.array(lam)))
    assert gaps.min() >= workloads.RHO_SEPARATION


def test_same_seed_gives_same_inputs(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    for work in (a, b):
        workloads.prepare_deconv_small(7, work, run.SRC)
    assert (a / "image64.csv").read_bytes() == (b / "image64.csv").read_bytes()
    assert workloads.draw_lambda_mu(np.random.default_rng(7)) == \
        workloads.draw_lambda_mu(np.random.default_rng(7))


# --------------------------------------------------------------------------
# output checks feed `failed`
# --------------------------------------------------------------------------


def _fake_spawn(corrupt=False, rc=0):
    """Stands in for a worker: writes deconv outputs that recover the input
    exactly, or with one pixel off when ``corrupt``."""

    def spawn(result_path, traced=False, argv=None):
        result = {"exit": 0, "stderr": "", "ready": 0.5, "setup_s": 0.5}
        if not argv:
            return result
        out = Path(argv[argv.index("--out") + 1])
        out.mkdir(parents=True)
        image = np.loadtxt(argv[argv.index("--input") + 1], delimiter=",", ndmin=2)
        if corrupt:
            image[3, 5] += 0.25
        np.savetxt(out / "recovered.csv", image, delimiter=",", fmt="%.17e")
        (out / "deconv_report.json").write_text(json.dumps({"overall_pass": rc == 0}))
        result.update(start=0.0, end=1.0, rc=rc, error=None, maxrss_kb=1024)
        return result

    return spawn


@pytest.mark.parametrize("corrupt, rc, failed", [(False, 0, 0), (True, 0, 1), (False, 1, 1)])
def test_bad_output_or_exit_code_counts_as_failed(monkeypatch, tmp_path, corrupt, rc, failed):
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "spawn", _fake_spawn(corrupt, rc))
    result = run.run_workload("deconv-n64", seed=3, seconds=0, trace=False)
    line = run.report(result)
    assert (line["attempted"], line["failed"]) == (1, failed)
    assert line["correct"] is (failed == 0)


def test_missing_sources_fail_without_a_result_line(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "deconv-n64", "--seconds", "0"]) != 0
    assert '"correct"' not in capsys.readouterr().out


# --------------------------------------------------------------------------
# the traced worker against the library in this checkout
# --------------------------------------------------------------------------


def test_traced_worker_records_each_layer(tmp_path):
    image = np.random.default_rng(0).integers(0, 256, size=(8, 8))
    np.savetxt(tmp_path / "img.csv", image, delimiter=",", fmt="%d")
    (tmp_path / "k.cfg").write_text("kernel = gaussian\nn1 = 8\nn2 = 8\n")
    result_path = tmp_path / "result.json"
    subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(run.SRC), str(result_path), "1",
         "deconv", "--config", str(tmp_path / "k.cfg"), "--input", str(tmp_path / "img.csv"),
         "--out", str(tmp_path / "out")],
        check=True, timeout=120, env=run._worker_env())
    result = json.loads(result_path.read_text())
    assert result["rc"] == 0
    metrics = run.layer_metrics(result["trace"], result["end"] - result["start"])
    assert metrics["grid.sample_calls"] == 3     # normalize_kernel samples again
    assert metrics["operators.dense_count"] == 1
    assert metrics["inversion.factor_S_count"] == 1
    assert metrics["inversion.factor_S_flops"] == pytest.approx(2 * 64 ** 3 / 3)
    assert metrics["inversion.solve_calls"] == 1
    assert metrics["fileio.bytes_written"] > 0
    assert sum(metrics[f"{layer}.share"] for layer in run.LAYERS) == pytest.approx(1.0, abs=0.02)
