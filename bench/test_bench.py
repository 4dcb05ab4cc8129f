"""Tests of the benchmark itself: `python3 -m pytest bench -q`."""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run

run.load_package()

import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

import lemniscates  # noqa: E402


def test_benchmark_json_names_workloads_and_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == spans.METRICS
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_tail_latency_keeps_ten_ops_beyond_it():
    assert run.tail_latency([1.0] * 19) is None
    tail = run.tail_latency([float(i) for i in range(1, 51)])
    assert tail == {"value": 40.0, "percentile": 80.0, "samples": 50}


def test_self_time_subtracts_child_spans():
    s = [
        spans.Span("bench.op", 0, -1, 0.0, 10.0),
        spans.Span("counterexample.build_boundary", 0, 0, 1.0, 9.0, counts={"steps": 5}),
        spans.Span("levelcurves.trace_level", 0, 1, 2.0, 4.0, counts={"steps": 10}),
        spans.Span("levelcurves.trace_level", 0, 1, 4.0, 8.0, counts={"steps": 10}),
        spans.Span("bench.op", 1, -1, 10.0, 20.0),
    ]
    m = spans.layer_metrics(s)
    assert m["bench.op_s"] == 10.0
    assert m["levelcurves.trace_level.calls"] == 1.0
    assert m["levelcurves.self_s"] == 3.0
    assert m["counterexample.build_boundary.s"] == 4.0
    assert m["levelcurves.steps_per_s"] == 20 / 6
    assert m["counterexample.useful_step_ratio"] == 0.25
    assert m["bench.self_s"] == 6.0
    assert set(m) == {name for name, _, _ in spans.METRICS}


def _attributes():
    mods = [m for n, m in sys.modules.items() if n.startswith("lemniscates")]
    return {(m.__name__, a): v for m in mods for a, v in vars(m).items() if callable(v)}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_op_matches_untraced_and_wrappers_are_removed(name):
    before = _attributes()
    plain, plain_rec = run.measure(name, 7, 0.0, False, max_ops=1, setup_repeats=1)
    traced, traced_rec = run.measure(name, 7, 0.0, True, max_ops=1, setup_repeats=1)
    assert plain["correct"] and traced["correct"], plain_rec["errors"] + traced_rec["errors"]
    assert traced_rec["summaries"] == plain_rec["summaries"]
    assert _attributes() == before
    assert set(traced["metrics"]) == {n for n, _, _ in spans.METRICS}
    assert set(plain["metrics"]) == set(run.END_TO_END)
    share = {r["layer"]: r for r in traced_rec["shares"]}
    for row in share.values():  # a layer idle on this workload stays below 5% of op time
        if row["role"] == "idle":
            assert row["share"] < 0.05, row


def test_setup_is_seeded():
    w = WORKLOADS["fingerprint"]
    a = w.setup(np.random.default_rng(3))
    b = w.setup(np.random.default_rng(3))
    c = w.setup(np.random.default_rng(4))
    assert [p.coeffs.tolist() for p, _ in a] == [p.coeffs.tolist() for p, _ in b]
    assert [p.coeffs.tolist() for p, _ in a] != [p.coeffs.tolist() for p, _ in c]


def test_smoke_mode(capsys):
    assert run.main(["--smoke", "--workload", "fingerprint"]) == 0
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert json.loads(last)["smoke"]["fingerprint"]["correct"] is True


def test_fails_without_the_package(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "d4_table", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_package_comes_from_this_checkout():
    assert Path(lemniscates.__file__).resolve().parent == run.SRC / "lemniscates"
