"""Tests of the benchmark itself, on a tiny grid (every max_weight down to 1).

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run as bench
import tracer
import workloads

TINY = 5
TINY_GOLDEN = {"branching": 298, "commutation": 2028, "dual_engine": 52, "suites_rest": 157}
SPEC = bench.load_spec()

sys.path.insert(0, str(bench.ROOT / "src"))


def _measure(workload, trace, golden=None):
    return bench.measure(
        workload,
        seed=1,
        seconds=0.2,
        trace=trace,
        shrink=TINY,
        golden=TINY_GOLDEN[workload] if golden is None else golden,
    )


@pytest.fixture(scope="module")
def traced_dual():
    return _measure("dual_engine", trace=True)


def _assert_printed(lines, result, entries):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {e["name"] for e in entries}
    for e in entries:
        assert result["metrics"][e["name"]]["unit"] == e["unit"]
        assert any(
            line.startswith(e["name"] + " ") and f" {e['unit']}" in line for line in lines
        ), e["name"]


def test_spec_names_what_the_benchmark_computes(traced_dual):
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOAD_NAMES)
    assert set(bench.per_layer(traced_dual)) == {e["name"] for e in SPEC["per_layer"]}


def test_untraced_run_prints_every_end_to_end_metric():
    m = _measure("dual_engine", trace=False)
    lines, result = bench.report(m, False, SPEC)
    _assert_printed(lines, result, SPEC["end_to_end"])
    assert result["correct"] and result["failed"] == 0
    assert len(m.valid_runs()) >= bench.MIN_RUNS
    assert result["metrics"]["verified_frac"]["value"] == 1.0
    assert any(line.startswith("failed_frac 0 ") for line in lines)
    assert all(result["metrics"][n]["value"] > 0 for n in ("wall_s", "setup_s"))
    for entry in bench.PRINTED_ONLY:  # printed, but not in the result line
        assert entry["name"] not in result["metrics"]
        assert any(line.startswith(f"{entry['name']} ") for line in lines)


def test_traced_run_prints_every_per_layer_metric(traced_dual):
    lines, result = bench.report(traced_dual, True, SPEC)
    _assert_printed(lines, result, SPEC["per_layer"])
    assert result["correct"]
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["verify.instances"] == TINY_GOLDEN["dual_engine"]
    assert values["fock.matrix_element.calls"] == TINY_GOLDEN["dual_engine"]
    assert values["ring.mul.calls"] > 0


def test_spans_nest(traced_dual):
    spans = traced_dual.traced.payload["trace"]["spans"]
    by_id = {s[0]: s for s in spans}
    assert len(by_id) == len(spans)
    nested = 0
    for sid, parent, name, start, end in spans:
        assert start <= end
        if parent:
            _, _, _, p_start, p_end = by_id[parent]
            assert p_start <= start and end <= p_end, (name, by_id[parent][2])
            nested += 1
        else:
            assert name == "verify"
    assert nested > 0


def test_self_times_sum_to_traced_verify_phase(traced_dual):
    payload = traced_dual.traced.payload
    phase = payload["t_last"] - payload["t_first"]
    self_total = sum(row["self_s"] for row in payload["trace"]["stats"])
    assert abs(self_total - phase) <= 0.05 * phase + 0.005


def test_forced_golden_mismatch_raises_failed_frac():
    m = _measure("dual_engine", trace=False, golden=TINY_GOLDEN["dual_engine"] + 1)
    lines, result = bench.report(m, False, SPEC)
    assert not result["correct"]
    assert result["failed"] == len(m.runs)  # one unaccounted instance per child
    assert result["metrics"]["verified_frac"]["value"] < 1.0
    assert not m.valid_runs()  # timings of a mismatched child are dropped
    assert any(line.startswith("failed_frac ") and not line.startswith("failed_frac 0 ")
               for line in lines)


def test_bypassed_layers_see_no_calls():
    comm = bench.per_layer(_measure("commutation", trace=True))
    assert comm["ring.mul.calls"] == 0
    assert comm["fock.mode_row.calls"] > 0
    branch = bench.per_layer(_measure("branching", trace=True))
    for name in ("fock.mode_row", "fock.gamma_plus", "fock.matrix_element"):
        assert branch[f"{name}.calls"] == 0
    assert branch["series.h_seq.calls"] > 0


def test_seed_sets_suite_order_and_rng_seed():
    orders = {tuple(n for n, _ in workloads.plan("suites_rest", s)) for s in range(5)}
    assert len(orders) > 1
    assert workloads.plan("branching", 7) == workloads.plan("branching", 7)
    assert all(kw["rng_seed"] == 7 for _, kw in workloads.plan("commutation", 7))


def test_tracer_restores_every_patched_name():
    from spochar import characters, fock, ring, verify

    before = (ring.LaurentPoly.__mul__, characters.det_of, fock.apply_mode, verify.skew_det)
    t = tracer.Tracer().install()
    try:
        assert ring.LaurentPoly.__mul__ is not before[0]
    finally:
        t.restore()
    assert (ring.LaurentPoly.__mul__, characters.det_of, fock.apply_mode,
            verify.skew_det) == before


def test_incomplete_checkout_exits_nonzero_without_result(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(bench.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "branching", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)
