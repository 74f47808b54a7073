"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/tests

The composition the benchmark times must be the program the CLI runs:
`check_composition` compares tree, partition, parameters and bound (and the
dense transition matrix) against `cli.build_model` and
`cli._method_operator`, so a change to either that the benchmark does not
follow fails here.
"""
import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import pipeline as pl  # noqa: E402
import run  # noqa: E402


@pytest.mark.parametrize("name", sorted(pl.WORKLOADS))
def test_composition_matches_cli(name):
    assert pl.check_composition(pl.WORKLOADS[name], seed=3, n=120) == []


def test_composition_check_sees_a_different_program(monkeypatch):
    w = pl.WORKLOADS["tier1-n8000"]
    real = pl.optimize_q
    monkeypatch.setattr(
        pl, "optimize_q", lambda *a, **k: real(*a, **{**k, "max_sweeps": 1})
    )
    assert "q differs from cli.build_model" in pl.check_composition(w, seed=3, n=120)


def _small(workload, n=400):
    return replace(workload, n=n)


@pytest.mark.parametrize("name", ["tier1-n8000", "refine-apply-n4000", "dense-n4000"])
def test_round_outputs_repeat_and_pass_checks(name, tmp_path):
    w = _small(pl.WORKLOADS[name])
    if w.partition.startswith("refine:"):
        w = replace(w, n=1000, partition="refine:200")
    inputs = pl.make_inputs(w, 7, pl.Tracer(False))
    tracer = pl.Tracer(True)
    first, _ = pl.run_round(w, inputs, str(tmp_path), pl.Tracer(False))
    second, fitted = pl.run_round(w, inputs, str(tmp_path), tracer)
    pl.probe_layers(w, inputs, fitted, tracer)
    assert first.problems == [] and first.failed == 0
    assert first.attempted == 1 + w.queries
    assert first.fingerprint == second.fingerprint
    recorded = {s.name for s in tracer.spans}
    assert "propagation.propagate_s" in recorded
    assert ("propagation.dense_matrix_s" in recorded) == w.dense
    assert ("model_io.save_s" in recorded) == w.through_disk


def test_non_converged_build_counts_every_operation_as_failed(tmp_path, monkeypatch):
    w = _small(pl.WORKLOADS["tier1-n8000"])
    monkeypatch.setattr(pl, "MAX_SWEEPS", 1)
    inputs = pl.make_inputs(w, 7, pl.Tracer(False))
    r, _ = pl.run_round(w, inputs, str(tmp_path), pl.Tracer(False))
    assert r.counts["variational.converged"] == 0.0
    assert r.failed == r.attempted == 1 + w.queries


def test_row_sum_check_is_live(tmp_path, monkeypatch):
    w = _small(pl.WORKLOADS["tier1-n8000"])
    monkeypatch.setattr(pl, "ROWSUM_SLACK", -1.0)
    inputs = pl.make_inputs(w, 7, pl.Tracer(False))
    r, _ = pl.run_round(w, inputs, str(tmp_path), pl.Tracer(False))
    assert any("row sums" in p for p in r.problems)


def test_summary_tail_needs_ten_samples_beyond():
    assert run.summarize([3.0, 1.0, 2.0]) == (2.0, None, 3)
    assert run.summarize([float(x) for x in range(100)]) == (49.5, (90.0, 89.0), 100)


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == pl.PER_LAYER_UNITS
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert all(m["unit"] == run.END_TO_END_UNITS[m["name"]] for m in spec["end_to_end"])
    assert {w["name"] for w in spec["workloads"]} <= set(pl.WORKLOADS)
