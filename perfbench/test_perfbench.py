"""Tests of the benchmark itself, run on the seconds-sized (shrunken) workloads."""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

import pipeline
import run
from pipeline import hs, md, tb
from tracer import LAYER_METRICS, TARGETS, Tracer, layer_metrics

SMALL = {name: pipeline.shrink(w) for name, w in pipeline.WORKLOADS.items()}
BENCH = json.loads((pipeline.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """A traced shrunken run per workload, beside the candidate keys each minimize saw.

    The key recorder is installed under the tracer, so the tracer wraps it and
    puts it back afterwards; it counts candidates without the tracer's help.
    """
    originals = {(owner, attr): vars(owner)[attr] for owner, attr, *_ in TARGETS}
    minimize, key = tb.minimize, hs.Configuration.key
    runs = {}
    for name, w in SMALL.items():
        buckets = []

        def recording_minimize(*args, **kwargs):
            buckets.append([])
            return minimize(*args, **kwargs)

        def recording_key(self, space):
            k = key(self, space)
            buckets[-1].append(k)
            return k

        tb.minimize, hs.Configuration.key = recording_minimize, recording_key
        try:
            tracer = Tracer()
            with tracer.installed(), tracer.span("run"):
                out = pipeline.analyse(w, pipeline.make_inputs(w, 0), 0, 1,
                                       tmp_path_factory.mktemp(name), pause=tracer.paused)
        finally:
            tb.minimize, hs.Configuration.key = minimize, key
        runs[name] = (out, layer_metrics(tracer, out), buckets)
    after = {(owner, attr): vars(owner)[attr] for owner, attr, *_ in TARGETS}
    return runs, originals, after


def test_benchmark_json_lists_what_the_run_prints():
    assert [(m["name"], m["unit"]) for m in BENCH["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in BENCH["per_layer"]] == LAYER_METRICS
    assert [w["name"] for w in BENCH["workloads"]] == list(pipeline.WORKLOADS)
    assert BENCH["paths"] == ["perfbench"]


@pytest.mark.parametrize("workload, trace", [("paper", False), ("wide", True)])
def test_result_schema(workload, trace):
    result, record = run.measure(SMALL[workload], 0, 0.0, trace, workers=1)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = LAYER_METRICS if trace else run.END_TO_END
    assert [(n, m["unit"]) for n, m in result["metrics"].items()] == [e[:2] for e in expected]
    assert all(isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
               for m in result["metrics"].values())
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    for field in ("commit", "seed", "nproc", "workers", "python", "numpy", "scipy",
                  "input_size", "source_lines", "public_symbols"):
        assert field in record
    assert record["source_lines"] > 0 and record["public_symbols"] > 0
    json.dumps(record)


@pytest.mark.parametrize("name", list(SMALL))
def test_traced_counters_match_independent_counts(traced, name):
    runs, _, _ = traced
    out, m, buckets = runs[name]
    assert out.failed == 0
    assert m["tunability.minimize.calls"] == len(buckets)
    assert m["tunability.minimize.candidates"] == sum(map(len, buckets)) == out.planned_candidates
    assert m["tunability.minimize.unique_candidates"] == sum(len(set(b)) for b in buckets)
    w = SMALL[name]
    rows = len(w.learners) * w.datasets * w.rows
    dropped = out.bot_rows_attempted - out.bot_rows_kept
    assert m["metadata.generate_bot_data.rows"] == rows - dropped
    assert sum(m[f"metadata.cross_validate.{k}.calls"] for k in md.TOY_LEARNER_KINDS) == rows
    # every surrogate is fitted into the cache once and loaded from it once
    assert m["surrogate.cache.hit_ratio"] == 0.5
    assert m["surrogate.fit_all_surrogates.cold_s"] > 0 and m["surrogate.cache.bytes"] > 0
    if w.selection:  # forests go through the cache whichever kind the selection picks
        reps, folds = w.selection
        assert m["surrogate.fit_surrogate.forest_reg.calls"] > reps * folds * w.datasets
    assert set(m) | {"trace.overhead_share"} == {n for n, _, _ in LAYER_METRICS}


def test_no_wrapper_remains_installed(traced):
    _, originals, after = traced
    assert after == originals
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert tb.minimize is not originals[(tb, "minimize")]
            with tracer.paused():
                assert tb.minimize is originals[(tb, "minimize")]
            raise RuntimeError("analysis failed")
    assert {(o, a): vars(o)[a] for o, a, *_ in TARGETS} == originals


@pytest.mark.parametrize("name", ["paper", "bot"])
def test_outputs_identical_for_any_worker_count(name, tmp_path):
    w = SMALL[name]
    inputs = pipeline.make_inputs(w, 3)
    one = pipeline.analyse(w, inputs, 3, 1, tmp_path / "one")
    many = pipeline.analyse(w, inputs, 3, max(2, run.nproc()), tmp_path / "many")
    assert one.failed == 0
    assert pipeline.canonical(one.results) == pipeline.canonical(many.results)


def test_reference_comparison_tolerance():
    ref = {"a": [1.0, {"b": 2.0}], "kernel": "radial"}
    assert pipeline.matches(ref, {"a": [1.0 + 1e-12, {"b": 2.0}], "kernel": "radial"})
    assert not pipeline.matches(ref, {"a": [1.0 + 1e-6, {"b": 2.0}], "kernel": "radial"})
    assert not pipeline.matches(ref, {"a": [1.0, {"b": 2.0}], "kernel": "linear"})


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(pipeline.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(pipeline.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "paper",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120,
                          env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
