"""Run one tunemeter benchmark workload; the last stdout line is the result JSON.

    python3 perfbench/run.py --workload paper --seed 0 --seconds 40 --trace 0

The run repeats the workload's full analysis for about ``--seconds`` and
reports medians over the repetitions. Before every third repetition a child
process sets up (interpreter start, imports, seeded inputs); ``setup_s`` is
the median of those children. ``candidates_per_s`` divides the candidates of
all repetitions by their time in ``tunability`` stage calls.
With ``--trace 1`` it alternates plain and traced repetitions and reports
the per-layer metrics of the traced ones instead (medians over them), plus
the tracing overhead.
Every repetition checks its outputs; a failed check, a dropped bot row or an
analysis that raises counts in ``failed``. The full record (versions, input
sizes, source size, and with tracing every span) is printed on the line
before the result and written to ``.perfbench-out/BENCH_<workload>.json``.
"""

from __future__ import annotations

import argparse
import ast
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

import pipeline
from pipeline import ROOT, SRC, WORKLOADS
from tracer import LAYER_METRICS, Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".perfbench-out"
SETUP_EVERY = 3  # a set-up child runs before every third plain repetition
# The toy learners hold the interpreter lock, so a second worker thread gave
# no speed-up, and on a shared machine its lock hand-offs made the threaded
# stage drift most between runs. Outputs are identical for any worker count.
WORKERS = 1

# (name, unit) of every end-to-end metric, in report order.
END_TO_END = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("candidates_per_s", "1/s"),
]


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not available on every platform
        return os.cpu_count() or 1


def setup_seconds(workload: str, seed: int) -> float:
    """Wall time of one child process that imports and builds the inputs."""
    small = workload.endswith(pipeline.SMALL)
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only",
           "--workload", workload.removesuffix(pipeline.SMALL), "--seed", str(seed)]
    cmd += ["--small"] if small else []
    t0 = time.perf_counter()
    subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL, timeout=120)
    return time.perf_counter() - t0


def source_facts() -> dict:
    """Commit when known, a digest of src/tunemeter, its line and public-symbol counts."""
    files = sorted((SRC / "tunemeter").rglob("*"))
    digest = hashlib.sha256()
    lines = symbols = 0
    for path in files:
        if not path.is_file() or "__pycache__" in path.parts:
            continue
        data = path.read_bytes()
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
        if path.suffix == ".py":
            lines += data.count(b"\n")
            for node in ast.parse(data).body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    names = [node.name]
                elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    names = [t.id for t in targets if isinstance(t, ast.Name)]
                else:
                    continue
                symbols += sum(1 for n in names if not n.startswith("_"))
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30)
            commit = proc.stdout.strip() or None
        except OSError:
            commit = None
    return {"commit": commit, "source_sha256": digest.hexdigest(), "source_lines": lines,
            "public_symbols": symbols}


def median_stage(reps: list, stage: str) -> float:
    """Median over the repetitions of the seconds spent in one stage's calls."""
    return statistics.median(out.stage_s.get(stage, 0.0) for out in reps)


def measure(w: pipeline.Workload, seed: int, seconds: float, trace: bool,
            workers: int) -> tuple[dict, dict]:
    """Run the workload for ``seconds``; return (result line, full record with spans)."""
    inputs = pipeline.make_inputs(w, seed)
    work = OUT_DIR / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    setups, plain, traced, layers, spans, rep_s = [], [], [], [], [], []
    deadline = time.perf_counter() + seconds
    try:
        while True:
            started = time.perf_counter()
            workdir = work / f"rep{len(plain) + len(traced)}"
            if not trace and len(plain) % SETUP_EVERY == 0:
                setups.append(setup_seconds(w.name, seed))
            gc.collect()  # no repetition pays for the garbage of the one before
            if trace and len(traced) < len(plain):
                tracer = Tracer()
                with tracer.installed(), tracer.span("run"):
                    out = pipeline.analyse(w, inputs, seed, workers, workdir,
                                           pause=tracer.paused)
                traced.append(out)
                layers.append(layer_metrics(tracer, out))
                spans = tracer.span_records()
            else:
                plain.append(pipeline.analyse(w, inputs, seed, workers, workdir))
            rep_s.append(time.perf_counter() - started)
            # Start another repetition only if it should end within half a
            # repetition of the deadline, so a run lasts about ``seconds``.
            if (traced or not trace) and (time.perf_counter() + statistics.median(rep_s) / 2
                                          >= deadline):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    reps = plain + traced
    consistent = len({out.digest() for out in reps}) == 1
    attempted = sum(out.attempted for out in reps) + 1
    failed = sum(out.failed for out in reps) + (0 if consistent else 1)
    if not consistent:
        print("check failed: every repetition gives identical outputs", file=sys.stderr)

    if trace:
        names = layers[0].keys()
        values = {name: statistics.median(m[name] for m in layers) for name in names}
        values["trace.overhead_share"] = (statistics.median(o.run_s for o in traced)
                                          / statistics.median(o.run_s for o in plain) - 1.0)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in LAYER_METRICS}
    else:
        values = {
            "setup_s": statistics.median(setups),
            "run_s": statistics.median(o.run_s for o in plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "candidates_per_s": (sum(o.planned_candidates for o in plain)
                                 / sum(o.stage_s["tunability"] for o in plain)),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    first = reps[0]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = {
        "workload": w.name, "seed": seed, "trace": int(trace), "seconds": seconds,
        "nproc": nproc(), "workers": workers,
        "python": platform.python_version(), "numpy": pipeline.np.__version__,
        "scipy": __import__("scipy").__version__,
        **source_facts(),
        "input_size": {**asdict(w), "candidates_drawn": first.planned_candidates,
                       "bot_rows": first.bot_rows_attempted},
        "repetitions": {"plain": len(plain), "traced": len(traced)},
        "run_s_plain": [o.run_s for o in plain],
        "run_s_traced": [o.run_s for o in traced],
        "setup_s_all": setups,
        "stage_s_all": [o.stage_s for o in plain],
        "stage_s": {stage: median_stage(plain, stage) for stage in first.stage_s
                    if stage != "checks"},
        "failed_ops_share": failed / attempted,
        "failed_checks": sorted({n for o in reps for n, ok in o.checks if not ok}),
        "results_sha256": first.digest(),
        **result,
        "spans": spans,
    }
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=pipeline.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="the seconds-sized inputs the benchmark's tests use")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--write-reference", action="store_true",
                        help="store this run's results as the reference for its workload")
    args = parser.parse_args(argv)

    if Path(pipeline.sg.__file__).resolve().parent.parent != SRC:
        print(f"error: tunemeter was imported from {pipeline.sg.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    if args.small:
        w = pipeline.shrink(w)
    if args.setup_only:
        pipeline.make_inputs(w, args.seed)
        return 0
    if args.write_reference:
        out = pipeline.analyse(w, pipeline.make_inputs(w, args.seed), args.seed, 1,
                               OUT_DIR / f"work-{os.getpid()}")
        shutil.rmtree(OUT_DIR / f"work-{os.getpid()}", ignore_errors=True)
        print(pipeline.write_reference(w.name, out.results))
        return 0

    result, record = measure(w, args.seed, args.seconds, bool(args.trace), WORKERS)
    OUT_DIR.mkdir(exist_ok=True)
    suffix = "_trace" if args.trace else ""
    (OUT_DIR / f"BENCH_{w.name}{suffix}.json").write_text(json.dumps(record, indent=1) + "\n",
                                                         encoding="utf-8")
    print(json.dumps({k: v for k, v in record.items() if k != "spans"}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
