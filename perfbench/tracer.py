"""Per-layer tracing of a benchmark run, installed from outside the program.

``Tracer.installed()`` replaces public ``tunemeter`` functions and methods
with timing wrappers at the place each is looked up (``tunability.minimize``,
``metadata.sample_configuration``, class attributes for methods), and puts
every original back on exit. Stage functions get one span per call: name,
start, end, parent span and attributes. Functions called once per candidate,
per bot row or per fold are tallied instead: calls, rows and busy time per
(parent span, name), so tracing 100k draws creates no span objects.
Spans opened in worker threads hang under the span the main thread has open.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

from pipeline import Outcome, hs, md, mt, rg, sg, tb

STAGES = ("compute_defaults", "dataset_optimum", "tunability_algorithm", "tunability_parameter",
          "tunability_pair", "conditional_reference", "cv_across_datasets")

# (name, unit, better) of every per-layer metric, in report order.
LAYER_METRICS = [
    ("hyperspace.sample_configuration.calls", "count", "lower"),
    ("hyperspace.sample_configuration.busy_s", "s", "lower"),
    ("hyperspace.Configuration.key.calls", "count", "lower"),
    ("hyperspace.Configuration.key.busy_s", "s", "lower"),
    ("surrogate.encode_configs.rows", "count", "lower"),
    ("surrogate.encode_configs.busy_s", "s", "lower"),
    ("surrogate.predict_encoded.calls", "count", "lower"),
    ("surrogate.predict_encoded.rows", "count", "lower"),
    ("surrogate.predict_encoded.busy_s", "s", "lower"),
    *[(f"surrogate.fit_surrogate.{kind}.{what}", unit, "lower")
      for kind in sg.SURROGATE_KINDS for what, unit in (("calls", "count"), ("busy_s", "s"))],
    ("surrogate.evaluate_surrogates.busy_s", "s", "lower"),
    ("surrogate.fit_all_surrogates.cold_s", "s", "lower"),
    ("surrogate.fit_all_surrogates.warm_s", "s", "lower"),
    ("surrogate.cache.hit_ratio", "ratio", "higher"),
    ("surrogate.cache.bytes", "bytes", "lower"),
    ("tunability.minimize.calls", "count", "lower"),
    ("tunability.minimize.candidates", "count", "lower"),
    ("tunability.minimize.unique_candidates", "count", "lower"),
    ("tunability.minimize.unique_ratio", "ratio", "lower"),
    ("tunability.minimize.tie_count", "count", "lower"),
    ("tunability.minimize.self_s", "s", "lower"),
    *[(f"tunability.{stage}.busy_s", "s", "lower") for stage in STAGES],
    ("metadata.generate_bot_data.busy_s", "s", "lower"),
    ("metadata.generate_bot_data.rows", "count", "higher"),
    ("metadata.generate_bot_data.kept_ratio", "ratio", "higher"),
    *[(f"metadata.cross_validate.{kind}.{what}", unit, "lower")
      for kind in md.TOY_LEARNER_KINDS for what, unit in (("calls", "count"), ("busy_s", "s"))],
    ("metadata.write_meta.busy_s", "s", "lower"),
    ("metadata.read_meta.busy_s", "s", "lower"),
    ("metadata.meta_bytes", "bytes", "lower"),
    ("metrics.summarize_columns.busy_s", "s", "lower"),
    ("metrics.RiskTransform.scale_many.busy_s", "s", "lower"),
    ("ranges.compute_ranges.busy_s", "s", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
]


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name: str, start: float, parent):
        self.name, self.start, self.end, self.parent, self.attrs = name, start, start, parent, {}

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _nrows(args, kwargs) -> int:
    return len(args[1])


def _minimize_attrs(attrs, args, kwargs, result):
    attrs.update(candidates=result.n_evaluated, ties=result.tie_count)


def _bot_attrs(attrs, args, kwargs, result):
    learners, datasets, rows = args[:3]
    attrs.update(attempted=len(learners) * len(datasets) * rows,
                 kept=sum(len(m.rows) for m in result.values()))


def _fit_all_attrs(attrs, args, kwargs, result):
    attrs["models"] = len(result)


# (owner, attribute, "span" or "tally", metric name or a function of (args, kwargs)
# giving it, then a span's post-call hook or a tally's row counter).
TARGETS = [
    (tb, "sample_configuration", "tally", "hyperspace.sample_configuration"),
    (md, "sample_configuration", "tally", "hyperspace.sample_configuration"),
    (hs.Configuration, "key", "tally", "hyperspace.Configuration.key"),
    (sg.ConfigEncoder, "encode_configs", "tally", "surrogate.encode_configs", _nrows),
    (sg.SurrogateModel, "predict_encoded", "tally", "surrogate.predict_encoded", _nrows),
    (sg, "fit_surrogate", "tally",
     lambda a, k: f"surrogate.fit_surrogate.{a[0] if a else k['kind']}"),
    (sg, "evaluate_surrogates", "span", "surrogate.evaluate_surrogates"),
    (sg, "fit_all_surrogates", "span", "surrogate.fit_all_surrogates", _fit_all_attrs),
    (tb, "minimize", "span", "tunability.minimize", _minimize_attrs),
    *[(tb, stage, "span", f"tunability.{stage}") for stage in STAGES],
    (md, "generate_bot_data", "span", "metadata.generate_bot_data", _bot_attrs),
    (md, "cross_validate", "tally", lambda a, k: f"metadata.cross_validate.{a[0].kind}"),
    (md, "write_meta", "span", "metadata.write_meta"),
    (md, "read_meta", "span", "metadata.read_meta"),
    (tb, "summarize_columns", "tally", "metrics.summarize_columns"),
    (mt.RiskTransform, "scale_many", "tally", "metrics.RiskTransform.scale_many"),
    (rg, "compute_ranges", "span", "ranges.compute_ranges"),
]


class Tracer:
    """Spans and tallies of one traced run; install with ``installed()``."""

    def __init__(self):
        self.spans: dict[int, Span] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tallies: list[dict] = []  # one dict per thread: (parent, name) -> [calls, rows, busy]
        self._main_stack: list[int] = []
        self._saved: list = []

    # -- recording ---------------------------------------------------------------------

    def _thread_state(self):
        local = self._local
        try:
            return local.stack, local.tally
        except AttributeError:
            main = threading.current_thread() is threading.main_thread()
            local.stack = self._main_stack if main else []
            local.tally = {}
            with self._lock:
                self._tallies.append(local.tally)
            return local.stack, local.tally

    def _parent(self, stack):
        if stack:
            return stack[-1]
        main = self._main_stack
        return main[-1] if main else None

    @contextmanager
    def span(self, name: str):
        stack, _ = self._thread_state()
        sid = next(self._ids)
        sp = self.spans[sid] = Span(name, time.perf_counter(), self._parent(stack))
        stack.append(sid)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            stack.pop()

    def _span_wrapper(self, fn, name, post=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as sp:
                result = fn(*args, **kwargs)
            if post is not None:
                post(sp.attrs, args, kwargs, result)
            return result

        return wrapper

    def _tally_wrapper(self, fn, name, rows=None):
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                busy = clock() - t0
                stack, tally = self._thread_state()
                label = name if isinstance(name, str) else name(args, kwargs)
                key = (self._parent(stack), label)
                entry = tally.get(key)
                if entry is None:
                    entry = tally[key] = [0, 0, 0.0]
                entry[0] += 1
                entry[1] += rows(args, kwargs) if rows is not None else 1
                entry[2] += busy

        return wrapper

    # -- installing ---------------------------------------------------------------------

    def _wrappers(self):
        for owner, attr, how, *rest in TARGETS:
            make = self._span_wrapper if how == "span" else self._tally_wrapper
            yield owner, attr, make(vars(owner)[attr], *rest)

    def _install(self):
        for owner, attr, wrapper in self._wrappers():
            self._saved.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, wrapper)

    def _uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        """Wrap every traced function for the duration of the block (main thread only)."""
        self._thread_state()
        self._install()
        try:
            yield self
        finally:
            self._uninstall()

    @contextmanager
    def paused(self):
        """Run the block on the original functions, e.g. the benchmark's own checks."""
        self._uninstall()
        try:
            yield
        finally:
            self._install()

    # -- reading --------------------------------------------------------------------------

    def tallies(self) -> dict:
        merged: dict = defaultdict(lambda: [0, 0, 0.0])
        with self._lock:
            for tally in self._tallies:
                for key, (calls, rows, busy) in list(tally.items()):
                    entry = merged[key]
                    entry[0] += calls
                    entry[1] += rows
                    entry[2] += busy
        return dict(merged)

    def span_records(self) -> list[dict]:
        """Every span, times relative to the first, for writing out after the run."""
        if not self.spans:
            return []
        t0 = min(s.start for s in self.spans.values())
        return [{"id": sid, "name": s.name, "start": s.start - t0, "end": s.end - t0,
                 "parent": s.parent, **s.attrs} for sid, s in sorted(self.spans.items())]


def layer_metrics(tracer: Tracer, out: Outcome) -> dict[str, float]:
    """Every per-layer metric except ``trace.overhead_share``, from one traced run."""
    spans = tracer.spans
    tallies = tracer.tallies()
    by_name: dict = defaultdict(lambda: [0, 0, 0.0])
    under: dict = defaultdict(dict)  # parent span -> name -> [calls, rows, busy]
    for (parent, name), entry in tallies.items():
        total = by_name[name]
        for i in range(3):
            total[i] += entry[i]
        under[parent][name] = entry
    child_s: dict = defaultdict(float)
    for s in spans.values():
        child_s[s.parent] += s.seconds

    def busy(name):
        return sum(s.seconds for s in spans.values() if s.name == name)

    m: dict[str, float] = {}
    for name in ("hyperspace.sample_configuration", "hyperspace.Configuration.key"):
        m[f"{name}.calls"], _, m[f"{name}.busy_s"] = by_name[name]
    _, m["surrogate.encode_configs.rows"], m["surrogate.encode_configs.busy_s"] = \
        by_name["surrogate.encode_configs"]
    (m["surrogate.predict_encoded.calls"], m["surrogate.predict_encoded.rows"],
     m["surrogate.predict_encoded.busy_s"]) = by_name["surrogate.predict_encoded"]
    for kind in sg.SURROGATE_KINDS:
        name = f"surrogate.fit_surrogate.{kind}"
        m[f"{name}.calls"], _, m[f"{name}.busy_s"] = by_name[name]
    m["surrogate.evaluate_surrogates.busy_s"] = busy("surrogate.evaluate_surrogates")

    cold = warm = 0.0
    lookups = hits = 0
    for sid, s in spans.items():
        if s.name != "surrogate.fit_all_surrogates":
            continue
        fits = sum(e[0] for n, e in under[sid].items() if n.startswith("surrogate.fit_surrogate."))
        lookups += s.attrs.get("models", 0)
        hits += s.attrs.get("models", 0) - fits
        if fits:
            cold += s.seconds
        else:
            warm += s.seconds
    m["surrogate.fit_all_surrogates.cold_s"] = cold
    m["surrogate.fit_all_surrogates.warm_s"] = warm
    m["surrogate.cache.hit_ratio"] = hits / lookups if lookups else 0.0
    m["surrogate.cache.bytes"] = out.cache_bytes

    minimizes = [(sid, s) for sid, s in spans.items() if s.name == "tunability.minimize"]
    candidates = sum(s.attrs.get("candidates", 0) for _, s in minimizes)
    unique = 0
    self_s = 0.0
    for sid, s in minimizes:
        calls, rows, _ = under[sid].get("surrogate.predict_encoded", (0, 0, 0.0))
        unique += rows // calls if calls else 0  # each predictor sees the unique candidates once
        self_s += s.seconds - child_s[sid] - sum(e[2] for e in under[sid].values())
    m["tunability.minimize.calls"] = len(minimizes)
    m["tunability.minimize.candidates"] = candidates
    m["tunability.minimize.unique_candidates"] = unique
    m["tunability.minimize.unique_ratio"] = unique / candidates if candidates else 0.0
    m["tunability.minimize.tie_count"] = sum(s.attrs.get("ties", 0) for _, s in minimizes)
    m["tunability.minimize.self_s"] = self_s
    for stage in STAGES:
        m[f"tunability.{stage}.busy_s"] = busy(f"tunability.{stage}")

    bots = [s for s in spans.values() if s.name == "metadata.generate_bot_data"]
    attempted = sum(s.attrs.get("attempted", 0) for s in bots)
    kept = sum(s.attrs.get("kept", 0) for s in bots)
    m["metadata.generate_bot_data.busy_s"] = busy("metadata.generate_bot_data")
    m["metadata.generate_bot_data.rows"] = kept
    m["metadata.generate_bot_data.kept_ratio"] = kept / attempted if attempted else 0.0
    for kind in md.TOY_LEARNER_KINDS:
        name = f"metadata.cross_validate.{kind}"
        m[f"{name}.calls"], _, m[f"{name}.busy_s"] = by_name[name]
    m["metadata.write_meta.busy_s"] = busy("metadata.write_meta")
    m["metadata.read_meta.busy_s"] = busy("metadata.read_meta")
    m["metadata.meta_bytes"] = out.meta_bytes
    m["metrics.summarize_columns.busy_s"] = by_name["metrics.summarize_columns"][2]
    m["metrics.RiskTransform.scale_many.busy_s"] = by_name["metrics.RiskTransform.scale_many"][2]
    m["ranges.compute_ranges.busy_s"] = busy("ranges.compute_ranges")
    return m
