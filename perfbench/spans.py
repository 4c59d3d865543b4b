"""Spans around the module functions that `sas_transform` calls.

`Tracer.installed()` replaces those functions, for the duration of a `with`
block, by wrappers that record a span per call and restores the originals on
exit.  Nothing under src/ is edited.  A span is the tuple
`(name, start, end, parent, transform, items)`: times from
`time.perf_counter()`, `parent` the index of the enclosing span (-1 for the
root), `transform` the id of the `sas_transform` call it belongs to, and
`items` the samples the call read or synthesized (0 where that means
nothing).

Spans kept apart from their caller's self time:
  sas.select_pivots, sas.plan, sas.vandermonde_solve  (counted decode solves
      only; the uncounted re-solve inside the error estimate stays in the
      caller's self time), congruence.build_tree, congruence.pivots,
  sampling.pivoted_pattern, hidft, core.sample_block, ddc.synthesize_dd,
  ddc.solve_vandermonde_dd.
The benchmark opens the root span, sas.sas_transform, itself.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager

from structfft import _ddc, congruence, core, sas

ROOT = "sas.sas_transform"


def _counted(args, kwargs) -> bool:
    return kwargs.get("counter") is not None


def _hidft_samples(args, kwargs, out) -> int:
    return len(out.slot_values)


def _locations(index):
    return lambda args, kwargs, out: len(args[index])


# (owner, attribute, span name, record-this-call predicate, items counter)
TARGETS = (
    (sas, "select_pivots", "sas.select_pivots", None, None),
    (sas.SasPlan, "plan", "sas.plan", None, None),
    (sas, "build_tree", "congruence.build_tree", None, None),
    (sas, "support_pivots", "congruence.pivots", None, None),
    (congruence, "pivots", "congruence.pivots", None, None),
    (sas, "pivoted_pattern", "sampling.pivoted_pattern", None, None),
    (sas, "hidft", "hidft", None, _hidft_samples),
    (core.BandlimitedSignal, "sample_block", "core.sample_block", None, _locations(1)),
    (sas, "vandermonde_solve", "sas.vandermonde_solve", _counted, None),
    (_ddc, "synthesize_dd", "ddc.synthesize_dd", None, _locations(3)),
    (_ddc, "solve_vandermonde_dd", "ddc.solve_vandermonde_dd", None, None),
)

# span name -> (self-time metric, calls metric, items metric)
LAYER_METRICS = {
    ROOT: ("sas.self_ms", None, None),
    "sas.select_pivots": ("sas.select_pivots_ms", None, None),
    "sas.plan": ("sas.plan_ms", None, None),
    "congruence.build_tree": ("congruence.build_tree_ms", None, None),
    "congruence.pivots": ("congruence.pivots_ms", "congruence.pivots_calls", None),
    "sampling.pivoted_pattern": ("sampling.pivoted_pattern_ms", None, None),
    "hidft": ("hidft.self_ms", "hidft.calls", "hidft.samples"),
    "core.sample_block": ("core.sample_block_ms", None, "core.samples_synthesized"),
    "sas.vandermonde_solve": ("sas.vandermonde_solve_ms", "sas.solve_calls", None),
    "ddc.synthesize_dd": ("ddc.synthesize_ms", None, None),
    "ddc.solve_vandermonde_dd": ("ddc.solve_ms", None, None),
}


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._transform = -1

    def _wrap(self, name, fn, when, items):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if when is not None and not when(args, kwargs):
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            self.spans.append(None)
            self._stack.append(index)
            n = 0
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                if items is not None:
                    n = items(args, kwargs, out)
                return out
            finally:
                # a tuple of numbers and a str is untracked by gc, so a long
                # trace does not slow the collections inside later calls
                self.spans[index] = (name, start, time.perf_counter(), parent, self._transform, n)
                self._stack.pop()
        return wrapper

    @contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, name, when, items in TARGETS:
                raw = vars(owner)[attr]
                saved.append((owner, attr, raw))
                if isinstance(raw, classmethod):
                    setattr(owner, attr, classmethod(self._wrap(name, raw.__func__, when, items)))
                else:
                    setattr(owner, attr, self._wrap(name, raw, when, items))
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    def transform(self, tid: int, fn, *args, **kwargs):
        """Call fn as the root span of transform `tid`."""
        self._transform = tid
        return self._wrap(ROOT, fn, None, None)(*args, **kwargs)


def layer_totals(spans: list[tuple]) -> dict[int, dict[str, float]]:
    """Per transform: self ms, calls and items of every layer metric.

    A span's self time is its duration minus its children's durations, so
    the self times of one transform add up to its root span.  Also returns
    the root span's duration under `trace.wall_ms`.
    """
    child_time = defaultdict(float)
    for name, start, end, parent, tid, n in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for i, (name, start, end, parent, tid, n) in enumerate(spans):
        ms_metric, calls_metric, items_metric = LAYER_METRICS[name]
        row = out[tid]
        row[ms_metric] += (end - start - child_time[i]) * 1e3
        if calls_metric:
            row[calls_metric] += 1
        if items_metric:
            row[items_metric] += n
        if name == ROOT:
            row["trace.wall_ms"] += (end - start) * 1e3
    return out


def all_layer_metrics() -> list[str]:
    names = []
    for triple in LAYER_METRICS.values():
        names.extend(m for m in triple if m)
    return names
