"""Spans around the public functions of hystctl's modules, for the traced run.

Each public function of a layer module is wrapped at the names its callers
look up: the other hystctl modules that imported it, the package namespace,
and the benchmark's own table of program calls.  Calls inside the defining
module are not layer boundaries and stay unwrapped.  Spans are kept in
memory (name, start, end, parent) and written out when the run ends.
"""

from __future__ import annotations

import importlib
import inspect
import json
import math
import statistics
import time
from collections import defaultdict

LAYERS = ("signals", "hysteresis", "constructions", "dynamics", "experiments", "cli")


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1)
        self.pass_starts: list[int] = []
        self.pass_counts: list[dict] = []  # hook counters, one dict per pass
        self.sizes = defaultdict(list)  # metric -> [(pass, group, size, seconds)]
        self._stack: list[int] = []
        self._installed: list = []  # (namespace, attribute, original)

    def begin_pass(self) -> None:
        self.pass_starts.append(len(self.spans))
        self.pass_counts.append(defaultdict(float))

    def count(self, key: str, n: float) -> None:
        self.pass_counts[-1][key] += n

    def size_sample(self, metric: str, group, size: float, seconds: float) -> None:
        self.sizes[metric].append((len(self.pass_starts) - 1, group, size, seconds))

    def wrap(self, name: str, fn, label=None, hook=None):
        """fn recording one span per call; label(args) may rename the span and
        hook(tracer, args, result, seconds) may update counters afterwards."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (label(args) if label else name, t0, t1, parent)
            if hook is not None:
                hook(self, args, out, t1 - t0)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self, package, namespaces=(), labels=None, hooks=None) -> int:
        """Wrap every public function of each layer module of `package` in
        every namespace except its own; returns the number of functions."""
        labels, hooks = labels or {}, hooks or {}
        wrappers = {}
        homes = [package]
        for layer in LAYERS:
            mod = importlib.import_module(f"{package.__name__}.{layer}")
            homes.append(mod)
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrappers[id(obj)] = (
                    mod,
                    self.wrap(name, obj, labels.get(name), hooks.get(name)),
                )
        for ns in homes + list(namespaces):
            for attr, obj in list(vars(ns).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is not ns:
                    self._installed.append((ns, attr, obj))
                    setattr(ns, attr, entry[1])
        return len(wrappers)

    def uninstall(self) -> None:
        for ns, attr, obj in reversed(self._installed):
            setattr(ns, attr, obj)
        self._installed.clear()

    def pass_spans(self, p: int) -> list:
        end = self.pass_starts[p + 1] if p + 1 < len(self.pass_starts) else len(self.spans)
        start = self.pass_starts[p]
        return [
            (n, t0, t1, par - start if par >= start else -1)
            for n, t0, t1, par in self.spans[start:end]
        ]

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"pass_starts": self.pass_starts, "spans": self.spans}, fh)


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans are (name, start, end, parent index); single-threaded calls nest,
    so children never overlap and their durations simply add up.
    """
    out = [t1 - t0 for _, t0, t1, _ in spans]
    for _, t0, t1, parent in spans:
        if parent >= 0:
            out[parent] -= t1 - t0
    return out


def outermost(spans) -> list[bool]:
    """True for spans with no ancestor of the same name (so recursion and
    re-entry are not counted twice in a function's inclusive time)."""
    flags = []
    for name, _, _, parent in spans:
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        flags.append(p < 0)
    return flags


def pass_totals(spans) -> tuple[dict, dict]:
    """(inclusive seconds per span name, self seconds per layer) of one pass."""
    inclusive = defaultdict(float)
    for (name, t0, t1, _), top in zip(spans, outermost(spans)):
        if top:
            inclusive[name] += t1 - t0
    layer_self = defaultdict(float)
    for (name, *_), s in zip(spans, self_times(spans)):
        layer_self[layer_of(name)] += s
    return inclusive, layer_self


def steepest_slope(samples) -> float:
    """Largest log-log slope of seconds against size over the groups.

    samples are (group, size, seconds), a group being a kind of input whose
    cost per item differs from the others' (say step-step against
    polyline-polyline pairs).  Repeated (group, size) points are reduced to
    their median, each group with two sizes or more gets its least-squares
    slope, and the steepest is returned: the path with the worst growth.
    Returns 0.0 when no group has two sizes.
    """
    points = defaultdict(list)
    for group, size, secs in samples:
        if size > 0 and secs > 0:
            points[(group, size)].append(secs)
    by_group = defaultdict(list)
    for (group, size), secs in points.items():
        by_group[group].append((math.log(size), math.log(statistics.median(secs))))
    slopes = []
    for pts in by_group.values():
        if len(pts) < 2:
            continue
        mx = sum(x for x, _ in pts) / len(pts)
        my = sum(y for _, y in pts) / len(pts)
        slopes.append(
            sum((x - mx) * (y - my) for x, y in pts) / sum((x - mx) ** 2 for x, _ in pts)
        )
    return max(slopes, default=0.0)
