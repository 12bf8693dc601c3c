"""Span tracing of flowrel from outside the package.

``Tracer.install`` replaces every public flowrel function, in every
flowrel module namespace (and module-level dict) that holds it, with a
wrapper that records a span; it also wraps the ``TransMonoid`` methods and
the ``segment`` method of each ``BiSeq`` subclass.  ``Tracer.uninstall``
puts the originals back.  Nothing in the package changes on disk; the
wrappers exist only in the process that installs them.

A span is (parent id, name, start, end), kept in flat arrays in memory.
Self time is a span's duration minus the durations of its children; the
program is single-threaded, so children never overlap.  Total time sums
the spans whose parent has another name, so direct recursion counts once.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import types
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

MODULES = ("finflow", "relations", "proxsets", "fuzz", "reports",
           "subshift", "ternary", "circles", "cli")

ITEM_SPAN = "bench.item"


# Work counts recorded at span boundaries: span name -> {count name: f(args, result)}.
# ``segment`` spans of every BiSeq subclass are counted under one name.
COUNTERS = {
    "finflow.close": {"finflow.close.elements": lambda args, m: m.size},
    "relations.proximal_verdict": {
        # a (size, n, n) boolean tensor is rebuilt on every call
        "relations.proximal_verdict.tensor_bytes_computed":
            lambda args, v: args[0].size * args[0].n_states ** 2,
    },
    "cli.dump": {"cli.dump.bytes": lambda args, text: len(text.encode())},
    "subshift.segment": {"subshift.segment.letters": lambda args, text: len(text)},
}


def span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"


def group_name(name: str) -> str:
    """The name calls and self time are also summed under: every
    ``subshift.<Class>.segment`` counts as ``subshift.segment``."""
    if name.startswith("subshift.") and name.endswith(".segment"):
        return "subshift.segment"
    return name


def _ours(obj) -> bool:
    return isinstance(obj, types.FunctionType) and obj.__module__.startswith("flowrel")


def _bindings():
    """(owner, key, function) for each binding of a public flowrel function:
    module attributes, values of module-level dicts (e.g.
    reports.REPRODUCERS), TransMonoid methods and BiSeq subclass segments."""
    mods = [importlib.import_module("flowrel")]
    mods += [importlib.import_module(f"flowrel.{m}") for m in MODULES]
    for mod in mods:
        for attr, obj in vars(mod).items():
            if attr.startswith("_"):
                continue
            if _ours(obj):
                yield mod, attr, obj
            elif isinstance(obj, dict):
                yield from ((obj, k, v) for k, v in obj.items() if _ours(v))
    monoid = importlib.import_module("flowrel.finflow").TransMonoid
    yield from ((monoid, a, f) for a, f in vars(monoid).items() if not a.startswith("_") and _ours(f))
    pending = list(importlib.import_module("flowrel.subshift").BiSeq.__subclasses__())
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if _ours(vars(cls).get("segment")):
            yield cls, "segment", vars(cls)["segment"]


def _rebind(owner, key, value) -> None:
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.parent = array("q")
        self.name = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self._stack = [0]  # span ids are 1-based; 0 is "no parent"
        self._wrappers: dict[int, types.FunctionType] = {}
        self._patches: list | None = None

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span called name."""
        return self._recorder(self._name_id(name), fn, {})(*args, **kwargs)

    def _recorder(self, name_id: int, fn, counters: dict):
        parent, name, start, end, stack = self.parent, self.name, self.start, self.end, self._stack
        counts = self.counts

        def record(*args, **kwargs):
            sid = len(parent) + 1
            parent.append(stack[-1])
            name.append(name_id)
            end.append(0.0)
            stack.append(sid)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid - 1] = perf_counter()
                stack.pop()
            for count, f in counters.items():
                counts[count] += f(args, result)
            return result

        return record

    def wrap(self, fn):
        if id(fn) not in self._wrappers:
            name = span_name(fn)
            counters = COUNTERS.get(group_name(name), {})
            self._wrappers[id(fn)] = functools.wraps(fn)(self._recorder(self._name_id(name), fn, counters))
        return self._wrappers[id(fn)]

    def install(self) -> None:
        """Wrap every public flowrel function where a module binds it."""
        if self._patches is None:
            self._patches = list(_bindings())
        for owner, key, fn in self._patches:
            _rebind(owner, key, self.wrap(fn))

    def uninstall(self) -> None:
        for owner, key, fn in self._patches:
            _rebind(owner, key, fn)

    # ------------------------------------------------------------------
    # per-round statistics

    def take(self, keep_spans: bool) -> dict:
        """Aggregate, then clear, the spans and counts recorded so far."""
        # copies: the arrays are cleared below, which views would forbid
        parent = np.frombuffer(self.parent, dtype=np.int64).copy()
        name = np.frombuffer(self.name, dtype=np.int64).copy()
        start = np.frombuffer(self.start).copy()
        end = np.frombuffer(self.end).copy()
        dur = end - start
        child = np.bincount(parent, weights=dur, minlength=len(parent) + 1)[1:]
        own = dur - child
        names = list(self.names)
        groups = sorted({group_name(x) for x in names} - set(names))
        keys = names + groups
        group_of = np.array([keys.index(group_name(x)) for x in names], dtype=np.int64)
        parent_name = np.where(parent > 0, name[np.maximum(parent, 1) - 1], -1)
        parent_group = np.where(parent > 0, group_of[np.maximum(parent_name, 0)], -1)
        grouped = group_of[name] != name
        calls = np.zeros(len(keys))
        self_s = np.zeros(len(keys))
        total_s = np.zeros(len(keys))
        # total time counts a span only when its parent has another name,
        # so direct recursion is not counted twice
        for key, parent_key, sel in ((name, parent_name, slice(None)),
                                     (group_of[name], parent_group, grouped)):
            key, outer = key[sel], np.where(parent_key[sel] != key[sel], dur[sel], 0.0)
            calls += np.bincount(key, minlength=len(keys))
            self_s += np.bincount(key, weights=own[sel], minlength=len(keys))
            total_s += np.bincount(key, weights=outer, minlength=len(keys))
        stats = {
            "calls": {k: int(c) for k, c in zip(keys, calls) if c},
            "self_s": {k: float(v) for k, v, c in zip(keys, self_s, calls) if c},
            "total_s": {k: float(v) for k, v, c in zip(keys, total_s, calls) if c},
            "modules": {},
            "counts": dict(self.counts),
        }
        for k, v in zip(names, np.bincount(name, weights=own, minlength=len(names))):
            mod = k.split(".", 1)[0]
            stats["modules"][mod] = stats["modules"].get(mod, 0.0) + float(v)
        if keep_spans:
            stats["spans"] = {"names": names, "parent": parent, "name": name,
                              "start": start, "end": end}
        for arr in (self.parent, self.name, self.start, self.end):
            del arr[:]
        self.counts.clear()
        return stats


def per_layer(rounds: list[dict], overhead_s: float, untraced_round_s: float) -> dict[str, float]:
    """Per-layer metrics from the traced rounds: calls and counts of the
    first round (they repeat exactly), self times as medians over rounds."""
    first = rounds[0]
    out: dict[str, float] = {}
    for mod in MODULES:
        out[f"{mod}.self_s"] = statistics.median(r["modules"].get(mod, 0.0) for r in rounds)
    for name, calls in first["calls"].items():
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = statistics.median(r["self_s"].get(name, 0.0) for r in rounds)
        out[f"{name}.total_s"] = statistics.median(r["total_s"].get(name, 0.0) for r in rounds)
    out.update(first["counts"])
    out["trace.overhead_s"] = overhead_s
    out["trace.overhead_frac"] = overhead_s / untraced_round_s if untraced_round_s else 0.0
    return out
