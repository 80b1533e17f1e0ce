"""Span tracer for the traced benchmark run.

The tracer wraps public functions of the five binmat modules from outside
the package: each call (or, for generator functions, each ``next()``)
becomes a span with a name, start, end, parent span and op id.  Spans are
kept in flat in-memory arrays and written out when the run ends; per-layer
numbers are derived from them afterwards.  The program itself is not edited.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import defaultdict

MODULES = ("gf2", "matroid", "hereditary", "fourier", "cli")


class Tracer:
    """In-memory span store with a stack of open spans (one thread)."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.stack = [-1]
        self.op_id = -1
        self.counters: defaultdict[str, float] = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(self.clock())
        return i

    def close(self, i: int) -> None:
        self.end[i] = self.clock()
        self.stack.pop()

    # --- wrapping ---------------------------------------------------------

    def wrap(self, fn, name: str, before=None, after=None):
        """A traced stand-in for fn.  `before(args, kwargs)` runs ahead of the
        call and its value is handed to `after(self, args, kwargs, result,
        value)`, which updates counters."""
        nid = self.name_id(name)
        counters = self.counters
        if inspect.isgeneratorfunction(fn):
            items_key = name + ".items"

            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                counters[name + ".calls"] += 1
                it = fn(*args, **kwargs)
                while True:
                    i = self.open(nid)
                    try:
                        item = next(it)
                    except StopIteration:
                        self.close(i)
                        return
                    except BaseException:
                        self.close(i)
                        raise
                    self.close(i)
                    counters[items_key] += 1
                    yield item

            return traced_gen

        calls_key = name + ".calls"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counters[calls_key] += 1
            pre = before(args, kwargs) if before is not None else None
            i = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(i)
            if after is not None:
                after(self, args, kwargs, result, pre)
            return result

        return traced

    def install(self) -> None:
        """Wrap every public function of the binmat modules, plus
        LinearInjections.image_tuples and cli.main, and bind each wrapper in
        every loaded binmat module that holds the original by name."""
        hooks = binmat_hooks()
        binmat_mods = [m for k, m in sys.modules.items()
                       if m is not None and (k == "binmat" or k.startswith("binmat."))]
        for short in MODULES:
            mod = sys.modules["binmat." + short]
            public = getattr(mod, "__all__", None) or ["main"]
            for attr in public:
                orig = getattr(mod, attr)
                if isinstance(orig, type) or not callable(orig):
                    continue
                if getattr(orig, "__module__", None) != mod.__name__:
                    continue  # re-exported; wrapped at its home module
                name = f"{short}.{attr}"
                before, after = hooks.get(name, (None, None))
                wrapped = self.wrap(orig, name, before, after)
                for m in binmat_mods:
                    for k, v in list(vars(m).items()):
                        if v is orig:
                            self._patch(m, k, wrapped)
        gf2 = sys.modules["binmat.gf2"]
        cls = gf2.LinearInjections
        self._patch(cls, "image_tuples",
                    self.wrap(cls.image_tuples, "gf2.image_tuples"))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # --- derived numbers ----------------------------------------------------

    def self_times(self) -> list[float]:
        return self_times(self.start, self.end, self.parent)

    def save(self, path) -> None:
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names, dtype=str),
            name=np.array(self.name, dtype=np.int64),
            start=np.array(self.start, dtype=np.float64),
            end=np.array(self.end, dtype=np.float64),
            parent=np.array(self.parent, dtype=np.int64),
            op=np.array(self.op, dtype=np.int64),
        )


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover.

    Spans must be listed in order of their start (as the tracer records
    them).  Overlapping children are merged, and a child sticking out of its
    parent only counts inside the parent's interval.
    """
    n = len(start)
    cover = [0.0] * n
    reach: dict[int, float] = {}  # parent -> furthest end covered so far
    for i in range(n):
        p = parent[i]
        if p < 0:
            continue
        s = max(start[i], reach.get(p, start[p]))
        e = min(end[i], end[p])
        if e > s:
            cover[p] += e - s
            reach[p] = e
    return [end[i] - start[i] - cover[i] for i in range(n)]


# --- binmat counters and per-layer metrics ---------------------------------------

def binmat_hooks() -> dict:
    """Counters taken at the wrapped boundaries, keyed by span name."""
    import binmat.hereditary as hm

    cache = hm.instance_constraints  # the lru_cache object, before wrapping

    def members_after(tr, args, kwargs, result, pre):
        n = args[0] if args else kwargs["n"]
        fixed = kwargs.get("fixed_points", args[3] if len(args) > 3 else 0)
        tr.counters["hereditary.count_members.tables"] += 1 << (((1 << n) - 1) - fixed)

    def constraints_before(args, kwargs):
        return cache.cache_info().misses

    def constraints_after(tr, args, kwargs, result, misses_before):
        if cache.cache_info().misses > misses_before:
            tr.counters["hereditary.instance_constraints.constraints"] += len(result)

    def find_after(tr, args, kwargs, result, pre):
        tr.counters["matroid.find_instance.hits"] += result is not None

    def count_after(tr, args, kwargs, result, pre):
        tr.counters["matroid.count_instances.instances"] += result

    return {
        "hereditary.count_members": (None, members_after),
        "hereditary.instance_constraints": (constraints_before, constraints_after),
        "matroid.find_instance": (None, find_after),
        "matroid.count_instances": (None, count_after),
    }


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer: Tracer, wall_s: float, artifact_bytes: int) -> dict[str, float]:
    """The per-layer numbers of one traced pass.  Counts come from the
    wrappers; the instance_constraints hit ratio from its cache_info()."""
    import binmat.hereditary as hm

    selfs = tracer.self_times()
    by_name: dict[str, float] = defaultdict(float)
    for nid, s in zip(tracer.name, selfs):
        by_name[tracer.names[nid]] += s
    c = tracer.counters
    m: dict[str, float] = {}

    def fn(name: str, *counts: str) -> None:
        m[f"{name}.self_s"] = by_name.get(name, 0.0)
        for key in counts:
            m[f"{name}.{key}"] = c[f"{name}.{key}"]

    fn("hereditary.count_members", "calls", "tables")
    m["hereditary.count_members.tables_per_s"] = _ratio(
        m["hereditary.count_members.tables"], m["hereditary.count_members.self_s"])
    info = hm.instance_constraints.cache_info()
    fn("hereditary.instance_constraints", "constraints")
    m["hereditary.instance_constraints.misses"] = info.misses
    m["hereditary.instance_constraints.hit_ratio"] = _ratio(info.hits, info.hits + info.misses)
    fn("hereditary.property_critical_number")
    fn("hereditary.isomorphism_class_census")
    fn("matroid.find_instance", "calls")
    m["matroid.find_instance.hit_ratio"] = _ratio(c["matroid.find_instance.hits"],
                                                  c["matroid.find_instance.calls"])
    fn("matroid.count_instances", "calls", "instances")
    fn("matroid.critical_number", "calls")
    fn("matroid.canonical_form", "calls")
    fn("gf2.enumerate_subspaces", "items")
    fn("gf2.rooted_subspace_packing", "calls")
    fn("gf2.image_tuples", "items")
    fn("fourier.gowers_norm", "calls")
    fn("fourier.best_factor_search")
    m["cli.main.calls"] = c["cli.main.calls"]
    m["cli.artifact_bytes"] = artifact_bytes
    for mod in MODULES:
        m[f"{mod}.self_s"] = sum(v for k, v in by_name.items() if k.split(".", 1)[0] == mod)
    m["run.spans"] = len(selfs)
    m["run.span_cover_frac"] = _ratio(sum(selfs), wall_s)
    return m
