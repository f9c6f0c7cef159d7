"""Span tracing and allocation hooks around polarkit's public functions.

The tracer wraps every public function, method, property and comparison
operator of the ten measured modules and rebinds every name in every
loaded polarkit module (including module-level dicts such as the CLI's
command table) that refers to a wrapped function, so calls made through
``from .x import y`` bindings are traced too.  Each call records one span
(name, parent, start, end) in compact ``array`` buffers; nothing is
aggregated or written out until the traced run is over.

Layer self time is span time minus the time its child spans cover, summed
over the layer's spans.  Counts are read from call arguments and return
values at the wrapped boundary.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
import tracemalloc
from array import array

import numpy as np

LAYERS = (
    "gf2kernel",
    "becpolar",
    "extval",
    "boundprop",
    "asymptotics",
    "construct",
    "codec",
    "rng",
    "serialize",
    "cli",
)

# dunders that are part of a class's public interface
OPERATORS = frozenset({"__lt__", "__le__", "__gt__", "__ge__"})


def _public_targets(mod, layer):
    """(owner, attribute, descriptor kind, function, span name) to wrap."""
    for name, obj in list(vars(mod).items()):
        if name.startswith("_"):
            continue
        if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
            yield mod, name, "function", obj, f"{layer}.{name}"
        elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
            for aname, attr in list(vars(obj).items()):
                if aname.startswith("_") and aname not in OPERATORS:
                    continue
                span = f"{layer}.{name}.{aname}"
                if isinstance(attr, staticmethod):
                    yield obj, aname, "staticmethod", attr.__func__, span
                elif isinstance(attr, classmethod):
                    yield obj, aname, "classmethod", attr.__func__, span
                elif isinstance(attr, property) and attr.fget is not None:
                    yield obj, aname, "property", attr.fget, span
                elif isinstance(attr, functools.cached_property):
                    yield obj, aname, "cached_property", attr.func, span
                elif inspect.isfunction(attr):
                    yield obj, aname, "function", attr, span


def _rewrap(kind, original_attr, wrapper, owner, aname):
    if kind == "staticmethod":
        return staticmethod(wrapper)
    if kind == "classmethod":
        return classmethod(wrapper)
    if kind == "property":
        return property(wrapper, original_attr.fset, original_attr.fdel, original_attr.__doc__)
    if kind == "cached_property":
        cp = functools.cached_property(wrapper)
        cp.__set_name__(owner, aname)
        return cp
    return wrapper


class Patch:
    """Replaces selected polarkit callables by wrappers until ``restore``.

    ``make_wrapper(fn, span_name)`` returns the replacement, or None to leave
    that callable alone.
    """

    def __init__(self, make_wrapper):
        self._undo = []
        wrapped = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"polarkit.{layer}")
            for owner, aname, kind, fn, span in _public_targets(mod, layer):
                w = make_wrapper(fn, span)
                if w is None:
                    continue
                original_attr = vars(owner)[aname]
                self._set(owner, aname, _rewrap(kind, original_attr, w, owner, aname))
                if kind == "function" and inspect.ismodule(owner):
                    wrapped[id(fn)] = (fn, w)
        # rebind `from .x import y` names and command tables in every module
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "polarkit" or modname.startswith("polarkit.")):
                continue
            for name, value in list(vars(mod).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(mod, name, hit[1])
                elif isinstance(value, dict):
                    for key, v in list(value.items()):
                        hit = wrapped.get(id(v))
                        if hit is not None and hit[0] is v:
                            self._undo.append((value, key, v, True))
                            value[key] = hit[1]

    def _set(self, owner, name, value):
        self._undo.append((owner, name, vars(owner)[name], False))
        setattr(owner, name, value)

    def restore(self):
        for owner, name, value, is_item in reversed(self._undo):
            if is_item:
                owner[name] = value
            else:
                setattr(owner, name, value)
        self._undo.clear()


# ---------------------------------------------------------------------------
# Counts read at the wrapped boundary.
# ---------------------------------------------------------------------------


def _levels_hook(counters, args, kwargs, result):
    g = args[0] if args else kwargs["g"]
    n = len(result) - 1
    counters["channels"] += len(result[-1][0])
    # every level 0..n is retained: int8 mode + float64 payload per node
    retained = sum(g.ell**d * 9 for d in range(n + 1))
    counters["levels_bytes"] = max(counters["levels_bytes"], retained)


def _paths_hook(counters, args, kwargs, result):
    counters["paths"] += len(result)


def _simulate_hook(counters, args, kwargs, result):
    counters["trials"] += result.trials
    counters["sc_errors"] += result.sc_errors
    counters["map_errors"] += result.map_errors


def _contains_hook(counters, args, kwargs, result):
    counters["violations"] += not result


def _propagate_hook(counters, args, kwargs, result):
    counters["steps"] += 1


def _conditions_hook(counters, args, kwargs, result):
    counters["steps"] += result.steps
    counters["violations"] += result.c2_violations + result.c3_violations


def _hybrid_hook(counters, args, kwargs, result):
    counters["hybrid_shortfall"] += int(result.metadata.get("shortfall", 0))
    counters["hybrid_selected"] += result.size


HOOKS = {
    "becpolar.enumerate_levels": _levels_hook,
    "becpolar.sample_paths": _paths_hook,
    "codec.simulate": _simulate_hook,
    "boundprop.IntervalState.contains": _contains_hook,
    "boundprop.propagate_z_interval": _propagate_hook,
    "boundprop.propagate_comp_interval": _propagate_hook,
    "boundprop.check_process_conditions": _conditions_hook,
    "construct.hybrid_selection_recursive": _hybrid_hook,
}

COUNTERS = (
    "channels", "levels_bytes", "paths", "trials", "sc_errors", "map_errors",
    "violations", "steps", "hybrid_shortfall", "hybrid_selected",
)


class Tracer:
    """In-memory span recorder; install and uninstall around traced calls."""

    def __init__(self):
        self.names: list[str] = []
        self.nid = array("i")
        self.parent = array("i")
        self.t0 = array("q")
        self.t1 = array("q")
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._cur = [-1]
        self._patch = None
        self._wrappers = {}

    def _name_id(self, name):
        self.names.append(name)
        return len(self.names) - 1

    def _wrapper(self, fn, name):
        """The span wrapper of ``fn``, made once and reused by every install."""
        if name not in self._wrappers:
            self._wrappers[name] = self._make_wrapper(fn, name)
        return self._wrappers[name]

    def _make_wrapper(self, fn, name):
        nid = self._name_id(name)
        hook = HOOKS.get(name)
        counters = self.counters
        cur = self._cur
        nid_append = self.nid.append
        parent = self.parent
        parent_append = parent.append
        t0 = self.t0
        t0_append = t0.append
        t1 = self.t1
        t1_append = t1.append
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def span(*args, **kwargs):
            i = len(t0)
            nid_append(nid)
            parent_append(cur[0])
            t1_append(0)
            cur[0] = i
            t0_append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                t1[i] = clock()
                cur[0] = parent[i]
            if hook is not None:
                hook(counters, args, kwargs, result)
            return result

        return span

    def install(self):
        self._patch = Patch(self._wrapper)

    def uninstall(self):
        self._patch.restore()

    @contextlib.contextmanager
    def root(self, name):
        """A benchmark-level span (an op execution or a replay)."""
        i = len(self.t0)
        self.nid.append(self._name_id(name))
        self.parent.append(self._cur[0])
        self.t1.append(0)
        self._cur[0] = i
        self.t0.append(time.perf_counter_ns())
        try:
            yield
        finally:
            self.t1[i] = time.perf_counter_ns()
            self._cur[0] = self.parent[i]

    def arrays(self):
        nid = np.frombuffer(self.nid, dtype=np.int32).astype(np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int32).astype(np.int64)
        dur = (np.frombuffer(self.t1, dtype=np.int64)
               - np.frombuffer(self.t0, dtype=np.int64)) / 1e9
        return nid, parent, dur

    def save(self, path):
        np.savez(path, names=np.array(self.names),
                 nid=np.frombuffer(self.nid, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start_ns=np.frombuffer(self.t0, dtype=np.int64),
                 end_ns=np.frombuffer(self.t1, dtype=np.int64))


class SpanTable:
    """Aggregates over a finished trace, restricted by masks over root spans."""

    def __init__(self, tracer: Tracer):
        self.names = tracer.names
        self.nid, self.parent, self.dur = tracer.arrays()
        n = len(self.nid)
        has_parent = self.parent >= 0
        child = np.zeros(n)
        np.add.at(child, self.parent[has_parent], self.dur[has_parent])
        self.self_time = self.dur - child
        # root span of every span, by pointer jumping
        root = np.where(has_parent, self.parent, np.arange(n))
        while True:
            nxt = root[root]
            if np.array_equal(nxt, root):
                break
            root = nxt
        self.root = root

    def mask_under(self, pred):
        """Spans whose root span's name satisfies ``pred``."""
        hit = np.array([pred(nm) for nm in self.names], dtype=bool)
        return hit[self.nid[self.root]]

    def _ids(self, pred):
        return np.array([i for i, nm in enumerate(self.names) if pred(nm)], dtype=np.int64)

    def calls(self, pred, mask):
        ids = self._ids(pred)
        return int(np.isin(self.nid[mask], ids).sum())

    def self_s(self, pred, mask):
        ids = self._ids(pred)
        sel = mask & np.isin(self.nid, ids)
        return float(self.self_time[sel].sum())

    def outer_s(self, pred, mask):
        """Time of spans matching ``pred`` that have no matching ancestor."""
        ids = self._ids(pred)
        in_group = np.zeros(len(self.names), dtype=bool)
        in_group[ids] = True
        idx = np.flatnonzero(mask & in_group[self.nid])
        if not idx.size:
            return 0.0
        nested = np.zeros(idx.size, dtype=bool)
        anc = self.parent[idx]
        while (anc >= 0).any():
            live = anc >= 0
            nested[live] |= in_group[self.nid[anc[live]]]
            anc[live] = self.parent[anc[live]]
        return float(self.dur[idx[~nested]].sum())


class MemoryHooks:
    """tracemalloc peaks of enumerate_level and sample_paths calls.

    Allocation tracing runs only inside the hooked calls (it slows every
    allocation), so the peak is that of memory allocated by the call itself.
    """

    TARGETS = {"becpolar.enumerate_level": "enumerate", "becpolar.sample_paths": "sample"}

    def __init__(self):
        self.peak_bytes = {"enumerate": 0, "sample": 0}
        self._patch = None

    def _wrapper(self, fn, name):
        key = self.TARGETS.get(name)
        if key is None:
            return None
        peaks = self.peak_bytes

        @functools.wraps(fn)
        def hooked(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peaks[key] = max(peaks[key], tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        return hooked

    def __enter__(self):
        self._patch = Patch(self._wrapper)
        return self

    def __exit__(self, *exc):
        self._patch.restore()
        return False
