"""Outside-in layer tracer for the mfo package.

The tracer records a span around every public function and method of
the package's modules without editing them: it replaces the module
attributes, class attributes and registry-dict entries that refer to a
function with a wrapper, and puts the originals back on ``uninstall``.
Functions imported by name into another module (``from .problem import
fw_gap``) are patched at every binding, so calls through any of them are
seen.

A span holds a name id, start, end, the index of its parent span and
the cycle (one closed-loop operation cycle of the benchmark) it belongs
to.  Spans are appended to flat arrays in memory and written out by
``save`` when the run ends.  A few layers also record counts (atoms in
and out of a merge, rows evaluated, kernel work and computed bytes).

Span names are ``<module>.<function>`` with the ``mfo.`` prefix, a
leading underscore and any class name dropped (``kernels.resource_br``); a method takes the module of the instance's class,
so the base ``MfoProblem.best_response_batch`` running for the traffic
game is ``examples.traffic.best_response_batch``.  The artifact readers
and writers share one name, ``cli.io``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

MODULES = (
    "_kernels", "measures", "problem", "quantize", "solvers", "transport", "cli",
    "examples.congestion", "examples.resource", "examples.traffic",
)
# Modules whose bindings are patched too (re-exports), in addition to MODULES.
REEXPORTS = ("mfo", "mfo.examples")

# Value objects and tiny accessors called several times per iteration:
# a span each would cost more than the work and says nothing about a layer.
SKIP_CLASSES = {"AggregateVector", "SolverConfig", "Edge"}
SKIP_NAMES = {
    "clamp_gap", "default_step", "fictitious_play_step", "vector", "zero_vector", "columns",
    # the smooth-bump helpers behind CongestionProblem.bumps, which is their layer
    "smoothstep", "rising_step", "cell_bump", "bump_family",
    # (de)serialization helpers run inside the artifact readers and writers,
    # so their time counts as cli.io
    "to_json_dict", "from_json_dict", "final_json_dict", "from_atoms",
}

# Artifact readers and writers: (module, qualified name) -> (direction, path argument index).
IO_FUNCS = {
    ("solvers", "SolveReport.save_final_json"): ("write", 1),
    ("solvers", "SolveReport.write_history_csv"): ("write", 1),
    ("measures", "EmpiricalMeasure.save_json"): ("write", 1),
    ("measures", "EmpiricalMeasure.save_csv"): ("write", 1),
    ("measures", "EmpiricalMeasure.load_json"): ("read", 1),
    ("cli", "load_config"): ("read", 0),
    ("cli", "_load_mu0"): ("read", 0),
    ("cli", "_write_resource_dumps"): ("dir", 3),
    ("cli", "_write_congestion_dumps"): ("dir", 3),
    ("cli", "_write_traffic_dumps"): ("dir", 3),
}


def _short(module_name: str) -> str:
    """``mfo._kernels`` -> ``kernels``, ``mfo.examples.traffic`` -> ``examples.traffic``."""
    return module_name.removeprefix("mfo.").lstrip("_")


# -- per-layer counts, keyed by function name; each returns {stat: value} ----

def _resource_br(args, out):
    top, ert, _, _, budgets = args
    q, theta = out
    inputs = np.asarray(top).nbytes + np.asarray(ert).nbytes + np.asarray(budgets).nbytes
    return {"agent_steps": len(budgets) * len(top), "computed_bytes": inputs + q.nbytes + theta.nbytes}


def _congestion_dp(args, out):
    cost, qmax, below, _ = args
    n, m = cost.shape
    return {"cells": n * m * (qmax + 1),
            "computed_bytes": cost.nbytes + np.asarray(below).nbytes + out[1].nbytes + 8}


COUNTERS = {
    "resource_br": _resource_br,
    "congestion_dp": _congestion_dp,
    "bumps": lambda args, out: {"points": int(np.size(args[1]))},
    "g_eval_batch": lambda args, out: {"rows": len(out)},
    "merged": lambda args, out: {"atoms_in": len(args[0]), "atoms_out": len(out)},
    "fw_gap": lambda args, out: {"atoms": len(args[1])},
    "aggregate": lambda args, out: {"atoms": len(args[1])},
}


def _dir_sizes(path):
    with os.scandir(path) as entries:
        return {e.name: (e.stat().st_size, e.stat().st_mtime_ns) for e in entries if e.is_file()}


class Tracer:
    """Span recorder with install/uninstall of the wrappers."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.cycle = array("i")
        self.counts = defaultdict(float)   # (name, stat) -> total over traced cycles
        self.cycle_id = -1
        self._stack: list[int] = []
        self._patches = self._plan()

    # -- spans ------------------------------------------------------------------

    def _nid(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid):
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.cycle.append(self.cycle_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        idx = self._open(self._nid(name))
        try:
            yield
        finally:
            self._close(idx)

    def _count(self, name, stats):
        if self.cycle_id >= 0:
            for stat, value in stats.items():
                self.counts[(name, stat)] += value

    # -- wrappers ---------------------------------------------------------------

    def _wrap(self, fn, name_of, counter=None, io=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = name_of(args)
            before = _dir_sizes(args[io[1]]) if io and io[0] == "dir" else None
            idx = tracer._open(tracer._nid(name))
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if counter is not None:
                tracer._count(name, counter(args, out))
            if io is not None:
                tracer._count(name, _io_bytes(io, args, before))
            return out

        return wrapper

    def _plan(self):
        """Work out every (owner, key, original, wrapper) patch once."""
        mods = [importlib.import_module(f"mfo.{m}") for m in MODULES]
        wrapped = {}       # id(original function) -> wrapper
        patches = []
        for mod in mods:
            short = _short(mod.__name__)
            functions = {}
            for attr, val in vars(mod).items():
                if inspect.isfunction(val) and val.__module__ == mod.__name__:
                    functions.setdefault(id(val), []).append(attr)
                elif inspect.isclass(val) and val.__module__ == mod.__name__ and attr not in SKIP_CLASSES:
                    patches += self._plan_class(short, val)
            for fid, attrs in functions.items():
                attr = min(attrs, key=len)     # resource_br over resource_br_numpy
                fn = vars(mod)[attr]
                io = IO_FUNCS.get((short, attr))
                if io is None and (attr.startswith("_") or attr in SKIP_NAMES):
                    continue
                name = "cli.io" if io else f"{short}.{attr}"
                wrapped[fid] = self._wrap(fn, lambda args, n=name: n, COUNTERS.get(attr), io)
        for mod in mods + [importlib.import_module(m) for m in REEXPORTS]:
            for attr, val in vars(mod).items():
                if inspect.isfunction(val) and id(val) in wrapped:
                    patches.append((mod, attr, val, wrapped[id(val)]))
                elif isinstance(val, dict):
                    patches += [(val, k, v, wrapped[id(v)]) for k, v in val.items()
                                if inspect.isfunction(v) and id(v) in wrapped]
        return patches

    def _plan_class(self, short, cls):
        patches = []
        for attr, val in vars(cls).items():
            io = IO_FUNCS.get((short, f"{cls.__name__}.{attr}"))
            if io is None and (attr.startswith("_") or attr in SKIP_NAMES):
                continue
            if isinstance(val, classmethod):
                fn = val.__func__
                wrapper = classmethod(self._wrap(fn, self._method_name(attr, io), COUNTERS.get(attr), io))
            elif inspect.isfunction(val) and not inspect.isgeneratorfunction(val):
                fn = val
                wrapper = self._wrap(fn, self._method_name(attr, io), COUNTERS.get(attr), io)
            else:
                continue
            patches.append((cls, attr, val, wrapper))
        return patches

    @staticmethod
    def _method_name(attr, io):
        if io:
            return lambda args: "cli.io"
        names = {}

        def name_of(args):
            owner = args[0] if isinstance(args[0], type) else type(args[0])
            name = names.get(owner)
            if name is None:
                name = names[owner] = f"{_short(owner.__module__)}.{attr}"
            return name

        return name_of

    def install(self, cycle_id):
        self.cycle_id = cycle_id
        for owner, key, _, wrapper in self._patches:
            _assign(owner, key, wrapper)

    def uninstall(self):
        for owner, key, original, _ in reversed(self._patches):
            _assign(owner, key, original)

    # -- results ----------------------------------------------------------------

    def arrays(self):
        return (np.frombuffer(self.name_id, dtype=np.int32), np.frombuffer(self.start),
                np.frombuffer(self.end), np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.cycle, dtype=np.int32))

    def self_times(self):
        """Per-span duration minus the time covered by its child spans."""
        _, start, end, parent, _ = self.arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        return dur - child

    def per_name(self, cycles):
        """Calls and self milliseconds per name over spans of the given cycles."""
        nid, _, _, _, cyc = self.arrays()
        sel = np.isin(cyc, cycles)
        self_ms = self.self_times()[sel] * 1e3
        calls = np.bincount(nid[sel], minlength=len(self.names))
        ms = np.bincount(nid[sel], weights=self_ms, minlength=len(self.names))
        return {name: (int(calls[i]), float(ms[i])) for i, name in enumerate(self.names)}

    def save(self, path, **meta):
        nid, start, end, parent, cyc = self.arrays()
        np.savez(path, names=np.array(self.names), name_id=nid, start=start, end=end,
                 parent=parent, cycle=cyc, **meta)


def _assign(owner, key, value):
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)


def _io_bytes(io, args, before):
    direction, pos = io
    if direction == "dir":
        after = _dir_sizes(args[pos])
        return {"bytes_written": sum(size for name, (size, mtime) in after.items()
                                     if before.get(name) != (size, mtime))}
    return {f"bytes_{'read' if direction == 'read' else 'written'}": os.path.getsize(args[pos])}
