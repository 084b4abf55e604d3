"""Spans at the library's module boundaries, recorded from outside it.

`Tracer.install()` replaces each traced function by a wrapper: in its home
module, in every `lielimits` module that re-bound it with `from ... import`,
and on its class for methods.  `restore()` puts every original object back.
While `active` is false a wrapper only forwards the call, so the cost of an
installed but idle tracer is one attribute test.

Spans (name, start, end, parent) go to compact in-memory arrays and are
written out at the end; the self time of a span is its duration minus the
time covered by its child spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from contextlib import contextmanager


def _formats_group(name: str) -> str | None:
    if name.startswith("parse_") or name.endswith("_from_doc"):
        return "formats.parse"
    if name.endswith(("_report", "_report_doc", "_to_doc")):
        return "formats.report"
    return {"load_json": "formats.load_json", "dumps": "formats.dumps"}.get(name)


def default_targets():
    """(span name, module, attribute) of every traced callable.

    The formats functions are grouped into parse and report spans; `cli`
    is `cli.main`, so its self time is argument parsing and dispatch.
    """
    targets = [
        ("algebras.dimension", "lielimits.algebras", "dimension"),
        ("algebras.weight_form", "lielimits.algebras", "weight_form"),
        ("algebras.dominant_weights_up_to_dim", "lielimits.algebras", "dominant_weights_up_to_dim"),
        ("index.index_of_irrep", "lielimits.index", "index_of_irrep"),
        ("index.embedding_index", "lielimits.index", "embedding_index"),
        ("oracle.freudenthal", "lielimits.oracle", "freudenthal"),
        ("oracle.weight_system", "lielimits.oracle", "weight_system"),
        ("oracle.trace_index", "lielimits.oracle", "trace_index"),
        ("oracle.tensor_decompose", "lielimits.oracle", "tensor_decompose"),
        ("system.compute_labels", "lielimits.system", "compute_labels"),
        ("system.decompose", "lielimits.system", "decompose"),
        ("system.subdiagram", "lielimits.system", "subdiagram"),
        ("system.level_sums", "lielimits.system", "level_sums"),
        ("system.stabilization", "lielimits.system", "stabilization"),
        ("socle.socle_report", "lielimits.socle", "socle_report"),
        ("socle.standard_invariants", "lielimits.socle", "standard_invariants"),
        ("linalg.rref", "lielimits.linalg", "rref"),
        ("linalg.nullspace_basis", "lielimits.linalg", "nullspace_basis"),
        ("linalg.in_row_space", "lielimits.linalg", "in_row_space"),
        ("subspaces.build", "lielimits.subspaces", "SubspaceDescriptor.build"),
        ("subspaces.init", "lielimits.subspaces", "SubspaceDescriptor.__init__"),
        ("subspaces.perp", "lielimits.subspaces", "perp"),
        ("subspaces.classify_maximal", "lielimits.subspaces", "classify_maximal"),
        ("cli", "lielimits.cli", "main"),
    ]
    formats = sys.modules["lielimits.formats"]
    for name, value in sorted(vars(formats).items()):
        group = _formats_group(name)
        if group and callable(value) and getattr(value, "__module__", None) == formats.__name__:
            targets.append((group, formats.__name__, name))
    return targets


class Tracer:
    def __init__(self, targets=None):
        self.targets = default_targets() if targets is None else targets
        self.active = False
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack: list[int] = []
        self.distinct: dict[str, set] = {"algebras.dimension": set(), "index.index_of_irrep": set()}
        self.counters = {"oracle.freudenthal.weights": 0, "linalg.rref.max_cells": 0,
                         "system.vertices": 0, "system.edges": 0, "subspaces.window.max": 0}
        self._saved: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_start.append(time.perf_counter_ns())
        self.span_end.append(0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int):
        self.span_end[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span opened by the caller, such as the root span of one op."""
        if not self.active:
            yield
            return
        idx = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(idx)

    # -- wrapping ------------------------------------------------------------

    def _observe(self, name, args, result):
        if name in self.distinct:
            self.distinct[name].add((args[0], tuple(args[1])))
        elif name == "oracle.weight_system":
            self.counters["oracle.freudenthal.weights"] += len(result)
        elif name == "linalg.rref" and args[0]:
            cells = len(args[0]) * len(args[0][0])
            self.counters["linalg.rref.max_cells"] = max(self.counters["linalg.rref.max_cells"], cells)
        elif name == "system.compute_labels":
            self.counters["system.vertices"] += len(result.alpha)
            self.counters["system.edges"] += len(result.beta)
        elif name in ("subspaces.build", "subspaces.init"):
            window = (result if name == "subspaces.build" else args[0]).window
            self.counters["subspaces.window.max"] = max(self.counters["subspaces.window.max"], window)

    def _wrap(self, name: str, fn):
        name_id = self._name_id(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
                tracer._observe(name, args, result)
                return result
            finally:
                tracer._close(idx)

        for attr in ("cache_info", "cache_clear"):
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every target wherever the library binds it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "lielimits" or n.startswith("lielimits."))]
        for name, module_name, path in self.targets:
            owner = sys.modules[module_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            if isinstance(original, staticmethod):
                self._set(owner, attr, staticmethod(self._wrap(name, original.__func__)))
                continue
            wrapper = self._wrap(name, original)
            if outer:
                self._set(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, wrapper)

    def restore(self):
        """Put back every attribute `install` replaced, last change first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    # -- results -------------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        n = len(self.span_start)
        child = [0] * n
        calls = [0] * len(self.names)
        incl = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        durations = [self.span_end[i] - self.span_start[i] for i in range(n)]
        for i in range(n):
            parent = self.span_parent[i]
            if parent >= 0:
                child[parent] += durations[i]
        for i in range(n):
            k = self.span_name[i]
            calls[k] += 1
            incl[k] += durations[i]
            self_ns[k] += durations[i] - child[i]
        return {name: {"calls": calls[k], "incl_s": incl[k] / 1e9, "self_s": self_ns[k] / 1e9}
                for k, name in enumerate(self.names)}

    def write(self, path):
        """Spans as a JSON header line followed by the four raw arrays."""
        with open(path, "wb") as fh:
            header = {"format": "lielimits-bench-spans/1", "names": self.names,
                      "count": len(self.span_start), "arrays": ["name:i", "parent:i", "start:q", "end:q"]}
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)
