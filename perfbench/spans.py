"""Span recorder for the traced run.

`install` wraps every public function of the `espalier` modules (each
module's `__all__`, or its functions not named `_*` when it has none) and rebinds the wrapper wherever an `espalier.*`
namespace holds the original, so calls between modules and inside one module
are both seen.  `LaurentPolynomial` exports no functions, so its arithmetic
methods are wrapped on the class.

Each call becomes one span: name, start, end, parent span and the item it
belongs to.  Self time is the span's duration minus the part covered by its
child spans, and is accumulated as spans close:

* A call to a same-module helper that has no metric of its own is folded
  into its caller (its self time is charged to the caller's name), so
  `garside.left_normal_form` includes the complements and products it asks for.
* Laurent arithmetic is the invariants layer's own arithmetic: it is counted
  in `laurent.ops` / `laurent.ms` but not subtracted from its caller, so the
  Burau fold and the determinant keep their arithmetic.

Spans are kept in memory (up to a cap) and written out at the end.
"""

from __future__ import annotations

import array
import functools
import json
import sys
import time

LAURENT_METHODS = (
    "__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "__pow__", "__call__",
    "shifted", "substitute_power", "divide_exact", "symmetric_normalize", "equal_up_to_units",
)


def _module(name: str) -> str:
    return name.split(".", 1)[0]


class SpanRecorder:
    """Keeps span aggregates exactly and the first `cap` spans verbatim."""

    def __init__(self, own_metric=(), transparent_modules=(), clock=time.perf_counter,
                 cap: int = 100_000):
        self.clock = clock
        self.own_metric = set(own_metric)
        self.transparent = set(transparent_modules)
        self.cap = cap
        self.active = False
        self.item = 0
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.charged: list[float] = []  # self time charged to each name
        self.entries: list[int] = []  # calls made from another module (or top level)
        self.entry_time: list[float] = []  # inclusive time of those calls
        self.by_parent: dict[tuple[str | None, str], int] = {}
        self.counters: dict[str, float] = {}
        self.total_spans = 0
        # the first `cap` spans in order of entry: name id, start, end,
        # parent's position (-1: none), item
        self.span_name = array.array("i")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self.span_parent = array.array("i")
        self.span_item = array.array("i")
        self._stack: list[list] = []

    def _id(self, name: str) -> int:
        idx = self._ids.get(name)
        if idx is None:
            idx = self._ids[name] = len(self.names)
            self.names.append(name)
            for column in (self.calls, self.entries):
                column.append(0)
            for column in (self.charged, self.entry_time):
                column.append(0.0)
        return idx

    def count(self, key: str, amount: float = 1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, name: str, fn, observe=None):
        """A wrapper recording one span per call while the recorder is active;
        `observe(args, result)` runs after the span closes, outside its time."""
        nid = self._id(name)
        module = _module(name)
        own = name in self.own_metric

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack = self._stack
            parent = stack[-1] if stack else None
            if parent is None or parent[4] != module:
                charge = nid
            else:
                charge = nid if own else parent[5]
            index = self.total_spans if self.total_spans < self.cap else -1
            self.total_spans += 1
            if index >= 0:  # stored at entry, so a span's position is its index
                self.span_name.append(nid)
                self.span_parent.append(parent[0] if parent is not None else -1)
                self.span_item.append(self.item)
                self.span_end.append(0.0)
            frame = [index, nid, 0.0, 0.0, module, charge]
            stack.append(frame)
            start = frame[2] = self.clock()
            if index >= 0:
                self.span_start.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = self.clock()
                stack.pop()
                self._close(frame, parent, end)
            if observe is not None:
                observe(args, result)
            if parent is not None and not (module in self.transparent and parent[4] != module):
                parent[3] += self.clock() - start
            return result

        return traced

    def _close(self, frame, parent, end):
        index, nid, start, child, module, charge = frame
        duration = end - start
        self.calls[nid] += 1
        self.charged[charge] += duration - child
        parent_name = self.names[parent[1]] if parent is not None else None
        if parent is None or parent[4] != module:
            self.entries[nid] += 1
            self.entry_time[nid] += duration
        key = (parent_name, self.names[nid])
        self.by_parent[key] = self.by_parent.get(key, 0) + 1
        if index >= 0:
            self.span_end[index] = end

    # --- aggregates ---------------------------------------------------------

    def _get(self, column, name):
        idx = self._ids.get(name)
        return column[idx] if idx is not None else 0

    def calls_of(self, name: str) -> int:
        return self._get(self.calls, name)

    def self_time(self, name: str) -> float:
        return self._get(self.charged, name)

    def module_self_time(self, module: str) -> float:
        return sum(t for n, t in zip(self.names, self.charged) if _module(n) == module)

    def module_entries(self, module: str) -> tuple[int, float]:
        """Calls into the module from outside it, and their inclusive time."""
        calls = sum(c for n, c in zip(self.names, self.entries) if _module(n) == module)
        spent = sum(t for n, t in zip(self.names, self.entry_time) if _module(n) == module)
        return calls, spent

    def calls_under(self, parent: str, name: str) -> int:
        return self.by_parent.get((parent, name), 0)

    def dump(self, path) -> int:
        """Write the kept spans as JSON; returns how many were written."""
        payload = {
            "names": self.names,
            "fields": ["name", "start_s", "end_s", "parent", "item"],
            "spans_total": self.total_spans,
            "spans": [
                [n, round(s, 7), round(e, 7), p, i]
                for n, s, e, p, i in zip(self.span_name, self.span_start, self.span_end,
                                         self.span_parent, self.span_item)
            ],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, separators=(",", ":"))
        return len(payload["spans"])


def install(recorder: SpanRecorder, observers: dict | None = None) -> int:
    """Wrap the public functions of every loaded `espalier` module and the
    Laurent arithmetic; returns the number of wrapped callables."""
    import inspect

    observers = observers or {}
    modules = {
        name: mod for name, mod in list(sys.modules.items())
        if mod is not None and (name == "espalier" or name.startswith("espalier."))
    }
    wrapped: dict[int, object] = {}
    for mod_name, mod in modules.items():
        short = mod_name.rsplit(".", 1)[-1]
        public = getattr(mod, "__all__", None)
        if public is None:  # e.g. espalier.cli: its functions not named _*
            public = [name for name in vars(mod) if not name.startswith("_")]
        for attr in public:
            fn = getattr(mod, attr, None)
            if inspect.isfunction(fn) and fn.__module__ == mod_name:
                name = f"{short}.{attr}"
                wrapped[id(fn)] = (fn, recorder.wrap(name, fn, observers.get(name)))
    for mod in modules.values():
        for attr, value in list(vars(mod).items()):
            hit = wrapped.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, attr, hit[1])
    laurent = modules.get("espalier.laurent")
    count = len(wrapped)
    if laurent is not None:
        cls = laurent.LaurentPolynomial
        for attr in LAURENT_METHODS:
            method = cls.__dict__.get(attr)
            if method is not None:
                setattr(cls, attr, recorder.wrap(f"laurent.{attr}", method))
                count += 1
    return count
