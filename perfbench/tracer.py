"""Spans around dsnkit's public functions, installed from outside `src/`.

`Tracer.install` replaces each traced function at every binding a dsnkit
module holds (modules import each other's functions by name, and `cli.ENGINES`
keeps solver references in a dict), plus `WeightedDigraph.__init__` and
`WeightedDigraph.without_arc`.  Each call becomes a span (name, start, end,
parent span, item).  Self time is the span minus the part its child spans
cover, accumulated as the spans close; the spans themselves are kept in
memory up to a cap and written out once the run ends.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from array import array
from typing import Callable, Dict, List, Optional

LAYERS = ("cli", "formats", "graphs", "dsn", "solvers", "structure", "ladders", "reduction")

# Private functions that carry a layer's work and get a span of their own.
PRIVATE = {
    "solvers": {"_solve_path_union": "path_union", "_finish": "finish"},
    "ladders": {"_hypotheses_failure": "hypotheses_failure", "_suppress_outside": "suppress_outside"},
    "structure": {"_verify_replacement": "verify_replacement", "_tw_maybe_exact": "tw_maybe_exact"},
    "graphs": {"_component_tw_dp": "component_tw_dp"},
}

# Not wrapped: the item's root span is the `cli.main` call itself, so its own
# time stays outside every layer and shows in `trace.covered_frac`.
SKIP = {"cli.main"}

SOLVER_SPANS = ("solvers.solve_bnb", "solvers.solve_exhaustive", "solvers.solve_dst", "solvers.path_union")

# Counts that must repeat exactly when the same items are traced twice.
DETERMINISTIC = (
    "solvers.nodes",
    "graphs.digraph_builds",
    "graphs.without_arc.calls",
    "ladders.is_ladder_subdivision.calls",
    "structure.replacements",
)

ITEM = "item"


class Tracer:
    def __init__(self, span_cap: int):
        self.names: List[str] = [ITEM]
        self.ids: Dict[str, int] = {ITEM: 0}
        self.calls: List[int] = [0]
        self.self_s: List[float] = [0.0]
        self.incl_s: List[float] = [0.0]
        self.counters: Dict[str, float] = {
            "solvers.nodes": 0,
            "dsn.minimize_graph.removed": 0,
            "dsn.minimize_graph.tried": 0,
            "graphs.without_arc.under_ladders_s": 0.0,
            "structure.replacements": 0,
            "structure.rounds": 0,
            "ladders.ok": 0,
            "ladders.max_peel_depth": 0,
        }
        self.stack: List[list] = []  # frames: [name id, span id, child seconds]
        self.next_span = 0
        self.item = -1
        self.span_cap = span_cap
        self.recording = span_cap > 0
        self.spans_dropped = 0
        self.span_cols = {
            "id": array("q"), "parent": array("q"), "item": array("q"),
            "name": array("l"), "start": array("d"), "end": array("d"),
        }
        self._restore: List[tuple] = []

    # -- spans -----------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.incl_s.append(0.0)
        return self.ids[name]

    def _close(self, frame: list, start: float, end: float) -> None:
        k, span, child = frame
        dur = end - start
        self.calls[k] += 1
        self.incl_s[k] += dur
        self.self_s[k] += dur - child
        stack = self.stack
        if stack:
            stack[-1][2] += dur
        if self.recording:
            cols = self.span_cols
            cols["id"].append(span)
            cols["parent"].append(stack[-1][1] if stack else -1)
            cols["item"].append(self.item)
            cols["name"].append(k)
            cols["start"].append(start)
            cols["end"].append(end)
        else:
            self.spans_dropped += 1

    def run_item(self, item: int, fn: Callable, *args):
        """Call fn(*args) as item `item`'s root span.  Recording stops at the
        first item that starts with the cap reached, so kept items are whole."""
        self.item = item
        if self.recording and len(self.span_cols["id"]) >= self.span_cap:
            self.recording = False
        frame = [0, self.next_span, 0.0]
        self.next_span += 1
        self.stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self._close(frame, start, end)

    def _wrap(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        k = self._id(name)
        stack = self.stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            frame = [k, tracer.next_span, 0.0]
            tracer.next_span += 1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                tracer._close(frame, start, end)
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        return traced

    # -- counters fed from arguments and results -------------------------

    def _inside(self, names) -> bool:
        ids = {self.ids[n] for n in names if n in self.ids}
        return any(frame[0] in ids for frame in self.stack)

    def _after_solver(self, args, result) -> None:
        if not self._inside(SOLVER_SPANS):
            self.counters["solvers.nodes"] += result.node_count

    def _after_minimize(self, args, result) -> None:
        self.counters["dsn.minimize_graph.removed"] += args[0].m - result.m

    def _after_reduce_length(self, args, result) -> None:
        report = result[1]
        self.counters["structure.replacements"] += report.replacements
        self.counters["structure.rounds"] += report.rounds

    def _after_ladder(self, args, result) -> None:
        k = self.ids["ladders.is_ladder_subdivision"]
        depth = 1 + sum(1 for frame in self.stack if frame[0] == k)
        c = self.counters
        c["ladders.max_peel_depth"] = max(c["ladders.max_peel_depth"], depth)
        c["ladders.ok"] += bool(result.ok)

    def _wrap_without_arc(self, fn: Callable) -> Callable:
        """Also counts minimize_graph's tries and times the calls made
        under ladder recognition."""
        traced = self._wrap("graphs.without_arc", fn)
        minimize = self._id("dsn.minimize_graph")
        ladder = self._id("ladders.is_ladder_subdivision")
        counters = self.counters
        stack = self.stack
        clock = time.perf_counter

        def without_arc(*args, **kwargs):
            if stack and stack[-1][0] == minimize:
                counters["dsn.minimize_graph.tried"] += 1
            if not any(frame[0] == ladder for frame in stack):
                return traced(*args, **kwargs)
            start = clock()
            try:
                return traced(*args, **kwargs)
            finally:
                counters["graphs.without_arc.under_ladders_s"] += clock() - start

        return without_arc

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function at every dsnkit binding of it."""
        mods = {name: sys.modules[f"dsnkit.{name}"] for name in LAYERS}
        hooks = {
            "dsn.minimize_graph": self._after_minimize,
            "structure.reduce_length_graph": self._after_reduce_length,
            "ladders.is_ladder_subdivision": self._after_ladder,
        }
        hooks.update({name: self._after_solver for name in SOLVER_SPANS})
        wrapped: Dict[int, Callable] = {}
        for layer, mod in mods.items():
            private = PRIVATE.get(layer, {})
            for attr, fn in list(vars(mod).items()):
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                if inspect.isgeneratorfunction(fn):
                    continue
                if attr.startswith("_") and attr not in private:
                    continue
                name = f"{layer}.{private.get(attr, attr)}"
                if name in SKIP:
                    continue
                wrapped[id(fn)] = self._wrap(name, fn, hooks.get(name))
        for mod_name, mod in sorted(sys.modules.items()):
            if mod_name != "dsnkit" and not mod_name.startswith("dsnkit."):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in wrapped and inspect.isfunction(value):
                    self._set(mod, attr, wrapped[id(value)])
                elif isinstance(value, dict):
                    for key, entry in list(value.items()):
                        if id(entry) in wrapped and inspect.isfunction(entry):
                            self._set_item(value, key, wrapped[id(entry)])
        digraph = mods["graphs"].WeightedDigraph
        self._set(digraph, "__init__", self._wrap("graphs.digraph_build", digraph.__init__))
        self._set(digraph, "without_arc", self._wrap_without_arc(digraph.without_arc))

    def _set(self, obj, attr: str, value) -> None:
        self._restore.append((setattr, obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def _set_item(self, mapping: dict, key, value) -> None:
        self._restore.append((dict.__setitem__, mapping, key, mapping[key]))
        mapping[key] = value

    def uninstall(self) -> None:
        while self._restore:
            setter, obj, key, original = self._restore.pop()
            setter(obj, key, original)

    # -- read-out --------------------------------------------------------

    def count(self, name: str) -> float:
        """Call counts as `<span>.calls`, `graphs.digraph_builds`, or a counter."""
        if name == "graphs.digraph_builds":
            name = "graphs.digraph_build.calls"
        if name.endswith(".calls"):
            k = self.ids.get(name[: -len(".calls")])
            return 0 if k is None else self.calls[k]
        return self.counters[name]

    def deterministic_counts(self) -> Dict[str, float]:
        return {name: self.count(name) for name in DETERMINISTIC}

    def self_time(self, name: str) -> float:
        k = self.ids.get(name)
        return 0.0 if k is None else self.self_s[k]

    def layer_self_time(self, layer: str) -> float:
        return sum(s for n, s in zip(self.names, self.self_s) if n.split(".", 1)[0] == layer)

    def item_time(self) -> float:
        return self.incl_s[0]

    def write_spans(self, path) -> int:
        cols = self.span_cols
        with open(path, "w") as fh:
            fh.write(json.dumps({"columns": list(cols), "names": self.names}) + "\n")
            for row in zip(*cols.values()):
                fh.write(json.dumps(row) + "\n")
        return len(cols["id"])
