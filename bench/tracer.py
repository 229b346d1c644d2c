"""Per-layer tracing from outside the library.

``Tracer.install`` replaces every public function of the traced zakfiber
modules, at every module attribute that refers to it (the defining module
and each module that imports it), with a timing wrapper. The library source
is not modified.

Each call pushes a frame; on return its duration is added to the caller's
child time, so self time is duration minus the time its wrapped callees
cover. Calls to functions in ``HOT`` are only counted and timed: they run
from thousands to millions of times per op, and one span each would cost
more than the work. Every other call leaves a span with a parent link and
the op it belongs to; spans stay in memory until ``write_spans``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import itertools
import json
import time

PACKAGE = "zakfiber"
MODULES = ("groups", "fiberization", "spaces", "operators", "jsonio", "cli")

# Element- and column-level helpers, aggregated into count and total time.
HOT = frozenset({
    "groups.as_signal",
    "groups.pairing",
    "groups.pairing_is_one",
    "groups.subgroup_from_generators",
    "groups.translate",
    "fiberization.as_fibered",
    "fiberization.determining_function",
    "fiberization.zak",
    "fiberization.zak_inverse",
    "operators.as_operator",
    "jsonio.complex_to_pair",
    "jsonio.matrix_from_json",
    "jsonio.matrix_to_json",
    "jsonio.pair_to_complex",
})


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.edges: dict[tuple, int] = {}  # (caller, callee) -> calls
        self.counters = dict.fromkeys(
            ("fiberization.phase_table_bytes", "fiberization.zak_matrix_bytes", "groups.subgroups_found"), 0
        )
        self.spans: list[tuple] = []  # (id, parent, op, name, start, end)
        self._stack: list[list] = []  # frames: [name, span_id, child_s]
        self._active: dict[str, int] = {}
        self._ids = itertools.count(1)
        self._op = None
        self._origin = time.perf_counter()
        # counters computed from the objects the library returns
        self._hooks = {
            "fiberization.fiber_context":
                lambda ctx: ("fiberization.phase_table_bytes", ctx.n_omega * ctx.gamma.size * 16),
            "fiberization.zak_matrix": lambda mat: ("fiberization.zak_matrix_bytes", mat.nbytes),
            "groups.all_subgroups": lambda subs: ("groups.subgroups_found", len(subs)),
        }

    def install(self) -> None:
        mods = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES}
        every = [importlib.import_module(PACKAGE), *mods.values()]
        for short, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapped = self._wrap(f"{short}.{attr}", fn)
                for holder in every:
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            setattr(holder, key, wrapped)

    def _wrap(self, name: str, fn):
        self.stats[name] = [0, 0.0, 0.0]
        hot = name in HOT
        hook = self._hooks.get(name)
        stack, active, stats, edges, spans = self._stack, self._active, self.stats, self.edges, self.spans
        clock, ids = time.perf_counter, self._ids

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            span_id = None if hot else next(ids)
            frame = [name, span_id if span_id else (parent[1] if parent else None), 0.0]
            stack.append(frame)
            active[name] = active.get(name, 0) + 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                active[name] -= 1
                dur = end - start
                st = stats[name]
                st[0] += 1
                st[2] += dur - frame[2]
                if not active[name]:
                    st[1] += dur
                if parent is not None:
                    parent[2] += dur
                edge = (parent[0] if parent else None, name)
                edges[edge] = edges.get(edge, 0) + 1
                if not hot:
                    spans.append((span_id, parent[1] if parent else None, self._op, name,
                                  start - self._origin, end - self._origin))
            if hook is not None:
                key, value = hook(result)
                self.counters[key] += value
            return result

        return wrapper

    @contextlib.contextmanager
    def op(self, index: int, label: str):
        """Make one harness op the root span of the calls made inside it."""
        name, span_id = f"op {label}", next(self._ids)
        self._op = index
        self._stack.append([name, span_id, 0.0])
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((span_id, None, index, name, start - self._origin, end - self._origin))
            self._op = None

    def metrics(self, ops: int) -> dict:
        """Per-op averages of every traced function, plus the computed counters."""
        out = {}
        for name, (calls, total, self_s) in self.stats.items():
            out[f"{name}.calls"] = calls / ops
            out[f"{name}.s"] = total / ops
            out[f"{name}.self_s"] = self_s / ops
        for key, value in self.counters.items():
            out[key] = value / ops
        # the CLI layer's own work: argv parsing, JSON load/dump, file I/O
        out["cli.main.self_s"] = sum(s[2] for n, s in self.stats.items() if n.startswith("cli.")) / ops
        attempts = self.edges.get(("groups.all_subgroups", "groups.subgroup_from_generators"), 0)
        out["groups.closure_yield"] = self.counters["groups.subgroups_found"] / attempts if attempts else 0.0
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, op, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "op": op, "name": name,
                                     "start": start, "end": end}) + "\n")

