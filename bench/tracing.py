"""Layer-boundary tracing from outside the library.

The tracer replaces, for the length of a `with tracer.installed():` block,
every public wedgelift function bound in a layer module's namespace (so
`code.gf2_rank`, `repair.encode`, `linalg.gf2_rref` and `cli.make_field` are
each wrapped where the calling module looks them up), the public methods of
the classes the layers define (FieldSpec, WedgeLiftedCode, ...), and each
`next` of the generator functions `iter_parity_rows` and `enumerate_2_shadow`.
Nothing under src/ changes.

Only calls made inside a span the benchmark opens (one per timed op) are
recorded; the benchmark's own output checks run outside them. A span is
recorded per wrapped call: (id, parent id, root id, name, start,
end, leaf ns). The scalar FieldSpec ops (add, mul, inv, pow) run hundreds of
thousands of times per sampled-oracle query, so they are counted and timed but
not stored as spans: their time is kept on the calling span as `leaf ns` and
charged to the field layer. Spans stay in memory and are written once, at the
end of a run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import time
from collections import Counter

# Module under wedgelift -> layer name used in span and metric names.
LAYER_MODULES = {
    "field": "field",
    "bitlattice": "bitlattice",
    "classify": "classify",
    "code": "code",
    "linalg": "linalg",
    "repair": "repair",
    "_io": "io",
    "cli": "cli",
}
SCALAR_OPS = frozenset({"add", "mul", "inv", "pow"})
_ELIMINATIONS = frozenset({"linalg.gf2_rank", "linalg.gf2_rref"})

# Indices into a span record and a live frame.
ID, PARENT, ROOT, NAME, START, END, LEAF = range(7)
SPAN_FIELDS = ["id", "parent", "root", "name", "start_ns", "end_ns", "leaf_ns"]


def _layer_of(obj) -> str | None:
    module = getattr(obj, "__module__", "") or ""
    if not module.startswith("wedgelift."):
        return None
    return LAYER_MODULES.get(module.rsplit(".", 1)[1])


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.leaf_calls: Counter = Counter()
        self.leaf_ns: Counter = Counter()
        self._stack: list[list] = []
        self._next_id = 0
        self._clock = time.perf_counter_ns

    # -- recording ---------------------------------------------------------

    def _enter(self, name: str) -> list:
        stack = self._stack
        sid = self._next_id
        self._next_id += 1
        if stack:
            frame = [sid, stack[-1][ID], stack[0][ID], name, 0, 0, 0]
        else:
            frame = [sid, None, sid, name, 0, 0, 0]
        stack.append(frame)
        frame[START] = self._clock()
        return frame

    def _exit(self, frame: list) -> None:
        frame[END] = self._clock()
        self._stack.pop()
        self.spans.append(frame)

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (a root: one per op)."""
        frame = self._enter(name)
        try:
            yield
        finally:
            self._exit(frame)

    # -- wrappers ----------------------------------------------------------

    def _wrap_call(self, name: str, fn):
        enter, leave, stack = self._enter, self._exit, self._stack
        count_rows = name in _ELIMINATIONS
        counters = self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            if count_rows:
                args = (_CountedRows(args[0], counters),) + args[1:]
            elif name == "io.atomic_write_text":
                text = args[1] if len(args) > 1 else kwargs["text"]
                counters["io.bytes_written"] += len(text.encode())
            frame = enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(frame)
            if count_rows:
                counters["linalg.eliminations"] += 1
                counters["linalg.pivots"] += result if isinstance(result, int) else len(result)
            return result

        return traced

    def _wrap_generator(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return _TracedIterator(tracer, name, fn(*args, **kwargs))

        return traced

    def _wrap_leaf(self, name: str, fn):
        stack, clock = self._stack, self._clock
        calls, spent = self.leaf_calls, self.leaf_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                calls[name] += 1
                spent[name] += elapsed
                stack[-1][LEAF] += elapsed

        return traced

    # -- installation ------------------------------------------------------

    def _targets(self):
        """(owner, attribute, span name, wrapper factory) for every patch."""
        for module_name in LAYER_MODULES:
            module = importlib.import_module(f"wedgelift.{module_name}")
            for attr, obj in list(vars(module).items()):
                layer = _layer_of(obj)
                if attr.startswith("_") or layer is None:
                    continue
                if inspect.isclass(obj):
                    if obj.__module__ != module.__name__:
                        continue
                    for meth, fn in list(vars(obj).items()):
                        if meth.startswith("_") or not inspect.isfunction(fn):
                            continue
                        name = f"{layer}.{obj.__name__}.{meth}"
                        if obj.__name__ == "FieldSpec" and meth in SCALAR_OPS:
                            yield obj, meth, name, self._wrap_leaf
                        else:
                            yield obj, meth, name, self._wrap_call
                elif callable(obj):
                    name = f"{layer}.{obj.__name__}"
                    if inspect.isgeneratorfunction(obj):
                        yield module, attr, name, self._wrap_generator
                    else:
                        yield module, attr, name, self._wrap_call

    @contextlib.contextmanager
    def installed(self):
        patches = []
        try:
            for owner, attr, name, factory in list(self._targets()):
                original = vars(owner)[attr]
                setattr(owner, attr, factory(name, original))
                patches.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def summary(self) -> dict:
        """Self time and calls per layer and per span name, and the wall time
        of the root spans. Self time is a span's duration minus its child
        spans and its scalar leaf calls; leaf time is charged to field, so the
        layers' self times add up to the root spans' wall time exactly."""
        child_ns: Counter = Counter()
        for s in self.spans:
            if s[PARENT] is not None:
                child_ns[s[PARENT]] += s[END] - s[START]
        layer_self: Counter = Counter()
        layer_calls: Counter = Counter()
        name_self: Counter = Counter()
        name_calls: Counter = Counter()
        wall_ns = 0
        for s in self.spans:
            duration = s[END] - s[START]
            self_ns = duration - child_ns[s[ID]] - s[LEAF]
            layer = s[NAME].split(".", 1)[0]
            layer_self[layer] += self_ns
            layer_calls[layer] += 1
            name_self[s[NAME]] += self_ns
            name_calls[s[NAME]] += 1
            if s[PARENT] is None:
                wall_ns += duration
        for name, ns in self.leaf_ns.items():
            layer_self["field"] += ns
            layer_calls["field"] += self.leaf_calls[name]
            name_self[name] += ns
            name_calls[name] += self.leaf_calls[name]
        return {
            "wall_ns": wall_ns,
            "layer_self_ns": dict(layer_self),
            "layer_calls": dict(layer_calls),
            "name_self_ns": dict(name_self),
            "name_calls": dict(name_calls),
            "counters": dict(self.counters),
        }

    def write(self, path, extra: dict) -> None:
        """All spans in one JSON file, names interned."""
        names = sorted({s[NAME] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [s[:NAME] + [index[s[NAME]]] + s[START:] for s in self.spans]
        payload = dict(extra, fields=SPAN_FIELDS, names=names, spans=rows,
                       leaf_calls=dict(self.leaf_calls), leaf_ns=dict(self.leaf_ns))
        with open(path, "w") as handle:
            json.dump(payload, handle, separators=(",", ":"))


class _TracedIterator:
    """One span per `next` of a wrapped generator; yielded items are counted
    under '<span name>.items'."""

    def __init__(self, tracer: Tracer, name: str, inner) -> None:
        self._tracer = tracer
        self._name = name
        self._inner = inner

    def __iter__(self):
        return self

    def __next__(self):
        if not self._tracer._stack:
            return next(self._inner)
        frame = self._tracer._enter(self._name)
        try:
            item = next(self._inner)
        finally:
            self._tracer._exit(frame)
        self._tracer.counters[self._name + ".items"] += 1
        return item


class _CountedRows:
    """Pass-through iterable that counts the rows an elimination consumes."""

    def __init__(self, rows, counters: Counter) -> None:
        self._rows = rows
        self._counters = counters

    def __iter__(self):
        for row in self._rows:
            self._counters["linalg.rows_in"] += 1
            yield row


def layer_metrics(summary: dict, overhead_ratio: float) -> dict:
    """The per-layer metrics named in spec.PER_LAYER, from a tracer summary."""
    s = 1e-9
    self_ns, calls = summary["name_self_ns"], summary["name_calls"]
    counters = summary["counters"]

    def t(name):
        return self_ns.get(name, 0) * s

    def n(name):
        return calls.get(name, 0)

    rows_in = counters.get("linalg.rows_in", 0)
    pivots = counters.get("linalg.pivots", 0)
    m = {
        "linalg.rank_s": t("linalg.gf2_rank"),
        "linalg.rref_s": t("linalg.gf2_rref"),
        "linalg.nullspace_s": t("linalg.gf2_nullspace"),
        "linalg.eliminations": counters.get("linalg.eliminations", 0),
        "linalg.rows_in": rows_in,
        "linalg.pivots": pivots,
        "linalg.useful_row_ratio": pivots / rows_in if rows_in else 0.0,
        "code.parity_rows": counters.get("code.iter_parity_rows.items", 0),
        "code.parity_rows_s": t("code.iter_parity_rows"),
        "classify.restriction_grid_calls": n("classify.restriction_grid"),
        "classify.restriction_grid_s": t("classify.restriction_grid"),
        "classify.wedge_restriction_calls": n("classify.wedge_restriction"),
        "classify.wedge_restriction_s": t("classify.wedge_restriction"),
        "field.scalar_ops": sum(n(f"field.FieldSpec.{op}") for op in SCALAR_OPS),
        "bitlattice.submasks": counters.get("bitlattice.enumerate_2_shadow.items", 0),
        "code.encode_calls": n("code.encode"),
        "code.encode_s": t("code.encode"),
        "code.generator_matrix_calls": n("code.WedgeLiftedCode.generator_matrix"),
        "repair.verify_self_s": t("repair.verify_drgp"),
        "repair.read_s": t("repair.simulate_parallel_reads"),
        "repair.plan_s": t("repair.build_repair_plan"),
        "io.bytes_written": counters.get("io.bytes_written", 0),
        "io.write_s": t("io.atomic_write_text"),
    }
    for layer in LAYER_MODULES.values():
        m[f"{layer}.self_s"] = summary["layer_self_ns"].get(layer, 0) * s
        m[f"{layer}.calls"] = summary["layer_calls"].get(layer, 0)
    m["trace.overhead_ratio"] = overhead_ratio
    return m
