"""Span tracing of the gigopt layers, installed from outside the package.

The tracer wraps every public function of each layer module (the names in
its ``__all__`` that the module itself defines), plus the methods listed in
``EXTRA_METHODS``. A wrapper replaces the function in *every* ``gigopt.*``
namespace that binds it, so calls made inside the package
(``solve_fluid -> optimize_pair -> fluid_profit``) are seen as well.

Each call records one span ``[name, start, end, parent, op]``: the parent is
the index of the enclosing span (-1 at the top) and ``op`` is the id of the
benchmark op that caused it. Spans stay in memory; ``write_jsonl`` writes
them out once the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

PACKAGE = "gigopt"
LAYERS = ("market", "fluid", "sim", "policies", "noisy", "experiments", "cli")

# Public methods traced besides the module-level functions, as
# (layer, class name, method name).
EXTRA_METHODS = (("market", "RewardSet", "index_of"),)

# The harness span that encloses one op; its self time is op time that no
# layer span covers.
OP_SPAN = "bench.op"

_INTERIOR_EPS = 1e-12  # weights within this of 0 or 1 collapse to a singleton


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_pairs(counters, args, kwargs, result):
    m = len(_arg(args, kwargs, 0, "inst").rewards)
    counters["fluid.solve_fluid.pairs"] += m * (m - 1) // 2


def _count_interior(counters, args, kwargs, result):
    counters["fluid.optimize_pair.attempts"] += 1
    if result is not None and _INTERIOR_EPS < result.weight_high < 1.0 - _INTERIOR_EPS:
        counters["fluid.optimize_pair.interior"] += 1


def _count_rep_periods(counters, args, kwargs, result):
    cfg = _arg(args, kwargs, 2, "cfg")
    counters["sim.simulate.rep_periods"] += cfg.replications * cfg.periods


# Counters updated after a traced call returns, keyed by span name.
HOOKS = {
    "fluid.solve_fluid": _count_pairs,
    "fluid.optimize_pair": _count_interior,
    "sim.simulate": _count_rep_periods,
}


class Tracer:
    """Records spans while installed; ``remove`` restores every binding."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: defaultdict[str, int] = defaultdict(int)
        self.op = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    @staticmethod
    def _namespaces():
        return [m for n, m in list(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]

    def targets(self) -> list[tuple[str, object, str, object]]:
        """(span name, owner, attribute, function) of everything traced."""
        out = []
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr, None)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    out.append((f"{layer}.{attr}", mod, attr, fn))
        for layer, cls_name, meth in EXTRA_METHODS:
            cls = getattr(sys.modules[f"{PACKAGE}.{layer}"], cls_name)
            out.append((f"{layer}.{cls_name}.{meth}", cls, meth, cls.__dict__[meth]))
        return out

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer is already installed")
        namespaces = self._namespaces()
        for name, owner, attr, fn in self.targets():
            wrapper = self._wrap(fn, name)
            if inspect.isclass(owner):
                self._rebind(owner, attr, fn, wrapper)
                continue
            for ns in namespaces:
                for key, val in list(vars(ns).items()):
                    if val is fn:
                        self._rebind(ns, key, fn, wrapper)

    def _rebind(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def remove(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name):
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if hook is not None:
                hook(counters, args, kwargs, result)
            return result

        return traced

    # -- harness spans --------------------------------------------------------

    def begin_op(self, op: int) -> list:
        """Open the harness span of one op; close it with ``end_op``."""
        self.op = op
        rec = [OP_SPAN, time.perf_counter(), 0.0, -1, op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def end_op(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()
        self.op = -1

    def write_jsonl(self, path) -> None:
        """One span per line: [name, start, end, parent, op]."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(span) + "\n" for span in self.spans)


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo))
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        elif b > cur_b:
            cur_b = b
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans) -> list[float]:
    """Per span: its duration minus the part of it that its children cover.

    Children may overlap each other (work of several threads); the covered
    part is the union of their intervals, clipped to the parent's.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for k, (_, start, end, _, _) in enumerate(spans):
        kids = children.get(k)
        out.append((end - start) - (covered_length(kids, start, end) if kids else 0.0))
    return out


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name: call count, total time and self time (seconds)."""
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for span, own in zip(spans, self_times(spans)):
        row = out[span[0]]
        row["calls"] += 1
        row["total_s"] += span[2] - span[1]
        row["self_s"] += own
    return dict(out)
