"""Per-layer tracing from outside the library.

``Tracer.install`` replaces each traced ``omzd`` function at every place
it is looked up: a name imported with ``from .x import f`` is bound once
per importing module, so every module attribute holding the function is
swapped for the wrapper (``certify`` is wrapped as ``planner.certify``,
``construct.certify`` and ``cli.certify``, for instance).  Calls made
through a module attribute, such as ``construct.combine`` or
``gfield.chi``, go through that one swapped attribute.

Spans (name, start, end, parent) are kept in memory and written out at
the end.  A span's self time is its duration minus the part of it that
its child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

# Functions that get a span, by the omzd module that defines them.
SPANNED = {
    "cli": ("run", "encode_matrix_file", "decode_matrix_file"),
    "planner": ("plan", "execute"),
    "verify": ("certify", "check_drt", "check_skew_hadamard"),
    "numerics": ("residual_scaled_identity", "jacobi_spectrum"),
    "construct": (
        "combine",
        "reduce_zeros",
        "ompzd_n_minus_1",
        "paley_conference",
        "paley_tournament",
        "double_drt",
        "drt_to_skew_hadamard",
        "symmetric_omzd",
        "kron",
    ),
    "gfield": ("make_field",),
    "graphs": ("q2_certificate", "pattern_graph", "certify_multipartite"),
}
# Called once per field element, so only counted.
COUNTED = {"gfield": ("chi",)}


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for mod, fns in SPANNED.items():
        for fn in fns:
            units[f"{mod}.{fn}.calls"] = "count"
            units[f"{mod}.{fn}.self_s"] = "s"
    for mod, fns in COUNTED.items():
        for fn in fns:
            units[f"{mod}.{fn}.calls"] = "count"
    units["cli.encode_matrix_file.bytes"] = "bytes"
    units["planner.stages"] = "count"
    units["verify.certify.per_stage"] = "ratio"
    units["trace.overhead"] = "ratio"
    return units


def plan_size(node) -> int:
    """PlanNode count of a plan tree, walking ``.children``."""
    count, stack = 0, [node]
    while stack:
        n = stack.pop()
        count += 1
        stack.extend(n.children)
    return count


def _covered(intervals: list[tuple[float, float]]) -> float:
    total, end = 0.0, float("-inf")
    for s, e in sorted(intervals):
        if e <= end:
            continue
        total += e - max(s, end)
        end = e
    return total


def self_times(spans: list) -> list[float]:
    """Self time of each span ``(name, start, end, parent)``, where
    ``parent`` is the index of the enclosing span or -1."""
    children = defaultdict(list)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        clipped = [
            (max(spans[c][1], start), min(spans[c][2], end))
            for c in children[i]
            if spans[c][2] > start and spans[c][1] < end
        ]
        out.append((end - start) - _covered(clipped))
    return out


class Tracer:
    """Wraps the traced functions while installed and aggregates spans."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.extra: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _span_wrapper(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        extra = self.extra

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if name == "planner.execute":
                extra["planner.stages"] += plan_size(args[0] if args else kwargs["node"])
            elif name == "cli.encode_matrix_file":
                extra["cli.encode_matrix_file.bytes"] += len(result)
            return result

        return wrapper

    def _count_wrapper(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key == "omzd" or key.startswith("omzd.")]
        for table, make in ((SPANNED, self._span_wrapper), (COUNTED, self._count_wrapper)):
            for mod, fns in table.items():
                for fn in fns:
                    original = getattr(sys.modules[f"omzd.{mod}"], fn)
                    wrapper = make(f"{mod}.{fn}", original)
                    for module in modules:
                        for attr, value in list(vars(module).items()):
                            if value is original:
                                self._patches.append((module, attr, original))
                                setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def metrics(self, overhead: float) -> dict[str, float]:
        """Every name of ``metric_units``; functions never called read 0."""
        values = {name: 0.0 if unit in ("s", "ratio") else 0 for name, unit in metric_units().items()}
        for span, own in zip(self.spans, self_times(self.spans)):
            values[f"{span[0]}.calls"] += 1
            values[f"{span[0]}.self_s"] += own
        for name, count in self.counts.items():
            values[f"{name}.calls"] = count
        values.update(self.extra)
        stages = values["planner.stages"]
        values["verify.certify.per_stage"] = values["verify.certify.calls"] / stages if stages else 0.0
        values["trace.overhead"] = overhead
        return values

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")
