"""In-memory span recorder and the arithmetic that turns spans into metrics.

A span is ``[name, start, end, parent, invocation]``; ``parent`` is the
index of the enclosing span or -1.  Names are ``<module>.<function>``, so
the layer of a span is the part before the first dot.  Self time is a
span's duration minus the part of it that its child spans cover.
"""
from __future__ import annotations

import time
from collections import defaultdict

NAME, START, END, PARENT, INVOCATION = range(5)


class Recorder:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.invocation = -1
        self._stack: list[int] = []
        self._clock = clock

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self._clock(), None, parent, self.invocation])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][END] = self._clock()
        self._stack.pop()


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total, reach = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        lo = max(lo, reach)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the union of its children's intervals."""
    children: dict[int, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            children[s[PARENT]].append(i)
    out = []
    for i, s in enumerate(spans):
        start, end = s[START], s[END]
        kids = [(max(start, spans[c][START]), min(end, spans[c][END])) for c in children[i]]
        out.append((end - start) - _covered(kids))
    return out


def inclusive_s(spans: list[list], match) -> float:
    """Time inside spans whose name satisfies ``match``, nested ones counted once."""
    total = 0.0
    for s in spans:
        if not match(s[NAME]):
            continue
        p = s[PARENT]
        while p >= 0 and not match(spans[p][NAME]):
            p = spans[p][PARENT]
        if p < 0:
            total += s[END] - s[START]
    return total


# span name -> the metrics reported for it: ``<span>.calls`` and/or ``<span>.s``
SPAN_METRICS = {
    "gexpect.solve_bsde": ("calls", "s"),
    "optimizer.solve_fbsde_picard": ("s",),
    "optimizer.solve_fbsde_cara": ("s",),
    "optimizer.recover_theta": ("calls", "s"),
    "optimizer.verify_optimality": ("s",),
    "closedform.exponential_triple": ("s",),
    "valuegrid.dp_value": ("s",),
    "valuegrid.bspde_residual": ("s",),
    "valuegrid.residual_slice": ("calls",),
    "valuegrid.fbsde_from_surface": ("s",),
    "market.price_curve": ("calls", "s"),
    "cli.load_config": ("s",),
}

# counters kept by call-counting wrappers, reported under their own names
COUNTERS = (
    "lattice.split_children.calls",
    "driver.g.calls",
    "driver.g.elems",
    "valuegrid.wealthgrid_x.calls",
)

POSITION_CURVE = "gexpect.PositionCurve."


def layer_metrics(spans: list[list], counts: dict[str, int]) -> dict[str, float]:
    """Per-layer calls, inclusive times, self times and counts of one pass."""
    out: dict[str, float] = {}
    for span, kinds in SPAN_METRICS.items():
        if "calls" in kinds:
            out[f"{span}.calls"] = sum(1 for s in spans if s[NAME] == span)
        if "s" in kinds:
            out[f"{span}.s"] = inclusive_s(spans, lambda n, span=span: n == span)
    for name in COUNTERS:
        out[name] = counts.get(name, 0)
    own = self_times(spans)
    out["gexpect.position_curve.builds"] = sum(
        1 for s in spans if s[NAME] == POSITION_CURVE + "__init__"
    )
    out["gexpect.position_curve.self_s"] = sum(
        t for s, t in zip(spans, own) if s[NAME].startswith(POSITION_CURVE)
    )
    out["closedform.s"] = inclusive_s(spans, lambda n: n.startswith("closedform."))
    # command span minus library spans: row building, formatting, writing
    out["cli.self_s"] = sum(
        t for s, t in zip(spans, own)
        if s[NAME].startswith("cli.") and s[NAME] != "cli.load_config"
    )
    return out
