"""The CPU-speed probe that every timed interval of the benchmark is scaled by.

On a shared host the CPU's speed drifts by more than half for seconds to
tens of seconds. ``speed_scale()`` times a fixed piece of interpreter work
that runs none of the program's code, so an optimisation of the program
cannot change it, and returns reference seconds per wall second.

The work has a broad code footprint on purpose: JSON, a regular
expression, frozen dataclasses as dict keys, a heap, a keyed sort, exact
fractions and a caught exception. A tight loop over a list and a dict
slowed less than the pipeline when the host was busy: over 25 passes of
``corpus_inproc``, log pass time rose 1.41 times as fast as its log probe
time, and scaled pass times kept a coefficient of variation of 7.2%
(20% unscaled). With this probe the slope is 0.97 and the variation 3.7%.
"""

from __future__ import annotations

import gc
import heapq
import json
import re
from dataclasses import dataclass
from fractions import Fraction

from tracing import clock

PROBE_REPEATS = 2
REFERENCE_PROBE_S = 0.001   # the probe's time on the reference CPU

_DOCUMENT = {f"k{i}": [i, str(i), {"x": i * 0.5, "y": [i, i + 1]}] for i in range(60)}
_NAME = re.compile(r"(\w+)_(\d+)")
_NAMES = [f"imp_{i % 37:02d}" for i in range(300)]


@dataclass(frozen=True)
class _Node:
    op: str
    args: tuple


def probe_work() -> int:
    """About a millisecond of mixed interpreter work; returns a checksum."""
    document = json.loads(json.dumps(_DOCUMENT))
    digits = [_NAME.match(name).group(2) for name in _NAMES]
    counts: dict[_Node, int] = {}
    for i in range(400):
        node = _Node("and" if i % 3 else "or", (i % 7, digits[i % len(digits)]))
        counts[node] = counts.get(node, 0) + 1
    heap = [(n, node.op, node.args) for node, n in counts.items()]
    heapq.heapify(heap)
    ordered = sorted(heap, key=lambda t: (t[1], -t[0]))
    total = sum(Fraction(i, i + 1) for i in range(1, 30))
    try:
        document["missing"]
    except KeyError:
        pass
    return len(ordered) + len(document) + total.denominator % 7


def speed_scale() -> float:
    """Reference seconds per wall second right now: REFERENCE_PROBE_S over
    the probe's time. The fastest of a few repeats ignores an interrupt that
    lands in one. The cyclic collector is off meanwhile, since its cost
    grows with the program's heap and the probe must not see the program."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        fastest = float("inf")
        for _ in range(PROBE_REPEATS):
            t0 = clock()
            probe_work()
            fastest = min(fastest, clock() - t0)
    finally:
        if collecting:
            gc.enable()
    return REFERENCE_PROBE_S / fastest
