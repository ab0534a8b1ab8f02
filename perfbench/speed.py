"""Machine-speed probe: a fixed piece of graph code, owned by the benchmark,
timed between items so that timings can be given at a reference speed.

On the machine the benchmark was written on, the CPU's speed drifts by up to
±25% over seconds to minutes, while the work per item stays the same.  The
probe does the same kind of work as dsnkit (small dicts and sets of ints,
breadth-first search, fresh allocations) but runs none of dsnkit's code, so
a change to dsnkit does not change the probe's time.  A timing is converted
to the reference speed by multiplying it by REFERENCE_S / (the probe's
median time around it).  On wall time, five solve-bnb runs on that machine
spread by up to 0.33 (IQR / median); see perfbench/DESIGN.md.
"""

from __future__ import annotations

import bisect
import gc
import random
import statistics
import time
from typing import Dict, List, Set, Tuple

# About the probe's median time on the reference machine (2-core Intel Xeon
# VM, Python 3.11.7) in a fast phase.  It only fixes the unit; both sides of
# a comparison use it.
REFERENCE_S = 0.0003

WINDOW_S = 0.25  # seconds on each side of an item whose probes give its factor

_GRAPH: Dict[int, Set[int]] = {}
_rng = random.Random(20181)
for _v in range(300):
    _GRAPH[_v] = set(_rng.sample(range(300), 4))
_ROOTS = range(0, 300, 75)


def _bfs_sizes() -> int:
    total = 0
    for root in _ROOTS:
        seen = {root}
        frontier = [root]
        while frontier:
            nxt = []
            for u in frontier:
                for v in _GRAPH[u]:
                    if v not in seen:
                        seen.add(v)
                        nxt.append(v)
            frontier = nxt
        total += len(seen)
    return total


def probe() -> float:
    """Seconds one probe takes now.  The probe's data are brought back into
    the caches by an untimed first pass, and the collector is paused, so
    that what the program did before and the program's heap do not change
    the probe's time."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        _bfs_sizes()
        start = time.perf_counter()
        _bfs_sizes()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def factor(probe_times: List[float]) -> float:
    """Multiplier that converts a timing made alongside these probes to the reference speed."""
    return REFERENCE_S / statistics.median(probe_times)


def local_factors(spans: List[Tuple[float, float]], probe_at: List[float], probe_s: List[float]) -> List[float]:
    """Per item, given as its (start, end) on the perf_counter clock, the
    factor from the probes that started within WINDOW_S of it; probe i is
    the one taken right after item i.  The speed changes within seconds:
    over five 30 s solve-bnb runs, one factor per run left spreads of
    0.10-0.19, and factors from the probes around each item 0.02-0.08."""
    factors = []
    for i, (start, end) in enumerate(spans):
        lo = min(i, bisect.bisect_left(probe_at, start - WINDOW_S))
        hi = max(i + 1, bisect.bisect_right(probe_at, end + WINDOW_S))
        factors.append(factor(probe_s[lo:hi]))
    return factors
