"""Seeded instance generators: ladders, bidirected grids, random digraphs.

Every generator is a pure function of its arguments, so emitted files are
byte-stable across runs.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Tuple

from .dsn import DsnInstance
from .errors import CapacityError, InputError
from .formats import DSN_MAX_ARCS, DSN_MAX_VERTICES
from .graphs import WeightedDigraph
from .ladders import LadderSpec, ladder_corner_requests, make_ladder

Metadata = Dict[str, str]


def _check_capacity(n: int, m: int = 0) -> None:
    """Refuse what `parse_dsn` would refuse to read back.  Only `gen_random`
    passes m: under the vertex cap, a ladder or a grid has fewer arcs than
    the arc cap."""
    if n > DSN_MAX_VERTICES:
        raise CapacityError(f"{n} vertices requested; the cap is {DSN_MAX_VERTICES}")
    if m > DSN_MAX_ARCS:
        raise CapacityError(f"{m} arcs requested; the cap is {DSN_MAX_ARCS}")


def _sample_pairs(rng: random.Random, k: int, count: int) -> List[Tuple[int, int]]:
    """`count` distinct ordered pairs (a, b) of range(k), a != b.  Index i is
    the i-th such pair in row-major order, so sampling indices draws what
    sampling the list of all k(k-1) pairs would, without building it."""
    pairs = []
    for i in rng.sample(range(k * (k - 1)), count):
        a, r = divmod(i, k - 1)
        pairs.append((a, r + (r >= a)))
    return pairs


def gen_ladder(n: int, identified: Iterable[int] = ()) -> Tuple[DsnInstance, Metadata]:
    """Ladder host with the four-corner strongly-connected request set."""
    spec = LadderSpec(n, frozenset(identified))
    _check_capacity(2 * n - len(spec.identified))
    inst = DsnInstance(make_ladder(spec), ladder_corner_requests(spec))
    meta = {
        "generator": f"ladder n={n} I={sorted(spec.identified) or '[]'}",
        "genus": "0",
    }
    return inst, meta


def gen_grid(width: int, height: int, q: int = 3, seed: int = 0) -> Tuple[DsnInstance, Metadata]:
    """Bidirected width x height grid with unit weights.  The requests are a
    cycle through q seeded random terminals, in ascending order of id."""
    if width < 1 or height < 1:
        raise InputError("grid dimensions must be positive")
    n = width * height
    _check_capacity(n)
    if not 2 <= q <= n:
        raise InputError(f"need 2 <= q <= {n} terminals")
    arcs = {}
    for y in range(height):
        for x in range(width):
            v = y * width + x
            if x + 1 < width:
                arcs[(v, v + 1)] = 1
                arcs[(v + 1, v)] = 1
            if y + 1 < height:
                arcs[(v, v + width)] = 1
                arcs[(v + width, v)] = 1
    rng = random.Random(seed)
    terminals = sorted(rng.sample(range(n), q))
    requests = {(terminals[i], terminals[(i + 1) % q]) for i in range(q)}
    inst = DsnInstance(WeightedDigraph(range(n), arcs), requests)
    meta = {
        "generator": f"grid {width}x{height} q={q} seed={seed}",
        "genus": "0",
        "seed": str(seed),
    }
    return inst, meta


def gen_random(n: int, m: int, q: int, p: int, seed: int) -> Tuple[DsnInstance, Metadata]:
    """Random simple digraph with integer weights in [1, 9]."""
    if n < 2:
        raise InputError("need at least 2 vertices")
    _check_capacity(n, m)
    if not 0 <= m <= n * (n - 1):
        raise InputError(f"need 0 <= m <= {n * (n - 1)} arcs")
    if not 2 <= q <= n:
        raise InputError(f"need 2 <= q <= {n} terminals")
    if not 1 <= p <= q * (q - 1):
        raise InputError(f"need 1 <= p <= {q * (q - 1)} requests")
    rng = random.Random(seed)
    chosen = _sample_pairs(rng, n, m)
    arcs = {a: rng.randint(1, 9) for a in sorted(chosen)}
    terminals = sorted(rng.sample(range(n), q))
    requests = {(terminals[a], terminals[b]) for a, b in _sample_pairs(rng, q, p)}
    inst = DsnInstance(WeightedDigraph(range(n), arcs), requests)
    meta = {
        "generator": f"random n={n} m={m} q={q} p={p} seed={seed}",
        "seed": str(seed),
    }
    return inst, meta
