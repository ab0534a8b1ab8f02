import random
import tracemalloc
from fractions import Fraction

import pytest

from dsnkit import generators
from dsnkit.dsn import DsnInstance
from dsnkit.errors import CapacityError
from dsnkit.generators import gen_grid, gen_ladder, gen_random
from dsnkit.graphs import WeightedDigraph


def gen_random_by_list(n, m, q, p, seed, max_weight=9):
    """Reference: `gen_random` sampling from the list of all n(n-1) arcs."""
    rng = random.Random(seed)
    all_arcs = [(u, v) for u in range(n) for v in range(n) if u != v]
    chosen = rng.sample(all_arcs, m)
    arcs = {a: Fraction(rng.randint(1, max_weight)) for a in sorted(chosen)}
    terminals = sorted(rng.sample(range(n), q))
    pairs = [(s, t) for s in terminals for t in terminals if s != t]
    requests = set(rng.sample(pairs, p))
    return DsnInstance(WeightedDigraph(range(n), arcs), requests)


def peak_bytes(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n", [2, 3, 5, 8, 13])
def test_random_matches_list_sampler(n):
    for seed in range(20):
        rng = random.Random(seed)
        m = rng.randint(0, n * (n - 1))
        q = rng.randint(2, n)
        p = rng.randint(1, q * (q - 1))
        inst, _ = gen_random(n, m, q, p, seed)
        assert inst == gen_random_by_list(n, m, q, p, seed)


def test_request_sampling_does_not_list_all_pairs():
    # Listing all q(q-1) pairs at q = 1,000 would take about 65 MB.
    assert peak_bytes(lambda: gen_random(1000, 1, 1000, 3, seed=3)) < 1 << 20


def test_random_allocation_is_linear_in_vertices():
    assert peak_bytes(lambda: gen_random(20_000, 40, 2, 1, seed=3)) < 32 << 20


@pytest.mark.parametrize(
    "generate",
    [
        lambda: gen_ladder(10**9),
        lambda: gen_ladder(50_001),
        lambda: gen_grid(10**5, 10**4),
        lambda: gen_random(10**9, 1, 2, 1, seed=0),
        lambda: gen_random(10**5, 10**10 - 10**5, 2, 1, seed=0),
    ],
    ids=["ladder-huge", "ladder-over-cap", "grid", "random", "random-arcs"],
)
def test_over_cap_refused_before_allocating(generate):
    def refused():
        with pytest.raises(CapacityError, match="cap"):
            generate()

    assert peak_bytes(refused) < 1 << 20


def test_ladder_cap_counts_identified_rungs(monkeypatch):
    monkeypatch.setattr(generators, "DSN_MAX_VERTICES", 10)
    assert gen_ladder(5)[0].host.n == 10
    assert gen_ladder(6, {1, 2})[0].host.n == 10
    with pytest.raises(CapacityError):
        gen_ladder(6, {1})
