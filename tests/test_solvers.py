import heapq
import math
import random
import sys
import time
from itertools import combinations
from types import SimpleNamespace

import pytest
from fractions import Fraction
from hypothesis import given, settings
from hypothesis import strategies as st

from dsnkit.dsn import DsnInstance, is_inclusion_minimal, validate, violated_request
from dsnkit import dsn, graphs, solvers
from dsnkit.errors import CapacityError, DomainError, InvariantError
from dsnkit.generators import gen_grid, gen_ladder, gen_random
from dsnkit.graphs import WeightedDigraph, search, shortest_path
from dsnkit.reduction import decide_psi_via_dsn, generate_hardness_instance
from dsnkit.solvers import (
    _finish,
    _infeasible,
    _solve_path_union,
    dst_root,
    solve_bnb,
    solve_dst,
    solve_exhaustive,
    solve_with_certificate,
)

from conftest import (
    CUBE,
    K33,
    K4,
    OUT_STAR_KINDS,
    all_simple_paths,
    digraphs,
    ladder_with_terminals,
    out_star,
    random_instance,
    random_instances,
    random_psi_host,
    solve_path_union_eager,
)

SUBSET_SCAN_MAX_ARCS = 20


def _solve_subset_scan(inst):
    """Literal scan of all arc subsets; cross-check oracle for tiny hosts."""
    if inst.host.m > SUBSET_SCAN_MAX_ARCS:
        raise CapacityError(
            f"host has {inst.host.m} arcs; subset-scan cap is {SUBSET_SCAN_MAX_ARCS}"
        )
    arcs = sorted(inst.host.arcs())
    weights = inst.host.arcs()
    best = None
    nodes = 0
    for k in range(len(arcs) + 1):
        for combo in combinations(arcs, k):
            nodes += 1
            cost = sum((weights[a] for a in combo), Fraction(0))
            if best is not None and cost >= best[0]:
                continue
            g = WeightedDigraph(inst.host.vertices, {a: weights[a] for a in combo})
            if violated_request(g, inst.requests) is None:
                best = (cost, list(combo))
    if best is None:
        return _infeasible("subset-scan", nodes)
    return _finish(inst, set(best[1]), nodes, "subset-scan")


def solve_bnb_recursive(inst):
    """The recursive branch and bound that `solve_bnb` replaced: one call per
    node, each rebuilding its unsatisfied requests and rerunning Dijkstra
    for every one of them.  It branches on arcs by ascending id; reference
    for the optimum `solve_bnb` returns, not for its search tree."""
    if not inst.requests:
        return _finish(inst, set(), 1, "bnb")
    if violated_request(inst.host, inst.requests) is not None:
        return _infeasible("bnb")
    host = inst.host
    arcs = sorted(host.arcs())
    weights = host.arcs()
    requests = inst.sorted_requests()
    scale = 1
    for w in weights.values():
        scale = scale * w.denominator // math.gcd(scale, w.denominator)
    iw = {a: int(w * scale) for a, w in weights.items()}
    adj = {v: [] for v in host.vertices}
    for (u, v), w in iw.items():
        adj[u].append((v, w))
    best_cost = None
    best_arcs = None
    nodes = 0

    def unsatisfied(included):
        out_map = {}
        for u, v in included:
            out_map.setdefault(u, []).append(v)
        missing = []
        for s, t in requests:
            seen = {s}
            stack = [s]
            hit = False
            while stack:
                u = stack.pop()
                if u == t:
                    hit = True
                    break
                for v in out_map.get(u, ()):
                    if v not in seen:
                        seen.add(v)
                        stack.append(v)
            if not hit:
                missing.append((s, t))
        return missing

    def path_bound(s, t, included, excluded):
        dist = {s: 0}
        heap = [(0, s)]
        while heap:
            d, u = heapq.heappop(heap)
            if u == t:
                return d
            if d > dist.get(u, d):
                continue
            for v, w in adj[u]:
                if (u, v) in excluded:
                    continue
                nd = d if (u, v) in included else d + w
                if v not in dist or nd < dist[v]:
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
        return None

    def go(idx, included, excluded, inc_cost):
        nonlocal best_cost, best_arcs, nodes
        nodes += 1
        missing = unsatisfied(included)
        if not missing:
            if best_cost is None or inc_cost < best_cost:
                best_cost = inc_cost
                best_arcs = included
            return
        worst = 0
        for s, t in missing:
            d = path_bound(s, t, included, excluded)
            if d is None:
                return
            worst = max(worst, d)
        if best_cost is not None and inc_cost + worst >= best_cost:
            return
        if idx == len(arcs):
            return
        arc = arcs[idx]
        go(idx + 1, included | {arc}, excluded, inc_cost + iw[arc])
        go(idx + 1, included, excluded | {arc}, inc_cost)

    go(0, frozenset(), frozenset(), 0)
    if best_arcs is None:
        return _infeasible("bnb", nodes)
    return _finish(inst, set(best_arcs), nodes, "bnb")


def solve_dst_all_pairs(inst):
    """The all-pairs dynamic program that `solve_dst` replaced: shortest
    paths between every vertex pair, a walk-then-split choice per (subset,
    vertex) state and a recursive witness.  Reference for the optimum and for
    its tie-breaking: the smallest split vertex, the cheapest path to it with
    the lexicographically smallest vertex sequence, the first best split."""
    r = dst_root(inst)
    leaves = sorted(t for _, t in inst.requests)
    if len(leaves) > solvers.DST_MAX_LEAVES:
        raise CapacityError(f"{len(leaves)} leaves; out-star cap is {solvers.DST_MAX_LEAVES}")
    if violated_request(inst.host, inst.requests) is not None:
        return _infeasible("dst")
    host = inst.host
    verts = list(host.vertices)
    sp = {}
    for v in verts:
        for u in verts:
            found = shortest_path(host, v, u)
            if found is not None:
                sp[(v, u)] = found

    bit = {t: 1 << i for i, t in enumerate(leaves)}
    full = (1 << len(leaves)) - 1
    f = [dict() for _ in range(full + 1)]
    choice = [dict() for _ in range(full + 1)]
    nodes = 0

    for t in leaves:
        S = bit[t]
        for v in verts:
            if (v, t) in sp:
                f[S][v] = sp[(v, t)][1]
                choice[S][v] = ("leaf", t)

    masks = sorted(range(1, full + 1), key=lambda m: (bin(m).count("1"), m))
    for S in masks:
        if bin(S).count("1") < 2:
            continue
        low = S & (-S)
        local = {}
        for u in verts:
            best = None
            S1 = (S - 1) & S
            while S1 > 0:
                if S1 & low:
                    S2 = S ^ S1
                    if u in f[S1] and u in f[S2]:
                        val = f[S1][u] + f[S2][u]
                        if best is None or val < best[0]:
                            best = (val, ("split", u, S1, S2))
                S1 = (S1 - 1) & S
            if best is not None:
                local[u] = best
        for v in verts:
            best = None
            for u in verts:
                nodes += 1
                if u not in local or (v, u) not in sp:
                    continue
                val = sp[(v, u)][1] + local[u][0]
                if best is None or val < best[0]:
                    best = (val, ("walk", u, local[u][1]))
            if best is not None:
                f[S][v] = best[0]
                choice[S][v] = best[1]

    if r not in f[full]:
        return _infeasible("dst", nodes)

    arcs = set()

    def build(S, v):
        ch = choice[S][v]
        if ch[0] == "leaf":
            arcs.update(sp[(v, ch[1])][0].arcs())
        else:
            _, u, (_, _, S1, S2) = ch
            arcs.update(sp[(v, u)][0].arcs())
            build(S1, u)
            build(S2, u)

    build(full, r)
    result = _finish(inst, arcs, nodes, "dst")
    assert result.cost == f[full][r]
    return result


def solve_path_union_recursive(inst):
    """The recursive path-union search that `_solve_path_union` replaced: one
    call per request level, Fraction costs and pruning on the cost chosen so
    far only.  Reference for the optimum and for its tie-breaking: the first
    optimal leaf in DFS order, paths cheapest first, then by vertices."""
    if not inst.requests:
        return _finish(inst, set(), 1, "exhaustive")
    if violated_request(inst.host, inst.requests) is not None:
        return _infeasible("exhaustive")
    weights = inst.host.arcs()
    per_request = []
    for s, t in inst.sorted_requests():
        paths = all_simple_paths(inst.host, s, t)
        paths.sort(key=lambda p: (sum(weights[a] for a in p.arcs()), p.vertices))
        per_request.append(paths)
    best_cost = None
    best_arcs = None
    nodes = 0

    def go(i, chosen, cost):
        nonlocal best_cost, best_arcs, nodes
        nodes += 1
        if best_cost is not None and cost >= best_cost:
            return
        if i == len(per_request):
            best_cost = cost
            best_arcs = set(chosen)
            return
        for path in per_request[i]:
            extra = [a for a in path.arcs() if a not in chosen]
            add = sum((weights[a] for a in extra), Fraction(0))
            if best_cost is not None and cost + add >= best_cost:
                continue
            chosen.update(extra)
            go(i + 1, chosen, cost + add)
            chosen.difference_update(extra)

    go(0, set(), Fraction(0))
    if best_arcs is None:
        return _infeasible("exhaustive", nodes)
    return _finish(inst, best_arcs, nodes, "exhaustive")


def optimum_outcome(result):
    return result.feasible, result.cost, sorted(result.optimum.arcs) if result.optimum else None


def search_outcome(result):
    return optimum_outcome(result), result.node_count


def with_fractional_weights(inst, seed):
    rng = random.Random(seed)
    arcs = {a: Fraction(rng.randint(1, 9), rng.randint(1, 4)) for a in sorted(inst.host.arcs())}
    return DsnInstance(WeightedDigraph(inst.host.vertices, arcs), inst.requests)


def reference_corpus():
    out = []
    for seed in range(12):
        rng = random.Random(seed)
        n = rng.randint(3, 8)
        m = rng.randint(1, min(16, n * (n - 1)))
        q = rng.randint(2, n)
        inst, _ = gen_random(n, m, q, rng.randint(1, min(4, q * (q - 1))), seed)
        out += [inst, with_fractional_weights(inst, seed)]
    for seed in range(3):
        out.append(gen_grid(2, 4, q=3, seed=seed)[0])
        out.append(gen_grid(3, 3, q=3, seed=seed)[0])
    # infeasible: nothing reaches 2
    out.append(DsnInstance(WeightedDigraph(range(3), {(0, 1): 1, (2, 0): 1}), {(0, 2)}))
    # excluding the bridge 0->1 or 1->2 leaves a request unreachable
    bridges = {(0, 1): 2, (1, 2): 1, (1, 3): 1, (3, 2): 1, (2, 4): 3, (3, 4): 5}
    out.append(DsnInstance(WeightedDigraph(range(5), bridges), {(0, 2), (0, 4), (1, 4)}))
    return out


REFERENCE_CORPUS = reference_corpus()


class TestExhaustive:
    def test_direct_arc_beats_detour(self):
        g = WeightedDigraph(range(3), {(0, 1): 1, (0, 2): 1, (2, 1): 1})
        r = solve_exhaustive(DsnInstance(g, {(0, 1)}))
        assert r.cost == 1 and r.optimum.arcs == frozenset({(0, 1)})

    def test_infeasible_is_result_not_error(self):
        g = WeightedDigraph(range(3), {(1, 0): 1})
        r = solve_exhaustive(DsnInstance(g, {(0, 2)}))
        assert not r.feasible and r.optimum is None and r.cost is None

    def test_triangle_scss(self, triangle_scss):
        """[DERIVED: full subset enumeration]"""
        r = solve_exhaustive(triangle_scss)
        s = _solve_subset_scan(triangle_scss)
        assert r.cost == s.cost == 3

    def test_capacity_cap(self):
        n = 6
        g = WeightedDigraph(range(n), {(u, v): 1 for u in range(n) for v in range(n) if u != v})
        with pytest.raises(CapacityError):
            solve_exhaustive(DsnInstance(g, {(0, 1)}))

    def test_matches_subset_scan_on_tiny_hosts(self):
        checked = 0
        seed = 900
        while checked < 30:
            inst = random_instance(seed, n_range=(3, 5), max_requests=3, max_arcs=12)
            seed += 1
            if inst is None:
                continue
            a = solve_exhaustive(inst)
            b = _solve_subset_scan(inst)
            assert a.feasible == b.feasible
            if a.feasible:
                assert a.cost == b.cost
            checked += 1


HARDNESS_CORPUS = [
    generate_hardness_instance(random_psi_host(pattern, seed)).dsn
    for pattern in (K4, K33, CUBE)
    for seed in range(8)
]


class TestPathUnion:
    @pytest.mark.parametrize(
        "inst",
        REFERENCE_CORPUS
        + [with_fractional_weights(inst, seed) for seed, inst in enumerate(REFERENCE_CORPUS)]
        + HARDNESS_CORPUS,
    )
    def test_matches_recursive_reference(self, inst):
        assert optimum_outcome(_solve_path_union(inst)) == optimum_outcome(solve_path_union_recursive(inst))

    @settings(max_examples=60, deadline=None)
    @given(g=digraphs(max_n=6), data=st.data())
    def test_matches_recursive_reference_on_random_digraphs(self, g, data):
        pairs = [(s, t) for s in range(g.n) for t in range(g.n) if s != t]
        requests = data.draw(st.sets(st.sampled_from(pairs), min_size=1, max_size=4))
        inst = DsnInstance(g, requests)
        assert optimum_outcome(_solve_path_union(inst)) == optimum_outcome(solve_path_union_recursive(inst))

    @settings(max_examples=60, deadline=None)
    @given(g=digraphs(max_n=6, max_den=3), data=st.data())
    def test_lazy_bound_matches_the_eager_search_on_random_digraphs(self, g, data):
        # Same arcs, cost and nodes: the pruning decisions are the same.
        pairs = [(s, t) for s in range(g.n) for t in range(g.n) if s != t]
        requests = data.draw(st.sets(st.sampled_from(pairs), min_size=1, max_size=4))
        inst = DsnInstance(g, requests)
        assert search_outcome(_solve_path_union(inst)) == search_outcome(solve_path_union_eager(inst))

    @pytest.mark.parametrize("seed", range(16))
    @pytest.mark.parametrize("pattern", [K4, K33, CUBE], ids=["K4", "K33", "cube"])
    def test_lazy_bound_matches_the_eager_search_on_hardness_instances(self, pattern, seed):
        inst = generate_hardness_instance(random_psi_host(pattern, seed)).dsn
        assert search_outcome(_solve_path_union(inst)) == search_outcome(solve_path_union_eager(inst))

    def test_shared_arc_bound_cuts_the_tail(self):
        # The reference visits 23,538 nodes; the optimum equals the threshold.
        out = generate_hardness_instance(random_psi_host(K4, 0))
        r = _solve_path_union(out.dsn)
        assert r.cost == out.threshold and r.node_count <= 500

    def test_infeasible_instance_is_rejected_before_compiling(self, monkeypatch):
        calls = []
        monkeypatch.setattr(solvers, "_IntHost", lambda host: calls.append("_IntHost"))
        monkeypatch.setattr(solvers, "_request_paths", lambda inst, host, back: calls.append("_request_paths"))
        g = WeightedDigraph(range(4), {(0, 1): 1, (1, 2): 1, (3, 2): 1})
        r = _solve_path_union(DsnInstance(g, {(0, 2), (0, 3)}))
        assert (r.feasible, r.node_count, r.method) == (False, 0, "exhaustive")
        assert calls == []

    def test_reachable_request_without_paths_raises(self, monkeypatch):
        # Every request is reachable, so an empty path list is a bug in the
        # path enumeration, not an infeasible instance.
        monkeypatch.setattr(solvers, "_request_paths", lambda inst, host, back: [[] for _ in inst.requests])
        g = WeightedDigraph(range(3), {(0, 1): 1, (1, 2): 1})
        with pytest.raises(InvariantError, match="has no simple path"):
            _solve_path_union(DsnInstance(g, {(0, 2)}))

    def test_path_longer_than_the_recursion_limit(self):
        m = sys.getrecursionlimit() + 1
        g = WeightedDigraph(range(m + 1), {(i, i + 1): 1 for i in range(m)})
        r = _solve_path_union(DsnInstance(g, {(0, m)}))
        assert r.feasible and r.cost == m and len(r.optimum.arcs) == m


class TestBranchAndBound:
    def test_empty_requests(self, triangle_scss):
        r = solve_bnb(DsnInstance(triangle_scss.host, set()))
        assert r.feasible and r.cost == 0 and not r.optimum.arcs

    def test_shared_arc_counted_once(self):
        # both requests funnel through the bridge 2->3; optimum is cheaper
        # than the sum of the two separate shortest paths
        g = WeightedDigraph(
            range(5),
            {(0, 2): 1, (1, 2): 1, (2, 3): 10, (3, 4): 1},
        )
        inst = DsnInstance(g, {(0, 4), (1, 4)})
        r = solve_bnb(inst)
        assert r.cost == 13
        sp_sum = 12 + 12
        assert r.cost < sp_sum

    def test_result_minimal_and_valid(self):
        """Every engine's optimum as returned; `_finish` does not minimize it."""
        corpus = random_instances(20, base_seed=50)
        cases = [(solve_bnb, inst) for inst in corpus] + [(solve_exhaustive, inst) for inst in corpus]
        cases += [(solve_dst, out_star(seed, kind, 1 + seed % 4)) for seed in range(10) for kind in OUT_STAR_KINDS]
        cases += [
            (_solve_path_union, generate_hardness_instance(random_psi_host(pattern, seed)).dsn)
            for pattern in (K4, K33)
            for seed in (1, 2, 3)
        ]
        for solve, inst in cases:
            r = solve(inst)
            if r.feasible:
                assert validate(inst, r.optimum) is None
                assert is_inclusion_minimal(inst, r.optimum)


    # The reference branches on arcs by ascending id, so its node counts
    # differ by design; the optimum it returns must not.
    @pytest.mark.parametrize("inst", REFERENCE_CORPUS)
    def test_matches_recursive_reference(self, inst):
        assert optimum_outcome(solve_bnb(inst)) == optimum_outcome(solve_bnb_recursive(inst))

    @settings(max_examples=60, deadline=None)
    @given(g=digraphs(max_n=6), data=st.data())
    def test_matches_recursive_reference_on_random_digraphs(self, g, data):
        pairs = [(s, t) for s in range(g.n) for t in range(g.n) if s != t]
        requests = data.draw(st.sets(st.sampled_from(pairs), min_size=1, max_size=4))
        inst = DsnInstance(g, requests)
        assert optimum_outcome(solve_bnb(inst)) == optimum_outcome(solve_bnb_recursive(inst))

    def test_matches_recursive_reference_on_generated_instances(self):
        nodes = 0
        for seed in range(100):
            inst, _ = gen_random(8, 20, 4, 3, seed=seed)
            r = solve_bnb(inst)
            assert optimum_outcome(r) == optimum_outcome(solve_bnb_recursive(inst)), seed
            nodes += r.node_count
        # Node counts here and in test_grid_node_counts were recorded before
        # the head-distance reuse rule: it keeps every bound a Dijkstra rerun
        # would give, and on these instances every branch as well.
        assert nodes == 1_629

    @settings(max_examples=60, deadline=None)
    @given(g=digraphs(max_n=6), data=st.data())
    def test_matches_recursive_reference_with_mixed_denominators(self, g, data):
        weights = st.builds(Fraction, st.integers(1, 9), st.sampled_from([1, 2, 3, 4, 6]))
        host = WeightedDigraph(range(g.n), {a: data.draw(weights) for a in sorted(g.arcs())})
        pairs = [(s, t) for s in range(g.n) for t in range(g.n) if s != t]
        inst = DsnInstance(host, data.draw(st.sets(st.sampled_from(pairs), min_size=1, max_size=4)))
        assert optimum_outcome(solve_bnb(inst)) == optimum_outcome(solve_bnb_recursive(inst))

    def test_heap_pops_are_pinned(self, monkeypatch):
        # The reuse rules set the Dijkstra work: rerunning at every include
        # child whose arc's tail was settled before t pops 167,408 entries
        # on this grid, and reusing the bound when the head was settled no
        # farther than the tail cuts that to 109,706 (129,575 if only nearer).
        # Stopping each rerun once a pop exceeds the incumbent's slack, and
        # pruning a child whose kept bound exceeds it, cuts that to 95,538
        # with the same nodes.
        pops = [0]

        def heappop(heap):
            pops[0] += 1
            return heapq.heappop(heap)

        monkeypatch.setattr(solvers, "heapq", SimpleNamespace(heappop=heappop, heappush=heapq.heappush))
        assert solve_bnb(gen_grid(4, 4, q=3, seed=0)[0]).node_count == 12_201
        assert pops == [95_538]

    @pytest.mark.parametrize("q, cost, nodes", [(2, 6, 63), (3, 10, 12_201), (4, 12, 40_931)])
    def test_grid_node_counts(self, q, cost, nodes):
        r = solve_bnb(gen_grid(4, 4, q=q, seed=0)[0])
        assert r.cost == cost and r.node_count == nodes

    def test_equal_cost_optima_keep_the_lexicographically_greatest(self):
        # 0->2 and 0->1->2 both cost 2.  Over the sorted arcs (0,1), (0,2),
        # (1,2) their indicator vectors are 010 and 101; Dijkstra records the
        # direct arc first, so the tie-break has to replace that leaf.
        g = WeightedDigraph(range(3), {(0, 1): 1, (0, 2): 2, (1, 2): 1})
        inst = DsnInstance(g, {(0, 2)})
        r = solve_bnb(inst)
        assert r.cost == 2 and sorted(r.optimum.arcs) == [(0, 1), (1, 2)]
        assert optimum_outcome(r) == optimum_outcome(solve_bnb_recursive(inst))

    def test_equal_bound_that_cannot_win_the_tie_is_pruned(self):
        # A bidirected 2x4 grid with many equal-cost optima: pruning only
        # bounds above the incumbent took 141 nodes here, and 135 when arcs
        # excluded below the lowest lost incumbent arc still kept a node.
        inst = gen_grid(2, 4, q=4, seed=18)[0]
        r = solve_bnb(inst)
        assert r.cost == 6 and r.node_count == 129
        assert optimum_outcome(r) == optimum_outcome(solve_bnb_recursive(inst))

    def test_excluded_arc_that_is_not_a_bridge(self):
        # Request 0->t records the path 0->1->3->4->...->t, whose chain arcs
        # are forced at the root.  The root's exclude child drops 0->1, which
        # has a detour through 2.  The optimum takes it, sharing 2->1 with
        # request 2->1.
        t = 8
        arcs = {(0, 1): 2, (0, 2): 1, (2, 1): 2, (1, 3): 1}
        arcs.update({(v, v + 1): 1 for v in range(3, t)})
        inst = DsnInstance(WeightedDigraph(range(t + 1), arcs), {(0, t), (2, 1)})
        r = solve_bnb(inst)
        assert r.cost == t + 1 and (0, 1) not in r.optimum.arcs
        assert optimum_outcome(r) == optimum_outcome(solve_bnb_recursive(inst))

    def test_path_longer_than_the_recursion_limit(self):
        m = sys.getrecursionlimit() + 1
        g = WeightedDigraph(range(m + 1), {(i, i + 1): 1 for i in range(m)})
        r = solve_bnb(DsnInstance(g, {(0, m)}))
        assert r.feasible and r.cost == m and len(r.optimum.arcs) == m

    @pytest.mark.parametrize(
        "shape,n,identified",
        [("terminals", n, identified) for n, identified in [(3, ()), (6, ()), (7, (2,)), (9, ()), (10, {1, 5}), (13, {13})]]
        + [("corners", n, identified) for n in (2, 5, 8) for identified in ((), (1,), (n // 2 + 1,))],
    )
    def test_ladder_is_solved_at_the_root(self, shape, n, identified, monkeypatch):
        # Every arc of a ladder, with terminals or with its corner requests,
        # lies on every path of a request, so the root is the only leaf and
        # the host is never compiled.
        inst = ladder_with_terminals(n, identified) if shape == "terminals" else gen_ladder(n, identified)[0]
        monkeypatch.setattr(solvers, "_IntHost", lambda host: pytest.fail("_IntHost built for a fully forced host"))
        r = solve_bnb(inst)
        monkeypatch.undo()
        assert r.node_count == 1 and r.optimum.arcs == frozenset(inst.host.arcs())
        reference = solve_exhaustive if inst.host.m <= solvers.EXHAUSTIVE_MAX_ARCS else solve_bnb_recursive
        assert optimum_outcome(r) == optimum_outcome(reference(inst))

    def test_long_path_is_linear(self):
        # Every arc of a path is forced at the root, so the search ends there;
        # branching on its arcs one by one made this path take seconds.
        m = 4_800
        g = WeightedDigraph(range(m + 1), {(i, i + 1): 1 for i in range(m)})
        start = time.perf_counter()
        r = solve_bnb(DsnInstance(g, {(0, m)}))
        assert r.cost == m and r.node_count == 1
        assert time.perf_counter() - start < 1.0


def request_paths(inst):
    """`_request_paths` given the backward searches that `_solve_path_union`
    runs, one per distinct target."""
    back = {t: search(inst.host, t, reverse=True) for _, t in inst.requests}
    return solvers._request_paths(inst, solvers._IntHost(inst.host), back)


def path_arcs(per_request):
    """The arcs of each (cost, arcs, mask) that `_request_paths` returns."""
    return [[path for _, path, _ in paths] for paths in per_request]


class TestRequestPaths:
    @settings(max_examples=60, deadline=None)
    @given(g=digraphs(), data=st.data())
    def test_matches_recursive_dfs(self, g, data):
        """[DERIVED: one recursive walk per request, sorted by cost and vertices]"""
        pairs = [(s, t) for s in range(g.n) for t in range(g.n) if s != t]
        inst = DsnInstance(g, data.draw(st.sets(st.sampled_from(pairs), min_size=1, max_size=5)))
        host = solvers._IntHost(g)
        bit = {a: (1 << i, w) for i, (a, w) in enumerate(zip(host.arcs, host.weights))}

        def walk(seq, t, out):
            if seq[-1] == t:
                out.append(tuple(seq))
                return
            for v in g.out_neighbors(seq[-1]):
                if v not in seq:
                    walk(seq + [v], t, out)

        expected = []
        for s, t in inst.sorted_requests():
            walks = []
            walk([s], t, walks)
            paths = [tuple(bit[a] for a in zip(seq, seq[1:])) for seq in walks]
            keyed = sorted(zip(walks, paths), key=lambda k: (sum(w for _, w in k[1]), k[0]))
            # Each path with its cost and mask, summed over the walk's own arcs.
            expected.append([(sum(w for _, w in path), path, sum(b for b, _ in path)) for _, path in keyed])
        assert request_paths(inst) == expected

    def test_source_with_several_targets(self):
        # Arc bits: (0, 1) 1, (0, 2) 2, (1, 2) 4, (2, 3) 8; the paths to 3
        # pass the targets 1 and 2.
        g = WeightedDigraph(range(4), {(0, 1): 1, (0, 2): 3, (1, 2): 1, (2, 3): 1})
        inst = DsnInstance(g, {(0, 1), (0, 2), (0, 3)})
        assert path_arcs(request_paths(inst)) == [
            [((1, 1),)],
            [((1, 1), (4, 1)), ((2, 3),)],
            [((1, 1), (4, 1), (8, 1)), ((2, 3), (8, 1))],
        ]

    def test_no_path_enters_a_region_that_reaches_no_target(self):
        # Request 0->1 has the direct arc, and 0->2 leads into a bidirected
        # 6x6 grid that cannot reach 1, whose simple paths are too many to
        # walk within the time limit.
        k = 6
        grid = gen_grid(k, k, q=2, seed=0)[0].host
        arcs = {(u + 2, v + 2): w for (u, v), w in grid.arcs().items()}
        arcs.update({(0, 1): 1, (0, 2): 1})
        inst = DsnInstance(WeightedDigraph(range(k * k + 2), arcs), {(0, 1)})
        start = time.perf_counter()
        r = _solve_path_union(inst)
        assert time.perf_counter() - start < 1.0
        assert r.cost == 1 and r.optimum.arcs == {(0, 1)}

    def test_unreachable_request(self):
        g = WeightedDigraph(range(4), {(0, 1): 1, (1, 2): 1, (3, 2): 1})
        inst = DsnInstance(g, {(0, 2), (0, 3)})
        assert path_arcs(request_paths(inst)) == [[((1, 1), (2, 1))], []]
        r = solve_exhaustive(inst)
        assert not r.feasible and r.node_count == 0


class TestIntHost:
    def test_arcs_bits_lists_and_scaled_weights(self):
        g = WeightedDigraph(range(4), {(2, 0): Fraction(1, 2), (0, 3): 2, (0, 1): Fraction(1, 3), (1, 0): 2})
        host = solvers._IntHost(g)
        assert host.arcs == [(0, 1), (0, 3), (1, 0), (2, 0)]
        assert host.scale == 6 and host.weights == [2, 12, 12, 3]
        assert host.out == {0: [(1, 2, 1), (3, 12, 2)], 1: [(0, 12, 4)], 2: [(0, 3, 8)], 3: []}
        assert host.inn == {0: [(1, 12, 4), (2, 3, 8)], 1: [(0, 2, 1)], 2: [], 3: [(0, 12, 2)]}
        assert host.decode(0b1010) == {(0, 3), (2, 0)} and host.decode(0) == set()


class TestDst:
    def test_two_terminals_is_shortest_path(self):
        g = WeightedDigraph(range(4), {(0, 1): 2, (1, 3): 2, (0, 2): 1, (2, 3): 7})
        r = solve_dst(DsnInstance(g, {(0, 3)}))
        assert r.cost == 4

    def test_shared_prefix_counted_once(self):
        """[DERIVED: compare against exhaustive on a 7-vertex instance]"""
        g = WeightedDigraph(range(7), {(0, 1): 5, (1, 2): 1, (1, 3): 1, (4, 5): 1})
        inst = DsnInstance(g, {(0, 2), (0, 3)})
        r = solve_dst(inst)
        e = solve_exhaustive(inst)
        assert r.cost == e.cost == 7

    def test_rejects_non_out_star(self, triangle_scss):
        with pytest.raises(DomainError, match="solve_bnb"):
            solve_dst(triangle_scss)
        with pytest.raises(DomainError):
            dst_root(DsnInstance(triangle_scss.host, {(0, 1), (1, 0)}))

    def test_root_detection(self):
        g = WeightedDigraph(range(4), {(0, 1): 1, (0, 2): 1, (0, 3): 1})
        assert dst_root(DsnInstance(g, {(0, 1), (0, 2), (0, 3)})) == 0

    def test_infeasible(self):
        g = WeightedDigraph(range(3), {(0, 1): 1})
        r = solve_dst(DsnInstance(g, {(0, 1), (0, 2)}))
        assert not r.feasible

    def test_feasibility_check_reads_the_normalized_requests(self):
        feasible = DsnInstance(WeightedDigraph(range(3), {(0, 1): 1, (0, 2): 2}), {(0, 1), (0, 2)})
        infeasible = DsnInstance(WeightedDigraph(range(3), {(0, 1): 1}), {(0, 1), (0, 2)})
        with pytest.MonkeyPatch.context() as m:
            m.setattr(dsn, "_normalize_requests_arg", None)
            assert solve_dst(feasible).cost == 3
            assert not solve_dst(infeasible).feasible

    def test_matches_all_pairs_reference(self):
        """630 seeded out-stars: integer, fractional and unit weights on
        random digraphs and unit-weight grids, 1 to 6 leaves each."""
        feasible = 0
        for seed in range(630):
            inst = out_star(seed, OUT_STAR_KINDS[seed % 4], 1 + seed // 4 % 6)
            got = solve_dst(inst)
            assert optimum_outcome(got) == optimum_outcome(solve_dst_all_pairs(inst)), seed
            feasible += got.feasible
        assert feasible >= 400

    @settings(max_examples=60, deadline=None)
    @given(g=digraphs(max_n=7), data=st.data())
    def test_matches_all_pairs_reference_on_random_digraphs(self, g, data):
        root = data.draw(st.sampled_from(g.vertices))
        others = [v for v in g.vertices if v != root]
        leaves = data.draw(st.sets(st.sampled_from(others), min_size=1, max_size=4))
        inst = DsnInstance(g, {(root, t) for t in leaves})
        assert optimum_outcome(solve_dst(inst)) == optimum_outcome(solve_dst_all_pairs(inst))

    def test_path_longer_than_the_recursion_limit(self):
        m = sys.getrecursionlimit() + 1
        g = WeightedDigraph(range(m + 1), {(i, i + 1): 1 for i in range(m)})
        r = solve_dst(DsnInstance(g, {(0, m)}))
        assert r.feasible and r.cost == m and len(r.optimum.arcs) == m


class TestProperties:
    def test_arc_addition_never_raises_cost(self):
        base = WeightedDigraph(range(4), {(0, 1): 3, (1, 2): 3})
        inst = DsnInstance(base, {(0, 2)})
        before = solve_exhaustive(inst).cost
        richer = WeightedDigraph(range(4), {(0, 1): 3, (1, 2): 3, (0, 3): 1, (3, 2): 1})
        after = solve_exhaustive(DsnInstance(richer, {(0, 2)})).cost
        assert after <= before

    def test_request_addition_never_lowers_cost(self):
        for inst in random_instances(15, base_seed=777):
            reqs = sorted(inst.requests)
            if len(reqs) < 2:
                continue
            sub = DsnInstance(inst.host, set(reqs[:-1]))
            a = solve_exhaustive(sub)
            b = solve_exhaustive(inst)
            if a.feasible and b.feasible:
                assert a.cost <= b.cost
            if not a.feasible:
                assert not b.feasible

    def test_reverse_symmetry_of_optimum(self):
        from dsnkit.dsn import reverse_instance

        for inst in random_instances(25, base_seed=123):
            a = solve_exhaustive(inst)
            b = solve_exhaustive(reverse_instance(inst))
            assert a.feasible == b.feasible
            if a.feasible:
                assert a.cost == b.cost


class TestCertificateWrapper:
    def test_one_request_treewidth_one(self):
        g = WeightedDigraph(range(4), {(0, 1): 1, (1, 2): 1, (2, 3): 1})
        result, rep = solve_with_certificate(DsnInstance(g, {(0, 3)}))
        assert result.feasible
        assert rep.tw_before == 1

    def test_grid_scss_bounds(self):
        """[DERIVED: exact treewidth oracle] planar grid, q = 3"""
        from conftest import random_instances
        from dsnkit.generators import gen_grid

        inst, _ = gen_grid(3, 3, q=3, seed=1)
        result, rep = solve_with_certificate(inst)
        assert result.feasible
        assert rep.tw_before <= 3
        assert rep.certificate_json(0)["treewidth_per_terminal"] <= 1

    @pytest.mark.parametrize("n,identified", [(8, ()), (13, (6,))])
    def test_ladder_walks_the_host_once_and_copies_no_graph(self, n, identified, monkeypatch):
        # The optimum is the whole host, so its graph is the host, and the
        # pipeline's minimality check reads the forced arcs bnb found.
        inst = ladder_with_terminals(n, identified)
        walked, built = [], []
        walk, init = graphs._necessary_arcs, WeightedDigraph.__init__

        def counted_walk(g, requests):
            walked.append(g)
            return walk(g, requests)

        def counted_init(g, *args):
            init(g, *args)
            built.append(g)

        monkeypatch.setattr(graphs, "_necessary_arcs", counted_walk)
        monkeypatch.setattr(WeightedDigraph, "__init__", counted_init)
        result, rep = solve_with_certificate(inst)
        monkeypatch.undo()
        assert result.method == "bnb" and result.optimum.as_graph() is inst.host
        assert [g for g in walked if g == inst.host] == [inst.host]
        assert not [g for g in built if g == inst.host]
        assert rep.replacements >= 1

    def test_reverse_request_path_reuses_the_segment_walk(self, monkeypatch):
        """In the second round both request paths find the one ladder segment,
        with roles (a, b, c, d) and (c, d, a, b): one segment graph and one
        request set, so one walk.  The walks are the host's (bnb's, which the
        pipeline's minimality check reads), round 1's segment, the
        replacement's check and round 2's segment."""
        walked = []
        walk = graphs._necessary_arcs
        monkeypatch.setattr(graphs, "_necessary_arcs", lambda g, requests: walked.append(g) or walk(g, requests))
        _, rep = solve_with_certificate(ladder_with_terminals(10))
        assert rep.rounds == 2 and rep.replacements == 1
        assert len(walked) == 4

    def test_infeasible_has_no_certificate(self):
        g = WeightedDigraph(range(3), {(0, 1): 1})
        result, rep = solve_with_certificate(DsnInstance(g, {(0, 2)}))
        assert not result.feasible and rep is None

    def test_unknown_engine(self):
        g = WeightedDigraph(range(2), {(0, 1): 1})
        with pytest.raises(DomainError, match="unknown engine 'simplex'"):
            solve_with_certificate(DsnInstance(g, {(0, 1)}), engine="simplex")

    @pytest.mark.parametrize("dense", [False, True], ids=["15-arcs", "182-arcs"])
    @pytest.mark.parametrize(
        "requests",
        [
            set(),
            {(0, 1)},
            {(0, t) for t in range(1, 13)},
            {(0, t) for t in range(1, 14)},
            {(0, 1), (1, 2)},
            {(1, 2), (2, 1)},
        ],
        ids=["empty", "one-request", "12-leaves", "13-leaves", "two-sources", "cycle"],
    )
    def test_auto_engine_choice(self, requests, dense, monkeypatch):
        """[DERIVED: dst for an out-star with at most DST_MAX_LEAVES leaves,
        else exhaustive up to EXHAUSTIVE_MAX_ARCS arcs, else bnb]  Each
        engine is stubbed to report its name, so nothing is solved."""
        stubs = {name: lambda inst, name=name: _infeasible(name) for name in solvers.ENGINES}
        monkeypatch.setattr(solvers, "ENGINES", stubs)
        if dense:
            arcs = {(u, v): 1 for u in range(14) for v in range(14) if u != v}
        else:
            arcs = {**{(0, v): 1 for v in range(1, 14)}, (1, 2): 1, (2, 1): 1}
        inst = DsnInstance(WeightedDigraph(range(14), arcs), requests)
        try:
            dst_root(inst)
            star = len(inst.requests) <= solvers.DST_MAX_LEAVES
        except DomainError:
            star = False
        expected = "dst" if star else "exhaustive" if inst.host.m <= solvers.EXHAUSTIVE_MAX_ARCS else "bnb"
        assert solve_with_certificate(inst)[0].method == expected


class TestTerminalsEndArcs:
    @settings(max_examples=80, deadline=None)
    @given(g=digraphs(max_n=6), data=st.data())
    def test_feasible_optimum_holds_every_terminal(self, g, data):
        """Every request joins two distinct terminals, so each terminal ends
        an arc of a valid solution and lies in the optimum's graph."""
        if data.draw(st.booleans(), label="out-star"):
            root = data.draw(st.sampled_from(g.vertices))
            leaves = data.draw(st.sets(st.sampled_from([v for v in g.vertices if v != root]), min_size=1, max_size=4))
            inst = DsnInstance(g, {(root, t) for t in leaves})
            engines = [solve_bnb, solve_dst]
        else:
            pairs = [(s, t) for s in g.vertices for t in g.vertices if s != t]
            inst = DsnInstance(g, data.draw(st.sets(st.sampled_from(pairs), min_size=1, max_size=4)))
            engines = [solve_bnb]
        if g.m <= solvers.EXHAUSTIVE_MAX_ARCS:
            engines.append(solve_exhaustive)
        for engine in engines:
            result = engine(inst)
            if result.feasible:
                assert set(inst.terminals) <= set(result.optimum.as_graph().vertices), engine.__name__


class TestSelfChecks:
    """These are `InvariantError`s, not asserts, so they also run under -O."""

    def test_invalid_witness_raises(self, triangle_scss, monkeypatch):
        monkeypatch.setattr(solvers, "validate", lambda inst, sol: (0, 1))
        with pytest.raises(InvariantError):
            solve_exhaustive(triangle_scss)

    def test_bnb_branch_without_an_undecided_arc_raises(self, unsound_bnb_bound):
        # Without the check, the search would branch on no arc forever.
        with pytest.raises(InvariantError, match="no undecided arc"):
            solve_bnb(unsound_bnb_bound)

    def test_dst_cost_disagreement_raises(self, monkeypatch):
        g = WeightedDigraph(range(3), {(0, 1): 1, (0, 2): 1})
        finish = solvers._finish

        def off_by_one(inst, arcs, nodes, method):
            result = finish(inst, arcs, nodes, method)
            return result._replace(cost=result.cost + 1)

        monkeypatch.setattr(solvers, "_finish", off_by_one)
        with pytest.raises(InvariantError, match="witness cost"):
            solve_dst(DsnInstance(g, {(0, 1), (0, 2)}))

    def test_result_violating_a_request_raises(self):
        g = WeightedDigraph(range(3), {(0, 1): 1, (1, 2): 1})
        with pytest.raises(InvariantError, match="x solution violates request 0->2"):
            _finish(DsnInstance(g, {(0, 2)}), set(), 0, "x")

    def test_finish_returns_the_arcs_it_was_given(self):
        # (0, 2) and (2, 1) are redundant next to (0, 1); minimizing would drop them
        g = WeightedDigraph(range(4), {(0, 1): 1, (0, 2): 3, (2, 1): 3, (1, 3): 1})
        inst = DsnInstance(g, {(0, 1)})
        r = _finish(inst, set(g.arcs()) - {(1, 3)}, 5, "x")
        assert r.optimum.arcs == frozenset({(0, 1), (0, 2), (2, 1)})
        assert r.cost == 7 and r.node_count == 5 and r.method == "x"

    def test_no_solve_path_minimizes(self, monkeypatch):
        calls = []
        minimize_graph = dsn.minimize_graph

        def counted(graph, requests):
            calls.append(graph)
            return minimize_graph(graph, requests)

        monkeypatch.setattr(dsn, "minimize_graph", counted)
        for inst in random_instances(5, base_seed=50):
            solve_exhaustive(inst)
            solve_bnb(inst)
            solve_with_certificate(inst)
        solve_dst(out_star(0, "int", 3))
        for seed in (1, 2):
            decide_psi_via_dsn(generate_hardness_instance(random_psi_host(K4, seed)))
        assert calls == []

    def test_one_engine_registry(self):
        from dsnkit import cli

        assert cli.ENGINES is solvers.ENGINES
