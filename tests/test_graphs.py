import copy
import pickle
import random
import re

import pytest
from fractions import Fraction

import networkx as nx
from hypothesis import given, settings, strategies as st

from dsnkit import graphs
from dsnkit.errors import DomainError, InputError
from dsnkit.graphs import (
    DirectedPath,
    UndirectedGraph,
    WeightedDigraph,
    avoiding_path,
    diameter,
    necessary_arcs,
    search,
    shortest_path,
    suppress_degree_two,
    treewidth,
    treewidth_upper_bound,
)

from dsnkit.dsn import DsnInstance, SolutionSubgraph, violated_request
from dsnkit.ladders import LadderSpec, LadderVerdict
from dsnkit.reduction import PsiInstance

from conftest import (
    CUBE,
    K4,
    all_simple_paths,
    digraphs,
    rational_shortest_path,
    reaches,
    treewidth_by_rescans,
    treewidth_by_subset_dp,
    without_vertices,
)


def elimination_width(g, order):
    """Width of a given elimination order (with fill-in); an independent
    checker for the orders of the subset-DP reference."""
    assert sorted(order) == sorted(g.vertices), "order must be a permutation of the vertices"
    adj = {v: set(g.adjacent(v)) for v in g.vertices}
    width = 0
    for v in order:
        ns = sorted(adj[v])
        width = max(width, len(ns))
        for i, a in enumerate(ns):
            for b in ns[i + 1 :]:
                adj[a].add(b)
                adj[b].add(a)
        for a in ns:
            adj[a].discard(v)
        del adj[v]
    return width


def reaches_by_dfs(g, s, t, forbidden=()):
    """Reference: depth-first reachability, written independently of `search`."""
    if s == t:
        return True
    seen = {s}
    stack = [s]
    while stack:
        u = stack.pop()
        for v in g.out_neighbors(u):
            if v == t:
                return True
            if v in seen or v in forbidden:
                continue
            seen.add(v)
            stack.append(v)
    return False


def avoiding_path_by_levels(g, s, t, avoid):
    """Reference: level-by-level breadth-first avoiding path, written
    independently of `search`."""
    if s == t:
        return None
    parent = {s: None}
    frontier = [s]
    while frontier:
        nxt = []
        for u in frontier:
            for v in g.out_neighbors(u):
                if v in parent:
                    continue
                parent[v] = u
                if v == t:
                    seq = [v]
                    while parent[seq[-1]] is not None:
                        seq.append(parent[seq[-1]])
                    return DirectedPath(tuple(reversed(seq)))
                if v not in avoid:
                    nxt.append(v)
        frontier = nxt
    return None


def necessary_arcs_by_removal(g, requests):
    """Reference: one validity check per arc, on a copy without that arc."""
    proper = [(s, t) for s, t in requests if s != t]
    if any(not g.has_vertex(v) for r in requests for v in r) or violated_request(g, proper) is not None:
        return None
    return {a for a in g.arc_set() if violated_request(g.without_arc(*a), proper) is not None}


def grid_graph(width, height):
    return UndirectedGraph(
        range(width * height),
        [(v, v + 1) for v in range(width * height) if v % width < width - 1]
        + [(v, v + width) for v in range(width * (height - 1))],
    )


def cubic_graph(n, seed):
    """A seeded random 3-regular graph on vertices 0..n-1."""
    return UndirectedGraph(range(n), nx.random_regular_graph(3, n, seed=seed).edges)


@st.composite
def undirected_graphs(draw, max_n):
    """Hypothesis strategy for undirected graphs on vertices 0..n-1."""
    n = draw(st.integers(1, max_n))
    return UndirectedGraph(range(n), [(a, b) for a in range(n) for b in range(a + 1, n) if draw(st.booleans())])


def vertex_sets(g):
    return st.sets(st.sampled_from(g.vertices))


class TestWeightedDigraph:
    def test_rejects_nonpositive_weight(self):
        for w in (0, -2, Fraction(0), Fraction(-1, 3)):
            with pytest.raises(InputError):
                WeightedDigraph({0, 1}, {(0, 1): w})

    def test_rejects_loop_and_unknown_endpoint(self):
        with pytest.raises(InputError):
            WeightedDigraph({0, 1}, {(0, 0): 1})
        with pytest.raises(InputError):
            WeightedDigraph({0, 1}, {(0, 2): 1})

    def test_adjacency_sorted(self):
        g = WeightedDigraph(range(4), {(0, 3): 1, (0, 1): 1, (0, 2): 1})
        assert g.out_neighbors(0) == (1, 2, 3)
        assert g.neighbors(0) == (1, 2, 3)

    @settings(max_examples=60, deadline=None)
    @given(digraphs(), st.randoms(use_true_random=False))
    def test_adjacency_is_sorted_and_arcs_keep_input_order(self, g, rnd):
        arcs = list(g.arcs().items())
        rnd.shuffle(arcs)
        h = WeightedDigraph(g.vertices, dict(arcs))
        assert list(h.arcs().items()) == arcs
        for v in h.vertices:
            assert h.out_neighbors(v) == tuple(sorted(y for (x, y), _ in arcs if x == v))
            assert h.in_neighbors(v) == tuple(sorted(x for (x, y), _ in arcs if y == v))

    def test_unknown_vertex_rejected_by_every_accessor(self):
        g = WeightedDigraph(range(2), {(0, 1): 1})
        for accessor in (g.out_neighbors, g.in_neighbors, g.neighbors, g.total_degree):
            with pytest.raises(InputError, match="unknown vertex id 7"):
                accessor(7)

    @settings(max_examples=100, deadline=None)
    @given(digraphs(density=0.5))
    def test_sym_matches_the_checked_constructor(self, g):
        """[DERIVED: `UndirectedGraph` built and checked from the normalized arcs]"""
        expected = UndirectedGraph(g.vertices, {(min(u, v), max(u, v)) for u, v in g.arc_set()})
        got = g.sym()
        assert got == expected and hash(got) == hash(expected) and got.edges == expected.edges
        assert got.vertices == expected.vertices
        for v in g.vertices:
            assert got.adjacent(v) == expected.adjacent(v)

    def test_reverse_involution(self):
        g = WeightedDigraph(range(3), {(0, 1): 2, (1, 2): Fraction(1, 3)})
        assert g.reverse().reverse() == g

    def test_subgraph_on_every_arc_is_the_graph_itself(self):
        g = WeightedDigraph(range(3), {(0, 1): 2, (1, 2): Fraction(1, 3), (2, 0): 1})
        assert g.subgraph(g.arcs()) is g
        assert g.subgraph(list(g.arc_set())) is g

    def test_subgraph_without_an_arc_or_a_vertex_is_a_new_graph(self):
        g = WeightedDigraph(range(4), {(0, 1): 2, (1, 2): Fraction(1, 3), (0, 2): 1})
        every_arc = g.subgraph(g.arcs())
        assert every_arc is not g and every_arc.vertices == (0, 1, 2) and every_arc.arcs() == g.arcs()
        every_vertex = every_arc.subgraph([(0, 1), (1, 2)])
        assert every_vertex is not every_arc and every_vertex.vertices == every_arc.vertices and every_vertex.m == 2

    def test_induced_graph_is_kept_per_vertex_set(self):
        g = WeightedDigraph(range(4), {(0, 1): 2, (1, 2): Fraction(1, 3), (2, 3): 1, (3, 0): 1})
        X = {0, 1, 2}
        kept = g.induced(X)
        assert g.induced(list(X)) is kept and g.induced((2, 1, 0)) is kept
        assert kept.vertices == (0, 1, 2) and kept.arcs() == {(0, 1): 2, (1, 2): Fraction(1, 3)}
        other = g.induced({1, 2, 3})
        assert other is not kept and other.arc_set() == {(1, 2), (2, 3)}
        with pytest.raises(InputError, match="unknown vertex id 9"):
            g.induced({0, 9})


def assert_scaled_view(g, scale):
    ints, got_scale = g.scaled_weights()
    assert got_scale == scale
    assert set(ints) == g.arc_set()
    for (u, v), w in ints.items():
        assert type(w) is int and Fraction(w, scale) == g.weight(u, v)


class TestScaledWeights:
    RATIONAL = {(0, 1): Fraction(1, 3), (1, 2): Fraction(5, 6), (2, 3): Fraction(7, 4), (3, 0): 2, (0, 2): 1}

    def test_integers_over_the_lcm(self):
        g = WeightedDigraph(range(4), self.RATIONAL)
        assert_scaled_view(g, 12)
        assert g.scaled_weights()[0] == {(0, 1): 4, (0, 2): 12, (1, 2): 10, (2, 3): 21, (3, 0): 24}

    def test_integer_weights_have_scale_one(self):
        assert_scaled_view(WeightedDigraph(range(3), {(0, 1): 3, (1, 2): 5}), 1)
        assert_scaled_view(WeightedDigraph(range(3), {}), 1)

    def test_second_call_returns_the_same_object(self):
        g = WeightedDigraph(range(4), self.RATIONAL)
        assert g.scaled_weights() is g.scaled_weights()

    def test_derived_graphs_scale_their_own_weights(self):
        g = WeightedDigraph(range(4), self.RATIONAL)
        g.scaled_weights()
        assert_scaled_view(g.reverse(), 12)
        assert g.reverse().scaled_weights()[0][(3, 2)] == 21
        # Without 7/4 and 2 the lcm of what is left is 6.
        assert_scaled_view(g.induced([0, 1, 2]), 6)
        assert_scaled_view(g.subgraph([(2, 3)]), 4)

    def test_view_leaves_equality_and_hash_alone(self):
        g, h = WeightedDigraph(range(4), self.RATIONAL), WeightedDigraph(range(4), self.RATIONAL)
        g.scaled_weights()
        assert g == h and hash(g) == hash(h)

    def test_arcs_at_scale_one_are_the_integer_weights(self):
        g = WeightedDigraph(range(3), {(0, 1): 3, (1, 2): Fraction(10, 2), (2, 0): 1})
        arcs = g.arcs()
        assert arcs == {(0, 1): 3, (1, 2): 5, (2, 0): 1}
        for (u, v), w in arcs.items():
            assert type(w) is int and w == g.weight(u, v)
        assert type(g.weight(0, 1)) is Fraction

    @pytest.mark.parametrize("arcs", [{(0, 1): 3, (1, 2): 5, (2, 3): 1}, RATIONAL], ids=["scale-1", "scale-12"])
    def test_rebuilt_from_its_arcs_is_equal(self, arcs):
        g = WeightedDigraph(range(4), arcs)
        again = WeightedDigraph(g.vertices, g.arcs())
        assert again == g and again.scaled_weights() == g.scaled_weights()

    def test_derived_weights_divide_by_the_gcd(self):
        # 1/2 + 1/2 suppressed into one arc of weight 1: the scale falls to 1.
        g = WeightedDigraph(range(3), {(0, 1): Fraction(1, 2), (1, 2): Fraction(1, 2)})
        assert suppress_degree_two(g, {0, 2}).scaled_weights() == ({(0, 2): 1}, 1)
        assert WeightedDigraph(range(3), {(0, 1): 4, (1, 2): 6}, 8).scaled_weights() == ({(0, 1): 2, (1, 2): 3}, 4)


class TestReachability:
    def test_forbidden_internal_blocks(self):
        g = WeightedDigraph(range(3), {(0, 1): 1, (1, 2): 1})
        assert reaches(g, 0, 2)
        assert not reaches(g, 0, 2, forbidden_internal={1})

    def test_endpoints_exempt(self):
        g = WeightedDigraph(range(3), {(0, 1): 1, (1, 2): 1})
        assert reaches(g, 0, 2, forbidden_internal={0, 2})

    def test_reachable_set(self):
        g = WeightedDigraph(range(4), {(0, 1): 1, (1, 2): 1, (3, 0): 1})
        assert set(search(g, 0)) == {0, 1, 2}

    @settings(max_examples=80, deadline=None)
    @given(digraphs(), st.data())
    def test_reaches_matches_dfs_reference(self, g, data):
        """[DERIVED: depth-first reference reachability]"""
        forbidden = data.draw(vertex_sets(g))
        for s in g.vertices:
            for t in g.vertices:
                assert reaches(g, s, t, forbidden) == reaches_by_dfs(g, s, t, forbidden)


class TestSearch:
    def test_stop_vertices_recorded_not_expanded(self):
        g = WeightedDigraph(range(4), {(0, 1): 1, (1, 2): 1, (0, 3): 1})
        assert search(g, 0, stop={1}) == {0: None, 1: 0, 3: 0}

    def test_source_expanded_even_if_stopped(self):
        g = WeightedDigraph(range(3), {(0, 1): 1, (1, 2): 1})
        assert search(g, 0, stop={0, 1}) == {0: None, 1: 0}

    def test_returns_once_target_recorded(self):
        g = WeightedDigraph(range(4), {(0, 1): 1, (0, 2): 1, (1, 3): 1})
        assert search(g, 0, target=1) == {0: None, 1: 0}

    def test_unknown_source_rejected(self):
        with pytest.raises(InputError):
            search(WeightedDigraph(range(2), {}), 5)

    @settings(max_examples=80, deadline=None)
    @given(digraphs(), st.data())
    def test_reverse_matches_search_of_reversed_copy(self, g, data):
        """[DERIVED: forward search of `g.reverse()`], parent map and order"""
        s = data.draw(st.sampled_from(g.vertices))
        stop = data.draw(vertex_sets(g))
        target = data.draw(st.none() | st.sampled_from(g.vertices))
        walked = search(g, s, stop, target, reverse=True)
        assert list(walked.items()) == list(search(g.reverse(), s, stop, target).items())

    @settings(max_examples=80, deadline=None)
    @given(digraphs(), st.data(), st.booleans())
    def test_within_matches_search_of_subgraph(self, g, data, reverse):
        """[DERIVED: search of the graph on all of g's vertices and the arcs in `within`], parent map and order"""
        s = data.draw(st.sampled_from(g.vertices))
        stop = data.draw(vertex_sets(g))
        target = data.draw(st.none() | st.sampled_from(g.vertices))
        within = data.draw(st.sets(st.sampled_from(sorted(g.arc_set()))) if g.m else st.just(set()))
        walked = search(g, s, stop, target, reverse, within=within)
        sub = WeightedDigraph(g.vertices, {a: g.weight(*a) for a in within})
        assert list(walked.items()) == list(search(sub, s, stop, target, reverse).items())

    @settings(max_examples=60, deadline=None)
    @given(digraphs(), st.data())
    def test_parent_chains_are_shortest(self, g, data):
        """[DERIVED: hop distances from a level-by-level scan]"""
        s = data.draw(st.sampled_from(g.vertices))
        parent = search(g, s)
        dist = {s: 0}
        frontier = [s]
        while frontier:
            nxt = []
            for u in frontier:
                for v in g.out_neighbors(u):
                    if v not in dist:
                        dist[v] = dist[u] + 1
                        nxt.append(v)
            frontier = nxt
        assert set(parent) == set(dist)
        for v, u in parent.items():
            if u is not None:
                assert g.has_arc(u, v) and dist[v] == dist[u] + 1


class TestAvoidingPath:
    @settings(max_examples=80, deadline=None)
    @given(digraphs(), st.data())
    def test_matches_level_bfs_reference(self, g, data):
        """[DERIVED: level-by-level reference avoiding path]"""
        avoid = data.draw(vertex_sets(g))
        for s in g.vertices:
            for t in g.vertices:
                assert avoiding_path(g, s, t, avoid) == avoiding_path_by_levels(g, s, t, avoid)


class TestShortestPath:
    def test_lexicographic_tie_break(self):
        # two unit-cost routes 0->1->3 and 0->2->3; lexicographically smaller wins
        g = WeightedDigraph(range(4), {(0, 1): 1, (1, 3): 1, (0, 2): 1, (2, 3): 1})
        path, cost = shortest_path(g, 0, 3)
        assert cost == 2
        assert path.vertices == (0, 1, 3)

    def test_weights_beat_hops(self):
        g = WeightedDigraph(range(4), {(0, 3): 5, (0, 1): 1, (1, 2): 1, (2, 3): 1})
        path, cost = shortest_path(g, 0, 3)
        assert cost == 3 and path.length == 3

    @settings(max_examples=40, deadline=None)
    @given(digraphs())
    def test_matches_simple_path_minimum(self, g):
        """[DERIVED: brute-force all simple paths]"""
        for s in g.vertices:
            for t in g.vertices:
                if s == t:
                    continue
                paths = all_simple_paths(g, s, t)
                found = shortest_path(g, s, t)
                if not paths:
                    assert found is None
                    continue
                best = min(sum(g.weight(u, v) for u, v in p.arcs()) for p in paths)
                assert found is not None and found[1] == best


    @settings(max_examples=80, deadline=None)
    @given(digraphs(), st.data())
    def test_avoid_matches_removed_vertices(self, g, data):
        """[DERIVED: shortest path in a copy without the avoided vertices]"""
        avoid = data.draw(vertex_sets(g))
        for s in g.vertices:
            for t in g.vertices:
                if s != t:
                    restricted = without_vertices(g, avoid - {s, t})
                    assert shortest_path(g, s, t, avoid) == shortest_path(restricted, s, t)

    @settings(max_examples=80, deadline=None)
    @given(digraphs(max_den=6), st.data())
    def test_rational_weights_match_fraction_reference(self, g, data):
        """[DERIVED: uniform-cost search on exact Fraction costs]"""
        avoid = data.draw(vertex_sets(g))
        for s in g.vertices:
            for t in g.vertices:
                assert shortest_path(g, s, t, avoid) == rational_shortest_path(g, s, t, avoid)


class TestNecessaryArcs:
    def test_path_arcs_all_necessary(self):
        g = WeightedDigraph(range(4), {(0, 1): 1, (1, 2): 1, (2, 3): 1, (0, 2): 5})
        assert necessary_arcs(g, [(0, 3)]) == {(2, 3)}
        assert necessary_arcs(g, [(0, 1), (1, 3)]) == {(0, 1), (1, 2), (2, 3)}

    def test_unreachable_or_unknown_endpoint_is_none(self):
        g = WeightedDigraph(range(3), {(0, 1): 1})
        assert necessary_arcs(g, [(0, 1), (1, 0)]) is None
        assert necessary_arcs(g, [(0, 7)]) is None
        assert necessary_arcs(g, [(7, 0)]) is None
        assert necessary_arcs(g, [(2, 2), (0, 0)]) == set()

    def test_answer_is_frozen_and_kept_per_request_set(self):
        g = WeightedDigraph(range(4), {(0, 1): 1, (1, 2): 1, (2, 3): 1, (0, 2): 5})
        got = necessary_arcs(g, [(0, 3)])
        assert isinstance(got, frozenset)
        with pytest.raises(AttributeError):
            got.add((0, 2))
        # The same set in another order or container gets the kept answer.
        assert necessary_arcs(g, {(0, 3), (0, 3)}) is got
        assert necessary_arcs(g, [(1, 3), (0, 1)]) is necessary_arcs(g, ((0, 1), (1, 3)))
        # A graph equal to g keeps answers of its own.
        assert necessary_arcs(WeightedDigraph(g.vertices, g.arcs()), [(0, 3)]) is not got

    @settings(max_examples=200, deadline=None)
    @given(g=st.one_of(digraphs(), digraphs(density=0.5)), data=st.data())
    def test_matches_per_arc_removal(self, g, data):
        """[DERIVED: per-arc validity check on a copy without the arc]"""
        # Pairs are drawn freely, so requests with s == t and unreachable
        # requests both occur.
        pairs = st.tuples(st.sampled_from(g.vertices), st.sampled_from(g.vertices))
        requests = data.draw(st.lists(pairs, max_size=4))
        assert necessary_arcs(g, requests) == necessary_arcs_by_removal(g, requests)


class TestPaths:
    def test_rejects_repeats(self):
        with pytest.raises(InputError):
            DirectedPath((0, 1, 0))


ARC = WeightedDigraph(range(2), {(0, 1): 1})
EDGE = UndirectedGraph(range(2), [(0, 1)])

# Each checked record as a function building a fresh instance, with the
# repr text a frozen dataclass of the same fields printed.
RECORDS = [
    (lambda: DirectedPath((0, 1)), "DirectedPath(vertices=(0, 1))"),
    (lambda: LadderSpec(3, {2}), "LadderSpec(n=3, identified=frozenset({2}))"),
    (lambda: DsnInstance(ARC, {(0, 1)}),
     "DsnInstance(host=WeightedDigraph(n=2, m=1), requests=frozenset({(0, 1)}))"),
    (lambda: SolutionSubgraph(ARC, {(0, 1)}),
     "SolutionSubgraph(host=WeightedDigraph(n=2, m=1), arcs=frozenset({(0, 1)}))"),
    (lambda: PsiInstance(EDGE, EDGE, {0: 0, 1: 1}),
     "PsiInstance(hostG=UndirectedGraph(n=2, m=1), patternH=UndirectedGraph(n=2, m=1), classmap={0: 0, 1: 1})"),
]
RECORD_IDS = ["DirectedPath", "LadderSpec", "DsnInstance", "SolutionSubgraph", "PsiInstance"]


class TestRecords:
    """The checked records keep the behaviour of the frozen dataclasses they
    were: field equality within one class only, equal hashes, the dataclass
    repr, read-only fields, and copies and pickles that compare equal."""

    @pytest.mark.parametrize("make, text", RECORDS, ids=RECORD_IDS)
    def test_equal_instances_compare_and_hash_equal(self, make, text):
        a, b = make(), make()
        assert a is not b and a == b and not a != b
        if isinstance(a, PsiInstance):
            # Its class map is a dict, so, as before, it has no hash.
            with pytest.raises(TypeError, match="unhashable type: 'dict'"):
                hash(a)
        else:
            assert hash(a) == hash(b)
            assert len({a, b}) == 1

    @pytest.mark.parametrize("make, text", RECORDS, ids=RECORD_IDS)
    def test_never_equal_to_a_tuple_of_its_fields(self, make, text):
        a = make()
        fields = tuple(getattr(a, f) for f in type(a).__slots__)
        assert a != fields and fields != a
        assert a != fields[0] and a != list(fields)

    def test_equal_fields_of_another_class_are_not_equal(self):
        assert DsnInstance(ARC, {(0, 1)}) != SolutionSubgraph(ARC, {(0, 1)})
        assert LadderSpec(3, {2}) != LadderSpec(3, {1}) and LadderSpec(3) != LadderSpec(4)

    @pytest.mark.parametrize("make, text", RECORDS, ids=RECORD_IDS)
    def test_repr_is_the_dataclass_text(self, make, text):
        assert repr(make()) == text

    @pytest.mark.parametrize("make, text", RECORDS, ids=RECORD_IDS)
    def test_fields_are_read_only(self, make, text):
        a = make()
        for field in type(a).__slots__:
            before = getattr(a, field)
            with pytest.raises(AttributeError):
                setattr(a, field, None)
            with pytest.raises(AttributeError):
                delattr(a, field)
            assert getattr(a, field) is before
        with pytest.raises(AttributeError):
            a.extra = 1

    @pytest.mark.parametrize("make, text", RECORDS, ids=RECORD_IDS)
    def test_copies_and_pickles_are_equal(self, make, text):
        a = make()
        for b in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
            assert type(b) is type(a) and repr(b) == text and b == a

    @pytest.mark.parametrize("build, message", [
        (lambda: DirectedPath(()), "a path has at least one vertex"),
        (lambda: DirectedPath((0, 1, 0)), "path vertices must be distinct"),
        (lambda: LadderSpec(0), "ladder length must be positive"),
        (lambda: LadderSpec(4, {5}), "identified positions must lie in 1..4"),
        (lambda: LadderSpec(4, {0}), "identified positions must lie in 1..4"),
        (lambda: DsnInstance(ARC, {(1, 1)}), "request 1->1 has equal endpoints"),
        (lambda: DsnInstance(ARC, {(0, 7)}), "request 0->7 endpoint not in the host graph"),
        (lambda: SolutionSubgraph(ARC, {(1, 0)}), "arc (1, 0) is not in the host graph"),
        (lambda: PsiInstance(EDGE, K4, {0: 0, 1: 1}), "pattern graph is larger than the host graph"),
        (lambda: PsiInstance(EDGE, EDGE, {0: 0}), "class map must be total on the host vertices"),
        (lambda: PsiInstance(EDGE, EDGE, {0: 0, 1: 2}), "class map image must lie in the pattern graph"),
    ])
    def test_each_field_check_raises_its_message(self, build, message):
        with pytest.raises(InputError) as info:
            build()
        assert str(info.value) == message

    def test_named_tuple_records_keep_the_dataclass_repr(self):
        assert repr(LadderVerdict(True)) == "LadderVerdict(ok=True, length=0, reason='')"


@pytest.mark.parametrize("call, error, message", [
    (lambda: UndirectedGraph([0, 0], []), InputError, "duplicate vertex ids"),
    (lambda: UndirectedGraph(range(2), [(1, 1)]), InputError, "self-loop at vertex 1"),
    (lambda: UndirectedGraph(range(2), [(0, 2)]), InputError, "edge (0, 2) has an unknown endpoint"),
    (lambda: EDGE.adjacent(7), InputError, "unknown vertex id 7"),
    (lambda: WeightedDigraph([0, 0], {}), InputError, "duplicate vertex ids"),
    (lambda: ARC.weight(1, 0), InputError, "no arc (1, 0)"),
    (lambda: ARC.subgraph([(1, 0)]), InputError, "arc (1, 0) not present in the graph"),
    (lambda: DirectedPath((1, 0)).check_in(ARC), InputError, "path arc (1, 0) is not in the carrier graph"),
    (lambda: diameter(UndirectedGraph((), ())), DomainError, "graph is empty"),
], ids=["undirected-duplicate", "undirected-self-loop", "undirected-unknown-endpoint", "undirected-adjacent",
        "digraph-duplicate", "digraph-weight", "digraph-subgraph", "path-check-in", "diameter-empty"])
def test_input_guard_raises_its_message(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


class TestDiameter:
    def test_path_graph(self):
        u = UndirectedGraph(range(5), [(i, i + 1) for i in range(4)])
        assert diameter(u) == 4

    def test_disconnected_names_components(self):
        u = UndirectedGraph(range(4), [(0, 1), (2, 3)])
        with pytest.raises(DomainError) as err:
            diameter(u)
        assert "0" in str(err.value) and "2" in str(err.value)


def k_tree(n, k, seed):
    """A seeded k-tree on vertices 0..n-1: a (k+1)-clique, then each new
    vertex joined to a k-clique of the graph so far.  Its treewidth is k."""
    rng = random.Random(seed)
    edges = [(a, b) for a in range(k + 1) for b in range(a + 1, k + 1)]
    cliques = [tuple(range(k + 1))]
    for v in range(k + 1, n):
        base = rng.choice(cliques)
        drop = rng.choice(base)
        clique = tuple(x for x in base if x != drop)
        edges += [(x, v) for x in clique]
        cliques.append(clique + (v,))
    return UndirectedGraph(range(n), edges)


def circulant(n, steps, first=0):
    """Edges of the circulant graph on first..first+n-1: each vertex joined
    to the vertices `steps` ahead of it, cyclically."""
    return [(first + i, first + (i + d) % n) for i in range(n) for d in steps]


def no_search(monkeypatch):
    monkeypatch.setattr(graphs, "_component_treewidth", lambda *args: pytest.fail("ran the subset search"))


class TestTreewidth:
    @pytest.mark.parametrize(
        "u, width",
        [
            (UndirectedGraph([], []), 0),
            (UndirectedGraph(range(3), []), 0),
            (UndirectedGraph(range(3), [(0, 1), (1, 2)]), 1),
            (UndirectedGraph(range(5), [(0, 1), (0, 2), (2, 3), (2, 4)]), 1),
            # A star and a path: two trees, so m = n - 2.
            (UndirectedGraph(range(7), [(0, 1), (0, 2), (0, 3), (4, 5), (5, 6)]), 1),
            (UndirectedGraph(range(6), [(i, (i + 1) % 6) for i in range(6)]), 2),
            (UndirectedGraph(range(6), [(0, 1), (1, 2), (3, 4), (4, 5), (3, 5)]), 2),
            (K4, 3),
            (CUBE, 3),
            # Sparse vertex ids, and a cube left for the search.
            (UndirectedGraph(range(5, 80, 10), [(10 * a + 5, 10 * b + 5) for a, b in CUBE.edges]), 3),
        ],
        ids=["empty", "isolated", "path-3", "tree", "two-trees", "cycle-6", "tree-and-triangle", "K4", "cube",
             "cube-sparse-ids"],
    )
    def test_hand_cases(self, u, width):
        assert treewidth(u) == (width, True)
        assert treewidth_by_subset_dp(u)[0] == width

    def test_grid_4x4(self):
        """[DERIVED: compare to subset-DP on 16 vertices]"""
        u = grid_graph(4, 4)
        width, order = treewidth_by_subset_dp(u)
        assert width == 4 and elimination_width(u, order) == 4
        assert treewidth(u) == (4, True)
        assert 4 <= treewidth_upper_bound(u) <= 6

    def test_reference_order_matches_width(self):
        for seed in range(15):
            rng = random.Random(seed)
            n = rng.randint(3, 9)
            u = UndirectedGraph(range(n), [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.45])
            width, order = treewidth_by_subset_dp(u)
            assert elimination_width(u, order) == width
            assert treewidth(u) == (width, True)
            assert width <= treewidth_upper_bound(u)

    def test_matches_rescanning_reference(self):
        """[DERIVED: rescan-after-every-elimination reduction loop, then the subset DP]"""
        for seed in range(400):
            rng = random.Random(seed)
            p = rng.choice((0.15, 0.3, 0.5, 0.8))
            # Sparse graphs are mostly reduced; dense ones stay small for the DP.
            n = rng.randint(1, 14 if p < 0.3 else 10)
            u = UndirectedGraph(range(n), [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p])
            assert treewidth(u) == (treewidth_by_rescans(u), True)

    @pytest.mark.parametrize("u", [K4, k_tree(40, 3, seed=0)], ids=["K4", "3-tree-40"])
    def test_chordal_graphs_empty_by_simplicial_eliminations(self, u, monkeypatch):
        """A 3-tree has minimum degree 3, and eliminating a simplicial vertex
        leaves a 3-tree or K4, down to the triangle that degree-2
        eliminations clear.  Min-fill is exact on chordal graphs."""
        no_search(monkeypatch)
        assert treewidth(u) == (3, True) == (treewidth_upper_bound(u), True)

    def test_search_starts_at_the_largest_simplicial_degree(self, monkeypatch):
        """K5 empties by simplicial eliminations of degree 4, so the cube
        beside it is searched from max(3, 4) = 4 and stops there; alone, the
        cube is searched from 3."""
        u = WIDTH_REFERENCE_GRAPHS["K5-and-cube"]
        starts = []
        search = graphs._component_treewidth

        def recorded(vertices, adj, k):
            starts.append((len(vertices), k))
            return search(vertices, adj, k)

        monkeypatch.setattr(graphs, "_component_treewidth", recorded)
        assert treewidth(u) == (4, True) == (treewidth_by_subset_dp(u)[0], True)
        assert treewidth(CUBE) == (3, True)
        assert starts == [(8, 4), (8, 3)]

    def test_fill_edge_makes_a_degree_three_vertex_simplicial(self, monkeypatch):
        """Vertex 0 sees 1, 2 and 3, of which only 1 and 2 are not adjacent.
        Eliminating the degree-2 vertex 4 joins them, so 0 becomes
        simplicial at degree 3 without going back on the stack."""
        u = UndirectedGraph(range(5), [(0, 1), (0, 2), (0, 3), (1, 3), (2, 3), (4, 1), (4, 2)])
        no_search(monkeypatch)
        assert treewidth(u) == (3, True) == (treewidth_by_subset_dp(u)[0], True)

    @pytest.mark.parametrize(
        "u, cap",
        [
            (CUBE, 4),
            # The cube fits a cap of 8, but the 10-vertex circulant beside it
            # does not.
            (UndirectedGraph(range(18), [*CUBE.edges, *circulant(10, (1, 2), first=8)]), 8),
            # 4-regular, with no simplicial vertex.
            (UndirectedGraph(range(30), circulant(30, (1, 5))), graphs.TREEWIDTH_EXACT_CAP),
        ],
        ids=["cube-cap-4", "cube-and-circulant-cap-8", "circulant-30"],
    )
    def test_component_over_the_cap_gives_the_upper_bound(self, u, cap, monkeypatch):
        """No vertex of these graphs has degree <= 2 or is simplicial, and one
        component exceeds the cap: the whole graph gets the min-fill bound,
        and no component is searched."""
        monkeypatch.setattr(graphs, "TREEWIDTH_EXACT_CAP", cap)
        no_search(monkeypatch)
        assert treewidth(u) == (treewidth_upper_bound(u), False)


WIDTH_REFERENCE_GRAPHS = {
    "grid-4x4": grid_graph(4, 4),
    "K4": K4,
    # The reductions reach width 4 on K5, above the cube's 3.
    "K5-and-cube": UndirectedGraph(
        range(13), [(i, j) for i in range(5) for j in range(i + 1, 5)] + [(a + 5, b + 5) for a, b in CUBE.edges]
    ),
    **{f"cycle-{n}": UndirectedGraph(range(n), [(i, (i + 1) % n) for i in range(n)]) for n in range(3, 9)},
    **{f"cubic-{n}-seed-{seed}": cubic_graph(n, seed) for n in (14, 16) for seed in (0, 1)},
}


class TestTreewidthMatchesSubsetDp:
    """`treewidth` returns the width of the subset DP run on each connected
    component without the safe reductions, as exact, and the DP's order has
    exactly that width."""

    @staticmethod
    def check(u):
        width, order = treewidth_by_subset_dp(u)
        assert treewidth(u) == (width, True)
        assert elimination_width(u, order) == width

    @settings(max_examples=200, deadline=None)
    @given(undirected_graphs(max_n=12))
    def test_random_graphs(self, u):
        self.check(u)

    @pytest.mark.parametrize("name", sorted(WIDTH_REFERENCE_GRAPHS))
    def test_named_graphs(self, name):
        self.check(WIDTH_REFERENCE_GRAPHS[name])

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_partial_k_trees(self, k):
        """Seeded k-trees with some edges dropped: widths up to k, reached by
        every branch of `treewidth`."""
        for seed in range(40):
            rng = random.Random(seed)
            full = k_tree(rng.randint(k + 1, 12), k, seed)
            keep = rng.choice((1.0, 0.9, 0.75))
            self.check(UndirectedGraph(full.vertices, [e for e in sorted(full.edges) if rng.random() < keep]))
