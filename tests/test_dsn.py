import pytest
from fractions import Fraction

from hypothesis import assume, given, settings, strategies as st

from dsnkit import dsn
from dsnkit.dsn import (
    DsnInstance,
    SolutionSubgraph,
    is_inclusion_minimal,
    is_inclusion_minimal_graph,
    minimize,
    minimize_graph,
    normalize_requests_graph,
    reverse_instance,
    reverse_solution,
    validate,
    violated_request,
)
from dsnkit.errors import InputError, PreconditionError
from dsnkit.graphs import WeightedDigraph, search

from conftest import digraphs, random_instances, reaches


def is_inclusion_minimal_by_copies(graph, requests):
    """Reference: one copied graph per arc instead of a masked arc."""
    return all(violated_request(graph.without_arc(*a), requests) is not None for a in graph.arc_set())


def minimize_graph_by_copies(graph, requests):
    """Reference: one copied graph per attempted arc, same removal order."""
    terminals = {v for r in requests for v in r}
    current = graph
    for arc in sorted(graph.arc_set(), key=lambda a: (-graph.weight(*a), a)):
        candidate = current.without_arc(*arc)
        if violated_request(candidate, requests) is None:
            current = candidate
    used = {v for a in current.arc_set() for v in a} | terminals
    return current.induced(used & set(current.vertices))


def violated_request_by_reaches(graph, requests):
    """Reference: one reachability query per request, in sorted order."""
    for s, t in sorted(set(requests)):
        if not graph.has_vertex(s) or not graph.has_vertex(t) or not reaches(graph, s, t):
            return (s, t)
    return None


def normalize_requests_by_pairs(graph, terminals):
    """Reference: one terminal-avoiding reachability query per ordered pair."""
    ts = sorted(set(terminals))
    out = set()
    for s in ts:
        for t in ts:
            if s == t or not graph.has_vertex(s) or not graph.has_vertex(t):
                continue
            if reaches(graph, s, t, set(ts) - {s, t}):
                out.add((s, t))
    return frozenset(out)


@st.composite
def solved_graphs(draw):
    """A small digraph plus 1-4 requests it satisfies."""
    g = draw(digraphs())
    pairs = [(s, t) for s in g.vertices for t in g.vertices if s != t and reaches(g, s, t)]
    assume(pairs)
    requests = draw(st.sets(st.sampled_from(pairs), min_size=1, max_size=4))
    return g, frozenset(requests)


def chain(n):
    return WeightedDigraph(range(n), {(i, i + 1): 1 for i in range(n - 1)})


class TestInstance:
    def test_rejects_self_request(self):
        with pytest.raises(InputError):
            DsnInstance(chain(3), {(1, 1)})

    def test_rejects_missing_endpoint(self):
        with pytest.raises(InputError):
            DsnInstance(chain(3), {(0, 7)})

    def test_terminals_derived_sorted(self):
        inst = DsnInstance(chain(4), {(2, 3), (0, 1)})
        assert inst.terminals == (0, 1, 2, 3)
        assert inst.q == 4 and inst.p == 2


class TestValidateAndMinimize:
    def test_validate_reports_lex_first_violation(self):
        inst = DsnInstance(chain(4), {(0, 3), (1, 2)})
        sol = SolutionSubgraph(inst.host, frozenset({(1, 2)}))
        assert validate(inst, sol) == (0, 3)

    def test_minimize_drops_redundant_arc(self):
        g = WeightedDigraph(range(3), {(0, 1): 1, (0, 2): 3, (2, 1): 3})
        inst = DsnInstance(g, {(0, 1)})
        sol = SolutionSubgraph(g, frozenset(g.arcs()))
        small = minimize(inst, sol)
        assert small.arcs == frozenset({(0, 1)})
        assert is_inclusion_minimal(inst, small)
        assert small.cost() == 1

    def test_minimize_removal_order_descending_weight(self):
        # both unit arcs are redundant given the cheap pair; the heaviest
        # redundant arc must go first
        g = WeightedDigraph(range(3), {(0, 1): 5, (0, 2): 1, (2, 1): 1})
        inst = DsnInstance(g, {(0, 1)})
        small = minimize(inst, SolutionSubgraph(g, frozenset(g.arcs())))
        assert small.arcs == frozenset({(0, 2), (2, 1)})

    def test_minimize_idempotent_on_corpus(self):
        from dsnkit.solvers import solve_bnb

        for inst in random_instances(25, base_seed=300):
            result = solve_bnb(inst)
            if not result.feasible:
                continue
            once = minimize(inst, result.optimum)
            twice = minimize(inst, once)
            assert once.arcs == twice.arcs

    @settings(max_examples=80, deadline=None)
    @given(solved_graphs())
    def test_minimize_graph_matches_copy_per_arc(self, case):
        """[DERIVED: copy-per-arc reference loop]"""
        g, reqs = case
        small = minimize_graph(g, reqs)
        assert small == minimize_graph_by_copies(g, reqs)

    @settings(max_examples=80, deadline=None)
    @given(solved_graphs())
    def test_inclusion_minimality_matches_copy_per_arc(self, case):
        """[DERIVED: copy-per-arc reference loop]"""
        g, reqs = case
        expected = is_inclusion_minimal_by_copies(g, reqs)
        assert is_inclusion_minimal_graph(g, reqs) == expected
        small = minimize_graph(g, reqs)
        assert is_inclusion_minimal_by_copies(small, reqs)
        assert is_inclusion_minimal_graph(small, reqs)

    @pytest.mark.parametrize("check", [is_inclusion_minimal_graph, minimize_graph])
    def test_graph_checks_refuse_an_invalid_graph(self, check):
        with pytest.raises(PreconditionError, match="graph is not a valid solution"):
            check(chain(3), {(2, 0)})

    @pytest.mark.parametrize("check", [is_inclusion_minimal, minimize])
    def test_instance_level_checks_refuse_an_invalid_solution(self, check):
        inst = DsnInstance(chain(3), {(0, 2)})
        with pytest.raises(PreconditionError, match="solution is not valid"):
            check(inst, SolutionSubgraph(inst.host, frozenset({(0, 1)})))

    def test_validate_refuses_a_solution_on_another_host(self):
        inst = DsnInstance(chain(3), {(0, 2)})
        with pytest.raises(InputError, match="solution host differs from the instance host"):
            validate(inst, SolutionSubgraph(chain(4), frozenset(chain(4).arcs())))

    @settings(max_examples=150, deadline=None)
    @given(g=digraphs(), data=st.data())
    def test_violated_request_matches_one_query_per_request(self, g, data):
        """[DERIVED: per-request reachability reference]"""
        # Endpoints range two past the last vertex, so some are missing.
        pairs = [(s, t) for s in range(g.n + 2) for t in range(g.n + 2) if s != t]
        requests = data.draw(st.sets(st.sampled_from(pairs), max_size=6))
        searched = []
        with pytest.MonkeyPatch.context() as m:
            m.setattr(dsn, "search", lambda graph, s, **kw: searched.append(s) or search(graph, s, **kw))
            got = violated_request(g, requests)
        assert got == violated_request_by_reaches(g, requests)
        assert sorted(searched) == sorted(set(searched))

    def test_violated_request_rejects_equal_endpoints(self):
        with pytest.raises(InputError, match="request 1->1 has equal endpoints"):
            violated_request(chain(3), {(0, 2), (1, 1)})

    def test_validate_takes_the_instance_requests_as_normalized(self):
        inst = DsnInstance(chain(3), {(0, 2), (2, 0)})
        sol = SolutionSubgraph(inst.host, inst.host.arc_set())
        with pytest.MonkeyPatch.context() as m:
            m.setattr(dsn, "_normalize_requests_arg", None)
            assert validate(inst, sol) == (2, 0)

    @settings(max_examples=100, deadline=None)
    @given(g=digraphs(), data=st.data())
    def test_validate_matches_a_check_of_the_subgraph_and_builds_none(self, g, data):
        """[DERIVED: `violated_request` on `sol.as_graph()`]"""
        pairs = [(s, t) for s in g.vertices for t in g.vertices if s != t]
        assume(pairs)
        inst = DsnInstance(g, data.draw(st.sets(st.sampled_from(pairs), min_size=1, max_size=6)))
        arcs = data.draw(st.sets(st.sampled_from(sorted(g.arc_set()))) if g.m else st.just(set()))
        sol = SolutionSubgraph(g, arcs)
        expected = violated_request(sol.as_graph(), inst.requests)
        builds = []
        with pytest.MonkeyPatch.context() as m:
            init = WeightedDigraph.__init__
            m.setattr(WeightedDigraph, "__init__", lambda self, *a: builds.append(a) or init(self, *a))
            got = validate(inst, sol)
        assert got == expected
        assert builds == []

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_cost_matches_fraction_sum(self, data):
        """[DERIVED: Fraction sum reference]"""
        weights = st.builds(Fraction, st.integers(1, 50), st.sampled_from([1, 2, 3, 4, 6, 7, 12, 35]))
        arcs = {(u, v): data.draw(weights) for u in range(4) for v in range(4) if u != v}
        g = WeightedDigraph(range(4), arcs)
        chosen = data.draw(st.sets(st.sampled_from(sorted(arcs))))
        cost = SolutionSubgraph(g, chosen).cost()
        assert cost == sum((g.weight(*a) for a in chosen), Fraction(0))
        assert type(cost) is Fraction

    def test_empty_solution_costs_zero(self):
        assert SolutionSubgraph(chain(3), ()).cost() == Fraction(0)


class TestNormalizeRequests:
    def test_drops_requests_needing_terminal_midpoint(self):
        # 0 -> 1 -> 2 with all three terminal: 0->2 has no terminal-avoiding path
        g = chain(3)
        assert normalize_requests_graph(g, {0, 1, 2}) == frozenset({(0, 1), (1, 2)})

    def test_keeps_direct_connections(self):
        g = WeightedDigraph(range(4), {(0, 3): 1, (3, 1): 1})
        assert normalize_requests_graph(g, {0, 1}) == frozenset({(0, 1)})

    @settings(max_examples=300, deadline=None)
    @given(g=st.one_of(digraphs(), digraphs(density=0.5)), data=st.data())
    def test_matches_pair_by_pair_reference(self, g, data):
        """[DERIVED: one reaches call per terminal pair]"""
        # ids outside 0..n-1 are not in the graph and must be ignored
        terminals = data.draw(st.sets(st.integers(-2, g.n + 2), max_size=g.n + 2))
        assert normalize_requests_graph(g, terminals) == normalize_requests_by_pairs(g, terminals)

    def test_stable_under_repetition(self):
        for inst in random_instances(20, base_seed=600):
            t = set(inst.terminals)
            once = normalize_requests_graph(inst.host, t)
            assert normalize_requests_graph(inst.host, t) == once


class TestReversal:
    def test_reverse_instance_involution(self):
        inst = DsnInstance(chain(4), {(0, 3)})
        assert reverse_instance(reverse_instance(inst)) == inst

    def test_reverse_solution_flips_arcs(self):
        inst = DsnInstance(chain(3), {(0, 2)})
        sol = SolutionSubgraph(inst.host, frozenset({(0, 1), (1, 2)}))
        rev = reverse_solution(sol)
        assert rev.arcs == frozenset({(1, 0), (2, 1)})
        assert validate(reverse_instance(inst), rev) is None
