import json
import sys
from collections import Counter

import pytest
from fractions import Fraction

from hypothesis import assume, given, settings, strategies as st

from dsnkit.dsn import (
    SolutionSubgraph,
    is_inclusion_minimal_graph,
    minimize_graph,
    normalize_requests_graph,
)
from dsnkit.errors import InconsistencyError, InputError, InvariantError, PreconditionError
from dsnkit.graphs import DirectedPath, WeightedDigraph, component_avoiding, treewidth, treewidth_upper_bound
from dsnkit import graphs, structure
from dsnkit.ladders import LadderVerdict
from dsnkit.generators import gen_random
from dsnkit.solvers import solve_exhaustive, solve_with_certificate
from dsnkit.structure import (
    LadderSegment,
    PathRecord,
    _analyze_path,
    _onto_path_reach,
    _verify_replacement,
    avoiding_path,
    detect_ladder_segments,
    important_vertices,
    marked_vertices,
    protrusion_replace,
    realize_request_path,
    reduce_length_graph,
    segment_markers,
    suppress_degree_two,
)

from conftest import (
    checked_analyses, digraphs, ladder_with_terminals, out_star, random_instances, reaches, without_vertices,
)
from test_golden_cli import LADDERS, OUT_STARS


def onto_path_reach_by_dfs(graph, src, pset):
    """Reference: depth-first onto-path hits, written independently of
    `search`."""
    hits = set()
    seen = {src}
    stack = [src]
    while stack:
        u = stack.pop()
        for v in graph.out_neighbors(u):
            if v in pset:
                if v != src:
                    hits.add(v)
                continue
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return hits


def suppress_degree_two_by_rescans(graph, terminals):
    """Reference: rescan the vertices and rebuild the graph once per
    suppressed vertex."""
    T = set(terminals)
    g = graph
    while True:
        victim = None
        for v in g.vertices:
            if v in T:
                continue
            ns = g.neighbors(v)
            if len(ns) == 1:
                raise InconsistencyError(
                    f"non-terminal {v} has a single neighbor; input is not inclusion-minimal"
                )
            if len(ns) == 2:
                victim = v
                break
        if victim is None:
            return g
        v = victim
        u, w = g.neighbors(v)
        arcs = g.arcs()
        created = []
        for x, y in ((u, w), (w, u)):
            if (x, v) in arcs and (v, y) in arcs:
                created.append(((x, y), arcs[(x, v)] + arcs[(v, y)]))
        if not created:
            raise InconsistencyError(
                f"non-terminal {v} with two neighbors is a source/sink; input is not inclusion-minimal"
            )
        for key in ((u, v), (v, u), (v, w), (w, v)):
            arcs.pop(key, None)
        for arc, weight in created:
            if arc not in arcs or weight < arcs[arc]:
                arcs[arc] = weight
        g = WeightedDigraph(set(g.vertices) - {v}, arcs)


def suppression_outcome(suppress, graph, terminals):
    """Vertices and arcs in insertion order, or the error message."""
    try:
        g = suppress(graph, terminals)
    except InconsistencyError as exc:
        return str(exc)
    return g.vertices, list(g.arcs().items())


@st.composite
def minimal_solutions(draw):
    """(graph, terminals): a minimized solution of 1-4 requests on a small
    digraph, sometimes with a subdivided arc or an extra terminal."""
    g = draw(digraphs(max_n=8, density=0.5))
    pairs = [(s, t) for s in g.vertices for t in g.vertices if s != t and reaches(g, s, t)]
    assume(pairs)
    requests = draw(st.sets(st.sampled_from(pairs), min_size=1, max_size=4))
    small = minimize_graph(g, requests)
    terminals = {v for r in requests for v in r}
    arcs = small.arcs()
    if arcs and draw(st.booleans()):
        # Subdivide one arc into a chain of fresh pass-through vertices.
        (u, v), w = draw(st.sampled_from(sorted(arcs.items())))
        del arcs[(u, v)]
        chain = [u, *range(g.n, g.n + draw(st.integers(1, 3))), v]
        arcs.update({(x, y): w for x, y in zip(chain, chain[1:])})
        small = WeightedDigraph(set(small.vertices) | set(chain), arcs)
    extra = draw(st.sets(st.sampled_from(small.vertices), max_size=2))
    return small, terminals | extra


class TestSuppression:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(minimal_solutions(), st.tuples(digraphs(), st.sets(st.integers(0, 6), max_size=3))))
    def test_matches_rescanning_reference(self, case):
        """[DERIVED: rescan-and-rebuild suppression loop]"""
        g, terminals = case
        assert suppression_outcome(suppress_degree_two, g, terminals) == suppression_outcome(
            suppress_degree_two_by_rescans, g, terminals
        )

    def test_subdivision_round_trips(self):
        g = WeightedDigraph(range(3), {(0, 1): Fraction(1, 2), (1, 2): Fraction(1, 2)})
        out = suppress_degree_two(g, {0, 2})
        assert out.arcs() == {(0, 2): Fraction(1)}

    def test_long_chain_expansion_map(self):
        g = WeightedDigraph(range(5), {(i, i + 1): 1 for i in range(4)})
        out = suppress_degree_two(g, {0, 4})
        assert out.arcs() == {(0, 4): Fraction(4)}

    def test_bidirected_passthrough(self):
        g = WeightedDigraph(
            range(3), {(0, 1): 1, (1, 0): 1, (1, 2): 1, (2, 1): 1}
        )
        out = suppress_degree_two(g, {0, 2})
        assert out.arcs() == {(0, 2): Fraction(2), (2, 0): Fraction(2)}

    def test_terminals_protected(self):
        g = WeightedDigraph(range(3), {(0, 1): 1, (1, 2): 1})
        out = suppress_degree_two(g, {0, 1, 2})
        assert out == g

    def test_dangling_nonterminal_rejected(self):
        g = WeightedDigraph(range(3), {(0, 1): 1, (1, 2): 1})
        with pytest.raises(InconsistencyError):
            suppress_degree_two(g, {0, 1})


class TestImportantVertices:
    def host_with_branch(self):
        # path 0-1-2-3-4 between terminals 0,4; terminal 5 hangs off vertex 2
        arcs = {(0, 1): 1, (1, 2): 1, (2, 3): 1, (3, 4): 1, (5, 2): 1, (2, 6): 1, (6, 5): 1}
        return WeightedDigraph(range(7), arcs)

    def test_branch_vertex_is_important(self):
        g = self.host_with_branch()
        P = DirectedPath((0, 1, 2, 3, 4))
        imp = important_vertices(g, {0, 4, 5}, P)
        assert imp.important == (2,)
        assert imp.anchor[2] == 5
        assert imp.anchor_witness[2].start in (2, 5)

    def test_endpoint_labels_land_on_endpoints(self):
        g = self.host_with_branch()
        P = DirectedPath((0, 1, 2, 3, 4))
        imp = important_vertices(g, {0, 4, 5}, P)
        assert (0, "<-") in imp.labels[0]
        assert (4, "->") in imp.labels[4]

    @pytest.mark.parametrize(
        "terminals, message",
        [({0, 5}, "path endpoints must be terminals"), ({0, 2, 4}, "path is not T-avoiding")],
    )
    def test_rejects_a_path_not_between_terminals(self, terminals, message):
        with pytest.raises(InputError, match=message):
            important_vertices(self.host_with_branch(), terminals, DirectedPath((0, 1, 2, 3, 4)))

    def test_no_offpath_terminals_means_empty(self):
        inst = ladder_with_terminals(6)
        T = set(inst.terminals)
        P = realize_request_path(inst.host, T, *sorted(inst.requests)[0])
        imp = important_vertices(inst.host, T, P)
        assert imp.important == ()

    def test_bound_two_q_minus_two(self):
        g = self.host_with_branch()
        P = DirectedPath((0, 1, 2, 3, 4))
        imp = important_vertices(g, {0, 4, 5}, P)
        assert len(imp.important) <= 2 * 3 - 2


def assert_quadruples_ordered(P, mk):
    """Every quadruple satisfies p1 <= p2 <= center <= p3 <= p4 in path
    order, and a non-degenerate one's witnesses run p3 -> p1 and p4 -> p2
    with no internal vertex on P.  Returns the non-degenerate count."""
    idx = {v: i for i, v in enumerate(P.vertices)}
    found = 0
    for quad in mk.quadruples:
        assert idx[quad.p1] <= idx[quad.p2] <= idx[quad.center] <= idx[quad.p3] <= idx[quad.p4]
        if not quad.degenerate:
            found += 1
            assert (quad.q31.vertices[0], quad.q31.vertices[-1]) == (quad.p3, quad.p1)
            assert (quad.q42.vertices[0], quad.q42.vertices[-1]) == (quad.p4, quad.p2)
            assert not set(quad.q31.vertices[1:-1] + quad.q42.vertices[1:-1]) & set(P.vertices)
    return found


def count_searches(monkeypatch):
    """Patches `structure.search` to count its calls by the calling public
    function, past private helpers and comprehensions."""
    calls = Counter()

    def counting(*args, **kw):
        frame = sys._getframe(1)
        while frame.f_code.co_name.startswith(("_", "<")):
            frame = frame.f_back
        calls[frame.f_code.co_name] += 1
        return graphs.search(*args, **kw)

    monkeypatch.setattr(structure, "search", counting)
    return calls


class TestMarkedVertices:
    def test_rejects_the_important_set_of_another_path(self):
        g = WeightedDigraph(range(4), {(0, 1): 1, (1, 2): 1, (2, 3): 1})
        imp = important_vertices(g, {0, 3}, DirectedPath((0, 1, 2, 3)))
        with pytest.raises(InputError, match="important set was computed for a different path"):
            marked_vertices(g, DirectedPath((1, 2)), imp)

    def test_sets_match_the_references_on_the_analyze_corpora(self):
        """Every path analyzed for the golden analyze corpus (ladders, random
        instances, out-stars) and for 300 seeded random instances (251 of
        them feasible) gets the references' important and marked sets."""
        corpus = [ladder_with_terminals(n, ident) for n, ident in LADDERS]
        corpus += [out_star(seed, kind, leaves) for kind, leaves, seed in OUT_STARS]
        corpus += [gen_random(8, 20, 4, 3, seed)[0] for seed in range(300)]
        feasible = nondegenerate = 0
        for inst in corpus:
            (_, rep), found = checked_analyses(solve_with_certificate, inst)
            assert all(same for _, same in found)
            feasible += rep is not None
            nondegenerate += sum(not q.degenerate for mk, _ in found for q in mk.quadruples)
        assert feasible == len(LADDERS) + len(OUT_STARS) + 251 and nondegenerate > 0

    @pytest.mark.parametrize("n", [8, 13])
    def test_ladder_analysis_runs_no_marked_search(self, n, monkeypatch):
        calls = count_searches(monkeypatch)
        solve_with_certificate(ladder_with_terminals(n))
        assert calls["marked_vertices"] == 0 and calls["important_vertices"] > 0

    def test_one_search_per_path_vertex_from_the_first_important_one(self, monkeypatch):
        arcs = {(0, 1): 1, (1, 2): 1, (2, 3): 1, (3, 4): 1, (3, 5): 1, (5, 1): 1, (6, 2): 1, (2, 6): 1}
        g, P = WeightedDigraph(range(7), arcs), DirectedPath((0, 1, 2, 3, 4))
        imp = important_vertices(g, {0, 4, 6}, P)
        calls = count_searches(monkeypatch)
        marked_vertices(g, P, imp)
        assert imp.important == (2,) and calls == {"marked_vertices": 5 - 2}

    def test_ordering_invariant_on_ladder_path(self):
        # walk the length-8 ladder between two added terminals
        inst = ladder_with_terminals(8)
        T = set(inst.terminals)
        P = realize_request_path(inst.host, T, *sorted(inst.requests)[0])
        imp = important_vertices(inst.host, T, P)
        assert_quadruples_ordered(P, marked_vertices(inst.host, P, imp))

    def test_ordering_invariant_on_solver_optima(self):
        """The ladder path has no important vertex; optima of small random
        instances have non-degenerate quadruples (21 on these 60)."""
        found = 0
        for inst in random_instances(60, max_requests=6):
            result = solve_exhaustive(inst)
            if not result.feasible:
                continue
            g, T = result.optimum.as_graph(), set(inst.terminals)
            for s, t in sorted(inst.requests):
                P = realize_request_path(g, T, s, t)
                if P is not None:
                    found += assert_quadruples_ordered(P, marked_vertices(g, P, important_vertices(g, T, P)))
        assert found > 0

    def test_backjump_gives_nondegenerate_quadruple(self):
        # path 0..4 with a detour 3 -> 5 -> 1 jumping back across vertex 2
        arcs = {(0, 1): 1, (1, 2): 1, (2, 3): 1, (3, 4): 1, (3, 5): 1, (5, 1): 1, (6, 2): 1, (2, 6): 1}
        g = WeightedDigraph(range(7), arcs)
        P = DirectedPath((0, 1, 2, 3, 4))
        imp = important_vertices(g, {0, 4, 6}, P)
        assert imp.important == (2,)
        mk = marked_vertices(g, P, imp)
        (quad,) = mk.quadruples
        assert not quad.degenerate
        assert (quad.p1, quad.p4) == (1, 3)
        assert quad.q31 is not None and quad.q31.vertices == (3, 5, 1)
        assert quad.q42 is not None and quad.q42.vertices == (3, 5, 1)

    def test_marked_bound(self):
        inst = ladder_with_terminals(10)
        T = set(inst.terminals)
        P = realize_request_path(inst.host, T, *sorted(inst.requests)[0])
        imp = important_vertices(inst.host, T, P)
        mk = marked_vertices(inst.host, P, imp)
        assert len(mk.marked) <= 4 * len(imp.important)

    def test_important_and_marked_build_no_graph(self, monkeypatch):
        """Both directions are searched in place, without a reversed copy."""
        arcs = {(0, 1): 1, (1, 2): 1, (2, 3): 1, (3, 4): 1, (3, 5): 1, (5, 1): 1, (6, 2): 1, (2, 6): 1}
        g = WeightedDigraph(range(7), arcs)
        P = DirectedPath((0, 1, 2, 3, 4))
        builds = []
        init = WeightedDigraph.__init__
        monkeypatch.setattr(WeightedDigraph, "__init__", lambda *args: builds.append(1) or init(*args))
        imp = important_vertices(g, {0, 4, 6}, P)
        mk = marked_vertices(g, P, imp)
        assert imp.important == (2,) and mk.marked == {1, 3}
        assert builds == []


def recognized(component, roles):
    """A segment that claims `component` is a 10-rung ladder under `roles`."""
    return LadderSegment(0, 0, roles, frozenset(component), LadderVerdict(True, 10), roles)


class TestSegmentsAndReplacement:
    def test_ladder_segment_detected(self):
        inst = ladder_with_terminals(10)
        T = set(inst.terminals)
        P = realize_request_path(inst.host, T, *sorted(inst.requests)[0])
        imp = important_vertices(inst.host, T, P)
        mk = marked_vertices(inst.host, P, imp)
        segs = detect_ladder_segments(inst.host, T, P, segment_markers(P, imp, mk))
        assert len(segs) == 1
        assert segs[0].verdict.ok and segs[0].verdict.length == 10
        assert segs[0].roles is not None

    @pytest.mark.parametrize("distance, segments", [(5, 0), (6, 1)])
    def test_markers_closer_than_six_give_no_segment(self, distance, segments):
        inst = ladder_with_terminals(10)
        T = set(inst.terminals)
        P = realize_request_path(inst.host, T, *sorted(inst.requests)[0])
        segs = detect_ladder_segments(inst.host, T, P, [0, distance])
        assert [(seg.start_index, seg.end_index) for seg in segs] == [(0, distance)] * segments

    def test_replace_shrinks_and_preserves_outside(self):
        inst = ladder_with_terminals(10)
        T = set(inst.terminals)
        P = realize_request_path(inst.host, T, *sorted(inst.requests)[0])
        imp = important_vertices(inst.host, T, P)
        mk = marked_vertices(inst.host, P, imp)
        (seg,) = detect_ladder_segments(inst.host, T, P, segment_markers(P, imp, mk))
        builds = []
        with pytest.MonkeyPatch.context() as m:
            init = WeightedDigraph.__init__
            m.setattr(WeightedDigraph, "__init__", lambda self, *a: builds.append(self) or init(self, *a))
            new = protrusion_replace(inst.host, inst.requests, seg)
        # The fresh ladder's arcs come from `ladder_arcs`: the result is the one graph built.
        assert builds == [new]
        assert new.n < inst.host.n
        outside = set(inst.host.vertices) - set(seg.component)
        assert new.induced(outside) == inst.host.induced(outside)
        assert is_inclusion_minimal_graph(new, inst.requests)

    def test_replace_compares_the_outside_across_two_scales(self):
        # A weight of 1/2 inside the component gives the host scale 2; the
        # replacement drops it, so the new graph has scale 1.
        inst = ladder_with_terminals(10)
        T = set(inst.terminals)
        P = realize_request_path(inst.host, T, *sorted(inst.requests)[0])
        imp = important_vertices(inst.host, T, P)
        mk = marked_vertices(inst.host, P, imp)
        (seg,) = detect_ladder_segments(inst.host, T, P, segment_markers(P, imp, mk))
        arcs = inst.host.arcs()
        arcs[min(a for a in arcs if set(a) <= seg.component)] = Fraction(1, 2)
        host = WeightedDigraph(inst.host.vertices, arcs)
        new = protrusion_replace(host, inst.requests, seg)
        assert host.scaled_weights()[1] == 2 and new.scaled_weights()[1] == 1
        outside = set(host.vertices) - set(seg.component)
        assert new.induced(outside) == host.induced(outside)

    # Length 6 is already the fresh ladder's length.  Length 9 > 7, but four
    # identified rungs leave a 10-vertex component, and the fresh length-7
    # ladder's interior is 10 too, so it would not be smaller.
    @pytest.mark.parametrize("n,identified,n_vertices", [(6, (), 14), (9, (2, 4, 6, 8), 16)])
    def test_replace_noop_at_target_size(self, n, identified, n_vertices):
        inst = ladder_with_terminals(n, identified)
        T = set(inst.terminals)
        P = realize_request_path(inst.host, T, *sorted(inst.requests)[0])
        imp = important_vertices(inst.host, T, P)
        mk = marked_vertices(inst.host, P, imp)
        (seg,) = detect_ladder_segments(inst.host, T, P, segment_markers(P, imp, mk))
        assert seg.verdict.length == n
        assert protrusion_replace(inst.host, inst.requests, seg) is inst.host
        _, report = reduce_length_graph(inst.host, inst.requests)
        assert report.replacements == 0
        assert report.vertices_before == report.vertices_after == n_vertices

    def test_replace_rejects_terminal_component(self):
        inst = ladder_with_terminals(10)
        s = sorted(inst.requests)[0][1]
        with pytest.raises(PreconditionError, match="component contains a terminal"):
            protrusion_replace(inst.host, inst.requests, recognized({s}, (0, 1, 2, 3)))

    def test_replace_rejects_non_component(self):
        inst = ladder_with_terminals(10)
        with pytest.raises(PreconditionError, match="F is not a connected component"):
            protrusion_replace(inst.host, inst.requests, recognized({4, 5}, (0, 1, 18, 19)))

    # The 10-rung ladder's segment has roles (0, 1, 19, 18) and interior 2..17;
    # its rungs run 0 -> 1 and 19 -> 18 only.
    @pytest.mark.parametrize(
        "component,roles,message",
        [
            ({0, 4}, (0, 1, 19, 18), "component overlaps its boundary"),
            (range(2, 18), (1, 0, 19, 18), "a != b but arc ab is missing"),
            (range(2, 18), (0, 1, 18, 19), "c != d but arc cd is missing"),
        ],
        ids=["overlap", "ab-missing", "cd-missing"],
    )
    def test_replace_rejects_a_broken_precondition(self, component, roles, message):
        inst = ladder_with_terminals(10)
        with pytest.raises(PreconditionError, match=message):
            protrusion_replace(inst.host, inst.requests, recognized(component, roles))

    def test_replace_rejects_a_subset_of_a_kept_component(self):
        """The component found from another of its vertices is kept on the
        graph, and the precondition compares the claimed set with it."""
        inst = ladder_with_terminals(10)
        roles = (0, 1, 19, 18)
        kept = component_avoiding(inst.host, 17, roles)
        assert kept == frozenset(range(2, 18))
        with pytest.raises(PreconditionError, match="F is not a connected component"):
            protrusion_replace(inst.host, inst.requests, recognized(kept - {17}, roles))

    def test_verification_names_first_changed_reachability(self):
        old = WeightedDigraph({0, 1, 2, 9}, {(2, 9): 1, (9, 1): 1, (1, 9): 1, (9, 0): 1})
        new = WeightedDigraph({0, 1, 2}, {})
        with pytest.raises(InvariantError, match="reachability changed for 1->0"):
            _verify_replacement(old, new, frozenset(), {0, 1, 2}, {9}, set(), ())

    def replaced(self):
        """The keyword arguments of a verified replacement of a 10-rung ladder."""
        inst = ladder_with_terminals(10)
        T = set(inst.terminals)
        *_, (seg,) = _analyze_path(inst.host, sorted(T), *sorted(inst.requests)[0])
        new = protrusion_replace(inst.host, inst.requests, seg)
        fresh = set(new.vertices) - set(inst.host.vertices)
        return dict(
            old=inst.host, new=new, reqs=frozenset(inst.requests), T=T,
            F=set(seg.component), F_new=fresh, boundary=seg.roles,
        )

    def test_verification_accepts_the_replacement(self):
        _verify_replacement(**self.replaced())

    @pytest.mark.parametrize("edit", ["weight", "extra-arc", "dropped-vertex"])
    def test_verification_names_outside_change(self, edit):
        args = self.replaced()
        old, new, fresh = args["old"], args["new"], args["F_new"]
        arcs = new.arcs()
        outside = sorted(set(new.vertices) - fresh)
        if edit == "weight":
            arc = min(a for a in arcs if not set(a) & fresh)
            arcs[arc] *= 2
        elif edit == "extra-arc":
            arc = next((u, v) for u in outside for v in outside if u != v and (u, v) not in arcs)
            arcs[arc] = Fraction(1)
        else:
            args["old"] = WeightedDigraph(set(old.vertices) | {5000}, old.arcs())
        args["new"] = WeightedDigraph(new.vertices, arcs)
        with pytest.raises(InvariantError, match="changed the graph outside the component"):
            _verify_replacement(**args)

    def test_verification_names_neighbors_off_the_boundary(self):
        args = self.replaced()
        args["boundary"] = args["boundary"][:3] + (1000,)
        with pytest.raises(InvariantError, match=r"fresh component neighbors \[.*\] != boundary"):
            _verify_replacement(**args)

    def test_verification_names_the_size_bound(self, monkeypatch):
        args = self.replaced()
        monkeypatch.setattr(structure, "PROTRUSION_MAX_INTERIOR", len(args["F_new"]) - 1)
        with pytest.raises(InvariantError, match="exceeds the size bound"):
            _verify_replacement(**args)

    def test_verification_names_a_removable_arc(self):
        args = self.replaced()
        new, fresh = args["new"], sorted(args["F_new"])
        arcs = new.arcs()
        arc = next((u, v) for u in fresh for v in fresh if u != v and (u, v) not in arcs)
        arcs[arc] = Fraction(1)
        args["new"] = WeightedDigraph(new.vertices, arcs)
        with pytest.raises(InvariantError, match="is not inclusion-minimal"):
            _verify_replacement(**args)

    def test_verification_names_a_broken_request(self):
        args = self.replaced()
        new, fresh = args["new"], args["F_new"]
        arcs = new.arcs()
        del arcs[min(a for a in arcs if set(a) <= fresh)]
        args["new"] = WeightedDigraph(new.vertices, arcs)
        with pytest.raises(InvariantError, match="broke a request"):
            _verify_replacement(**args)

    def test_replace_rejects_unrecognized_segment(self):
        inst = ladder_with_terminals(10)
        verdict = LadderVerdict(False, 0, "component touches a terminal")
        seg = LadderSegment(0, 6, (0, 1, 18, 19), frozenset(range(2, 18)), verdict, None)
        with pytest.raises(PreconditionError, match="component is not a ladder: component touches a terminal"):
            protrusion_replace(inst.host, inst.requests, seg)


class TestReduceLength:
    @pytest.mark.parametrize("n,expect_drop", [(10, True), (11, True), (12, True), (6, False)])
    def test_long_ladders_shrink(self, n, expect_drop):
        inst = ladder_with_terminals(n)
        reduced, report = reduce_length_graph(inst.host, inst.requests)
        if expect_drop:
            assert report.replacements >= 1
            assert report.vertices_after < report.vertices_before
        else:
            assert report.replacements == 0
        assert report.important_bound_ok and report.marked_bound_ok
        assert report.diameter_bound_ok in (True, None)
        for rec in report.paths:
            for seg in rec.segments:
                assert not seg.verdict.ok or seg.verdict.length <= 7

    @pytest.mark.parametrize("n", [8, 9, 13])
    @pytest.mark.parametrize("end_rungs", ["first", "last", "both"])
    def test_identified_end_rungs_shrink(self, n, end_rungs):
        identified = {"first": {1}, "last": {n}, "both": {1, n}}[end_rungs]
        inst = ladder_with_terminals(n, identified)
        reduced, report = reduce_length_graph(inst.host, inst.requests)
        assert report.replacements >= 1
        assert reduced.n < inst.host.n

    @pytest.mark.parametrize(
        "n,identified", [(4, ()), (10, ()), (13, ()), (9, (1,)), (12, (3, 4)), (16, (2, 9, 15))]
    )
    def test_report_describes_the_returned_graph(self, n, identified):
        """Each path record equals a fresh analysis of the reduced graph."""
        inst = ladder_with_terminals(n, identified)
        reduced, report = reduce_length_graph(inst.host, inst.requests)
        T = report.terminals
        assert report.normalized_requests == tuple(sorted(normalize_requests_graph(reduced, T)))
        assert [rec.request for rec in report.paths] == list(report.normalized_requests)
        for rec in report.paths:
            P, imp, mk, segs = _analyze_path(reduced, T, *rec.request)
            ratio = P.length / max(1, len(imp.important))
            assert rec == PathRecord(
                rec.request, P.vertices, P.length, len(imp.important), len(mk.marked), ratio, segs
            )

    @pytest.mark.parametrize("n,identified", [(10, ()), (13, (1,)), (9, (9,)), (12, (1, 12))])
    def test_each_ladder_is_recognized_once(self, n, identified, monkeypatch):
        """Replacement uses the segment's verdict; only detection recognizes."""
        callers = []
        recognize = structure.is_ladder_subdivision

        def traced(*args):
            callers.append(sys._getframe(1).f_code.co_name)
            return recognize(*args)

        monkeypatch.setattr(structure, "is_ladder_subdivision", traced)
        inst = ladder_with_terminals(n, identified)
        _, report = reduce_length_graph(inst.host, inst.requests)
        assert report.replacements >= 1
        assert set(callers) == {"detect_ladder_segments"}

    def test_rejects_non_minimal_input(self):
        g = WeightedDigraph(range(3), {(0, 1): 1, (0, 2): 1, (2, 1): 1})
        with pytest.raises(PreconditionError, match="input graph is not inclusion-minimal"):
            reduce_length_graph(g, {(0, 1)})

    def test_rejects_an_invalid_solution(self):
        g = WeightedDigraph(range(2), {(0, 1): 1})
        with pytest.raises(PreconditionError, match="input graph is not a valid solution"):
            reduce_length_graph(g, {(1, 0)})

    def test_diameter_verdict_holds_at_its_bound(self, monkeypatch):
        """[DERIVED: diameter <= 8 * max(1, max_ratio) * q]  A diameter equal
        to the bound passes, one more fails."""
        inst = ladder_with_terminals(10)
        _, report = reduce_length_graph(inst.host, inst.requests)
        q = len(report.terminals)
        assert q == 2
        bound = 8 * max(1, report.max_ratio) * q
        for diam, ok in ((bound, True), (bound + 1, False)):
            monkeypatch.setattr(structure, "diameter", lambda u, diam=diam: diam)
            assert reduce_length_graph(inst.host, inst.requests)[1].diameter_bound_ok is ok

    def test_report_serializes(self):
        inst = ladder_with_terminals(10)
        _, report = reduce_length_graph(inst.host, inst.requests)
        payload = json.dumps(report.to_json_dict())
        assert json.loads(payload)["replacements"] == report.replacements

    def test_instance_level_wrapper(self):
        inst = ladder_with_terminals(10)
        sol = SolutionSubgraph(inst.host, frozenset(inst.host.arcs()))
        reduced, report = reduce_length_graph(sol.as_graph(), inst.requests)
        assert reduced.n == report.vertices_after


class TestCertificate:
    def test_pipeline_never_increases_treewidth_here(self):
        inst = ladder_with_terminals(12)
        sol = SolutionSubgraph(inst.host, frozenset(inst.host.arcs()))
        _, rep = reduce_length_graph(sol.as_graph(), inst.requests)
        assert not rep.pipeline_increased_tw
        assert not rep.flagged
        assert rep.tw_after_exact

    def test_certificate_serializes(self):
        inst = ladder_with_terminals(8)
        sol = SolutionSubgraph(inst.host, frozenset(inst.host.arcs()))
        _, rep = reduce_length_graph(sol.as_graph(), inst.requests)
        blob = json.dumps(rep.certificate_json(0))
        assert json.loads(blob)["declared_genus"] == 0

    def test_upper_bound_widths_are_integers(self, monkeypatch):
        """With no exact width, both widths come from the upper bound: still
        integers, and the per-terminal width is a plain quotient."""
        monkeypatch.setattr(structure, "treewidth", lambda u: (treewidth_upper_bound(u), False))
        inst = ladder_with_terminals(8)
        sol = SolutionSubgraph(inst.host, frozenset(inst.host.arcs()))
        _, rep = reduce_length_graph(sol.as_graph(), inst.requests)
        assert type(rep.tw_before) is int and type(rep.tw_after) is int
        assert not rep.tw_before_exact and not rep.tw_after_exact
        assert rep.certificate_json(0)["treewidth_per_terminal"] == rep.tw_before / len(rep.terminals)

    def test_ladder_widths_skip_the_exact_search(self, monkeypatch):
        """A ladder and its reduction have treewidth 2, which the degree-2
        elimination certifies on its own."""
        monkeypatch.setattr(graphs, "_component_treewidth", lambda *args: pytest.fail("ran the exact search"))
        inst = ladder_with_terminals(12)
        sol = SolutionSubgraph(inst.host, frozenset(inst.host.arcs()))
        _, rep = reduce_length_graph(sol.as_graph(), inst.requests)
        assert (rep.tw_before, rep.tw_before_exact) == (2, True)
        assert (rep.tw_after, rep.tw_after_exact) == (2, True)

    def test_widths_come_from_treewidth_on_both_graphs(self, monkeypatch):
        """The solution's and the reduced graph's widths are `treewidth`'s
        answers on their symmetric closures, in that order."""
        calls = []

        def recorded(u):
            calls.append(u)
            return treewidth(u)

        monkeypatch.setattr(structure, "treewidth", recorded)
        inst = ladder_with_terminals(12)
        sol = SolutionSubgraph(inst.host, frozenset(inst.host.arcs()))
        reduced, rep = reduce_length_graph(sol.as_graph(), inst.requests)
        assert calls == [sol.as_graph().sym(), reduced.sym()]
        assert (rep.tw_before, rep.tw_before_exact) == treewidth(calls[0])
        assert (rep.tw_after, rep.tw_after_exact) == treewidth(calls[1])


class TestAvoidingPath:
    def test_internal_avoidance_endpoints_exempt(self):
        g = WeightedDigraph(range(4), {(0, 1): 1, (1, 3): 1, (0, 2): 1, (2, 3): 1})
        p = avoiding_path(g, 0, 3, avoid={1})
        assert p is not None and p.vertices == (0, 2, 3)
        assert avoiding_path(g, 0, 3, avoid={1, 2}) is None


class TestOntoPathReach:
    @settings(max_examples=80, deadline=None)
    @given(digraphs(), st.data())
    def test_matches_dfs_reference(self, g, data):
        """[DERIVED: depth-first reference onto-path hits]"""
        pset = data.draw(st.sets(st.sampled_from(g.vertices)))
        for src in g.vertices:
            assert _onto_path_reach(g, src, pset) == onto_path_reach_by_dfs(g, src, pset)
            backward = onto_path_reach_by_dfs(g.reverse(), src, pset)
            assert _onto_path_reach(g, src, pset, reverse=True) == backward


class TestComponentAvoiding:
    @settings(max_examples=80, deadline=None)
    @given(digraphs(), st.data())
    def test_matches_components_of_a_copy(self, g, data):
        """[DERIVED: components of the underlying graph without the boundary]"""
        boundary = data.draw(st.sets(st.sampled_from(g.vertices)))
        components = without_vertices(g, boundary).sym().components()
        for v in set(g.vertices) - boundary:
            expected = next(frozenset(c) for c in components if v in c)
            assert component_avoiding(g, v, boundary) == expected

    def test_each_component_is_walked_once_per_boundary(self):
        g = WeightedDigraph(range(5), {(0, 1): 1, (2, 1): 1, (2, 3): 1, (4, 3): 1})
        expanded = []

        class Counted(dict):
            def __getitem__(self, v):
                expanded.append(v)
                return dict.__getitem__(self, v)

        g._out = Counted(g._out)
        left = component_avoiding(g, 0, {2})
        assert left == {0, 1} and sorted(expanded) == [0, 1]
        # Another vertex of it, with the same boundary in another container.
        assert component_avoiding(g, 1, [2]) is left and len(expanded) == 2
        assert component_avoiding(g, 4, (2,)) == {3, 4} and sorted(expanded[2:]) == [3, 4]
        assert component_avoiding(g, 3, {2}) == {3, 4} and len(expanded) == 4
        # Another boundary is walked again.
        assert component_avoiding(g, 3, {1}) == {2, 3, 4} and len(expanded) == 7
        with pytest.raises(InputError, match="unknown vertex id 9"):
            component_avoiding(g, 9, {2})

    @pytest.mark.parametrize("F", [set(), {4, 99}], ids=["empty", "unknown-vertex"])
    def test_replace_rejects_empty_or_foreign_component(self, F):
        inst = ladder_with_terminals(10)
        with pytest.raises(PreconditionError, match="not a connected component"):
            protrusion_replace(inst.host, inst.requests, recognized(F, (0, 1, 18, 19)))
