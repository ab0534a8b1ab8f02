import collections
import functools
import itertools
import random
import re
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st
from networkx import DiGraph
from networkx.algorithms.isomorphism import DiGraphMatcher

from dsnkit.dsn import DsnInstance, SolutionSubgraph, is_inclusion_minimal, validate
from dsnkit.errors import InputError
from dsnkit.graphs import UndirectedGraph, WeightedDigraph, necessary_arcs, suppress_degree_two, treewidth
from dsnkit import ladders
from dsnkit.ladders import (
    LadderSpec,
    LadderVerdict,
    _corner_failure,
    _hypotheses_failure,
    is_ladder_subdivision,
    ladder_corner_requests,
    ladder_corners,
    ladder_arcs,
    ladder_rungs,
    ladder_two_path_decomposition,
    make_ladder,
)

from conftest import digraphs, is_ladder_undirected, is_outerplanar, reaches, six_family_ladder, without_vertices


def corner_roles(spec):
    """The (a, b, c, d) roles under which the recognizer accepts a ladder."""
    a1, b1, an, bn = ladder_corners(spec)
    if spec.n % 2 == 0:
        return a1, b1, bn, an
    return a1, b1, an, bn


def sampled_specs(count=120, max_n=12, seed=5):
    rng = random.Random(seed)
    pool = []
    for n in range(1, max_n + 1):
        for size in range(0, 4):
            for ident in itertools.combinations(range(1, n + 1), size):
                pool.append(LadderSpec(n, frozenset(ident)))
    return rng.sample(pool, count)


def reference_suppress_outside(K, keep):
    """Suppression that rejects (None) any degree-2 vertex that is not a
    clean pass-through, instead of assuming the hypotheses hold."""
    g = K
    while True:
        target = None
        for v in g.vertices:
            if v not in keep and g.total_degree(v) == 2:
                target = v
                break
        if target is None:
            return g
        v = target
        ins, outs = g.in_neighbors(v), g.out_neighbors(v)
        if len(ins) != 1 or len(outs) != 1:
            return None
        u, w = ins[0], outs[0]
        if u == w:
            return None
        arcs = g.arcs()
        wt = arcs.pop((u, v)) + arcs.pop((v, w))
        if (u, w) in arcs:
            return None
        arcs[(u, w)] = wt
        g = WeightedDigraph(set(g.vertices) - {v}, arcs)


def recognizer_suppression(K, roles):
    """The graph that `is_ladder_subdivision(K, *roles)` suppresses K to;
    the hypotheses must hold."""
    suppressed = []

    def recorded(graph, keep):
        suppressed.append(suppress_degree_two(graph, keep))
        return suppressed[-1]

    with mock.patch.object(ladders, "suppress_degree_two", recorded):
        is_ladder_subdivision(K, *roles)
    (g,) = suppressed
    return g


def seeded_subdivision(g, rng):
    """g with each arc, with probability 1/3, replaced by a path through one
    to three fresh vertices, each arc of it of weight 1 to 3."""
    vertices, arcs = set(g.vertices), {}
    fresh = max(vertices) + 1
    for (u, v), w in sorted(g.arcs().items()):
        if rng.random() < 2 / 3:
            arcs[(u, v)] = w
            continue
        walk = [u, *range(fresh, fresh + rng.randint(1, 3)), v]
        fresh += len(walk) - 2
        vertices.update(walk)
        arcs.update({(x, y): rng.randint(1, 3) for x, y in zip(walk, walk[1:])})
    return WeightedDigraph(vertices, arcs)


def reference_hypotheses_failure(K, a, b, c, d):
    """Reference: the hypothesis bullets, with one pair of reachability
    checks per arc, on a copy without that arc, for minimality.  The
    recognizer checks the first two bullets only (`BULLET`); an accepted K
    meets all of them."""
    for v in (a, b, c, d):
        if not K.has_vertex(v):
            return f"boundary vertex {v} missing"
    fail = _corner_failure(K, a, b, "ab") or _corner_failure(K, c, d, "cd")
    if fail:
        return fail
    if not reaches(K, a, d):
        return "no directed path from a to d"
    if not reaches(K, c, b):
        return "no directed path from c to b"
    for arc in sorted(K.arc_set()):
        if arc in {(a, b), (c, d)}:
            continue
        rest = K.without_arc(*arc)
        if reaches(rest, a, d) and reaches(rest, c, b):
            return f"not inclusion-minimal: arc {arc} is removable"
    iso = [v for v in K.vertices if K.total_degree(v) == 0 and v not in {a, b, c, d}]
    if iso:
        return f"isolated vertex {iso[0]}"
    return None


# The reasons of the hypothesis bullets that the recognizer still checks.
BULLET = re.compile(
    r"boundary vertex \d+ missing|arc (ab|cd) missing|[a-d] is not the only (in|out)-neighbor of [a-d]"
)


def reference_is_ladder_subdivision(K, a, b, c, d):
    """Reference recognizer by suppress and peel: checks the hypotheses
    before and after suppressing at every peel level, and tests every
    corner arc.  It misreads some ladders (`kept_reference_verdict`)."""
    peeled = 0

    def reject(reason):
        return LadderVerdict(False, 0, "peel: " * peeled + reason)

    while True:
        fail = reference_hypotheses_failure(K, a, b, c, d)
        if fail is not None:
            return reject(fail)
        g = reference_suppress_outside(K, {a, b, c, d})
        if g is None:
            return reject("degree-2 vertex is not a pass-through")
        fail = reference_hypotheses_failure(g, a, b, c, d)
        if fail is not None:
            return reject(f"after suppression: {fail}")
        if g.n <= 4:
            return LadderVerdict(True, (1 if g.n == 1 else 2) + peeled)
        if {a, b} & {c, d}:
            return reject("boundary pairs overlap in a large graph")
        if a != b:
            a_in = set(g.in_neighbors(a)) - {b}
            a_out = set(g.out_neighbors(a)) - {b}
            b_in = set(g.in_neighbors(b)) - {a}
            b_out = set(g.out_neighbors(b)) - {a}
            if a_out or b_in:
                return reject("corner has an extra arc")
            if len(a_in) != 1 or len(b_out) != 1:
                return reject("corner column is not attached by two rails")
            abar, bbar = next(iter(a_in)), next(iter(b_out))
        else:
            a_in = set(g.in_neighbors(a))
            a_out = set(g.out_neighbors(a))
            if len(a_in) != 1 or len(a_out) != 1:
                return reject("identified corner is not attached by two rails")
            abar, bbar = next(iter(a_in)), next(iter(a_out))
            if abar == bbar:
                return reject("identified corner attached to a single vertex")
        K, a, b = without_vertices(g, {a, b}), bbar, abar
        peeled += 1


def _role_digraph(vertices, arcs, roles):
    """A networkx digraph whose vertices carry the indices of the roles they play."""
    h = DiGraph()
    h.add_nodes_from((v, {"roles": {i for i, r in enumerate(roles) if r == v}}) for v in vertices)
    h.add_edges_from(arcs)
    return h


def _degrees(h):
    """The sorted (in-degree, out-degree, roles) triples of h's vertices."""
    return sorted((h.in_degree(v), h.out_degree(v), sorted(h.nodes[v]["roles"])) for v in h)


@functools.lru_cache(maxsize=None)
def _corner_ladder(n, ident):
    """G_{n,I} with its corners (t_1, h_1, t_n, h_n) as roles, and its `_degrees`."""
    rungs = ladder_rungs(LadderSpec(n, ident))
    h = _role_digraph({v for r in rungs for v in r}, ladder_arcs(rungs), (*rungs[0], *rungs[-1]))
    return h, _degrees(h)


def ladder_by_isomorphism(K, roles):
    """(spec, map) for the ladder G_{n,I} whose corners (t_1, h_1, t_n, h_n)
    go to `roles` under an isomorphism `map` onto K's reference suppression,
    found by networkx; None when there is none or K lacks a corner arc
    ab or cd.  G_{n,I} has 2n - |I| vertices and 3n - |I| - 2 arcs, which
    fixes n and |I|."""
    a, b, c, d = roles
    g = reference_suppress_outside(K, set(roles))
    if g is None or any(x != y and not K.has_arc(x, y) for x, y in ((a, b), (c, d))):
        return None
    n = g.m - g.n + 2
    if not 0 <= 2 * n - g.n <= n:
        return None
    target = _role_digraph(g.vertices, g.arc_set(), roles)
    degrees = _degrees(target)
    for ident in itertools.combinations(range(1, n + 1), 2 * n - g.n):
        ladder, ladder_degrees = _corner_ladder(n, ident)
        if ladder_degrees != degrees:
            continue
        matcher = DiGraphMatcher(ladder, target, node_match=lambda x, y: x["roles"] == y["roles"])
        if matcher.is_isomorphic():
            return LadderSpec(n, ident), matcher.mapping
    return None


def oracle_verdict(K, roles):
    """(ok, length) by definition, from `ladder_by_isomorphism`."""
    found = ladder_by_isomorphism(K, roles)
    return (True, found[0].n) if found else (False, 0)


def kept_reference_verdict(K, roles, truth):
    """The reference recognizer's verdict where the recognizer keeps it, else
    None: an acceptance at the oracle's length, or a rejection by a bullet
    both check first; `truth` is `oracle_verdict(K, roles)`.  Elsewhere the
    peel misread a ladder or rejected for a reason the recognizer no longer
    gives."""
    want = reference_is_ladder_subdivision(K, *roles)
    if want[:2] == truth and (want.ok or BULLET.fullmatch(want.reason)):
        return want
    return None


def ladder_with(spec, added=(), removed=(), vertices=()):
    """G_{n,I} with unit arcs `added`, without the arcs `removed`, and with
    the extra `vertices`."""
    g = make_ladder(spec)
    arcs = {**g.arcs(), **dict.fromkeys(added, 1)}
    for arc in removed:
        del arcs[arc]
    return WeightedDigraph({*g.vertices, *vertices, *(v for arc in added for v in arc)}, arcs)


# (K, roles, reason) per rejection past the bullets.  On G_4 the rungs are
# 0 -> 1, 3 -> 2, 4 -> 5 and 7 -> 6, and the corner roles (0, 1, 7, 6); 8
# and 9 are fresh.
G4_ROLES = (0, 1, 7, 6)
NOT_A_PASS_THROUGH = "a degree-2 vertex is not a pass-through"
NO_SPAN = "the rails from ab to cd do not span a ladder"
REJECTIONS = {
    "degree-2-source": (ladder_with(LadderSpec(4), [(8, 0), (8, 7)]), G4_ROLES, NOT_A_PASS_THROUGH),
    "degree-2-sink": (ladder_with(LadderSpec(4), [(1, 8), (6, 8)]), G4_ROLES, NOT_A_PASS_THROUGH),
    "two-cycle": (ladder_with(LadderSpec(4), [(2, 8), (8, 2)]), G4_ROLES, NOT_A_PASS_THROUGH),
    "parallel-paths": (
        ladder_with(LadderSpec(4), [(5, 8), (8, 7), (5, 9), (9, 7)], removed=[(5, 7)]),
        G4_ROLES,
        "two pass-through paths merge into one arc",
    ),
    "shortcut": (ladder_with(LadderSpec(4), [(3, 4)]), G4_ROLES, NO_SPAN),
    "isolated-vertex": (ladder_with(LadderSpec(4), vertices=[8]), G4_ROLES, NO_SPAN),
    "one-way-path": (
        WeightedDigraph(range(4), {(0, 1): 1, (1, 2): 1, (2, 3): 1}),
        (0, 1, 2, 3),
        "rung 1 is not joined to a next rung by two rails",
    ),
    # On G_6 rung 3 is 4 -> 5 and rung 5 is 8 -> 9: a second rail out of h_3.
    "two-next-tails": (
        ladder_with(LadderSpec(6), [(5, 8)]), (0, 1, 11, 10), "rung 3 is not joined to a next rung by two rails",
    ),
}


@st.composite
def random_roles(draw):
    """(K, roles): a random digraph on 2 to 8 vertices with roles drawn from
    its vertices."""
    K = draw(digraphs(max_n=8, density=0.5))
    return K, tuple(draw(st.sampled_from(K.vertices)) for _ in range(4))


PERTURBATIONS = ("subdivide", "delete", "add", "bidirectional", "two-cycle")


@st.composite
def perturbed_ladders(draw):
    """(K, roles): a ladder, any identified rungs (consecutive ones too),
    up to three perturbations, and roles that are mostly the corners, with
    a == b and c == d forced now and then."""
    n = draw(st.integers(1, 9))
    spec = LadderSpec(n, draw(st.sets(st.integers(1, n), max_size=n)))
    g = make_ladder(spec)
    vertices = set(g.vertices)
    arcs = g.arcs()
    fresh = 2 * n
    for op in draw(st.lists(st.sampled_from(PERTURBATIONS), max_size=3)):
        if op == "add":
            free = [(u, v) for u in sorted(vertices) for v in sorted(vertices)
                    if u != v and (u, v) not in arcs]
            if free:
                arcs[draw(st.sampled_from(free))] = 1
            continue
        if not arcs:
            continue
        u, v = draw(st.sampled_from(sorted(arcs)))
        if op == "delete":
            del arcs[(u, v)]
            continue
        x = fresh
        fresh += 1
        vertices.add(x)
        if op == "subdivide":
            del arcs[(u, v)]
            arcs[(u, x)] = arcs[(x, v)] = draw(st.integers(1, 3))
        elif op == "bidirectional":
            # x has two neighbours and four arcs: u -> x -> v and v -> x -> u.
            del arcs[(u, v)]
            arcs.pop((v, u), None)
            arcs[(u, x)] = arcs[(x, v)] = arcs[(v, x)] = arcs[(x, u)] = 1
        else:
            arcs[(u, x)] = arcs[(x, u)] = 1
    K = WeightedDigraph(vertices, arcs)
    roles = list(corner_roles(spec))
    for i in range(4):
        if draw(st.integers(0, 3)) == 0:
            roles[i] = draw(st.sampled_from(sorted(vertices)))
    if draw(st.integers(0, 5)) == 0:
        roles[1] = roles[0]
    if draw(st.integers(0, 5)) == 0:
        roles[2] = roles[3]
    return K, tuple(roles)


class TestConstruction:
    def test_frozen_counts_plain_six(self):
        g = make_ladder(LadderSpec(6, frozenset()))
        assert g.n == 12
        assert len(g.sym().edges) == 16

    def test_identification_collapses(self):
        g = make_ladder(LadderSpec(6, frozenset({2, 5})))
        assert g.n == 10

    def test_spec_validation(self):
        with pytest.raises(InputError):
            LadderSpec(0, frozenset())
        with pytest.raises(InputError):
            LadderSpec(4, frozenset({5}))

    def test_matches_six_family_reference_on_every_small_spec(self):
        """[DERIVED: the generator written as six arc families] on all 2,046
        specs with n <= 10, with their rungs and two-path decompositions."""
        cases = 0
        for n in range(1, 11):
            for size in range(n + 1):
                for ident in itertools.combinations(range(1, n + 1), size):
                    spec = LadderSpec(n, ident)
                    g, ref = make_ladder(spec), six_family_ladder(spec)
                    assert (g.vertices, g.arcs()) == (ref.vertices, ref.arcs())
                    assert all(ref.has_arc(u, v) for u, v in ladder_rungs(spec) if u != v)
                    p1, p2 = ladder_two_path_decomposition(g, spec)
                    assert set(p1.arcs()) | set(p2.arcs()) == g.arc_set()
                    arcs = ladder_arcs(ladder_rungs(spec))
                    assert len(arcs) == len(set(arcs)) and set(arcs) == g.arc_set()
                    cases += 1
        assert cases == 2046


class TestTwoPathDecomposition:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_arc_union_and_endpoints(self, n):
        spec = LadderSpec(n, frozenset())
        g = make_ladder(spec)
        p1, p2 = ladder_two_path_decomposition(g, spec)
        union = set(p1.arcs()) | set(p2.arcs())
        assert union == g.arc_set()
        a1, b1, an, bn = ladder_corners(spec)
        if n % 2 == 0:
            assert (p1.start, p1.end) == (a1, an)
            assert (p2.start, p2.end) == (bn, b1)
        else:
            assert (p1.start, p1.end) == (a1, bn)
            assert (p2.start, p2.end) == (an, b1)

    def test_rejects_the_graph_of_another_spec(self):
        with pytest.raises(InputError, match="graph does not match the ladder spec"):
            ladder_two_path_decomposition(make_ladder(LadderSpec(5, frozenset())), LadderSpec(6, frozenset()))

    def test_identified_specs(self):
        for spec in sampled_specs(40, seed=9):
            g = make_ladder(spec)
            p1, p2 = ladder_two_path_decomposition(g, spec)
            assert set(p1.arcs()) | set(p2.arcs()) == g.arc_set()


class TestRecognizer:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_accepts_generated_with_exact_length(self, n):
        """Every G_{n,I} with n <= 12 under `corner_roles`, and its reversal
        (every arc reversed, roles (d, c, b, a)); each also under the
        mirrored roles (the mirror lemma)."""
        for size in range(n + 1):
            for ident in itertools.combinations(range(1, n + 1), size):
                spec = LadderSpec(n, ident)
                g = make_ladder(spec)
                a, b, c, d = corner_roles(spec)
                reversal = WeightedDigraph(g.vertices, {(v, u): w for (u, v), w in g.arcs().items()})
                assert is_ladder_subdivision(g, a, b, c, d) == LadderVerdict(True, n), spec
                assert is_ladder_subdivision(reversal, d, c, b, a) == LadderVerdict(True, n), spec
                assert is_ladder_subdivision(g, c, d, a, b) == LadderVerdict(True, n), spec
                assert is_ladder_subdivision(reversal, b, a, d, c) == LadderVerdict(True, n), spec

    def test_an_accepted_verdict_mirrors(self):
        """[DERIVED: the mirror lemma] On 10,000 seeded random digraphs of 2
        to 8 vertices with random roles, every (a, b, c, d) accepted gives
        the identical verdict for (c, d, a, b)."""
        rng = random.Random(49)
        accepted = 0
        for _ in range(10_000):
            n, density = rng.randint(2, 8), rng.random()
            arcs = [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < density]
            K = WeightedDigraph(range(n), dict.fromkeys(arcs, 1))
            a, b, c, d = (rng.randrange(n) for _ in range(4))
            verdict = is_ladder_subdivision(K, a, b, c, d)
            if verdict.ok:
                accepted += 1
                assert is_ladder_subdivision(K, c, d, a, b) == verdict, (K.arcs(), (a, b, c, d))
        assert accepted >= 50

    def test_a_rejection_does_not_mirror(self):
        """The walk from (c, d) meets the extra rail h_3 -> t_5 of G_6 at
        its own rung 2, so a rejection's reason is not the mirrored roles'
        and is never reused for them."""
        K, roles, reason = REJECTIONS["two-next-tails"]
        a, b, c, d = roles
        assert is_ladder_subdivision(K, a, b, c, d) == LadderVerdict(False, 0, reason)
        mirrored = is_ladder_subdivision(K, c, d, a, b)
        assert mirrored == LadderVerdict(False, 0, "rung 2 is not joined to a next rung by two rails")

    def test_accepts_subdivided(self):
        # suppressible pass-through vertices must not change the verdict
        from fractions import Fraction

        spec = LadderSpec(8, frozenset())
        g = make_ladder(spec)
        (u, v) = sorted(g.arc_set())[3]
        arcs = dict(g.arcs())
        del arcs[(u, v)]
        arcs[(u, 99)] = Fraction(1)
        arcs[(99, v)] = Fraction(1)
        from dsnkit.graphs import WeightedDigraph

        g2 = WeightedDigraph(set(g.vertices) | {99}, arcs)
        verdict = is_ladder_subdivision(g2, *corner_roles(spec))
        assert verdict.ok and verdict.length == 8

    def test_rejects_a_role_outside_the_graph(self):
        spec = LadderSpec(4, frozenset())
        g = make_ladder(spec)
        a, b, c, _ = corner_roles(spec)
        missing = max(g.vertices) + 1
        verdict = is_ladder_subdivision(g, a, b, c, missing)
        assert verdict == LadderVerdict(False, 0, f"boundary vertex {missing} missing")

    def test_rejects_bidirected_clique(self):
        from dsnkit.graphs import WeightedDigraph

        g = WeightedDigraph(range(4), {(u, v): 1 for u in range(4) for v in range(4) if u != v})
        assert not is_ladder_subdivision(g, 0, 1, 2, 3).ok

    def test_rejects_broken_rail(self):
        spec = LadderSpec(8, frozenset())
        g = make_ladder(spec)
        roles = corner_roles(spec)
        # removing any non-corner-rung arc destroys the two-path cover
        for u, v in sorted(g.arc_set()):
            if (u, v) in {(roles[0], roles[1]), (roles[2], roles[3])}:
                continue
            assert not is_ladder_subdivision(g.without_arc(u, v), *roles).ok
            break


    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_rejects_a_ladder_with_removable_arcs(self, data):
        """[DERIVED: copy-per-arc search for the first removable arc]  An
        accepted graph is minimal, so extra arcs that keep the corner
        bullets get a rejection past them."""
        spec = LadderSpec(data.draw(st.integers(3, 9)))
        g = make_ladder(spec)
        a, b, c, d = corner_roles(spec)
        # Extra arcs keep the corner bullets: nothing leaves a or c, nothing
        # enters b or d.  The ladder stays a solution, so K is not minimal.
        candidates = [
            (u, v) for u in g.vertices for v in g.vertices
            if u != v and not g.has_arc(u, v) and u not in {a, c} and v not in {b, d}
        ]
        extra = data.draw(st.sets(st.sampled_from(candidates), min_size=1, max_size=3))
        arcs = dict(g.arcs())
        arcs.update({arc: 1 for arc in extra})
        K = WeightedDigraph(g.vertices, arcs)
        first = next(
            arc for arc in sorted(K.arc_set())
            if arc not in {(a, b), (c, d)}
            and reaches(K.without_arc(*arc), a, d)
            and reaches(K.without_arc(*arc), c, b)
        )
        assert reference_hypotheses_failure(K, a, b, c, d) == f"not inclusion-minimal: arc {first} is removable"
        assert _hypotheses_failure(K, a, b, c, d) is None
        assert not is_ladder_subdivision(K, a, b, c, d).ok

    @pytest.mark.parametrize("pair", ["ab", "cd"])
    def test_a_corner_failure_is_the_reason(self, pair, monkeypatch):
        # The bullets run on the two corner pairs only, and a failing one
        # is the verdict's reason as it stands.
        spec = LadderSpec(20, frozenset())
        a, b, c, d = corner_roles(spec)
        checked = []
        original = ladders._corner_failure

        def fail_on_pair(K, x, y, names):
            checked.append((x, y, names))
            return "stop" if names == pair else original(K, x, y, names)

        monkeypatch.setattr(ladders, "_corner_failure", fail_on_pair)
        verdict = is_ladder_subdivision(make_ladder(spec), a, b, c, d)
        assert verdict == LadderVerdict(False, 0, "stop")
        assert checked == [(a, b, "ab"), (c, d, "cd")][: 1 if pair == "ab" else 2]

    def test_checks_hypotheses_once_and_rebuilds_no_graph(self, monkeypatch):
        calls = collections.Counter()

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        spec = LadderSpec(20)
        g = make_ladder(spec)
        monkeypatch.setattr(ladders, "_hypotheses_failure", counted("hypotheses", ladders._hypotheses_failure))
        monkeypatch.setattr(WeightedDigraph, "__init__", counted("builds", WeightedDigraph.__init__))
        assert is_ladder_subdivision(g, *corner_roles(spec)) == LadderVerdict(True, 20)
        assert calls["hypotheses"] == 1
        assert calls["builds"] == 0

    def test_matches_reference_on_every_small_ladder(self):
        """[DERIVED: reference recognizer on every ladder with n <= 8, under
        every order of its four corners, where it reads the ladder right;
        the isomorphism oracle everywhere]  The reference misreads 787 of
        the 6,865: 568 ladders rejected at consecutive identified rungs,
        209 read at a wrong length, and a 2-cycle with overlapping roles
        accepted twice; 8 rejections give a reason the recognizer no longer
        gives."""
        cases = changed = 0
        for n in range(1, 9):
            for size in range(n + 1):
                for ident in itertools.combinations(range(1, n + 1), size):
                    spec = LadderSpec(n, ident)
                    g = make_ladder(spec)
                    for roles in sorted(set(itertools.permutations(ladder_corners(spec)))):
                        got, truth = is_ladder_subdivision(g, *roles), oracle_verdict(g, roles)
                        assert got[:2] == truth, (spec, roles)
                        kept = kept_reference_verdict(g, roles, truth)
                        assert kept is None or got == kept, (spec, roles)
                        cases += 1
                        changed += kept is None
        assert (cases, changed) == (6865, 787)

    @settings(max_examples=400, deadline=None)
    @given(perturbed_ladders())
    def test_matches_reference_recognizer(self, case):
        """[DERIVED: reference recognizer that checks twice per peel level,
        where it reads the input right; the isomorphism oracle everywhere]"""
        K, roles = case
        got, truth = is_ladder_subdivision(K, *roles), oracle_verdict(K, roles)
        assert got[:2] == truth
        kept = kept_reference_verdict(K, roles, truth)
        assert kept is None or got == kept

    @pytest.mark.parametrize("name", sorted(REJECTIONS))
    def test_rejection_reasons(self, name):
        """[DERIVED: networkx isomorphism onto G_{n,I}; the reference's
        per-arc minimality check] each reason past the bullets, on a graph
        that is no ladder and, but for an isolated vertex or a missing
        path, not minimal."""
        K, roles, reason = REJECTIONS[name]
        assert is_ladder_subdivision(K, *roles) == LadderVerdict(False, 0, reason)
        assert _hypotheses_failure(K, *roles) is None and ladder_by_isomorphism(K, roles) is None
        want = reference_hypotheses_failure(K, *roles)
        assert want.startswith("not inclusion-minimal") or name in {"isolated-vertex", "one-way-path"}

    def test_rejects_a_suppression_that_drops_an_arc(self, monkeypatch):
        # A faulty suppression that deletes one arc and merges nothing.
        spec = LadderSpec(4, frozenset())
        K = make_ladder(spec)
        assert is_ladder_subdivision(K, *corner_roles(spec)).ok
        monkeypatch.setattr(ladders, "suppress_degree_two", lambda g, keep: g.without_arc(*min(g.arc_set())))
        verdict = is_ladder_subdivision(K, *corner_roles(spec))
        assert verdict == LadderVerdict(False, 0, "two pass-through paths merge into one arc")

    @settings(max_examples=400, deadline=None)
    @given(st.one_of(random_roles(), perturbed_ladders()))
    def test_every_input_ends_in_a_verdict(self, case):
        """[DERIVED: networkx isomorphism onto G_{n,I}; the necessary-arc walk]
        No input raises.  An accepted K suppresses, under the role map, to
        `make_ladder(LadderSpec(length, I))` and is inclusion-minimal for
        (a, d) and (c, b); a rejected K has no such ladder."""
        K, roles = case
        verdict = is_ladder_subdivision(K, *roles)
        found = ladder_by_isomorphism(K, roles)
        assert verdict.ok == (found is not None)
        if verdict.ok:
            (spec, onto), (a, b, c, d) = found, roles
            back = {v: u for u, v in onto.items()}
            g = reference_suppress_outside(K, set(roles))
            assert spec.n == verdict.length
            relabelled = WeightedDigraph(back.values(), {(back[u], back[v]): 1 for u, v in g.arc_set()})
            assert relabelled == make_ladder(spec)
            need = necessary_arcs(K, [(a, d), (c, b)])
            assert need is not None and K.arc_set() - need <= {(a, b), (c, d)}

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(perturbed_ladders(), random_roles()))
    def test_hypotheses_match_per_arc_reference(self, case):
        """[DERIVED: reachability pair per arc on a copy without it]  The
        bullets the recognizer checks fail as the reference's do, and an
        accepted K meets every hypothesis, minimality included."""
        K, roles = case
        want = reference_hypotheses_failure(K, *roles)
        assert _hypotheses_failure(K, *roles) == (want if want is None or BULLET.fullmatch(want) else None)
        if is_ladder_subdivision(K, *roles).ok:
            assert want is None

    @settings(max_examples=300, deadline=None)
    @given(perturbed_ladders())
    def test_suppression_keeps_hypotheses(self, case):
        K, roles = case
        if reference_hypotheses_failure(K, *roles) is None:
            g = recognizer_suppression(K, roles)
            assert g == reference_suppress_outside(K, set(roles))
            assert reference_hypotheses_failure(g, *roles) is None

    def test_suppression_matches_reference_on_every_small_ladder(self):
        """[DERIVED: rescanning suppression that rejects any degree-2 vertex
        that is not a pass-through] on every ladder with n <= 8, plain and
        with two seeded subdivisions, under every order of its four corners
        that meets the hypotheses."""
        rng = random.Random(8)
        cases = suppressed = 0
        for n in range(1, 9):
            for size in range(n + 1):
                for ident in itertools.combinations(range(1, n + 1), size):
                    spec = LadderSpec(n, ident)
                    g = make_ladder(spec)
                    for K in (g, seeded_subdivision(g, rng), seeded_subdivision(g, rng)):
                        for roles in sorted(set(itertools.permutations(ladder_corners(spec)))):
                            if reference_hypotheses_failure(K, *roles) is None:
                                got = recognizer_suppression(K, roles)
                                assert got == reference_suppress_outside(K, set(roles)), (spec, roles)
                                cases += 1
                                suppressed += got.n < K.n
        assert (cases, suppressed) == (2471, 1422)


class TestUndirectedView:
    def test_sym_ladders_pass(self):
        for n in (2, 5, 8, 12):
            spec = LadderSpec(n, frozenset())
            g = make_ladder(spec)
            assert is_ladder_undirected(g.sym(), *corner_roles(spec))

    @pytest.mark.parametrize("change", ["rung removed", "diagonal added", "K_2,3"])
    def test_non_ladders_fail(self, change):
        """Removing interior rung 3 leaves a_3 and b_3 with degree 2, and a
        diagonal a_3 b_4 raises both ends to degree 4; either graph is still
        2-connected and outerplanar, so only the degree check rejects it.
        K_{2,3} is not outerplanar."""
        spec = LadderSpec(6, frozenset())
        u = make_ladder(spec).sym()
        roles = corner_roles(spec)
        if change == "rung removed":
            u = UndirectedGraph(u.vertices, [e for e in u.edges if set(e) != {spec.a(3), spec.b(3)}])
        elif change == "diagonal added":
            u = UndirectedGraph(u.vertices, list(u.edges) + [(spec.a(3), spec.b(4))])
        else:
            u = UndirectedGraph(range(5), [(i, j) for i in (0, 1) for j in (2, 3, 4)])
            roles = (0, 2, 1, 3)
        assert not is_ladder_undirected(u, *roles)

    def test_outerplanar_and_width_two(self):
        """ladders are outerplanar, hence treewidth 2 once they contain a cycle"""
        for n in (4, 8, 12):
            u = make_ladder(LadderSpec(n, frozenset())).sym()
            assert is_outerplanar(u)
            assert treewidth(u) == (2, True)

    def test_k4_not_outerplanar(self):
        u = UndirectedGraph(range(4), [(i, j) for i in range(4) for j in range(i + 1, 4)])
        assert not is_outerplanar(u)


class TestStrongConnectivity:
    @pytest.mark.parametrize("n", [2, 3, 6, 9, 12])
    def test_corner_requests_minimal(self, n):
        spec = LadderSpec(n, frozenset())
        g = make_ladder(spec)
        inst = DsnInstance(g, ladder_corner_requests(spec))
        sol = SolutionSubgraph(g, frozenset(g.arcs()))
        assert validate(inst, sol) is None
        assert is_inclusion_minimal(inst, sol)
