"""End-to-end acceptance suite.

Each test covers one acceptance criterion over a seeded corpus, cross-checks
independent implementations against each other, and prints a one-line summary.
"""

import random
import time
from fractions import Fraction

from dsnkit.dsn import (
    DsnInstance,
    SolutionSubgraph,
    is_inclusion_minimal,
    minimize,
    normalize_requests_graph,
    reverse_instance,
    validate,
)
from dsnkit.graphs import WeightedDigraph
from dsnkit.ladders import (
    is_ladder_subdivision,
    ladder_corner_requests,
    ladder_two_path_decomposition,
    make_ladder,
)
from dsnkit.reduction import (
    build_labelling,
    check_labelling,
    decide_psi_via_dsn,
    extract_embedding,
    generate_hardness_instance,
    solve_psi_bruteforce,
    verify_embedding,
)
from dsnkit.solvers import _solve_path_union, solve_bnb, solve_dst, solve_exhaustive
from dsnkit.structure import (
    important_vertices,
    marked_vertices,
    realize_request_path,
    reduce_length_graph,
)
from dsnkit.generators import gen_grid

from conftest import PATTERNS, is_ladder_undirected, ladder_with_terminals, random_instances, random_psi_host
from test_ladders import LadderSpec, corner_roles, sampled_specs


def out_star_instance(seed):
    rng = random.Random(seed)
    n = rng.randint(5, 10)
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    m = rng.randint(8, min(22, len(pairs)))
    arcs = {a: Fraction(rng.randint(1, 9)) for a in rng.sample(pairs, m)}
    root = rng.randrange(n)
    leaves = rng.sample([v for v in range(n) if v != root], rng.randint(1, 3))
    return DsnInstance(WeightedDigraph(range(n), arcs), {(root, t) for t in leaves})


def test_criterion_1_branch_and_bound_matches_exhaustive():
    t0 = time.monotonic()
    corpus = random_instances(200, base_seed=1000)
    feasible = 0
    for inst in corpus:
        oracle = solve_exhaustive(inst)
        got = solve_bnb(inst)
        assert got.feasible == oracle.feasible
        if oracle.feasible:
            feasible += 1
            assert got.cost == oracle.cost
            assert validate(inst, got.optimum) is None
            assert is_inclusion_minimal(inst, got.optimum)
    elapsed = time.monotonic() - t0
    assert elapsed < 60
    print(f"criterion 1 ok: 200 instances ({feasible} feasible) "
          f"agree in {elapsed:.1f}s")


def test_criterion_2_steiner_tree_matches_exhaustive():
    t0 = time.monotonic()
    feasible = 0
    for seed in range(120):
        inst = out_star_instance(seed)
        oracle = solve_exhaustive(inst)
        got = solve_dst(inst)
        assert got.feasible == oracle.feasible
        if oracle.feasible:
            feasible += 1
            assert got.cost == oracle.cost
            assert validate(inst, got.optimum) is None
    elapsed = time.monotonic() - t0
    assert elapsed < 60
    print(f"criterion 2 ok: 120 out-star instances ({feasible} feasible) "
          f"agree in {elapsed:.1f}s")


def test_criterion_3_hardness_reduction_is_sound_and_tight():
    t0 = time.monotonic()
    yes = no = 0
    for name, pattern in sorted(PATTERNS.items()):
        for seed in range(30):
            psi = random_psi_host(pattern, seed)
            phi = solve_psi_bruteforce(psi)
            out = generate_hardness_instance(psi)
            decided = decide_psi_via_dsn(out)
            assert decided == (phi is not None)
            result = _solve_path_union(out.dsn)
            if phi is not None:
                yes += 1
                assert result.feasible and result.cost == out.threshold
                extracted = extract_embedding(out, result.optimum)
                verify_embedding(psi, extracted)
            else:
                no += 1
                assert (not result.feasible) or result.cost > out.threshold
    elapsed = time.monotonic() - t0
    assert elapsed < 600
    print(f"criterion 3 ok: 90 hosts over {len(PATTERNS)} patterns "
          f"({yes} yes / {no} no) in {elapsed:.1f}s")


def test_criterion_4_labelling_identities_are_exact():
    checked = 0
    for name, pattern in sorted(PATTERNS.items()):
        for seed in range(10):
            psi = random_psi_host(pattern, seed)
            lab = build_labelling(psi)
            r = lab.r
            assert check_labelling(pattern, lab) is None
            assert lab.num_x <= r + 4
            assert lab.num_y <= r + 3
            assert lab.num_z <= 6 * r - 1
            out = generate_hardness_instance(psi)
            assert len(out.a_y) == pattern.n
            assert len(out.a_z) == 2 * pattern.m
            assert out.threshold == 2 * pattern.n + 3 * pattern.m
            checked += 1
    print(f"criterion 4 ok: labelling identities exact on {checked} instances")


def test_criterion_5_important_and_marked_bounds():
    paths = 0
    for inst in random_instances(120, base_seed=3000):
        result = solve_bnb(inst)
        if not result.feasible:
            continue
        sol = minimize(inst, result.optimum)
        sgraph = sol.as_graph()
        terminals = inst.terminals
        q = inst.q
        for s, t in sorted(normalize_requests_graph(sgraph, terminals)):
            P = realize_request_path(sgraph, terminals, s, t)
            assert P is not None
            imp = important_vertices(sgraph, terminals, P)
            assert len(imp.important) <= 2 * q - 2
            mk = marked_vertices(sgraph, P, imp)
            assert len(mk.marked) <= 4 * max(1, len(imp.important))
            if not imp.important:
                assert not mk.marked
            paths += 1
    assert paths >= 100
    print(f"criterion 5 ok: bounds hold on {paths} realized request paths")


def test_criterion_6_ladder_suite():
    specs = [s for s in sampled_specs(130, seed=11) if s.n >= 2]
    specs += [LadderSpec(n, frozenset()) for n in range(2, 13)]
    specs = sorted(set(specs), key=lambda s: (s.n, sorted(s.identified)))
    assert len(specs) >= 100
    recognized = 0
    for spec in specs:
        g = make_ladder(spec)
        p1, p2 = ladder_two_path_decomposition(g, spec)
        assert set(p1.arcs()) | set(p2.arcs()) == g.arc_set()
        inst = DsnInstance(g, ladder_corner_requests(spec))
        whole = SolutionSubgraph(g, frozenset(g.arc_set()))
        assert validate(inst, whole) is None
        assert is_inclusion_minimal(inst, whole)
        if not spec.identified:
            a, b, c, d = corner_roles(spec)
            verdict = is_ladder_subdivision(g, a, b, c, d)
            assert verdict.ok and verdict.length == spec.n
            assert is_ladder_undirected(g.sym(), a, b, c, d)
            recognized += 1
    print(f"criterion 6 ok: {len(specs)} sampled ladders "
          f"({recognized} plain ones recognized)")


def test_criterion_7_protrusion_replacements():
    total = 0
    cases = [(n, ()) for n in range(10, 28)]
    cases += [(12, (4,)), (14, (6,)), (16, (5, 9)), (18, (7,)), (20, (3, 11))]
    for n, identified in cases:
        inst = ladder_with_terminals(n, identified)
        sol = SolutionSubgraph(inst.host, frozenset(inst.host.arcs()))
        assert validate(inst, sol) is None
        reduced, report = reduce_length_graph(sol.as_graph(), inst.requests)
        assert report.replacements >= 1
        assert report.vertices_after < report.vertices_before
        total += report.replacements
    assert total >= 20
    print(f"criterion 7 ok: {total} verified replacements over {len(cases)} hosts")


def test_criterion_8_planar_corpus_certificates():
    corpus = []
    for n in (6, 8, 10, 12, 14):
        inst = ladder_with_terminals(n)
        corpus.append((f"ladder-{n}", inst,
                       SolutionSubgraph(inst.host, frozenset(inst.host.arcs()))))
    for w, h in ((3, 3), (3, 4), (4, 4)):
        inst, _ = gen_grid(w, h, q=3, seed=1)
        result = solve_bnb(inst)
        assert result.feasible
        corpus.append((f"grid-{w}x{h}", inst, result.optimum))
    for name, inst, sol in corpus:
        _, rep = reduce_length_graph(sol.as_graph(), inst.requests)
        assert rep.tw_before_exact and rep.tw_after_exact
        assert rep.tw_before <= 4 * inst.q, name
        assert rep.diameter_bound_ok, name
        assert not rep.pipeline_increased_tw, name
        assert not rep.flagged, name
    print(f"criterion 8 ok: certificates hold on {len(corpus)} planar hosts")


def test_criterion_9_symmetry_and_stability():
    checked = 0
    for inst in random_instances(60, base_seed=5000):
        fwd = solve_bnb(inst)
        rev = solve_bnb(reverse_instance(inst))
        assert fwd.feasible == rev.feasible
        if fwd.feasible:
            assert fwd.cost == rev.cost
            once = minimize(inst, fwd.optimum)
            assert minimize(inst, once).arcs == once.arcs
            sgraph = once.as_graph()
            rprime = normalize_requests_graph(sgraph, inst.terminals)
            assert rprime == normalize_requests_graph(sgraph, inst.terminals)
            for s, t in rprime:
                assert realize_request_path(sgraph, inst.terminals, s, t) is not None
            checked += 1
    print(f"criterion 9 ok: symmetry and stability on {checked} feasible instances")
