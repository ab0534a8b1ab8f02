import warnings

import pytest

from dsnkit.dsn import SolutionSubgraph, validate
from dsnkit import solvers
from dsnkit.errors import CapacityError, InputError, InvariantError, PreconditionError
from dsnkit.graphs import UndirectedGraph
from dsnkit.reduction import (
    PSI_BRUTEFORCE_MAX_K,
    PsiInstance,
    build_dsn,
    build_labelling,
    ceil_sqrt,
    check_labelling,
    decide_psi_via_dsn,
    embedding_solution,
    extract_embedding,
    generate_hardness_instance,
    solve_psi_bruteforce,
    verify_embedding,
)
from dsnkit.solvers import _solve_path_union

from conftest import CUBE, K33, K4, PATTERNS, random_psi_host


def identity_psi(pattern):
    return PsiInstance(pattern, pattern, {i: i for i in pattern.vertices})


class TestLabelling:
    @pytest.mark.parametrize("name", sorted(PATTERNS))
    def test_conditions_and_size_bounds(self, name):
        pattern = PATTERNS[name]
        lab = build_labelling(identity_psi(pattern))
        assert check_labelling(pattern, lab) is None
        r = lab.r
        assert r == ceil_sqrt(pattern.n)
        assert lab.num_x <= r + 4
        assert lab.num_y <= r + 3
        assert lab.num_z <= 6 * r - 1

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"alpha": {1: 0}, "beta": {1: 0}}, "vertices 0,1 share both alpha and beta"),
            ({"alpha": {1: 0}}, "edge 0,1 has alpha-equal endpoints"),
            ({"beta": {1: 0}}, "edge 0,1 has beta-equal endpoints"),
            ({"gamma": {(0, 2): 0}}, "edges (0, 1),(0, 2) with alpha-linked endpoints share gamma"),
        ],
    )
    def test_each_violation_is_reported(self, changes, message):
        # On K4 every vertex has its own alpha and beta colour.  The edges
        # (0, 1) and (2, 3) already share gamma 0, which is allowed because
        # no endpoints of theirs share an alpha colour.
        lab = build_labelling(identity_psi(K4))
        broken = lab._replace(**{f: {**getattr(lab, f), **c} for f, c in changes.items()})
        assert check_labelling(K4, broken) == message

    def test_k4_sizes(self):
        lab = build_labelling(identity_psi(K4))
        assert lab.r == 2
        assert lab.num_x <= 6 and lab.num_y <= 5 and lab.num_z <= 11

    def test_adjacent_vertices_get_distinct_alpha(self):
        for name, pattern in sorted(PATTERNS.items()):
            lab = build_labelling(identity_psi(pattern))
            for u, v in pattern.edges:
                assert lab.alpha[u] != lab.alpha[v]
                assert lab.beta[u] != lab.beta[v]

    def test_degree_four_rejected(self):
        star = UndirectedGraph(range(5), [(0, i) for i in range(1, 5)])
        psi = PsiInstance(star, star, {i: i for i in range(5)})
        with pytest.raises(InputError, match="degree 3"):
            build_labelling(psi)

    def test_sub_3_regular_warns(self):
        path = UndirectedGraph(range(3), [(0, 1), (1, 2)])
        psi = PsiInstance(path, path, {i: i for i in range(3)})
        with pytest.warns(UserWarning, match="3-regular"):
            build_labelling(psi)


class TestBuildDsn:
    def test_k4_identity_counts(self):
        psi = identity_psi(K4)
        out = build_dsn(psi, build_labelling(psi))
        assert len(out.a_y) == 4
        assert len(out.a_z) == 12
        assert out.dsn.p == 16
        assert out.threshold == 2 * 4 + 3 * 6
        expected_n = 4 + 6 + out.labelling.num_x + out.labelling.num_y + out.labelling.num_z
        assert out.dsn.host.n == expected_n

    def test_strata_partition_arcs(self):
        out = generate_hardness_instance(identity_psi(K33))
        assert not (out.a_v_arcs & out.a_w_arcs)
        assert out.a_v_arcs | out.a_w_arcs == set(out.dsn.host.arcs())

    def test_unit_weights(self):
        out = generate_hardness_instance(identity_psi(CUBE))
        assert all(w == 1 for w in out.dsn.host.arcs().values())

    def test_single_edge_micro_instance(self):
        # one pattern edge realized by one matching host edge: the drawn
        # pattern alpha(u) -> u -> w -> gamma plus u -> beta(u)
        h = UndirectedGraph(range(2), [(0, 1)])
        g = UndirectedGraph(range(2), [(0, 1)])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            out = generate_hardness_instance(PsiInstance(g, h, {0: 0, 1: 1}))
        w = out.w_vertex[(0, 1)]
        lab = out.labelling
        for u in (0, 1):
            assert (out.x_vertex[lab.alpha[u]], u) in out.a_v_arcs
            assert (u, out.y_vertex[lab.beta[u]]) in out.a_v_arcs
            assert (u, w) in out.a_w_arcs
        assert (w, out.z_vertex[lab.gamma[(0, 1)]]) in out.a_w_arcs

    def test_q_order_sqrt_k(self):
        for pattern in (K4, K33, CUBE):
            out = generate_hardness_instance(identity_psi(pattern))
            r = out.labelling.r
            assert out.dsn.q <= 8 * r + 6


class TestDecide:
    def test_k4_in_k4(self):
        assert decide_psi_via_dsn(generate_hardness_instance(identity_psi(K4))) is True

    def test_k4_not_in_c4(self):
        c4 = UndirectedGraph(range(4), [(0, 1), (1, 2), (2, 3), (0, 3)])
        psi = PsiInstance(c4, K4, {i: i for i in range(4)})
        assert decide_psi_via_dsn(generate_hardness_instance(psi)) is False

    def test_empty_class_means_no(self):
        host = UndirectedGraph(range(4), [(0, 1)])
        psi = PsiInstance(host, K4, {0: 0, 1: 1, 2: 0, 3: 1})
        assert solve_psi_bruteforce(psi) is None
        assert decide_psi_via_dsn(generate_hardness_instance(psi)) is False

    def test_threshold_stop_builds_no_split_weights(self, monkeypatch):
        outs = [generate_hardness_instance(psi) for psi in (identity_psi(K4), random_psi_host(K4, 0, planted=True))]
        for out in outs:
            # The host keeps its integer weights; their scale is an lcm too.
            out.dsn.host.scaled_weights()
        monkeypatch.setattr(solvers.math, "lcm", lambda *args: pytest.fail("split weights built"))
        assert all(decide_psi_via_dsn(out) for out in outs)
        # Without the threshold the planted host's search goes on past its
        # first leaf, an optimum, and needs the bound.
        with pytest.raises(pytest.fail.Exception, match="split weights built"):
            _solve_path_union(outs[1].dsn)

    def test_cost_below_the_threshold_is_a_failed_self_check(self):
        out = generate_hardness_instance(identity_psi(K4))
        with pytest.raises(InvariantError, match="cost 26 is below the threshold 27"):
            decide_psi_via_dsn(out._replace(threshold=out.threshold + 1))
        assert decide_psi_via_dsn(out._replace(threshold=out.threshold - 1)) is False

    @pytest.mark.parametrize("name", sorted(PATTERNS))
    def test_threshold_search_agrees_with_the_full_search(self, name):
        # The criterion-3 hosts: the search stops at the full search's
        # optimum, and never stops when the optimum exceeds the threshold.
        for seed in range(30):
            out = generate_hardness_instance(random_psi_host(PATTERNS[name], seed))
            full, early = _solve_path_union(out.dsn), _solve_path_union(out.dsn, out.threshold)
            assert early.feasible == full.feasible and early.cost == full.cost
            if full.feasible:
                assert early.optimum.arcs == full.optimum.arcs
            if full.feasible and full.cost == out.threshold:
                assert early.node_count <= full.node_count
            else:
                assert early.node_count == full.node_count

    def test_agrees_with_bruteforce_sample(self):
        for seed in range(8):
            psi = random_psi_host(K33, seed)
            decided = decide_psi_via_dsn(generate_hardness_instance(psi))
            assert decided == (solve_psi_bruteforce(psi) is not None)


class TestEmbeddings:
    def test_round_trip_on_identity_k4(self):
        psi = identity_psi(K4)
        out = generate_hardness_instance(psi)
        result = _solve_path_union(out.dsn)
        assert result.cost == out.threshold
        phi = extract_embedding(out, result.optimum)
        verify_embedding(psi, phi)
        encoded = embedding_solution(out, phi)
        assert validate(out.dsn, encoded) is None
        assert encoded.cost() <= out.threshold

    def test_bruteforce_witness_verifies(self):
        for seed in range(6):
            psi = random_psi_host(CUBE, seed, planted=True)
            phi = solve_psi_bruteforce(psi)
            assert phi is not None
            verify_embedding(psi, phi)

    def test_bruteforce_refuses_a_pattern_over_the_cap(self):
        k = PSI_BRUTEFORCE_MAX_K + 1
        with pytest.raises(CapacityError, match=f"pattern has {k} vertices; brute-force cap is {k - 1}"):
            solve_psi_bruteforce(identity_psi(UndirectedGraph(range(k), [])))

    def test_extract_rejects_an_invalid_solution(self):
        out = generate_hardness_instance(identity_psi(K4))
        with pytest.raises(PreconditionError, match="solution does not satisfy the requests"):
            extract_embedding(out, SolutionSubgraph(out.dsn.host, frozenset()))

    def test_extract_rejects_loose_solution(self):
        out = generate_hardness_instance(random_psi_host(K4, 0, planted=True))
        everything = SolutionSubgraph(out.dsn.host, frozenset(out.dsn.host.arcs()))
        assert validate(out.dsn, everything) is None
        assert everything.cost() > out.threshold
        message = f"solution cost {everything.cost()} exceeds the threshold {out.threshold}"
        with pytest.raises(PreconditionError, match=message):
            extract_embedding(out, everything)

    def test_optimum_never_below_threshold(self):
        for seed in range(6):
            psi = random_psi_host(K4, seed)
            out = generate_hardness_instance(psi)
            result = _solve_path_union(out.dsn)
            if result.feasible:
                assert result.cost >= out.threshold
