"""The runtime self-checks of the hardness reduction, the per-path
analysis and the ladder recognizer: each one fires, with its own message,
on a doctored argument or behind a faulty routine upstream.

Two checks restate the lines above them, so no fault outside their own
function can trip them:
- `important_vertices`' "anchor map hits a terminal more than twice": each
  terminal labels at most one vertex "<-" (the first it reaches on P) and
  one "->" (the last that reaches it), and a vertex's anchor is a terminal
  of its own labels, so each terminal anchors at most two vertices;
- `marked_vertices`' "marked quadruple ordering violated": j1 is the least
  back-jump endpoint from j on, and at most j; j3 is the first index from j
  on that jumps to j1, so j <= j3 <= j4, the last index from j on that jumps
  to j or before; j2 is the largest endpoint of j4's jumps up to j, so
  j1 <= j2 <= j.  This holds for any back-jump sets."""

from types import SimpleNamespace

import pytest

from dsnkit import ladders, reduction, structure
from dsnkit.dsn import DsnInstance, SolutionSubgraph
from dsnkit.errors import InvariantError
from dsnkit.graphs import DirectedPath, UndirectedGraph, WeightedDigraph
from dsnkit.ladders import LadderSpec, is_ladder_subdivision, make_ladder
from dsnkit.reduction import (
    PsiInstance,
    _audit_strata,
    build_dsn,
    build_labelling,
    embedding_solution,
    extract_embedding,
    generate_hardness_instance,
    verify_embedding,
)

from conftest import K4, K33
from test_ladders import corner_roles

IDENTITY = {i: i for i in K4.vertices}
K4_MINUS_01 = UndirectedGraph(K4.vertices, [e for e in K4.edges if e != (0, 1)])


def k4_psi(host):
    """Pattern K4 on `host`, each host vertex i in class i."""
    return PsiInstance(host, K4, IDENTITY)


@pytest.mark.parametrize(
    "host, phi, message",
    [
        (K4, {0: 0, 1: 1, 2: 2}, "embedding is not total"),
        (K4, {**IDENTITY, 1: 0}, "embedding is not injective"),
        (K4, {**IDENTITY, 0: 1, 1: 0}, "embedding leaves class at 0"),
        (K4_MINUS_01, IDENTITY, r"pattern edge \(0, 1\) not realized"),
    ],
    ids=["not-total", "not-injective", "leaves-class", "edge-not-realized"],
)
def test_verify_embedding_rejects_a_bad_phi(host, phi, message):
    verify_embedding(k4_psi(K4), IDENTITY)
    with pytest.raises(InvariantError, match=message):
        verify_embedding(k4_psi(host), phi)


@pytest.mark.parametrize("case", ["overlap", "vertex-stratum", "hub-stratum", "request"])
def test_audit_strata_rejects_a_doctored_output(case):
    out = generate_hardness_instance(k4_psi(K4))
    _audit_strata(out)
    x, y, hub = out.x_vertex[0], out.y_vertex[0], out.w_vertex[(0, 1)]
    doctored, message = {
        "overlap": (out._replace(a_w_arcs=out.a_w_arcs | {min(out.a_v_arcs)}), "arc strata overlap"),
        "vertex-stratum": (out._replace(a_v_arcs=out.a_v_arcs | {(0, x)}),
                           rf"misplaced vertex-stratum arc \(0, {x}\)"),
        "hub-stratum": (out._replace(a_w_arcs=out.a_w_arcs | {(hub, 0)}),
                        rf"misplaced hub-stratum arc \({hub}, 0\)"),
        "request": (out._replace(dsn=DsnInstance(out.dsn.host, out.dsn.requests | {(0, y)})),
                    rf"request \(0, {y}\) leaves the terminal strata"),
    }[case]
    with pytest.raises(InvariantError, match=message):
        _audit_strata(doctored)


@pytest.mark.parametrize(
    "changes, message",
    [
        # On K4 every vertex has its own alpha and beta colour.
        ({"alpha": {1: 0}, "beta": {1: 0}}, "vertex requests are not pairwise distinct"),
        # Edges (0, 1) and (0, 2) share endpoint 0, so one gamma colour gives
        # both the same request from vertex 0's alpha terminal.
        ({"gamma": {(0, 2): 0}}, "edge requests are not pairwise distinct"),
    ],
    ids=["vertex-requests", "edge-requests"],
)
def test_build_dsn_rejects_a_labelling_with_equal_requests(changes, message):
    psi = k4_psi(K4)
    lab = build_labelling(psi)
    assert lab.alpha[0] == 0 and lab.beta[0] == 0 and lab.gamma[(0, 1)] == 0
    broken = lab._replace(**{f: {**getattr(lab, f), **c} for f, c in changes.items()})
    with pytest.raises(InvariantError, match=message):
        build_dsn(psi, broken)


@pytest.mark.parametrize(
    "call, shift, message",
    [
        (0, 1, "greedy colouring of a max-degree-3 graph used > 4 colours"),
        (1, 2, r"beta used more than r\+3 = 5 colours"),
    ],
    ids=["eta", "beta"],
)
def test_build_labelling_rejects_a_colouring_over_its_bound(monkeypatch, call, shift, message):
    # On K4 (r = 2) both greedy colourings use colours 0-3; the faulty one
    # shifts the colours of its `call`-th run.
    real, calls = reduction._greedy_vertex_colouring, []

    def colouring(adj):
        calls.append(adj)
        colours = real(adj)
        return {v: c + shift for v, c in colours.items()} if len(calls) == call + 1 else colours

    monkeypatch.setattr(reduction, "_greedy_vertex_colouring", colouring)
    with pytest.raises(InvariantError, match=message):
        build_labelling(k4_psi(K4))


def test_build_labelling_rejects_a_labelling_that_breaks_a_condition(monkeypatch):
    monkeypatch.setattr(reduction, "check_labelling", lambda h, lab: "a violation")
    with pytest.raises(InvariantError, match="labelling condition violated: a violation"):
        build_labelling(k4_psi(K4))


def test_build_labelling_rejects_more_alpha_labels_than_r_plus_4(monkeypatch):
    # With r = 1 each of K3,3's six vertices is a chunk of its own.
    monkeypatch.setattr(reduction, "ceil_sqrt", lambda k: 1)
    with pytest.raises(InvariantError, match=r"6 alpha labels exceed r\+4 = 5"):
        build_labelling(PsiInstance(K33, K33, {i: i for i in K33.vertices}))


def test_build_labelling_rejects_more_gamma_colours_than_6r_minus_1():
    # A pattern whose edge list repeats the edge (0, 1) twelve times while its
    # adjacency is K4's: each copy takes the next colour, up to 11 > 6r-2.
    pattern = SimpleNamespace(n=4, vertices=K4.vertices, adjacent=K4.adjacent, edges=[(0, 1)] * 12)
    with pytest.raises(InvariantError, match="gamma used more than 6r-1 = 11 colours"):
        build_labelling(PsiInstance(K4, pattern, IDENTITY))


@pytest.mark.parametrize(
    "case, message",
    [
        ("two-members", r"two class members \[0, 4\] realize the path for pattern vertex 0"),
        ("no-member", "no class member realizes the path for pattern vertex 0"),
        ("no-hub", r"pattern edge \(0, 1\) lacks a shared hub in the solution"),
    ],
)
def test_extract_embedding_rejects_a_solution_without_an_embedding(monkeypatch, case, message):
    # Host vertex 4 joins class 0, next to 0; the doctored solutions cost at
    # most the threshold, and a faulty `validate` accepts them.
    host = UndirectedGraph(range(5), [*K4.edges, (1, 4), (2, 4), (3, 4)])
    out = generate_hardness_instance(PsiInstance(host, K4, {**IDENTITY, 4: 0}))
    tight = embedding_solution(out, IDENTITY)
    extract_embedding(out, tight)
    lab = out.labelling
    x, y = out.x_vertex[lab.alpha[0]], out.y_vertex[lab.beta[0]]
    hub_arc = (out.w_vertex[(0, 1)], out.z_vertex[lab.gamma[(0, 1)]])
    other_hub_arcs = sorted(a for a in tight.arcs if a in out.a_w_arcs and a[1] in out.z_vertex.values())[-2:]
    arcs = {
        "two-members": tight.arcs - set(other_hub_arcs) | {(x, 4), (4, y)},
        "no-member": tight.arcs - {(x, 0)},
        "no-hub": tight.arcs - {hub_arc},
    }[case]
    monkeypatch.setattr(reduction, "validate", lambda inst, sol: None)
    with pytest.raises(InvariantError, match=message):
        extract_embedding(out, SolutionSubgraph(out.dsn.host, arcs))


# P = 0 -> 1 -> 2 -> 3 between terminals 0 and 3; terminal 4 enters P at 1,
# which makes 1 important, and 2 jumps back to 1 through 5.
JUMP_GRAPH = WeightedDigraph(range(6), dict.fromkeys([(0, 1), (1, 2), (2, 3), (4, 1), (2, 5), (5, 1)], 1))
JUMP_TERMINALS = (0, 3, 4)
JUMP_PATH = DirectedPath((0, 1, 2, 3))


def test_important_vertices_rejects_an_important_vertex_without_a_label(monkeypatch):
    # A faulty search onto P reaches every other path vertex, so all of P is
    # important, but each terminal labels only its first and last vertex.
    monkeypatch.setattr(structure, "_onto_path_reach", lambda graph, src, pset, reverse=False: pset - {src})
    with pytest.raises(InvariantError, match="important vertex 1 received no label"):
        structure.important_vertices(JUMP_GRAPH, JUMP_TERMINALS, JUMP_PATH)


def test_important_vertices_rejects_a_label_without_an_anchor_witness(monkeypatch):
    assert structure.important_vertices(JUMP_GRAPH, JUMP_TERMINALS, JUMP_PATH).anchor == {1: 4}
    monkeypatch.setattr(structure, "avoiding_path", lambda *args: None)
    with pytest.raises(InvariantError, match=r"no \(V\(P\) u T\)-avoiding anchor witness for 1"):
        structure.important_vertices(JUMP_GRAPH, JUMP_TERMINALS, JUMP_PATH)


def test_marked_vertices_rejects_a_back_jump_without_a_witness(monkeypatch):
    imp = structure.important_vertices(JUMP_GRAPH, JUMP_TERMINALS, JUMP_PATH)
    assert structure.marked_vertices(JUMP_GRAPH, JUMP_PATH, imp).marked == {1, 2}
    monkeypatch.setattr(structure, "_parent_path", lambda parent, t: None)
    with pytest.raises(InvariantError, match="missing back-jump witness at 1"):
        structure.marked_vertices(JUMP_GRAPH, JUMP_PATH, imp)


def test_marked_vertices_rejects_more_than_four_marked_per_important(monkeypatch):
    # A faulty Q_P that names five vertices for one important vertex.
    class Overcounted(structure.MarkedSet):
        @property
        def marked(self):
            return frozenset(range(5))

    imp = structure.important_vertices(JUMP_GRAPH, JUMP_TERMINALS, JUMP_PATH)
    monkeypatch.setattr(structure, "MarkedSet", Overcounted)
    with pytest.raises(InvariantError, match=r"\|Q_P\| exceeds 4 \|I_P\|"):
        structure.marked_vertices(JUMP_GRAPH, JUMP_PATH, imp)


def test_analyze_path_rejects_a_request_without_a_path(monkeypatch):
    monkeypatch.setattr(structure, "realize_request_path", lambda graph, T, s, t: None)
    with pytest.raises(InvariantError, match="normalized request 0->3 has no T-avoiding path"):
        structure._analyze_path(JUMP_GRAPH, JUMP_TERMINALS, 0, 3)


def test_recognizer_rejects_a_suppression_that_drops_an_arc(monkeypatch):
    # A faulty suppression that deletes one arc and merges nothing.
    spec = LadderSpec(4, frozenset())
    K = make_ladder(spec)
    assert is_ladder_subdivision(K, *corner_roles(spec)).ok
    monkeypatch.setattr(ladders, "suppress_degree_two", lambda g, keep: g.without_arc(*min(g.arc_set())))
    with pytest.raises(InvariantError, match="a suppressed vertex of a minimal graph is not a pass-through"):
        is_ladder_subdivision(K, *corner_roles(spec))
