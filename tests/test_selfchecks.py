"""The hardness reduction's runtime self-checks that read their input from an
argument: each one fires, with its own message, on a doctored argument."""

import pytest

from dsnkit.dsn import DsnInstance
from dsnkit.errors import InvariantError
from dsnkit.graphs import UndirectedGraph
from dsnkit.reduction import (
    PsiInstance,
    _audit_strata,
    build_dsn,
    build_labelling,
    generate_hardness_instance,
    verify_embedding,
)

from conftest import K4

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
