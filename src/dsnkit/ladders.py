"""Ladder graphs: generation, two-path decomposition and recognition.

A ladder of length n has two rails a_1..a_n and b_1..b_n with rungs whose
direction alternates with the parity of the position; positions listed in I
have their two rail vertices identified.  Ladders are exactly the shape the
structural pipeline is allowed to shrink.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Set, Tuple

from .errors import InputError, InvariantError
from .graphs import Arc, DirectedPath, WeightedDigraph, _Record, necessary_arcs, search, suppress_degree_two


class LadderSpec(_Record):
    """Length n plus the set of identified positions I."""

    __slots__ = ("n", "identified")

    def __init__(self, n: int, identified=()):
        if n < 1:
            raise InputError("ladder length must be positive")
        ident = frozenset(identified)
        if not all(1 <= i <= n for i in ident):
            raise InputError(f"identified positions must lie in 1..{n}")
        super().__init__(n, ident)

    def a(self, i: int) -> int:
        """Vertex id of a_i (even ids; b_i collapses onto a_i when i in I)."""
        return 2 * (i - 1)

    def b(self, i: int) -> int:
        return self.a(i) if i in self.identified else 2 * (i - 1) + 1


def ladder_rungs(spec: LadderSpec) -> List[Arc]:
    """Rung i as (tail, head), for i = 1..n: a_i -> b_i for odd i and
    b_i -> a_i for even i.  An identified rung is a single vertex."""
    a, b = spec.a, spec.b
    return [(a(i), b(i)) if i % 2 else (b(i), a(i)) for i in range(1, spec.n + 1)]


def ladder_arcs(rungs: List[Arc]) -> List[Arc]:
    """The arcs of the ladder with these rungs, each once: the rungs in
    order, then the rails between each pair of consecutive rungs, from the
    rung's head to the next rung's tail and from the next rung's head back
    to the rung's tail.  The loops at identified rungs are dropped."""
    pairs = list(rungs)
    for (t, h), (t_next, h_next) in zip(rungs, rungs[1:]):
        pairs += [(h, t_next), (h_next, t)]
    return [(u, v) for u, v in pairs if u != v]


def make_ladder(spec: LadderSpec) -> WeightedDigraph:
    """Materialize G_{n,I} with unit weights, on the arcs of `ladder_arcs`."""
    rungs = ladder_rungs(spec)
    return WeightedDigraph({v for rung in rungs for v in rung}, dict.fromkeys(ladder_arcs(rungs), 1))


def ladder_corners(spec: LadderSpec) -> Tuple[int, int, int, int]:
    """(a_1, b_1, a_n, b_n) vertex ids."""
    return spec.a(1), spec.b(1), spec.a(spec.n), spec.b(spec.n)


def ladder_corner_requests(spec: LadderSpec) -> Set[Tuple[int, int]]:
    """The 4-terminal SCSS request cycle a1 -> b1 -> an -> bn -> a1 over the
    distinct corners; a single corner gets no request."""
    corners = list(dict.fromkeys(ladder_corners(spec)))
    return {(u, v) for u, v in zip(corners, corners[1:] + corners[:1]) if u != v}


def _walk_to_path(vertex_seq: List[int]) -> DirectedPath:
    dedup: List[int] = []
    for v in vertex_seq:
        if not dedup or dedup[-1] != v:
            dedup.append(v)
    return DirectedPath(tuple(dedup))


def ladder_two_path_decomposition(g: WeightedDigraph, spec: LadderSpec) -> Tuple[DirectedPath, DirectedPath]:
    """The two explicit rail-to-rail paths whose arc union is all of G_{n,I}.

    For even n: P1 from a_1 to a_n and P2 from b_n to b_1; for odd n the
    endpoints swap rails at the far end."""
    if g != make_ladder(spec):
        raise InputError("graph does not match the ladder spec")
    # P1 takes the rungs in order and P2 in reverse, each rung in its own
    # direction; consecutive rungs are joined by rail arcs.
    rungs = ladder_rungs(spec)
    p1 = _walk_to_path([v for rung in rungs for v in rung])
    p2 = _walk_to_path([v for rung in reversed(rungs) for v in rung])
    p1.check_in(g)
    p2.check_in(g)
    return p1, p2


# ---------------------------------------------------------------------------
# recognition


class LadderVerdict(NamedTuple):
    ok: bool
    length: int = 0
    reason: str = ""


def _corner_failure(K: WeightedDigraph, x: int, y: int, names: str) -> Optional[str]:
    """The bullets of boundary pair `names` ("ab" or "cd") with roles (x, y)."""
    if x == y:
        return None
    p, q = names
    if not K.has_arc(x, y):
        return f"arc {names} missing"
    if K.in_neighbors(y) != (x,):
        return f"{p} is not the only in-neighbor of {q}"
    if K.out_neighbors(x) != (y,):
        return f"{q} is not the only out-neighbor of {p}"
    return None


def _hypotheses_failure(K: WeightedDigraph, a: int, b: int, c: int, d: int) -> Optional[str]:
    """Check the four hypothesis bullets; returns the failing one or None."""
    for v in (a, b, c, d):
        if not K.has_vertex(v):
            return f"boundary vertex {v} missing"
    fail = _corner_failure(K, a, b, "ab") or _corner_failure(K, c, d, "cd")
    if fail:
        return fail
    need = necessary_arcs(K, [(a, d), (c, b)])
    if need is None:
        return "no directed path from " + ("a to d" if d not in search(K, a, target=d) else "c to b")
    removable = K.arc_set() - need - {(a, b), (c, d)}
    if removable:
        return f"not inclusion-minimal: arc {min(removable)} is removable"
    iso = [v for v in K.vertices if K.total_degree(v) == 0 and v not in {a, b, c, d}]
    if iso:
        return f"isolated vertex {iso[0]}"
    return None


def is_ladder_subdivision(K: WeightedDigraph, a: int, b: int, c: int, d: int) -> LadderVerdict:
    """Decide whether K with boundary roles (a, b, c, d) is a subdivision of
    a ladder, by the suppress-and-peel procedure.

    K is checked against the hypotheses and suppressed once, by the graph
    core's `suppress_degree_two` outside the roles and the vertices whose
    total degree is not 2.  Minimality makes every other vertex a
    pass-through u -> v -> w with no arc uw, and merging one changes no
    other vertex's total degree, so each suppressed vertex removes exactly
    one arc; that count is checked.  The hypotheses join the (a, b) column
    to the rest only by the rails abar -> a and b -> bbar, so peeling it
    leaves roles (bbar, abar, c, d): every a->d path becomes a bbar->d path
    and every c->b path a c->abar path, both avoiding the column.  So
    reachability, inclusion-minimality and "no isolated vertex" carry over,
    the (c, d) bullets are untouched while the pairs do not overlap, and
    degrees change only at the new corner, so nothing needs suppressing
    again.  Only the last peeled column touches the new corner, by rails
    that neither enter abar nor leave bbar.  So each level walks the
    suppressed graph in place: it finds the rails in neighbour sets minus
    the column just peeled and checks only the new (a, b) pair.  A
    rejection at peel level k carries k "peel: " prefixes; the length is
    that of the suppressed core ladder."""
    peeled = 0

    def reject(reason: str) -> LadderVerdict:
        return LadderVerdict(False, 0, "peel: " * peeled + reason)

    fail = _hypotheses_failure(K, a, b, c, d)
    if fail is not None:
        return reject(fail)
    g = suppress_degree_two(K, {a, b, c, d} | {v for v in K.vertices if K.total_degree(v) != 2})
    if K.m - g.m != K.n - g.n:
        raise InvariantError("a suppressed vertex of a minimal graph is not a pass-through")
    n, column = g.n, set()
    while n > 4:
        if {a, b} & {c, d}:
            return reject("boundary pairs overlap in a large graph")
        a_in = set(g.in_neighbors(a)) - column - {b}
        b_out = set(g.out_neighbors(b)) - column - {a}
        if len(a_in) != 1 or len(b_out) != 1:
            return reject(("identified corner" if a == b else "corner column") + " is not attached by two rails")
        (abar,), (bbar,) = a_in, b_out
        if a == b and abar == bbar:
            return reject("identified corner attached to a single vertex")
        column, a, b = {a, b}, bbar, abar
        n -= len(column)
        peeled += 1
        fail = _corner_failure(g, a, b, "ab")
        if fail is not None:
            return reject(fail)
    return LadderVerdict(True, (1 if n == 1 else 2) + peeled)
