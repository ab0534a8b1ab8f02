"""Ladder graphs: generation, two-path decomposition and recognition.

A ladder of length n has two rails a_1..a_n and b_1..b_n with rungs whose
direction alternates with the parity of the position; positions listed in I
have their two rail vertices identified.  Ladders are exactly the shape the
structural pipeline is allowed to shrink.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Set, Tuple

from .errors import InconsistencyError, InputError
from .graphs import Arc, DirectedPath, WeightedDigraph, _Record, suppress_degree_two


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


def ladder_two_path_decomposition(g: WeightedDigraph, spec: LadderSpec) -> Tuple[DirectedPath, DirectedPath]:
    """The two explicit rail-to-rail paths whose arc union is all of G_{n,I}.

    For even n: P1 from a_1 to a_n and P2 from b_n to b_1; for odd n the
    endpoints swap rails at the far end."""
    if g != make_ladder(spec):
        raise InputError("graph does not match the ladder spec")
    # P1 takes the rungs in order and P2 in reverse, each rung in its own
    # direction (an identified rung's one vertex once); rail arcs join them.
    rungs = ladder_rungs(spec)
    p1 = DirectedPath(tuple(dict.fromkeys(v for rung in rungs for v in rung)))
    p2 = DirectedPath(tuple(dict.fromkeys(v for rung in reversed(rungs) for v in rung)))
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
    """The boundary vertices exist and the corner bullets hold; returns the
    failing bullet or None."""
    for v in (a, b, c, d):
        if not K.has_vertex(v):
            return f"boundary vertex {v} missing"
    return _corner_failure(K, a, b, "ab") or _corner_failure(K, c, d, "cd")


def is_ladder_subdivision(K: WeightedDigraph, a: int, b: int, c: int, d: int) -> LadderVerdict:
    """Decide whether K with boundary roles (a, b, c, d) subdivides a ladder
    G_{n,I} whose first rung runs a -> b and whose last runs c -> d.

    After the corner bullets, K is suppressed once (`suppress_degree_two`,
    keeping the roles and every vertex whose total degree is not 2), which
    must merge each suppressed vertex into one arc.  The walk then follows
    the rails from rung (a, b): the next rung's tail is the head's
    out-neighbour and its head the tail's in-neighbour, outside this rung
    and the one before, until it reaches (c, d).  With n rungs, |I| of them
    of one vertex, K is accepted, at length n, exactly when the rungs cover
    the suppressed graph once each (2n - |I| distinct vertices) and
    `ladder_arcs` of the walk is its arc set: the positional form of
    mapping `ladder_rungs(LadderSpec(n, I))` onto the walk, so the ladder's
    shape is stated only by those two functions.

    So no minimality walk runs: an accepted K is inclusion-minimal for
    (a, d) and (c, b).  Every arc out of rung i of G_{n,I} ends in rung
    i - 1 or i + 1, so the rungs in order are the only simple a -> d path
    and the rungs in reverse the only c -> b path; together they use every
    arc, and subdividing keeps both unique.

    Mirror lemma: an accepted (a, b, c, d) gives (c, d, a, b) the same
    verdict, as the walk from (c, d) takes the same rungs in reverse, whose
    `ladder_arcs` are the same set.  A rejection's reason depends on the
    walk's direction."""
    fail = _hypotheses_failure(K, a, b, c, d)
    if fail is not None:
        return LadderVerdict(False, 0, fail)
    try:
        g = suppress_degree_two(K, {a, b, c, d} | {v for v in K.vertices if K.total_degree(v) != 2})
    except InconsistencyError:
        return LadderVerdict(False, 0, "a degree-2 vertex is not a pass-through")
    if K.m - g.m != K.n - g.n:
        return LadderVerdict(False, 0, "two pass-through paths merge into one arc")
    walk, before = [(a, b)], ()
    while walk[-1] != (c, d) and len(walk) < g.n:
        t, h = walk[-1]
        near = (t, h, *before)
        tails = [v for v in g.out_neighbors(h) if v not in near]
        heads = [v for v in g.in_neighbors(t) if v not in near]
        if len(tails) != 1 or len(heads) != 1:
            return LadderVerdict(False, 0, f"rung {len(walk)} is not joined to a next rung by two rails")
        walk.append((*tails, *heads))
        before = (t, h)
    if (
        walk[-1] != (c, d)
        or not len({v for rung in walk for v in rung}) == g.n == sum(2 - (t == h) for t, h in walk)
        or set(ladder_arcs(walk)) != g.arc_set()
    ):
        return LadderVerdict(False, 0, "the rails from ab to cd do not span a ladder")
    return LadderVerdict(True, len(walk))
