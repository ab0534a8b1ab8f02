"""DSN problem model: instances, solutions, cost, validation, minimality.

Two layers: `DsnInstance`/`SolutionSubgraph` tie a solution to a host graph,
while the `*_graph` helpers work on standalone digraphs.  The structural
pipeline produces graphs that are not subgraphs of any host, so the graph
level is where the real logic lives.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from typing import Container, FrozenSet, Iterable, List, Optional, Tuple

from .errors import InputError, PreconditionError
from .graphs import Arc, WeightedDigraph, _Record, necessary_arcs, search

Request = Tuple[int, int]


def _normalize_requests_arg(requests: Iterable[Request]) -> FrozenSet[Request]:
    out = set()
    for s, t in requests:
        if s == t:
            raise InputError(f"request {s}->{t} has equal endpoints")
        out.add((s, t))
    return frozenset(out)


class DsnInstance(_Record):
    """A DSN instance: host digraph plus a simple request digraph on the
    terminal set.  Terminals are exactly the request endpoints."""

    __slots__ = ("host", "requests")

    def __init__(self, host: WeightedDigraph, requests: Iterable[Request]):
        reqs = _normalize_requests_arg(requests)
        if not set(chain.from_iterable(reqs)).issubset(host.vertices):
            s, t = next(r for r in reqs if not host.has_vertex(r[0]) or not host.has_vertex(r[1]))
            raise InputError(f"request {s}->{t} endpoint not in the host graph")
        super().__init__(host, reqs)

    @property
    def terminals(self) -> Tuple[int, ...]:
        return tuple(sorted({v for r in self.requests for v in r}))

    @property
    def q(self) -> int:
        return len(self.terminals)

    @property
    def p(self) -> int:
        return len(self.requests)

    def sorted_requests(self) -> List[Request]:
        return sorted(self.requests)


class SolutionSubgraph(_Record):
    """An arc subset of a host graph; its vertices are the arcs' ends.

    Every request joins two distinct terminals, so each terminal ends an arc
    of a valid solution and needs no separate record."""

    __slots__ = ("host", "arcs")

    def __init__(self, host: WeightedDigraph, arcs: Iterable[Arc]):
        arcset = frozenset(arcs)
        if not arcset <= host.arc_set():
            a = next(a for a in arcset if not host.has_arc(*a))
            raise InputError(f"arc {a} is not in the host graph")
        super().__init__(host, arcset)

    def as_graph(self) -> WeightedDigraph:
        return self.host.subgraph(self.arcs)

    def cost(self) -> Fraction:
        """The exact sum of the arc weights, added as the host's scaled integers."""
        ints, scale = self.host.scaled_weights()
        return Fraction(sum(ints[a] for a in self.arcs), scale)


# ---------------------------------------------------------------------------
# graph-level predicates


def violated_request(graph: WeightedDigraph, requests: Iterable[Request]) -> Optional[Request]:
    """Lexicographically first request with no s-t path, or None if valid."""
    return _first_violated(graph, sorted(_normalize_requests_arg(requests)), None)


def _first_violated(
    graph: WeightedDigraph, requests: List[Request], within: Optional[Container[Arc]]
) -> Optional[Request]:
    """`violated_request` on sorted, normalized requests; with `within` set,
    the paths use only arcs in it (see `search`).  The requests come grouped
    by source, and one search per source answers all of its requests."""
    source, reached = None, {}
    for s, t in requests:
        if not graph.has_vertex(s) or not graph.has_vertex(t):
            return (s, t)
        if s != source:
            source, reached = s, search(graph, s, within=within)
        if t not in reached:
            return (s, t)
    return None


def is_inclusion_minimal_graph(graph: WeightedDigraph, requests: Iterable[Request]) -> bool:
    """True iff removing any single arc violates some request, that is, iff
    every arc lies on every s-t path of some request."""
    necessary = necessary_arcs(graph, _normalize_requests_arg(requests))
    if necessary is None:
        raise PreconditionError("graph is not a valid solution")
    return len(necessary) == graph.m


def minimize_graph(graph: WeightedDigraph, requests: Iterable[Request]) -> WeightedDigraph:
    """Remove arcs while the graph stays a valid solution.

    Arcs are attempted in descending weight, ties by ascending arc id, so the
    result is deterministic.  The graph stays valid, so an arc can be
    removed exactly when it is not necessary, and the necessary arcs are
    recomputed only after a removal.  Isolated non-terminals are dropped."""
    reqs = _normalize_requests_arg(requests)
    necessary = necessary_arcs(graph, reqs)
    if necessary is None:
        raise PreconditionError("graph is not a valid solution")
    terminals = {v for r in reqs for v in r}
    current = graph
    weights = graph.arcs()
    for arc in sorted(weights, key=lambda a: (-weights[a], a)):
        if arc not in necessary:
            current = current.without_arc(*arc)
            necessary = necessary_arcs(current, reqs)
    used = {v for a in current.arc_set() for v in a} | terminals
    return current.induced(used & set(current.vertices))


def normalize_requests_graph(graph: WeightedDigraph, terminals: Iterable[int]) -> FrozenSet[Request]:
    """R' on the terminal set: st in R' iff a T-avoiding s-t path exists."""
    ts = set(terminals) & set(graph.vertices)
    return frozenset((s, t) for s in ts for t in search(graph, s, ts) if t in ts and t != s)


# ---------------------------------------------------------------------------
# instance-level operations


def validate(inst: DsnInstance, sol: SolutionSubgraph) -> Optional[Request]:
    """None if every request is satisfied, else the first violated request.

    The search walks the host along the solution's arcs and builds no
    subgraph; from a request endpoint, which is a host vertex, it reaches
    exactly what a search of `sol.as_graph()` would."""
    if sol.host is not inst.host and sol.host != inst.host:
        raise InputError("solution host differs from the instance host")
    return _first_violated(sol.host, inst.sorted_requests(), sol.arcs)


def is_inclusion_minimal(inst: DsnInstance, sol: SolutionSubgraph) -> bool:
    if validate(inst, sol) is not None:
        raise PreconditionError("solution is not valid")
    return is_inclusion_minimal_graph(sol.as_graph(), inst.requests)


def minimize(inst: DsnInstance, sol: SolutionSubgraph) -> SolutionSubgraph:
    if validate(inst, sol) is not None:
        raise PreconditionError("solution is not valid")
    reduced = minimize_graph(sol.as_graph(), inst.requests)
    return SolutionSubgraph(inst.host, reduced.arc_set())


def reverse_instance(inst: DsnInstance) -> DsnInstance:
    return DsnInstance(inst.host.reverse(), {(t, s) for s, t in inst.requests})


def reverse_solution(sol: SolutionSubgraph) -> SolutionSubgraph:
    return SolutionSubgraph(sol.host.reverse(), {(v, u) for u, v in sol.arcs})
