"""Structural pipeline over inclusion-minimal solutions.

Important and marked vertices along request paths, ladder-segment
detection, protrusion replacement and the length-reduction loop over the
degree-2-suppressed solution, ending in a treewidth/diameter certificate.
Everything here operates on standalone digraphs because replacements
introduce vertices that are not part of any host graph.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple

from .dsn import Request, _normalize_requests_arg, normalize_requests_graph
from .errors import DomainError, InputError, InvariantError, PreconditionError
from .graphs import (
    DirectedPath,
    WeightedDigraph,
    _parent_path,
    avoiding_path,
    component_avoiding,
    diameter,
    necessary_arcs,
    search,
    shortest_path,
    suppress_degree_two,
    treewidth,
)
from .ladders import LadderSpec, LadderVerdict, is_ladder_subdivision, ladder_arcs, ladder_rungs

PROTRUSION_MAX_INTERIOR = 14


# ---------------------------------------------------------------------------
# request paths


def _onto_path_reach(graph: WeightedDigraph, src: int, pset: Set[int], reverse: bool = False) -> Set[int]:
    """Vertices of `pset` hit by nontrivial paths from src (into src when
    `reverse` is set) with all internal vertices off `pset`."""
    return {v for v in search(graph, src, pset, reverse=reverse) if v in pset and v != src}


def realize_request_path(
    graph: WeightedDigraph, terminals: Iterable[int], s: int, t: int
) -> Optional[DirectedPath]:
    """Minimum-weight T-avoiding s-t path (ties lexicographic)."""
    found = shortest_path(graph, s, t, avoid=set(terminals))
    return found[0] if found else None


# ---------------------------------------------------------------------------
# important vertices


class ImportantSet(NamedTuple):
    path: DirectedPath
    important: Tuple[int, ...]  # in path order
    labels: Dict[int, FrozenSet[Tuple[int, str]]]  # vertex -> {(terminal, "<-"/"->")}
    anchor: Dict[int, int]  # g_P: important vertex -> terminal
    anchor_witness: Dict[int, DirectedPath]


def important_vertices(
    graph: WeightedDigraph, terminals: Iterable[int], P: DirectedPath
) -> ImportantSet:
    """Vertices of P with a P-avoiding connection to a terminal off P, with
    the closest-to-endpoint labelling and the anchor map g_P.  Per terminal
    x, one search runs from x onto P and one from P into x, except the two
    that cannot move a label: from P's start and into P's end."""
    T = set(terminals)
    P.check_in(graph)
    if P.start not in T or P.end not in T:
        raise InputError("path endpoints must be terminals")
    if P.internal & T:
        raise InputError("path is not T-avoiding")
    pset = set(P.vertices)
    idx = {v: i for i, v in enumerate(P.vertices)}

    onto_fwd: Dict[int, Set[int]] = {}  # terminal -> P vertices reachable from it
    onto_bwd: Dict[int, Set[int]] = {}  # terminal -> P vertices that reach it
    for x in sorted(T):
        # P's start is its own closest "<-" vertex, and P's end its own closest "->" vertex.
        on_p = {x} & pset
        absent = not graph.has_vertex(x)
        onto_fwd[x] = on_p if absent or x == P.start else _onto_path_reach(graph, x, pset) | on_p
        onto_bwd[x] = on_p if absent or x == P.end else _onto_path_reach(graph, x, pset, reverse=True) | on_p

    linked = set().union(*(onto_fwd[x] | onto_bwd[x] for x in T - pset))
    important = tuple(v for v in P.vertices if v in linked)

    labels: Dict[int, Set[Tuple[int, str]]] = {}
    for x in sorted(T):
        fwd = onto_fwd[x]
        if fwd:
            v = min(fwd, key=lambda u: idx[u])  # closest to s
            labels.setdefault(v, set()).add((x, "<-"))
        bwd = onto_bwd[x]
        if bwd:
            v = max(bwd, key=lambda u: idx[u])  # closest to t
            labels.setdefault(v, set()).add((x, "->"))

    frozen = {v: frozenset(ls) for v, ls in labels.items()}
    for v in important:
        if v not in frozen:
            raise InvariantError(f"important vertex {v} received no label")

    anchor: Dict[int, int] = {}
    witness: Dict[int, DirectedPath] = {}
    avoid = pset | T
    for v in important:
        for x, direction in sorted(frozen[v]):
            if direction == "<-":
                w = avoiding_path(graph, x, v, avoid)
            else:
                w = avoiding_path(graph, v, x, avoid)
            if w is not None:
                anchor[v] = x
                witness[v] = w
                break
        else:
            raise InvariantError(f"no (V(P) u T)-avoiding anchor witness for {v}")

    counts: Dict[int, int] = {}
    for x in anchor.values():
        counts[x] = counts.get(x, 0) + 1
    if any(cnt > 2 for cnt in counts.values()):
        raise InvariantError("anchor map hits a terminal more than twice")

    return ImportantSet(P, important, frozen, anchor, witness)


# ---------------------------------------------------------------------------
# marked vertices


class MarkedQuadruple(NamedTuple):
    center: int
    p1: int
    p2: int
    p3: int
    p4: int
    q31: Optional[DirectedPath]  # P-avoiding path p3 -> p1
    q42: Optional[DirectedPath]  # P-avoiding path p4 -> p2

    @property
    def degenerate(self) -> bool:
        return self.p1 == self.p2 == self.p3 == self.p4 == self.center


class MarkedSet(NamedTuple):
    quadruples: Tuple[MarkedQuadruple, ...]

    @property
    def marked(self) -> FrozenSet[int]:
        out: Set[int] = set()
        for q in self.quadruples:
            if not q.degenerate:
                out.update({q.p1, q.p2, q.p3, q.p4})
        return frozenset(out)


def marked_vertices(graph: WeightedDigraph, P: DirectedPath, imp: ImportantSet) -> MarkedSet:
    """The four extremal back-jump endpoints around every important vertex.
    Quadruples read back-jumps only from the first important vertex on, so
    one P-avoiding search runs from each such path vertex; the witnesses
    p3 -> p1 and p4 -> p2 are read off the searches from p3 and p4."""
    if imp.path != P:
        raise InputError("important set was computed for a different path")
    pv = P.vertices
    pset = set(pv)
    idx = {v: i for i, v in enumerate(pv)}
    r = len(pv)
    first = idx[imp.important[0]] if imp.important else r
    parents = {x: search(graph, pv[x], pset) for x in range(first, r)}
    # back[x] = indices reachable from P[x] by a nontrivial P-avoiding path
    back = {x: {idx[v] for v in parent if v in pset and v != pv[x]} for x, parent in parents.items()}

    quads: List[MarkedQuadruple] = []
    for pj in imp.important:
        j = idx[pj]
        endpoints = {w for x in range(j, r) for w in back[x]}
        if not endpoints or min(endpoints) > j:
            quads.append(MarkedQuadruple(pj, pj, pj, pj, pj, None, None))
            continue
        j1 = min(endpoints)
        j4 = max(x for x in range(j, r) if back[x] and min(back[x]) <= j)
        j3 = min(x for x in range(j, r) if j1 in back[x])
        j2 = max(w for w in back[j4] if w <= j)
        if not (j1 <= j2 <= j <= j3 <= j4):
            raise InvariantError(
                f"marked quadruple ordering violated at {pj}: {(j1, j2, j, j3, j4)}"
            )
        q31 = _parent_path(parents[j3], pv[j1])
        q42 = _parent_path(parents[j4], pv[j2])
        if q31 is None or q42 is None:
            raise InvariantError(f"missing back-jump witness at {pj}")
        quads.append(
            MarkedQuadruple(pj, pv[j1], pv[j2], pv[j3], pv[j4], DirectedPath(q31), DirectedPath(q42))
        )
    marked = MarkedSet(tuple(quads))
    if len(marked.marked) > 4 * len(imp.important):
        raise InvariantError("|Q_P| exceeds 4 |I_P|")
    return marked


# ---------------------------------------------------------------------------
# ladder segments


class LadderSegment(NamedTuple):
    start_index: int  # index of p_i on P
    end_index: int  # index of p_j on P
    boundary: Tuple[int, int, int, int]  # (p_{i+1}, p_{i+2}, p_{j-2}, p_{j-1})
    component: FrozenSet[int]
    verdict: LadderVerdict
    roles: Optional[Tuple[int, int, int, int]]  # (a, b, c, d) that recognized


def segment_markers(P: DirectedPath, imp: ImportantSet, mk: MarkedSet) -> List[int]:
    """I_P u Q_P plus the path endpoints, as ascending path indices."""
    idx = {v: i for i, v in enumerate(P.vertices)}
    marks = {idx[v] for v in imp.important} | {idx[v] for v in mk.marked}
    marks |= {0, len(P.vertices) - 1}
    return sorted(marks)


def detect_ladder_segments(
    graph: WeightedDigraph,
    terminals: Iterable[int],
    P: DirectedPath,
    markers: Sequence[int],
) -> List[LadderSegment]:
    """Between consecutive markers at distance >= 6, extract the component
    hanging between the four boundary vertices and test it for ladderness.
    The component grows from p_{i+3}, which at distance 5 is the boundary
    vertex p_{j-2}; from distance 6 on it is none of the four, because path
    vertices are distinct."""
    T = set(terminals)
    out: List[LadderSegment] = []
    for i, j in zip(markers, markers[1:]):
        if j - i < 6:
            continue
        pv = P.vertices
        boundary = (pv[i + 1], pv[i + 2], pv[j - 2], pv[j - 1])
        component = component_avoiding(graph, pv[i + 3], boundary)
        if component & T:
            out.append(
                LadderSegment(
                    i, j, boundary, component,
                    LadderVerdict(False, 0, "component touches a terminal"), None,
                )
            )
            continue
        K = graph.induced(component | set(boundary))
        a, d = pv[i + 1], pv[j - 1]
        tried = []
        for roles in ((a, b, c, d) for b in (pv[i + 2], a) for c in (pv[j - 2], d)):
            tried.append((roles, is_ladder_subdivision(K, *roles)))
            if tried[-1][1].ok:
                break
        roles, verdict = tried[-1]
        if not verdict.ok:
            # Reported: the verdict for the uncollapsed roles (p_{i+2}, p_{j-2}).
            out.append(LadderSegment(i, j, boundary, component, tried[0][1], None))
            continue
        if roles[1] == a or roles[2] == d:
            # Collapsed roles leave a boundary vertex inside the ladder,
            # so it belongs to the component that gets replaced.
            component = frozenset(K.vertices) - set(roles)
        out.append(LadderSegment(i, j, boundary, component, verdict, roles))
    return out


# ---------------------------------------------------------------------------
# protrusion replacement


def _replacement_length(n: int) -> int:
    return 6 if n % 2 == 0 else 7


def protrusion_replace(
    graph: WeightedDigraph, requests: Iterable[Request], seg: LadderSegment, norm: Optional[FrozenSet[Request]] = None
) -> WeightedDigraph:
    """Swap a recognized ladder-shaped component for a constant-length fresh
    ladder.

    `seg` must come from `detect_ladder_segments` on this graph: its verdict
    length and roles (a, b, c, d) are used as recognized, not recomputed.
    The result is still fully verified at runtime: the graph outside the
    component is untouched, the fresh interior neighbors exactly
    {a, b, c, d}, and the result is a valid inclusion-minimal solution
    preserving the terminal reachability matrix.  A caller that holds
    `normalize_requests_graph(graph, T)` for the requests' endpoints T
    passes it as `norm`, and the check does not search for it again."""
    if not seg.verdict.ok:
        raise PreconditionError(f"component is not a ladder: {seg.verdict.reason}")
    reqs = frozenset(requests)
    T = {v for r in reqs for v in r}
    Fset = set(seg.component)
    a, b, c, d = seg.roles
    if Fset & T:
        raise PreconditionError("component contains a terminal")
    if Fset & {a, b, c, d}:
        raise PreconditionError("component overlaps its boundary")
    v = min(Fset, default=None)
    if v is None or not graph.has_vertex(v) or component_avoiding(graph, v, (a, b, c, d)) != Fset:
        raise PreconditionError("F is not a connected component of graph - {a,b,c,d}")
    if a != b and not graph.has_arc(a, b):
        raise PreconditionError("a != b but arc ab is missing")
    if c != d and not graph.has_arc(c, d):
        raise PreconditionError("c != d but arc cd is missing")
    n = seg.verdict.length
    n_new = _replacement_length(n)
    if n <= n_new:
        return graph

    ident = set()
    if a == b:
        ident.add(1)
    if c == d:
        ident.add(n_new)
    rungs = ladder_rungs(LadderSpec(n_new, ident))
    # The first rung runs a -> b and the last one c -> d.
    vmap: Dict[int, int] = dict(zip((*rungs[0], *rungs[-1]), (a, b, c, d)))
    fresh_base = max(graph.vertices) + 1
    for v in sorted({v for rung in rungs for v in rung}):
        if v not in vmap:
            vmap[v] = fresh_base
            fresh_base += 1
    interior = set(vmap.values()) - {a, b, c, d}
    if len(interior) >= len(Fset):
        return graph

    arcs = {arc: w for arc, w in graph.arcs().items() if arc[0] not in Fset and arc[1] not in Fset}
    for u, v in ladder_arcs(rungs):
        arcs.setdefault((vmap[u], vmap[v]), 1)
    new_graph = WeightedDigraph((set(graph.vertices) - Fset) | interior, arcs)

    _verify_replacement(graph, new_graph, reqs, T, Fset, interior, (a, b, c, d), norm)
    return new_graph


def _verify_replacement(
    old: WeightedDigraph,
    new: WeightedDigraph,
    reqs: FrozenSet[Request],
    T: Set[int],
    F: Set[int],
    F_new: Set[int],
    boundary: Tuple[int, int, int, int],
    norm: Optional[FrozenSet[Request]] = None,
) -> None:
    """`norm`, when given, is `normalize_requests_graph(old, T)`."""
    outside = [
        (set(g.vertices) - X, {a: w for a, w in g.arcs().items() if a[0] not in X and a[1] not in X})
        for g, X in ((old, F), (new, F_new))
    ]
    if outside[0] != outside[1]:
        raise InvariantError("replacement changed the graph outside the component")
    nbrs = set()
    for v in F_new:
        nbrs.update(set(new.neighbors(v)) - F_new)
    if nbrs != set(boundary):
        raise InvariantError(f"fresh component neighbors {sorted(nbrs)} != boundary")
    if len(F_new) > PROTRUSION_MAX_INTERIOR:
        raise InvariantError("fresh component exceeds the size bound")
    necessary = necessary_arcs(new, reqs)
    if necessary is None:
        raise InvariantError("replacement broke a request")
    if len(necessary) < new.m:
        raise InvariantError("replacement is not inclusion-minimal")
    if norm is None:
        norm = normalize_requests_graph(old, T)
    changed = norm ^ normalize_requests_graph(new, T)
    if changed:
        s, t = min(changed)
        raise InvariantError(f"terminal reachability changed for {s}->{t}")


# ---------------------------------------------------------------------------
# length-reduction pipeline


class PathRecord(NamedTuple):
    request: Request
    path_vertices: Tuple[int, ...]
    length: int
    num_important: int
    num_marked: int
    ratio: float
    segments: List[LadderSegment]

    def to_json_dict(self) -> dict:
        return {
            "request": list(self.request),
            "path": list(self.path_vertices),
            "length": self.length,
            "important": self.num_important,
            "marked": self.num_marked,
            "ratio": self.ratio,
            "segments": [
                {
                    "span": [s.start_index, s.end_index],
                    "boundary": list(s.boundary),
                    "component": sorted(s.component),
                    "ladder": s.verdict.ok,
                    "ladder_length": s.verdict.length,
                    "roles": list(s.roles) if s.roles else None,
                    "reason": s.verdict.reason,
                }
                for s in self.segments
            ],
        }


class StructureReport(NamedTuple):
    """The pipeline's measurements, which also make the treewidth certificate."""

    terminals: Tuple[int, ...]
    original_requests: Tuple[Request, ...]
    normalized_requests: Tuple[Request, ...]
    paths: List[PathRecord]
    rounds: int
    replacements: int
    vertices_before: int
    vertices_after: int
    max_ratio: float
    diameter_after: Optional[int]
    tw_before: int
    tw_after: int
    tw_before_exact: bool
    tw_after_exact: bool
    important_bound_ok: bool
    marked_bound_ok: bool
    diameter_bound_ok: Optional[bool]

    def to_json_dict(self) -> dict:
        return {
            "schema": "dsnkit/structure-report/1",
            "terminals": list(self.terminals),
            "requests": [list(r) for r in self.original_requests],
            "normalized_requests": [list(r) for r in self.normalized_requests],
            "paths": [p.to_json_dict() for p in self.paths],
            "rounds": self.rounds,
            "replacements": self.replacements,
            "vertices_before": self.vertices_before,
            "vertices_after": self.vertices_after,
            "max_ratio": self.max_ratio,
            "diameter_after": self.diameter_after,
            "treewidth_before": self.tw_before,
            "treewidth_after": self.tw_after,
            "treewidth_before_exact": self.tw_before_exact,
            "treewidth_after_exact": self.tw_after_exact,
            "bounds": {
                "important": self.important_bound_ok,
                "marked": self.marked_bound_ok,
                "diameter": self.diameter_bound_ok,
            },
        }

    @property
    def pipeline_increased_tw(self) -> bool:
        return self.tw_after > self.tw_before

    @property
    def flagged(self) -> bool:
        """The pipeline made treewidth grow beyond what the measured ratio
        explains."""
        return self.tw_after > max(1.0, self.max_ratio) * max(1, self.tw_before)

    def certificate_json(self, declared_genus: int) -> dict:
        """The certificate; `declared_genus` is only echoed."""
        q = len(self.terminals)
        return {
            "schema": "dsnkit/treewidth-certificate/1",
            "declared_genus": declared_genus,
            "q": q,
            "treewidth_solution": self.tw_before,
            "treewidth_solution_exact": self.tw_before_exact,
            "treewidth_reduced": self.tw_after,
            "treewidth_reduced_exact": self.tw_after_exact,
            "treewidth_per_terminal": self.tw_before / max(1, q),
            "pipeline_increased_treewidth": self.pipeline_increased_tw,
            "flagged": self.flagged,
            "report": self.to_json_dict(),
        }


def _analyze_path(
    graph: WeightedDigraph, T: Sequence[int], s: int, t: int
) -> Tuple[DirectedPath, ImportantSet, MarkedSet, List[LadderSegment]]:
    """Realize the s-t request path and run the per-path analysis on it:
    important and marked vertices, then ladder segments between markers."""
    P = realize_request_path(graph, T, s, t)
    if P is None:
        raise InvariantError(f"normalized request {s}->{t} has no T-avoiding path")
    imp = important_vertices(graph, T, P)
    mk = marked_vertices(graph, P, imp)
    segs = detect_ladder_segments(graph, T, P, segment_markers(P, imp, mk))
    return P, imp, mk, segs


def reduce_length_graph(
    graph: WeightedDigraph, requests: Iterable[Request]
) -> Tuple[WeightedDigraph, StructureReport]:
    """Suppress, analyze and shrink ladder segments until every request path
    is short; returns the reduced graph plus the full report."""
    reqs = frozenset(requests)
    T = tuple(sorted({v for r in reqs for v in r}))
    necessary = necessary_arcs(graph, _normalize_requests_arg(reqs))
    if necessary is None:
        raise PreconditionError("input graph is not a valid solution")
    if len(necessary) < graph.m:
        raise PreconditionError("input graph is not inclusion-minimal")

    tw_before, tw_before_exact = treewidth(graph.sym())
    current = suppress_degree_two(graph, T)
    # A verified replacement keeps T-avoiding reachability, so this holds
    # for every round.
    norm = normalize_requests_graph(current, T)
    rounds = 0
    replacements = 0
    while True:
        rounds += 1
        records: List[PathRecord] = []
        for s, t in sorted(norm):
            P, imp, mk, segs = _analyze_path(current, T, s, t)
            num_important = len(imp.important)
            records.append(PathRecord(
                (s, t), P.vertices, P.length, num_important, len(mk.marked),
                P.length / max(1, num_important), segs,
            ))
            # Every terminal ends a normalized request, so the endpoints of
            # norm are T, and the replacement's check can take norm as is.
            candidates = (
                protrusion_replace(current, norm, seg, norm)
                for seg in segs
                if seg.verdict.ok and seg.verdict.length > _replacement_length(seg.verdict.length)
            )
            smaller = next((g for g in candidates if g.n < current.n), None)
            if smaller is not None:
                break
        else:
            # Nothing was replaced, so this round's records describe `current`.
            break
        current = smaller
        replacements += 1

    q = len(T)
    max_ratio = max((r.ratio for r in records), default=0.0)

    sym_after = current.sym()
    try:
        diam: Optional[int] = diameter(sym_after)
    except DomainError:  # empty or disconnected
        diam = None
    tw_after, tw_after_exact = treewidth(sym_after)
    diam_ok = None if diam is None else diam <= 8 * max(1.0, max_ratio) * q

    report = StructureReport(
        terminals=T,
        original_requests=tuple(sorted(reqs)),
        normalized_requests=tuple(sorted(norm)),
        paths=records,
        rounds=rounds,
        replacements=replacements,
        vertices_before=graph.n,
        vertices_after=current.n,
        max_ratio=max_ratio,
        diameter_after=diam,
        tw_before=tw_before,
        tw_after=tw_after,
        tw_before_exact=tw_before_exact,
        tw_after_exact=tw_after_exact,
        important_bound_ok=all(r.num_important <= 2 * q - 2 for r in records),
        marked_bound_ok=all(r.num_marked <= 4 * r.num_important for r in records),
        diameter_bound_ok=diam_ok,
    )
    return current, report

