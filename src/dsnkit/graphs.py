"""Directed and undirected graph data model plus the generic algorithms.

All graph values are immutable after construction and every operation is a
pure function, so shared instances are safe to use concurrently.  The one
slot filled later, a digraph's derived facts (its `necessary_arcs` answers
per request set, its `induced` graphs per vertex set, its
`component_avoiding` components per boundary and what other modules keep
on it with `kept`), holds functions of its fixed arcs, so two threads
racing to fill it store equal values.  Vertex ids are
integers and every deterministic tie-break is by ascending id.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction
from typing import Container, Dict, FrozenSet, Iterable, List, Mapping, Optional, Set, Tuple, Union

from .errors import DomainError, InconsistencyError, InputError

Arc = Tuple[int, int]

TREEWIDTH_EXACT_CAP = 22


def _unknown_vertex(v) -> InputError:
    return InputError(f"unknown vertex id {v}")


def _as_weight(w) -> Union[int, Fraction]:
    f = w if isinstance(w, Fraction) else Fraction(w)
    # A Fraction's denominator is positive, so its sign is the numerator's.
    if f.numerator <= 0:
        raise InputError(f"arc weight must be positive, got {w}")
    return f.numerator if f.denominator == 1 else f


class WeightedDigraph:
    """Simple digraph with strictly positive rational arc weights, stored as
    integers over one `scale`, the lcm of their reduced denominators.  Arc a
    weighs `arcs[a] / scale`, `arcs[a]` any value `Fraction` reads.  Only the
    graphs derived in `graphs` pass `scale`; other modules read `arcs()`."""

    __slots__ = ("_vertices", "_vset", "_arcs", "_scaled", "_out", "_in", "_facts")

    def __init__(self, vertices: Iterable[int], arcs: Mapping[Arc, object], scale: int = 1):
        vs = sorted(vertices)
        if len(set(vs)) != len(vs):
            raise InputError("duplicate vertex ids")
        vset = frozenset(vs)
        ints: Dict[Arc, Union[int, Fraction]] = {}
        dens = set()
        for a, w in arcs.items():
            u, v = a
            if u == v:
                raise InputError(f"self-loop at vertex {u}")
            if u not in vset or v not in vset:
                raise InputError(f"arc ({u}, {v}) has an unknown endpoint")
            if type(w) is not int or w <= 0:
                w = _as_weight(w)
                if type(w) is not int:
                    dens.add(w.denominator)
            ints[a] = w
        if dens or scale != 1:
            # Integers over scale * lcm, then divided by their one gcd.
            lcm = math.lcm(*dens)
            ints = {a: int(w * lcm) for a, w in ints.items()}
            common = math.gcd(scale * lcm, *ints.values())
            ints = {a: w // common for a, w in ints.items()}
            scale = scale * lcm // common
        # One pass over the sorted arcs leaves every neighbour list sorted.
        out: Dict[int, List[int]] = {v: [] for v in vs}
        inn: Dict[int, List[int]] = {v: [] for v in vs}
        for u, v in sorted(ints):
            out[u].append(v)
            inn[v].append(u)
        self._vertices: Tuple[int, ...] = tuple(vs)
        self._vset = vset
        self._arcs: Dict[Arc, int] = ints
        self._scaled = (ints, scale)
        self._out = {v: tuple(ns) for v, ns in out.items()}
        self._in = {v: tuple(ns) for v, ns in inn.items()}
        # ("necessary", requests), ("induced", vertices), ("components", boundary) or ("kept", kind) -> fact
        self._facts: Dict[Tuple[str, object], object] = {}

    # -- basic accessors -------------------------------------------------

    @property
    def vertices(self) -> Tuple[int, ...]:
        return self._vertices

    @property
    def n(self) -> int:
        return len(self._vertices)

    @property
    def m(self) -> int:
        return len(self._arcs)

    def arcs(self) -> Dict[Arc, Union[int, Fraction]]:
        """{arc: weight}: the stored ints at scale 1, else one Fraction per arc."""
        ints, scale = self._scaled
        return dict(ints) if scale == 1 else {a: Fraction(w, scale) for a, w in ints.items()}

    def arc_set(self) -> Set[Arc]:
        return set(self._arcs)

    def has_vertex(self, v: int) -> bool:
        return v in self._vset

    def has_arc(self, u: int, v: int) -> bool:
        return (u, v) in self._arcs

    def weight(self, u: int, v: int) -> Fraction:
        try:
            return Fraction(self._arcs[(u, v)], self._scaled[1])
        except KeyError:
            raise InputError(f"no arc ({u}, {v})") from None

    def scaled_weights(self) -> Tuple[Dict[Arc, int], int]:
        """({arc: weight * scale}, scale), the stored form; shared, read-only."""
        return self._scaled

    # The adjacency-dict lookup checks the vertex; checking it first costs analyze-ladder 0.6-1.4% (tests/ab.py).
    def out_neighbors(self, v: int) -> Tuple[int, ...]:
        try:
            return self._out[v]
        except KeyError:
            raise _unknown_vertex(v) from None

    def in_neighbors(self, v: int) -> Tuple[int, ...]:
        try:
            return self._in[v]
        except KeyError:
            raise _unknown_vertex(v) from None

    def neighbors(self, v: int) -> Tuple[int, ...]:
        self._check_vertex(v)
        return tuple(sorted(set(self._out[v]) | set(self._in[v])))

    def total_degree(self, v: int) -> int:
        try:
            return len(self._in[v]) + len(self._out[v])
        except KeyError:
            raise _unknown_vertex(v) from None

    def kept(self, kind: str) -> dict:
        """A dict kept on this graph for facts of `kind` that another module
        derives from it.  Graphs are immutable, so such a fact lasts exactly
        as long as the graph, and a new graph starts with none."""
        return self._facts.setdefault(("kept", kind), {})

    def _check_vertex(self, v: int) -> None:
        if v not in self._vset:
            raise _unknown_vertex(v)

    # -- derived graphs --------------------------------------------------

    def subgraph(self, arcs: Iterable[Arc]) -> "WeightedDigraph":
        """Subgraph on the given arcs and their ends.  Graphs are immutable,
        so when that is every arc and every vertex, it is the graph itself,
        with its derived facts."""
        arcset = set(arcs)
        for a in arcset:
            if a not in self._arcs:
                raise InputError(f"arc {a} not present in the graph")
        ends = {u for a in arcset for u in a}
        if len(arcset) == len(self._arcs) and len(ends) == len(self._vertices):
            return self
        return WeightedDigraph(ends, {a: self._arcs[a] for a in arcset}, self._scaled[1])

    def induced(self, vertices: Iterable[int]) -> "WeightedDigraph":
        """Subgraph induced by `vertices`; kept per vertex set, so asking
        again for the same set returns the same graph; building it again
        costs analyze-ladder 3.3-4.2% (`tests/ab.py`)."""
        vs = frozenset(vertices)
        key = ("induced", vs)
        found = self._facts.get(key)
        if found is None:
            for v in vs:
                self._check_vertex(v)
            arcs = {a: w for a, w in self._arcs.items() if a[0] in vs and a[1] in vs}
            found = self._facts[key] = WeightedDigraph(vs, arcs, self._scaled[1])
        return found

    def without_arc(self, u: int, v: int) -> "WeightedDigraph":
        arcs = dict(self._arcs)
        del arcs[(u, v)]
        return WeightedDigraph(self._vertices, arcs, self._scaled[1])

    def reverse(self) -> "WeightedDigraph":
        return WeightedDigraph(self._vertices, {(v, u): w for (u, v), w in self._arcs.items()}, self._scaled[1])

    def sym(self) -> "UndirectedGraph":
        """Underlying undirected graph; weights are discarded."""
        return UndirectedGraph(self._vertices, {(u, v) if u < v else (v, u) for u, v in self._arcs})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, WeightedDigraph)
            and self._vertices == other._vertices
            and self._scaled == other._scaled
        )

    def __hash__(self):
        return hash((self._vertices, frozenset(self._arcs.items())))

    def __repr__(self) -> str:
        return f"WeightedDigraph(n={self.n}, m={self.m})"


class _Record:
    """A read-only record whose fields are its `__slots__`, as a frozen
    dataclass behaves: equal only to its own class, and hashed, pickled and
    shown as `Name(field=value, ...)` by its field values."""

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self.__slots__)

    def __eq__(self, other):
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(f'{f}={getattr(self, f)!r}' for f in self.__slots__)})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__


class DirectedPath(_Record):
    """A directed path; consecutive vertices must be joined by an arc of the
    carrier graph and all vertices are distinct."""

    __slots__ = ("vertices",)

    def __init__(self, vertices: Tuple[int, ...]):
        if not vertices:
            raise InputError("a path has at least one vertex")
        if len(set(vertices)) != len(vertices):
            raise InputError("path vertices must be distinct")
        super().__init__(vertices)

    @property
    def start(self) -> int:
        return self.vertices[0]

    @property
    def end(self) -> int:
        return self.vertices[-1]

    @property
    def length(self) -> int:
        return len(self.vertices) - 1

    @property
    def internal(self) -> frozenset:
        return frozenset(self.vertices[1:-1])

    def arcs(self) -> List[Arc]:
        return list(zip(self.vertices, self.vertices[1:]))

    def check_in(self, g: WeightedDigraph) -> None:
        arcs = g._arcs
        for u, v in self.arcs():
            if (u, v) not in arcs:
                raise InputError(f"path arc ({u}, {v}) is not in the carrier graph")


class UndirectedGraph:
    """Simple undirected graph (no weights)."""

    __slots__ = ("_vertices", "_vset", "_edges", "_adj")

    def __init__(self, vertices: Iterable[int], edges: Iterable[Tuple[int, int]]):
        vs = sorted(vertices)
        if len(set(vs)) != len(vs):
            raise InputError("duplicate vertex ids")
        vset = frozenset(vs)
        norm = set()
        adj: Dict[int, Set[int]] = {v: set() for v in vs}
        for u, v in edges:
            if u == v:
                raise InputError(f"self-loop at vertex {u}")
            if u not in vset or v not in vset:
                raise InputError(f"edge ({u}, {v}) has an unknown endpoint")
            norm.add((u, v) if u < v else (v, u))
            adj[u].add(v)
            adj[v].add(u)
        self._vertices, self._vset, self._edges = tuple(vs), vset, frozenset(norm)
        self._adj = {v: tuple(sorted(ns)) for v, ns in adj.items()}

    @property
    def vertices(self) -> Tuple[int, ...]:
        return self._vertices

    @property
    def n(self) -> int:
        return len(self._vertices)

    @property
    def edges(self) -> frozenset:
        return self._edges

    @property
    def m(self) -> int:
        return len(self._edges)

    def has_vertex(self, v: int) -> bool:
        return v in self._vset

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self._edges

    def adjacent(self, v: int) -> Tuple[int, ...]:
        if v not in self._vset:
            raise _unknown_vertex(v)
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self.adjacent(v))

    def components(self) -> List[List[int]]:
        """Connected components, each sorted, ordered by smallest member."""
        seen: Set[int] = set()
        comps = []
        for v in self._vertices:
            if v in seen:
                continue
            comp = []
            stack = [v]
            seen.add(v)
            while stack:
                u = stack.pop()
                comp.append(u)
                for w in self._adj[u]:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            comps.append(sorted(comp))
        return comps

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, UndirectedGraph)
            and self._vertices == other._vertices
            and self._edges == other._edges
        )

    def __hash__(self):
        return hash((self._vertices, self._edges))

    def __repr__(self) -> str:
        return f"UndirectedGraph(n={self.n}, m={self.m})"


# ---------------------------------------------------------------------------
# reachability


def search(
    g: WeightedDigraph,
    s: int,
    stop: Container[int] = (),
    target: Optional[int] = None,
    reverse: bool = False,
    within: Optional[Container[Arc]] = None,
) -> Dict[int, Optional[int]]:
    """Breadth-first parent map of the vertices reached from s, or of the
    vertices that reach s when `reverse` is set.

    A vertex in `stop` is recorded when first reached but never expanded;
    s itself is always expanded.  The search returns as soon as `target` is
    recorded.  Neighbours are scanned in ascending order, so each parent
    chain is the lexicographically first of the fewest-arc paths whose
    internal vertices avoid `stop`.  A reverse search walks the sorted
    in-neighbours, so it returns what a search of the reversed graph would.

    With `within` set, a neighbour is followed only along an arc in it (the
    arc into u when `reverse` is set), so the search returns what a search
    of the subgraph on those arcs and all of g's vertices would, and builds
    no graph."""
    g._check_vertex(s)
    adj = g._in if reverse else g._out
    parent: Dict[int, Optional[int]] = {s: None}
    queue = [s]
    # The list grows while it is walked, which makes it the FIFO queue.
    for u in queue:
        for v in adj[u]:
            if v in parent or within is not None and ((v, u) if reverse else (u, v)) not in within:
                continue
            parent[v] = u
            if v == target:
                return parent
            if v not in stop:
                queue.append(v)
    return parent


def shortest_path(
    g: WeightedDigraph, s: int, t: int, avoid: Container[int] = ()
) -> Optional[Tuple[DirectedPath, Fraction]]:
    """Minimum-weight directed s-t path whose internal vertices avoid
    `avoid`, or None if there is none.

    Ties are broken by the lexicographically smallest vertex sequence, which
    makes the result deterministic."""
    g._check_vertex(s)
    g._check_vertex(t)
    out = g._out
    # Integer costs over one positive scale order paths, ties included, as the exact costs do.
    ints, scale = g._scaled
    # Uniform-cost search on (cost, vertex sequence).  Because all simple
    # paths to a vertex end in it, lexicographic comparison is stable under
    # extension, so the first pop per vertex is optimal.
    heap: List[Tuple[int, Tuple[int, ...]]] = [(0, (s,))]
    done: Set[int] = set()
    while heap:
        cost, seq = heapq.heappop(heap)
        u = seq[-1]
        if u in done:
            continue
        done.add(u)
        if u == t:
            return DirectedPath(seq), Fraction(cost, scale)
        for v in out[u]:
            if v not in done and (v == t or v not in avoid):
                heapq.heappush(heap, (cost + ints[(u, v)], seq + (v,)))
    return None


def avoiding_path(g: WeightedDigraph, s: int, t: int, avoid: Iterable[int]) -> Optional[DirectedPath]:
    """Shortest (fewest arcs) s-t path whose internal vertices avoid `avoid`;
    endpoints are exempt.  Nontrivial: s == t yields None.  It is the s-t
    path of `search(g, s, avoid)`, read off that search's parent map."""
    if s == t:
        return None
    seq = _parent_path(search(g, s, set(avoid), t), t)
    return None if seq is None else DirectedPath(seq)


def _parent_path(parent: Dict[int, Optional[int]], t: int) -> Optional[Tuple[int, ...]]:
    """The vertices of the path to t in `search`'s parent map, from the
    search's source, or None when the search did not reach t."""
    if t not in parent:
        return None
    seq = [t]
    while parent[seq[-1]] is not None:
        seq.append(parent[seq[-1]])
    return tuple(reversed(seq))


def component_avoiding(g: WeightedDigraph, v: int, boundary: Iterable[int]) -> FrozenSet[int]:
    """The vertex set of v's connected component in the underlying
    undirected graph of g minus `boundary`; v must be outside `boundary`.
    Every component found is kept on g per boundary, so a later vertex of
    one, with the same boundary, walks nothing; walking every time costs
    analyze-ladder 0.8-1.1% (`tests/ab.py`)."""
    stop = frozenset(boundary)
    comps = g._facts.setdefault(("components", stop), {})
    if v in comps:
        return comps[v]
    g._check_vertex(v)
    out, inn = g._out, g._in
    seen = {v}
    stack = [v]
    while stack:
        u = stack.pop()
        for w in (*out[u], *inn[u]):
            if w not in seen and w not in stop:
                seen.add(w)
                stack.append(w)
    comp = frozenset(seen)
    comps.update(dict.fromkeys(comp, comp))
    return comp


def necessary_arcs(g: WeightedDigraph, requests: Iterable[Tuple[int, int]]) -> Optional[FrozenSet[Arc]]:
    """The arcs that lie on every s-t path of some request (s, t), or None
    when some request has an endpoint outside g or t unreachable from s.
    The answer is kept on g per request set, so asking again for the same
    set walks nothing; it is a frozenset, which no caller can change.

    These are the strong bridges that separate a request (Italiano, Laura &
    Santaroni, TCS 2012); s == t needs none.  Per request, a breadth-first
    search finds an s-t path with arcs e_1 .. e_k, and e_i is on every s-t
    path exactly when s reaches none of path[i:] without e_i .. e_k.  If s
    reaches path[j], j >= i, so, then e_{j+1} .. e_k finish an s-t path
    avoiding e_i.  Conversely, on an s-t path avoiding e_i, the first vertex
    of path[i:] is reached without e_i .. e_k, since their tails lie in
    path[i:].  These reachable sets grow with i, as s reaches path[:i] along
    e_1 .. e_{i-1}.  So one walk that leaves out the path's arcs, seeded
    with each path vertex in turn and extended only as far as each answer
    needs, finds them all in time linear in the graph."""
    reqs = frozenset(requests)
    facts, key = g._facts, ("necessary", reqs)
    if key not in facts:
        facts[key] = _necessary_arcs(g, reqs)
    return facts[key]


def _necessary_arcs(g: WeightedDigraph, requests: FrozenSet[Tuple[int, int]]) -> Optional[FrozenSet[Arc]]:
    out = g._out
    found: Set[Arc] = set()
    for s, t in requests:
        if not g.has_vertex(s) or not g.has_vertex(t):
            return None
        if s == t:
            continue
        path = _parent_path(search(g, s, (), t), t)
        if path is None:
            return None
        pos = {v: i for i, v in enumerate(path)}
        succ = dict(zip(path, path[1:]))
        seen = {s}
        stack = [s]
        far = 0  # the furthest path position among the vertices seen
        for i in range(1, len(path)):
            while stack and far < i:
                u = stack.pop()
                skip = succ.get(u)
                for v in out[u]:
                    if v not in seen and v != skip:
                        seen.add(v)
                        stack.append(v)
                        far = max(far, pos.get(v, 0))
            if far < i:
                found.add((path[i - 1], path[i]))
            if path[i] not in seen:
                seen.add(path[i])
                stack.append(path[i])
    return frozenset(found)


# ---------------------------------------------------------------------------
# degree-2 suppression


def suppress_degree_two(graph: WeightedDigraph, terminals: Iterable[int]) -> WeightedDigraph:
    """Exhaustively remove non-terminal pass-through vertices with exactly
    two neighbors, merging their arcs.  Created arcs carry the summed weight
    of the replaced arcs, added as integers over `graph`'s scale.  The
    non-terminals' neighbor sets are built first; with no candidate among
    them, `graph` itself is returned, and no terminal's set is built and
    nothing is copied; building every set first costs analyze-ladder 1.4-2.1%
    (`tests/ab.py`).

    The victim is always the smallest-id non-terminal with one or two
    neighbors, and one neighbor is an error.  Removing a vertex changes the
    neighbor sets of its two neighbors only, so a min-heap of candidates,
    re-checked when popped, yields the victims in that order while the
    neighbor sets and arcs are edited in place; the graph is built once."""
    T = set(terminals)
    out, inn = graph._out, graph._in
    nbrs: Dict[int, Set[int]] = {v: {*out[v], *inn[v]} for v in graph.vertices if v not in T}
    # Ascending ids already form a heap.
    heap = [v for v, ns in nbrs.items() if 1 <= len(ns) <= 2]
    if not heap:
        return graph
    nbrs.update({v: {*out[v], *inn[v]} for v in graph.vertices if v in T})

    def candidate(v: int) -> bool:
        return v not in T and 1 <= len(nbrs[v]) <= 2

    ints, scale = graph._scaled
    arcs = dict(ints)
    while heap:
        v = heapq.heappop(heap)
        if v not in nbrs or not candidate(v):
            continue
        if len(nbrs[v]) == 1:
            raise InconsistencyError(
                f"non-terminal {v} has a single neighbor; input is not inclusion-minimal"
            )
        u, w = sorted(nbrs.pop(v))
        created: List[Tuple[Arc, int]] = []
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
            # A parallel arc cannot occur in a minimal solution; keep the
            # cheaper route so cost comparisons stay meaningful.
            if arc not in arcs or weight < arcs[arc]:
                arcs[arc] = weight
        for x, y in ((u, w), (w, u)):
            nbrs[x].discard(v)
            nbrs[x].add(y)
            if candidate(x):
                heapq.heappush(heap, x)
    return WeightedDigraph(nbrs, arcs, scale)


# ---------------------------------------------------------------------------
# treewidth and diameter


def diameter(g: UndirectedGraph) -> int:
    """Maximum unweighted shortest-path distance over vertex pairs."""
    n = g.n
    if n == 0:
        raise DomainError("graph is empty")
    adj = g._adj
    best = 0
    for s in g._vertices:
        # Level-by-level search; `depth` ends at the eccentricity of s.
        seen = {s}
        frontier = [s]
        depth = -1
        while frontier:
            depth += 1
            nxt = []
            for u in frontier:
                for v in adj[u]:
                    if v not in seen:
                        seen.add(v)
                        nxt.append(v)
            frontier = nxt
        if len(seen) < n:
            # s is the smallest vertex, so it and the smallest vertex it
            # misses are the first members of the first two components.
            other = next(v for v in g._vertices if v not in seen)
            raise DomainError(f"graph is disconnected: components containing {s} and {other}")
        best = max(best, depth)
    return best


def _eliminate(adj: Dict[int, Set[int]], v: int) -> int:
    """Eliminate v from `adj` in place: make its neighbours a clique, drop v,
    and return its degree at elimination."""
    ns = adj.pop(v)
    for a in ns:
        na = adj[a]
        na.discard(v)
        na |= ns
        na.discard(a)
    return len(ns)


def treewidth_upper_bound(g: UndirectedGraph) -> int:
    """Width of greedy min-fill elimination; an upper bound on treewidth.
    Each step eliminates the vertex with the least fill, then the least
    degree, then the smallest id."""
    adj: Dict[int, Set[int]] = {v: set(g.adjacent(v)) for v in g.vertices}
    width = 0
    while adj:
        best = None
        for v, ns in adj.items():
            fill = 0
            nl = sorted(ns)
            for i, a in enumerate(nl):
                for b in nl[i + 1 :]:
                    if b not in adj[a]:
                        fill += 1
            key = (fill, len(ns), v)
            if best is None or key < best:
                best = key
        width = max(width, _eliminate(adj, best[2]))
    return width


def _component_treewidth(vertices: List[int], adj: Dict[int, Set[int]], k: int) -> int:
    """The least width >= k of an elimination order of one connected
    component; vertex i of `vertices` is bit i, and `adj` must not leave the
    component.  This is the decision form of the elimination-order
    recurrence (Bodlaender, Fomin, Koster, Kratsch and Thilikos, ACM TALG
    2012): Q(S, v) is the set of vertices outside S + v that v reaches
    through S, and the width is at most k exactly when a depth-first search
    from the empty set that adds v to S only while |Q(S, v)| <= k reaches
    every vertex.  It runs for k, k + 1, ...; a k below every degree stops
    at the empty set."""
    full = (1 << len(vertices)) - 1
    local = {v: i for i, v in enumerate(vertices)}
    amask = [sum(1 << local[w] for w in adj[v]) for v in vertices]
    while True:
        reached = {0}
        stack = [0]
        while stack and full not in reached:
            S = stack.pop()
            rest = full ^ S
            while rest:
                vbit = rest & -rest
                rest ^= vbit
                T = S | vbit
                if T in reached:
                    continue
                v = vbit.bit_length() - 1
                # Q(S, v): v's neighbours, grown through the members of S they reach.
                seen = amask[v]
                done = 0
                while grow := seen & S & ~done:
                    wbit = grow & -grow
                    done |= wbit
                    seen |= amask[wbit.bit_length() - 1]
                if (seen & ~T).bit_count() <= k:
                    reached.add(T)
                    stack.append(T)
        if full in reached:
            return k
        k += 1


def treewidth(g: UndirectedGraph) -> Tuple[int, bool]:
    """(width, exact): the treewidth of g, or, when the search would exceed
    its cap, the min-fill upper bound with exact False.

    Vertices of degree <= 2 are eliminated from a stack.  Only when it is
    empty is the first simplicial vertex eliminated; its degree d is then at
    least 3, and its neighbours go on the stack.  Eliminating a simplicial
    vertex of degree d leaves the width at max(d, width of the rest), and
    one of degree <= 2 keeps any width of at least 2, which the clique on a
    simplicial vertex and its d >= 3 neighbours guarantees.  If g
    empties with no such d, the width is read from counts (Wald and
    Colbourn, Networks 13, 1983): 0 with no edge, 1 for a forest (m = n -
    components, one vertex per component leaving at degree 0), else 2.  If
    it empties otherwise, the width is the largest d.  If not, what is left
    has minimum degree >= 3, and each of its components is searched from
    max(3, d); one above TREEWIDTH_EXACT_CAP vertices gives the bound."""
    adj: Dict[int, Set[int]] = {v: set(ns) for v, ns in g._adj.items()}
    stack = list(adj)
    components = width = 0
    while True:
        while stack:
            v = stack.pop()
            if v in adj and len(adj[v]) <= 2:
                stack.extend(adj[v])
                components += _eliminate(adj, v) == 0
        if not adj:
            return width or (0 if not g.m else 1 if g.m == g.n - components else 2), True
        v = next((u for u, ns in adj.items() if all(len(adj[a] & ns) == len(ns) - 1 for a in ns)), None)
        if v is None:
            break
        stack.extend(adj[v])
        width = max(width, _eliminate(adj, v))
    comps = UndirectedGraph(adj, [(u, w) for u in adj for w in adj[u]]).components()
    if any(len(comp) > TREEWIDTH_EXACT_CAP for comp in comps):
        return treewidth_upper_bound(g), False
    width = max(width, 3)
    for comp in comps:
        width = _component_treewidth(comp, adj, width)
    return width, True
