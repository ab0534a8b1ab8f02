"""Hardness-instance generation: pattern-embedding problems encoded as
directed Steiner network instances with a tight cost threshold.

The generator labels the pattern graph with three small colour families,
builds a stratified unit-weight digraph whose optimum cost hits the
threshold exactly when a class-respecting embedding exists, and can read an
embedding back out of a tight solution.
"""

from __future__ import annotations

import warnings
from itertools import chain
from math import isqrt
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Set, Tuple

from .dsn import DsnInstance, Request, SolutionSubgraph, validate
from .errors import CapacityError, InputError, InvariantError, PreconditionError
from .graphs import UndirectedGraph, WeightedDigraph, _Record
from .solvers import _solve_path_union

Edge = Tuple[int, int]
PSI_BRUTEFORCE_MAX_K = 10


def _edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


class PsiInstance(_Record):
    """Host graph, pattern graph and the class map from host to pattern
    vertices; an embedding must send each pattern vertex into its own class."""

    __slots__ = ("hostG", "patternH", "classmap")  # classmap: V(G) -> V(H)

    def __init__(self, hostG: UndirectedGraph, patternH: UndirectedGraph, classmap: Dict[int, int]):
        if patternH.n > hostG.n:
            raise InputError("pattern graph is larger than the host graph")
        if set(classmap) != set(hostG.vertices):
            raise InputError("class map must be total on the host vertices")
        if not set(classmap.values()) <= set(patternH.vertices):
            raise InputError("class map image must lie in the pattern graph")
        super().__init__(hostG, patternH, classmap)

    @property
    def k(self) -> int:
        return self.patternH.n

    def vertex_class(self, h: int) -> List[int]:
        return sorted(v for v, c in self.classmap.items() if c == h)


class Labelling(NamedTuple):
    """Three colour maps on the pattern graph:

    - alpha groups vertices into chunks, each inside one colour class of a
      greedy 4-colouring (which `build_labelling` uses and does not keep),
    - beta separates vertices sharing a chunk or an edge,
    - gamma separates edges whose endpoints share an alpha colour.

    Together (alpha, beta) identifies a vertex and (alpha-of-endpoint, gamma)
    identifies an edge."""

    r: int
    chunks: Tuple[Tuple[int, ...], ...]  # ordered nonempty chunks
    alpha: Dict[int, int]  # vertex -> chunk index
    beta: Dict[int, int]  # vertex -> colour in [0, r+2]
    gamma: Dict[Edge, int]  # pattern edge -> colour in [0, 6r-2]

    @property
    def num_x(self) -> int:
        return len(self.chunks)

    @property
    def num_y(self) -> int:
        return 1 + max(self.beta.values()) if self.beta else 0

    @property
    def num_z(self) -> int:
        return 1 + max(self.gamma.values()) if self.gamma else 0


def _greedy_vertex_colouring(adj: Dict[int, Set[int]]) -> Dict[int, int]:
    """Each vertex, in the map's order, takes the least colour its neighbours lack."""
    colour: Dict[int, int] = {}
    for v, ns in adj.items():
        used = {colour[u] for u in ns if u in colour}
        c = 0
        while c in used:
            c += 1
        colour[v] = c
    return colour


def check_labelling(h: UndirectedGraph, lab: Labelling) -> Optional[str]:
    """Exhaustive double-loop verification of the three separation
    conditions; returns a description of the first violation."""
    vs = list(h.vertices)
    for u in vs:
        for v in vs:
            if u < v and lab.alpha[u] == lab.alpha[v] and lab.beta[u] == lab.beta[v]:
                return f"vertices {u},{v} share both alpha and beta"
    for u, v in sorted(h.edges):
        if lab.alpha[u] == lab.alpha[v]:
            return f"edge {u},{v} has alpha-equal endpoints"
        if lab.beta[u] == lab.beta[v]:
            return f"edge {u},{v} has beta-equal endpoints"
    edges = sorted(h.edges)
    for e in edges:
        for f in edges:
            if e >= f:
                continue
            # The cheap gamma test first: most pairs differ there.
            if lab.gamma[e] == lab.gamma[f] and any(lab.alpha[a] == lab.alpha[b] for a in e for b in f):
                return f"edges {e},{f} with alpha-linked endpoints share gamma"
    return None


def build_labelling(psi: PsiInstance) -> Labelling:
    """The three-stage labelling: greedy 4-colouring, chunking each colour
    class into groups of size r = ceil(sqrt(k)), then two more greedy
    colourings on the chunk-clique graph and the chunk-contracted multigraph."""
    h = psi.patternH
    # Adjacency maps in ascending order of vertex.
    adj = {v: set(h.adjacent(v)) for v in h.vertices}
    if any(len(ns) > 3 for ns in adj.values()):
        raise InputError("pattern graph must have maximum degree 3")
    if any(len(ns) != 3 for ns in adj.values()):
        warnings.warn("pattern graph is not 3-regular; size bounds still hold", stacklevel=2)
    k = h.n
    r = max(1, ceil_sqrt(k))

    eta = _greedy_vertex_colouring(adj)
    if eta and max(eta.values()) > 3:
        raise InvariantError("greedy colouring of a max-degree-3 graph used > 4 colours")

    # eta lists the vertices in ascending order, so each class comes sorted.
    classes: List[List[int]] = [[], [], [], []]
    for v, c in eta.items():
        classes[c].append(v)
    chunks = tuple(tuple(members[i : i + r]) for members in classes for i in range(0, len(members), r))
    alpha = {v: idx for idx, chunk in enumerate(chunks) for v in chunk}
    if len(chunks) > r + 4:
        raise InvariantError(f"{len(chunks)} alpha labels exceed r+4 = {r + 4}")

    # chunk-clique graph: the pattern plus a clique inside each chunk
    for v, ns in adj.items():
        ns.update(chunks[alpha[v]])
        ns.discard(v)
    beta = _greedy_vertex_colouring(adj)
    if beta and max(beta.values()) > r + 2:
        raise InvariantError(f"beta used more than r+3 = {r + 3} colours")

    # chunk-contracted multigraph: colour pattern edges so that edges
    # touching a common chunk get distinct colours
    gamma: Dict[Edge, int] = {}
    chunk_colours: List[Set[int]] = [set() for _ in chunks]  # gamma colours at each chunk
    for e in sorted(h.edges):
        at_u, at_v = chunk_colours[alpha[e[0]]], chunk_colours[alpha[e[1]]]
        c = 0
        while c in at_u or c in at_v:
            c += 1
        gamma[e] = c
        at_u.add(c)
        at_v.add(c)
    if gamma and max(gamma.values()) > 6 * r - 2:
        raise InvariantError(f"gamma used more than 6r-1 = {6 * r - 1} colours")

    lab = Labelling(r, chunks, alpha, beta, gamma)
    bad = check_labelling(h, lab)
    if bad is not None:
        raise InvariantError(f"labelling condition violated: {bad}")
    return lab


def ceil_sqrt(k: int) -> int:
    s = isqrt(k)
    return s if s * s == k else s + 1


class ReductionOutput(NamedTuple):
    psi: PsiInstance
    labelling: Labelling
    dsn: DsnInstance
    threshold: int  # 2 |V(H)| + 3 |E(H)|
    v_vertices: FrozenSet[int]
    w_vertex: Dict[Edge, int]  # host edge -> hub vertex
    x_vertex: Dict[int, int]  # alpha label -> terminal
    y_vertex: Dict[int, int]  # beta colour -> terminal
    z_vertex: Dict[int, int]  # gamma colour -> terminal
    a_v_arcs: FrozenSet[Tuple[int, int]]
    a_w_arcs: FrozenSet[Tuple[int, int]]
    a_y: FrozenSet[Request]
    a_z: FrozenSet[Request]


def build_dsn(psi: PsiInstance, lab: Labelling) -> ReductionOutput:
    """Materialize the stratified unit-weight digraph and its request set.

    Vertex strata: host vertices, one hub per host edge, and one terminal per
    alpha/beta/gamma colour.  Arcs run colour->vertex->colour and
    vertex->hub->colour only, so every terminal-to-terminal path has length
    exactly 2 (into the beta layer) or 3 (into the gamma layer)."""
    g, h = psi.hostG, psi.patternH
    first = nxt = (max(g.vertices) + 1) if g.n else 0

    w_vertex = {e: nxt + i for i, e in enumerate(sorted(g.edges))}
    nxt += len(w_vertex)
    x_vertex = {i: nxt + i for i in range(lab.num_x)}
    nxt += len(x_vertex)
    y_vertex = {i: nxt + i for i in range(lab.num_y)}
    nxt += len(y_vertex)
    z_vertex = {i: nxt + i for i in range(lab.num_z)}
    nxt += len(z_vertex)

    # Each stratum is built once, as the frozenset `ReductionOutput` keeps:
    # every arc has its own host vertex or hub, so none repeats.
    cls = psi.classmap
    a_v = frozenset([(x_vertex[lab.alpha[cls[u]]], u) for u in g.vertices]
                    + [(u, y_vertex[lab.beta[cls[u]]]) for u in g.vertices])
    a_w_list = []
    for (u, v), w in w_vertex.items():
        a_w_list += (u, w), (v, w)
        # A host edge inside a class or across non-adjacent classes can never
        # realize a pattern edge, so its hub gets no outlet.
        he = _edge(cls[u], cls[v])
        if he in lab.gamma:
            a_w_list.append((w, z_vertex[lab.gamma[he]]))
    a_w = frozenset(a_w_list)

    a_y = frozenset((x_vertex[lab.alpha[u]], y_vertex[lab.beta[u]]) for u in h.vertices)
    if len(a_y) != h.n:
        raise InvariantError("vertex requests are not pairwise distinct")
    a_z = frozenset((x_vertex[lab.alpha[u]], z_vertex[lab.gamma[e]]) for e in h.edges for u in e)
    if len(a_z) != 2 * h.m:
        raise InvariantError("edge requests are not pairwise distinct")

    # The strata's vertices are numbered consecutively after the host's.
    host = WeightedDigraph([*g.vertices, *range(first, nxt)], dict.fromkeys(chain(a_v, a_w), 1))
    dsn = DsnInstance(host, a_y | a_z)

    out = ReductionOutput(
        psi=psi,
        labelling=lab,
        dsn=dsn,
        threshold=2 * h.n + 3 * h.m,
        v_vertices=frozenset(g.vertices),
        w_vertex=w_vertex,
        x_vertex=x_vertex,
        y_vertex=y_vertex,
        z_vertex=z_vertex,
        a_v_arcs=a_v,
        a_w_arcs=a_w,
        a_y=a_y,
        a_z=a_z,
    )
    _audit_strata(out)
    return out


def _audit_strata(out: ReductionOutput) -> None:
    """Every arc must step down exactly one stratum, which forces the
    length-2 / length-3 shape of all terminal-to-terminal paths."""
    V = out.v_vertices
    W = set(out.w_vertex.values())
    X = set(out.x_vertex.values())
    Y = set(out.y_vertex.values())
    Z = set(out.z_vertex.values())
    if out.a_v_arcs & out.a_w_arcs:
        raise InvariantError("arc strata overlap")
    for u, v in out.a_v_arcs:
        if not ((u in X and v in V) or (u in V and v in Y)):
            raise InvariantError(f"misplaced vertex-stratum arc {(u, v)}")
    for u, v in out.a_w_arcs:
        if not ((u in V and v in W) or (u in W and v in Z)):
            raise InvariantError(f"misplaced hub-stratum arc {(u, v)}")
    Y |= Z
    for s, t in out.dsn.requests:
        if s not in X or t not in Y:
            raise InvariantError(f"request {(s, t)} leaves the terminal strata")


def generate_hardness_instance(psi: PsiInstance) -> ReductionOutput:
    return build_dsn(psi, build_labelling(psi))


# ---------------------------------------------------------------------------
# deciding and extracting


def decide_psi_via_dsn(out: ReductionOutput) -> bool:
    """Solve a generated hardness instance exactly and compare the optimum
    to its threshold.

    The engine is `solvers._solve_path_union`, fast here because the
    stratified shape leaves each request a handful of simple paths.  No
    solution costs less than the threshold (criterion 3), so the search
    stops at the first leaf that meets it, an optimum; a cheaper solution
    is a failed self-check and raises InvariantError."""
    result = _solve_path_union(out.dsn, out.threshold)
    if not result.feasible:
        return False
    if result.cost < out.threshold:
        raise InvariantError(f"solution cost {result.cost} is below the threshold {out.threshold}")
    return result.cost == out.threshold


def solve_psi_bruteforce(psi: PsiInstance) -> Optional[Dict[int, int]]:
    """Backtracking over class-respecting assignments; embeddings are
    injective for free because classes are disjoint."""
    h = psi.patternH
    if h.n > PSI_BRUTEFORCE_MAX_K:
        raise CapacityError(f"pattern has {h.n} vertices; brute-force cap is {PSI_BRUTEFORCE_MAX_K}")
    order = list(h.vertices)
    classes = {v: psi.vertex_class(v) for v in order}
    if any(not classes[v] for v in order):
        return None
    phi: Dict[int, int] = {}

    def ok(v: int, gv: int) -> bool:
        for u in h.adjacent(v):
            if u in phi and not psi.hostG.has_edge(phi[u], gv):
                return False
        return True

    def go(i: int) -> bool:
        if i == len(order):
            return True
        v = order[i]
        for gv in classes[v]:
            if ok(v, gv):
                phi[v] = gv
                if go(i + 1):
                    return True
                del phi[v]
        return False

    if not go(0):
        return None
    verify_embedding(psi, phi)
    return dict(phi)


def verify_embedding(psi: PsiInstance, phi: Dict[int, int]) -> None:
    """Independent re-check: injective, class-respecting, edge-preserving."""
    h = psi.patternH
    if set(phi) != set(h.vertices):
        raise InvariantError("embedding is not total")
    if len(set(phi.values())) != len(phi):
        raise InvariantError("embedding is not injective")
    for v, gv in phi.items():
        if psi.classmap[gv] != v:
            raise InvariantError(f"embedding leaves class at {v}")
    for u, v in h.edges:
        if not psi.hostG.has_edge(phi[u], phi[v]):
            raise InvariantError(f"pattern edge {(u, v)} not realized")


def embedding_solution(out: ReductionOutput, phi: Dict[int, int]) -> SolutionSubgraph:
    """Encode an embedding as the canonical tight solution."""
    verify_embedding(out.psi, phi)
    lab = out.labelling
    arcs: Set[Tuple[int, int]] = set()
    for u, gu in phi.items():
        arcs.add((out.x_vertex[lab.alpha[u]], gu))
        arcs.add((gu, out.y_vertex[lab.beta[u]]))
    for u, v in out.psi.patternH.edges:
        ge = _edge(phi[u], phi[v])
        w = out.w_vertex[ge]
        arcs.add((phi[u], w))
        arcs.add((phi[v], w))
        arcs.add((w, out.z_vertex[lab.gamma[_edge(u, v)]]))
    return SolutionSubgraph(out.dsn.host, frozenset(arcs))


def extract_embedding(out: ReductionOutput, sol: SolutionSubgraph) -> Dict[int, int]:
    """Read the embedding off a tight solution: for each pattern vertex the
    unique class member carrying its colour-to-colour path."""
    if validate(out.dsn, sol) is not None:
        raise PreconditionError("solution does not satisfy the requests")
    if sol.cost() > out.threshold:
        raise PreconditionError(
            f"solution cost {sol.cost()} exceeds the threshold {out.threshold}"
        )
    lab = out.labelling
    arcs = set(sol.arcs)
    phi: Dict[int, int] = {}
    for u in out.psi.patternH.vertices:
        x = out.x_vertex[lab.alpha[u]]
        y = out.y_vertex[lab.beta[u]]
        cands = [
            gv
            for gv in out.psi.vertex_class(u)
            if (x, gv) in arcs and (gv, y) in arcs
        ]
        if len(cands) > 1:
            raise InvariantError(
                f"two class members {cands} realize the path for pattern vertex {u}"
            )
        if not cands:
            raise InvariantError(f"no class member realizes the path for pattern vertex {u}")
        phi[u] = cands[0]
    for u, v in out.psi.patternH.edges:
        z = out.z_vertex[lab.gamma[_edge(u, v)]]
        ge = _edge(phi[u], phi[v])
        w = out.w_vertex.get(ge)
        if (
            w is None
            or (phi[u], w) not in arcs
            or (phi[v], w) not in arcs
            or (w, z) not in arcs
        ):
            raise InvariantError(f"pattern edge {(u, v)} lacks a shared hub in the solution")
    verify_embedding(out.psi, phi)
    return phi
