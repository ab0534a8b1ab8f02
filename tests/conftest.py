"""Shared test corpora and references: seeded random instances, a Hypothesis
strategy for small digraphs, reachability with forbidden internal vertices,
the cheapest path by exact rational costs, every simple path between two
vertices, a digraph minus a vertex set, the six-family ladder generator,
ladder hosts with terminals attached and ladders in series between
terminals, the undirected ladder and outerplanarity checks (by networkx,
which only the tests use), the exact-treewidth subset dynamic program, the
path-union search with its shared-arc bound built up front, the small
3-regular pattern corpus, the important and marked vertices with every
search run, the per-path analysis checked against them (its segments
against a detection that reuses no ladder verdict), and the small-scope
enumeration of every instance up to a small size, of every ladder up to a
small length, of every chain of two such ladders and of every PSI instance
of a pattern on a small host, with the checks run on each."""

import heapq
import itertools
import math
import random
import traceback
from collections import Counter
from fractions import Fraction
from typing import Dict, List, Set, Tuple
from unittest import mock

import networkx as nx
import pytest
from hypothesis import strategies as st

from dsnkit import solvers, structure
from dsnkit.dsn import DsnInstance, reverse_instance
from dsnkit.formats import emit_dsn, emit_psi
from dsnkit.generators import gen_grid
from dsnkit.graphs import DirectedPath, UndirectedGraph, WeightedDigraph, avoiding_path, search
from dsnkit.ladders import LadderSpec, ladder_arcs, ladder_rungs
from dsnkit.reduction import (
    PsiInstance,
    decide_psi_via_dsn,
    extract_embedding,
    generate_hardness_instance,
    solve_psi_bruteforce,
    verify_embedding,
)
from dsnkit.structure import ImportantSet, MarkedQuadruple, MarkedSet


def random_instance(seed, n_range=(4, 8), density=0.35, max_requests=4, max_arcs=20):
    """Seeded random DSN instance, or None when the draw exceeds max_arcs."""
    rng = random.Random(seed)
    n = rng.randint(*n_range)
    arcs = {}
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < density:
                arcs[(u, v)] = Fraction(rng.randint(1, 9))
    if len(arcs) > max_arcs:
        return None
    g = WeightedDigraph(range(n), arcs)
    requests = set()
    target = rng.randint(1, max_requests)
    while len(requests) < target:
        s, t = rng.sample(range(n), 2)
        requests.add((s, t))
    return DsnInstance(g, requests)


def random_instances(count, base_seed=0, **kw):
    out = []
    seed = base_seed
    while len(out) < count:
        inst = random_instance(seed, **kw)
        seed += 1
        if inst is not None:
            out.append(inst)
    return out


def digraphs(max_n=7, density=0.4, max_den=1):
    """Hypothesis strategy for small random digraphs on vertices 0..n-1,
    with weights n/d for n in 1..9 and d in 1..max_den."""
    @st.composite
    def build(draw):
        n = draw(st.integers(2, max_n))
        arcs = {}
        for u in range(n):
            for v in range(n):
                if u != v and draw(st.booleans() if density >= 0.5 else st.sampled_from([True, False, False])):
                    num = draw(st.integers(1, 9))
                    arcs[(u, v)] = Fraction(num, draw(st.integers(1, max_den)) if max_den > 1 else 1)
        return WeightedDigraph(range(n), arcs)

    return build()


def reaches(g, s, t, forbidden_internal=()):
    """Reference: True iff a directed s-t path exists whose internal
    vertices avoid the forbidden set.  Endpoints are exempt from it."""
    g._check_vertex(s)
    g._check_vertex(t)
    return s == t or t in search(g, s, set(forbidden_internal), t)


def rational_shortest_path(g, s, t, avoid=()):
    """Reference: `shortest_path` by uniform-cost search on (Fraction cost,
    vertex sequence), with no scaling to integers."""
    g._check_vertex(s)
    g._check_vertex(t)
    heap = [(Fraction(0), (s,))]
    done = set()
    while heap:
        cost, seq = heapq.heappop(heap)
        u = seq[-1]
        if u in done:
            continue
        done.add(u)
        if u == t:
            return DirectedPath(seq), cost
        for v in g.out_neighbors(u):
            if v not in done and (v == t or v not in avoid):
                heapq.heappush(heap, (cost + g.weight(u, v), seq + (v,)))
    return None


def without_vertices(g, vertices):
    """Reference: the subgraph of g induced by its vertices outside the set."""
    return g.induced(set(g.vertices) - set(vertices))


def all_simple_paths(g, s, t):
    """Reference: every simple directed s-t path, in DFS order with
    ascending neighbor ids, on an explicit stack."""
    if s == t:
        return [DirectedPath((s,))]
    out = []
    seq = [s]
    on_path = {s}
    # One iterator over the out-neighbors of each vertex on seq.
    frames = [iter(g.out_neighbors(s))]
    while frames:
        v = next(frames[-1], None)
        if v is None:
            frames.pop()
            on_path.discard(seq.pop())
        elif v == t:
            out.append(DirectedPath((*seq, t)))
        elif v not in on_path:
            seq.append(v)
            on_path.add(v)
            frames.append(iter(g.out_neighbors(v)))
    return out


def six_family_ladder(spec):
    """Reference: G_{n,I} built from its six arc families over the rails a
    and b, with the loops at identified rungs dropped."""
    n = spec.n
    odd = range(1, n + 1, 2)
    even = range(2, n + 1, 2)
    families = [
        [("a", i, "b", i) for i in odd],  # odd rungs a_i -> b_i
        [("b", i, "a", i) for i in even],  # even rungs b_i -> a_i
        [("a", i, "a", i - 1) for i in even],  # a_{2i} -> a_{2i-1}
        [("a", i, "a", i + 1) for i in even if i < n],  # a_{2i} -> a_{2i+1}
        [("b", i + 1, "b", i) for i in even if i < n],  # b_{2i+1} -> b_{2i}
        [("b", i - 1, "b", i) for i in even],  # b_{2i-1} -> b_{2i}
    ]
    vertex = {("a", i): spec.a(i) for i in range(1, n + 1)}
    vertex.update({("b", i): spec.b(i) for i in range(1, n + 1)})
    arcs = {}
    for ra, ia, rb, ib in (atom for family in families for atom in family):
        u, v = vertex[(ra, ia)], vertex[(rb, ib)]
        if u != v:
            arcs[(u, v)] = 1
    return WeightedDigraph(set(vertex.values()), arcs)


def is_outerplanar(u: UndirectedGraph) -> bool:
    """A graph is outerplanar iff adding an apex adjacent to everything keeps
    it planar (equivalently: no K4 or K_{2,3} minor)."""
    G = nx.Graph()
    G.add_nodes_from(u.vertices)
    G.add_edges_from(u.edges)
    apex = (max(u.vertices) + 1) if u.vertices else 0
    G.add_node(apex)
    G.add_edges_from((apex, v) for v in u.vertices)
    ok, _ = nx.check_planarity(G)
    return bool(ok)


def is_ladder_undirected(u: UndirectedGraph, a: int, b: int, c: int, d: int) -> bool:
    """Underlying-undirected ladder test: 2-connected outerplanar, boundary
    vertices of degree 2 joined by the ab and cd edges, degree 3 elsewhere."""
    boundary = {a, b, c, d}
    for v in boundary:
        if not u.has_vertex(v):
            return False
    if u.n <= 2:
        # Degenerate ladders: a single edge or a single vertex.
        return boundary <= set(u.vertices)
    if a != b and not u.has_edge(a, b):
        return False
    if c != d and not u.has_edge(c, d):
        return False
    for v in u.vertices:
        want = 2 if v in boundary else 3
        if u.degree(v) != want:
            return False
    G = nx.Graph()
    G.add_nodes_from(u.vertices)
    G.add_edges_from(u.edges)
    if not nx.is_biconnected(G):
        return False
    return is_outerplanar(u)


def _component_tw_dp(vertices: List[int], adj: Dict[int, Set[int]]) -> Tuple[int, List[int]]:
    """Exact treewidth of one connected component by the elimination-ordering
    subset DP; returns (width, elimination order).  Vertex i of `vertices`
    is bit i, and `adj` must not leave the component."""
    k = len(vertices)
    full = (1 << k) - 1
    local = {v: i for i, v in enumerate(vertices)}
    amask = [sum(1 << local[w] for w in adj[v]) for v in vertices]

    INF = k + 1
    tw = [0] * (1 << k)
    choice = [0] * (1 << k)
    for S in range(1, full + 1):
        best = INF
        best_v = -1
        rest = S
        while rest:
            vbit = rest & (-rest)
            rest ^= vbit
            v = vbit.bit_length() - 1
            prev = S ^ vbit
            # Q(prev, v): neighbors of v's closure through prev, outside prev+v
            seen = amask[v]
            grow = seen & prev
            closed = 0
            while grow:
                wbit = grow & (-grow)
                grow ^= wbit
                closed |= wbit
                w = wbit.bit_length() - 1
                seen |= amask[w]
                grow = (seen & prev) & ~closed
            q = bin(seen & ~prev & ~vbit).count("1")
            cand = tw[prev] if tw[prev] > q else q
            if cand < best or (cand == best and v < best_v):
                best = cand
                best_v = v
        tw[S] = best
        choice[S] = best_v
    order_rev = []
    S = full
    while S:
        v = choice[S]
        order_rev.append(vertices[v])
        S ^= 1 << v
    return tw[full], list(reversed(order_rev))


def treewidth_by_subset_dp(g: UndirectedGraph) -> Tuple[int, List[int]]:
    """Reference: the subset DP on each connected component of g, with no
    safe reductions first; returns (width, elimination order), the order
    running through the components one after another."""
    width, order = 0, []
    for comp in g.components():
        w, o = _component_tw_dp(comp, {v: set(g.adjacent(v)) for v in comp})
        width, order = max(width, w), order + o
    return width, order


def treewidth_by_rescans(g: UndirectedGraph) -> int:
    """Reference: safe reductions that rescan the remaining vertices after
    every elimination, eliminating the smallest simplicial vertex, else the
    smallest of degree 2, then the subset DP on the graph they leave, which
    has neither.  A degree-2 vertex goes only when no component has a leaf
    or an isolated vertex, so every component has a cycle and width >= 2."""
    adj = {v: set(g.adjacent(v)) for v in g.vertices}
    width = 0
    while adj:
        ordered = sorted(adj)
        v = next((u for u in ordered if all(b in adj[a] for a in adj[u] for b in adj[u] if a < b)), None)
        if v is None:
            v = next((u for u in ordered if len(adj[u]) == 2), None)
        if v is None:
            break
        ns = adj.pop(v)
        width = max(width, len(ns))
        for a in ns:
            adj[a] |= ns - {a}
            adj[a].discard(v)
    rest = UndirectedGraph(adj, [(u, w) for u in adj for w in adj[u]])
    return max(width, treewidth_by_subset_dp(rest)[0])


OUT_STAR_KINDS = ("int", "frac", "unit", "grid")


def out_star(seed, kind, leaves):
    """Seeded out-star instance: one root and `leaves` targets on a random
    digraph with integer, fractional or unit weights, or on a bidirected
    unit-weight grid.  Unit weights make many cheapest paths tie."""
    rng = random.Random(seed)
    if kind == "grid":
        host = gen_grid(rng.randint(3, 5), rng.randint(3, 4), q=2, seed=seed)[0].host
    else:
        n = rng.randint(max(4, leaves + 1), 10)
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        arcs = {}
        for a in rng.sample(pairs, rng.randint(n, min(3 * n, len(pairs)))):
            if kind == "int":
                arcs[a] = Fraction(rng.randint(1, 9))
            elif kind == "frac":
                arcs[a] = Fraction(rng.randint(1, 9), rng.randint(1, 4))
            else:
                arcs[a] = Fraction(1)
        host = WeightedDigraph(range(n), arcs)
    root = rng.randrange(host.n)
    targets = rng.sample([v for v in host.vertices if v != root], leaves)
    return DsnInstance(host, {(root, t) for t in targets})


def ladder_with_terminals(n, identified=()):
    """A ladder plus two fresh terminals 1000 and 1001 wired so that the two
    request paths traverse the two rails; requests make the whole graph one
    minimal solution."""
    return ladder_chain([LadderSpec(n, identified)], [(0, 1), (1, 0)])


def ladder_chain(specs, requests):
    """Ladders in series: the ladder of specs[i] (a `LadderSpec`) joins the
    fresh terminals 1000 + i and 1001 + i as `ladder_with_terminals` joins
    its two, with its vertex ids shifted past those of specs[:i].  Each
    request (i, j) asks for terminal 1000 + i to reach 1000 + j.  With every
    (i, i + 1) and (i + 1, i) requested, the whole graph is one minimal
    solution."""
    arcs = {}
    offset = 0
    for i, spec in enumerate(specs):
        rungs = [(u + offset, v + offset) for u, v in ladder_rungs(spec)]
        arcs.update(dict.fromkeys(ladder_arcs(rungs), 1))
        (tail_1, head_1), (tail_n, head_n) = rungs[0], rungs[-1]
        s, t = 1000 + i, 1001 + i
        arcs.update({(s, tail_1): 1, (head_n, t): 1, (t, tail_n): 1, (head_1, s): 1})
        offset += 2 * spec.n
    host = WeightedDigraph({v for arc in arcs for v in arc}, arcs)
    return DsnInstance(host, {(1000 + i, 1000 + j) for i, j in requests})


def chain_request_sets(k):
    """The two request sets of a chain of k ladders: every t_{i-1} <-> t_i,
    and t_0 <-> t_k alone, which makes each joining terminal read as an
    identified rung."""
    return [
        [(i, i + 1) for i in range(k)] + [(i + 1, i) for i in range(k)],
        [(0, k), (k, 0)],
    ]


def ladder_chain_space(max_n):
    """Every ordered pair of ladders G_{n,I} with n <= max_n and at most one
    identified rung, joined by `ladder_chain` under each of
    `chain_request_sets(2)`, each followed by its `reverse_instance`:
    4 * (max_n * (max_n + 3) / 2) ** 2 instances."""
    specs = [LadderSpec(n, ident) for n in range(1, max_n + 1) for ident in [(), *((i,) for i in range(1, n + 1))]]
    for pair in itertools.product(specs, repeat=2):
        for requests in chain_request_sets(2):
            inst = ladder_chain(pair, requests)
            yield inst
            yield reverse_instance(inst)


def chain_failure(inst):
    """`small_scope_failure(inst, solve_bnb)`, or else the reduced optimum
    taking more replacements, with the instance as `.dsn` text; None if
    neither."""
    failure = small_scope_failure(inst, solvers.solve_bnb)
    if failure is not None:
        return failure
    reduced, _ = structure.reduce_length_graph(solvers.solve_bnb(inst).optimum.as_graph(), inst.requests)
    again = structure.reduce_length_graph(reduced, inst.requests)[1].replacements
    return f"the reduced graph takes {again} more replacements\ninstance:\n{emit_dsn(inst)}" if again else None


K4 = UndirectedGraph(range(4), [(i, j) for i in range(4) for j in range(i + 1, 4)])
K33 = UndirectedGraph(range(6), [(i, j + 3) for i in range(3) for j in range(3)])
CUBE = UndirectedGraph(
    range(8),
    [(0, 1), (1, 2), (2, 3), (0, 3), (4, 5), (5, 6), (6, 7), (4, 7),
     (0, 4), (1, 5), (2, 6), (3, 7)],
)
PATTERNS = {"K4": K4, "K33": K33, "cube": CUBE}


def random_psi_host(pattern, seed, max_n=12, planted=None):
    """Random host around a 3-regular pattern; half the seeds plant a
    ground-truth embedding so both answers appear in the corpus."""
    rng = random.Random(seed)
    if planted is None:
        planted = seed % 2 == 0
    k = pattern.n
    nG = min(max_n, k + rng.randint(0, 3))
    classmap = {i: i for i in range(k)}
    for v in range(k, nG):
        classmap[v] = rng.randrange(k)
    edges = set()
    if planted:
        edges |= set(pattern.edges)
    pairs = [
        (u, v)
        for u in range(nG)
        for v in range(u + 1, nG)
        if classmap[u] != classmap[v]
    ]
    edges |= set(rng.sample(pairs, min(len(pairs), rng.randint(4, 12))))
    return PsiInstance(UndirectedGraph(range(nG), edges), pattern, classmap)


def solve_path_union_eager(inst):
    """`solvers._solve_path_union` as it was before its bound became lazy:
    the users, the lcm L and the split weights are built before the search,
    costs are carried times L, and there is no threshold.  Reference for its
    arcs, cost and `nodes`, which the lazy form must reproduce exactly."""
    if not inst.requests:
        return solvers._finish(inst, set(), 1, "exhaustive")
    back = {t: search(inst.host, t, reverse=True) for t in {t for _, t in inst.requests}}
    if any(s not in back[t] for s, t in inst.requests):
        return solvers._infeasible("exhaustive")
    host = solvers._IntHost(inst.host)
    per_request = solvers._request_paths(inst, host, back)
    per_request = [[path for _, path, _ in paths] for paths in per_request]
    users = Counter(bit for paths in per_request for bit in {bit for path in paths for bit, _ in path})
    L = math.lcm(*users.values())
    split = [[tuple((bit, w * L // users[bit]) for bit, w in path) for path in paths] for paths in per_request]
    pushes = [[(sum(bit for bit, _ in path), path) for path in reversed(paths)] for paths in per_request]

    def rest(i, chosen):
        return sum(min(sum(w for bit, w in path if not chosen & bit) for path in paths) for paths in split[i:])

    best = None
    best_arcs = 0
    nodes = 0
    stack = [(0, 0, 0)]
    while stack:
        i, chosen, cost = stack.pop()
        nodes += 1
        if best is not None and cost + rest(i, chosen) >= best:
            continue
        if i == len(per_request):
            best, best_arcs = cost, chosen
            continue
        for mask, path in pushes[i]:
            add = sum(w for bit, w in path if not chosen & bit)
            stack.append((i + 1, chosen | mask, cost + add * L))
    return solvers._finish(inst, host.decode(best_arcs), nodes, "exhaustive")


def important_vertices_reference(graph, terminals, P):
    """Reference: `structure.important_vertices` with both searches from
    every terminal, P's endpoints included, and no self-check."""
    T, pset, idx = set(terminals), set(P.vertices), {v: i for i, v in enumerate(P.vertices)}
    # (x, "<-"): the P vertices that x reaches; (x, "->"): those that reach x
    onto = {
        (x, d): {v for v in search(graph, x, pset, reverse=d == "->") if v in pset}
        for x in T if graph.has_vertex(x) for d in ("<-", "->")
    }
    labels = {}
    for (x, d), hits in onto.items():
        if hits:  # "<-" labels the hit closest to P's start, "->" the one closest to its end
            labels.setdefault((min if d == "<-" else max)(hits, key=idx.get), set()).add((x, d))
    important = tuple(v for v in P.vertices if any(v in hits for (x, _), hits in onto.items() if x not in pset))
    anchor, witness = {}, {}
    for v in important:
        for x, d in sorted(labels[v]):
            w = avoiding_path(graph, *((x, v) if d == "<-" else (v, x)), pset | T)
            if w is not None:
                anchor[v], witness[v] = x, w
                break
    return ImportantSet(P, important, {v: frozenset(ls) for v, ls in labels.items()}, anchor, witness)


def marked_vertices_reference(graph, P, imp):
    """Reference: `structure.marked_vertices` with a P-avoiding search from
    every path vertex, the witnesses found again by `avoiding_path` and no
    self-check."""
    pv, pset, idx, r = P.vertices, set(P.vertices), {v: i for i, v in enumerate(P.vertices)}, len(P.vertices)
    back = [{idx[v] for v in search(graph, pv[x], pset) if v in pset and v != pv[x]} for x in range(r)]
    quads = []
    for pj in imp.important:
        j = idx[pj]
        if not any(w <= j for x in range(j, r) for w in back[x]):
            quads.append(MarkedQuadruple(pj, pj, pj, pj, pj, None, None))
            continue
        j1 = min(w for x in range(j, r) for w in back[x])
        j4 = max(x for x in range(j, r) if back[x] and min(back[x]) <= j)
        j3 = min(x for x in range(j, r) if j1 in back[x])
        j2 = max(w for w in back[j4] if w <= j)
        q31, q42 = (avoiding_path(graph, pv[a], pv[b], pset) for a, b in ((j3, j1), (j4, j2)))
        quads.append(MarkedQuadruple(pj, pv[j1], pv[j2], pv[j3], pv[j4], q31, q42))
    return MarkedSet(tuple(quads))


def checked_analyses(run, *args):
    """`run(*args)`, with each per-path analysis of the structural pipeline
    checked against the two references and its segments against a
    detection that reuses no verdict.  Returns the result and, per analyzed
    path, its important and marked sets, whether both equal the
    references', every field and witness included, and whether the
    segments equal `detect_ladder_segments` run on the same path in a copy
    of the graph, which keeps none of the pipeline's accepted verdicts.  On
    an input with no segment between markers rejected, as on every input
    that `small_scope_failure` passes, this checks the reuse of accepted
    verdicts only; `test_the_reverse_path_reads_only_an_accepted_verdict`
    pins that a rejection is not reused."""
    analyses = []
    analyze = structure._analyze_path

    def checked(graph, T, s, t):
        P, imp, mk, segs = analyze(graph, T, s, t)
        same = (imp, mk) == (important_vertices_reference(graph, T, P), marked_vertices_reference(graph, P, imp))
        copy = WeightedDigraph(graph.vertices, graph.arcs())
        fresh = structure.detect_ladder_segments(copy, T, P, structure.segment_markers(P, imp, mk))
        analyses.append((imp, mk, same, segs == fresh))
        return P, imp, mk, segs

    with mock.patch.object(structure, "_analyze_path", checked):
        return run(*args), analyses


def small_scope_instances(n, sizes, weights=(1,), out_stars=False, masks=None):
    """Every digraph on vertices 0..n-1, drawn by arc mask, with every set
    of requests whose size is in `sizes`: any distinct pairs, or with
    `out_stars` set, pairs that share one source.  Arc i of host `mask`
    weighs weights[(mask + i) % len(weights)], so weights are unit by
    default.  `masks` picks the hosts, all of them by default."""
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    if out_stars:
        request_sets = [
            [(root, t) for t in leaves]
            for root in range(n)
            for k in sizes
            for leaves in itertools.combinations([v for v in range(n) if v != root], k)
        ]
    else:
        request_sets = [reqs for k in sizes for reqs in itertools.combinations(pairs, k)]
    for mask in range(1 << len(pairs)) if masks is None else masks:
        arcs = {a: weights[(mask + i) % len(weights)] for i, a in enumerate(pairs) if mask >> i & 1}
        host = WeightedDigraph(range(n), arcs)
        for reqs in request_sets:
            yield DsnInstance(host, reqs)


def ladder_space(max_n):
    """Every G_{n,I} with 1 <= n <= max_n and every identified set I, wired
    by `ladder_with_terminals`, each followed by its `reverse_instance`:
    2 * (2 ** (max_n + 1) - 2) instances."""
    for n in range(1, max_n + 1):
        for mask in range(1 << n):
            inst = ladder_with_terminals(n, {i + 1 for i in range(n) if mask >> i & 1})
            yield inst
            yield reverse_instance(inst)


def psi_space(pattern, n):
    """Every PSI instance of `pattern` on host vertices 0..n-1 whose classes
    are contiguous blocks, one per pattern vertex in order, of every size
    vector, with every set of host edges between classes."""
    order = sorted(pattern.vertices)
    for cuts in itertools.combinations(range(1, n), len(order) - 1):
        ends = (0, *cuts, n)
        classmap = {v: h for i, h in enumerate(order) for v in range(ends[i], ends[i + 1])}
        pairs = [(u, v) for u, v in itertools.combinations(range(n), 2) if classmap[u] != classmap[v]]
        for mask in range(1 << len(pairs)):
            host = UndirectedGraph(range(n), [e for i, e in enumerate(pairs) if mask >> i & 1])
            yield PsiInstance(host, pattern, classmap)


def psi_space_failure(psi):
    """None if deciding `psi` through its hardness instance agrees with
    `solve_psi_bruteforce`, and the optimum found without the threshold stop
    is never below the threshold and, when it meets it, carries an
    embedding (`extract_embedding`, then `verify_embedding`); else what
    differs, with the instance as `.psi` text.  An exception from any of
    them is a failure too, reported with its traceback."""
    try:
        out = generate_hardness_instance(psi)
        via_dsn = decide_psi_via_dsn(out)
        direct = solve_psi_bruteforce(psi) is not None
        full = solvers._solve_path_union(out.dsn)
        tight = full.feasible and full.cost == out.threshold
        why = None
        if via_dsn != direct:
            why = f"decide_psi_via_dsn gives {via_dsn}, solve_psi_bruteforce {direct}"
        elif full.feasible and full.cost < out.threshold:
            why = f"optimum {full.cost} is below the threshold {out.threshold}"
        elif tight != via_dsn:
            why = f"optimum {full.cost} against the threshold {out.threshold}, but decide_psi_via_dsn gives {via_dsn}"
        elif tight:
            verify_embedding(psi, extract_embedding(out, full.optimum))
    except Exception:
        why = traceback.format_exc()
    return None if why is None else f"{why.rstrip()}\ninstance:\n{emit_psi(psi)}"


def small_scope_failure(inst, engine=solvers.solve_exhaustive):
    """What goes wrong on `inst`, with the instance as `.dsn` text, or None.

    `solve_bnb` and `engine` must agree on feasibility and cost.  A
    feasible instance must then get a certificate from
    `solve_with_certificate` with neither verdict set, the important and
    marked bounds holding and the diameter bound not False, an exact
    solution treewidth equal to the reference's on the optimum (rescanning
    safe reductions, then the subset DP) and no segment between markers
    rejected, and each path it analyzes must get the important and marked
    sets of the references.
    An exception from any of them is a failure too, reported with its
    traceback."""
    try:
        got, want = engine(inst), solvers.solve_bnb(inst)
        if (got.feasible, got.cost) != (want.feasible, want.cost):
            why = f"{engine.__name__} gives cost {got.cost}, solve_bnb {want.cost}"
        elif want.feasible:
            (res, rep), analyses = checked_analyses(solvers.solve_with_certificate, inst)
            verdicts = {
                "flagged": rep.flagged,
                "pipeline_increased_tw": rep.pipeline_increased_tw,
                "important bound failed": not rep.important_bound_ok,
                "marked bound failed": not rep.marked_bound_ok,
                "diameter bound failed": rep.diameter_bound_ok is False,
                "exact solution treewidth differs from the subset-DP reference": rep.tw_before_exact
                and rep.tw_before != treewidth_by_rescans(res.optimum.as_graph().sym()),
                "important or marked set differs from the reference": not all(same for _, _, same, _ in analyses),
                "segments differ from a detection without reused verdicts": not all(
                    segs_same for _, _, _, segs_same in analyses
                ),
                "segment between markers rejected": any(not s.verdict.ok for p in rep.paths for s in p.segments),
            }
            why = ", ".join(name for name, bad in verdicts.items() if bad) or None
        else:
            why = None
    except Exception:
        why = traceback.format_exc()
    return None if why is None else f"{why.rstrip()}\ninstance:\n{emit_dsn(inst)}"


@pytest.fixture
def triangle_scss():
    host = WeightedDigraph(range(3), {(u, v): 1 for u in range(3) for v in range(3) if u != v})
    return DsnInstance(host, {(0, 1), (1, 2), (2, 0)})


@pytest.fixture
def unsound_bnb_bound(monkeypatch):
    """Breaks `solve_bnb`'s bound reuse: the weight list understates every
    arc by 1, so including an arc of a recorded path lowers the bound by
    less than Dijkstra paid for it.  Returns an instance on which the search
    then reaches a positive bound on a path of included arcs."""

    class Understated(solvers._IntHost):
        def __init__(self, host):
            super().__init__(host)
            self.weights = [w - 1 for w in self.weights]

    monkeypatch.setattr(solvers, "_IntHost", Understated)
    return DsnInstance(WeightedDigraph(range(3), {(0, 1): 2, (1, 2): 2, (0, 2): 5}), {(0, 2)})
