"""Exact solvers at desk scale.

`solve_exhaustive` is the ground-truth oracle, `solve_bnb` a branch-and-bound
with an admissible shortest-path bound, `solve_dst` the 3^|T| dynamic program
for out-star requests.  Infeasibility is a first-class result, never an
exception.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Set, Tuple

from .dsn import (
    DsnInstance,
    SolutionSubgraph,
    minimize,
    validate,
    violated_request,
)
from .errors import CapacityError, DomainError, InvariantError
from .graphs import Arc, DirectedPath, all_simple_paths, shortest_path
from .structure import TreewidthCertificate, certify_treewidth_bound

EXHAUSTIVE_MAX_ARCS = 24
DST_MAX_LEAVES = 12

# A request's bound in `solve_bnb`: (s, t, distance, arcs of the path as a
# bitmask, vertices settled before t).
Bound = Tuple[int, int, int, int, Set[int]]


@dataclass(frozen=True)
class SolveResult:
    feasible: bool
    optimum: Optional[SolutionSubgraph]
    cost: Optional[Fraction]
    node_count: int
    proved_optimal: bool
    method: str

    def to_json_dict(self) -> dict:
        return {
            "feasible": self.feasible,
            "cost": [self.cost.numerator, self.cost.denominator] if self.cost is not None else None,
            "arcs": sorted(self.optimum.arcs) if self.optimum else None,
            "nodes": self.node_count,
            "proved_optimal": self.proved_optimal,
            "method": self.method,
        }


def _infeasible(method: str, nodes: int = 0) -> SolveResult:
    return SolveResult(False, None, None, nodes, True, method)


def _finish(inst: DsnInstance, arcs: Set[Arc], nodes: int, method: str) -> SolveResult:
    sol = minimize(inst, SolutionSubgraph(inst.host, frozenset(arcs)))
    violated = validate(inst, sol)
    if violated is not None:
        raise InvariantError(f"{method} solution violates request {violated[0]}->{violated[1]}")
    return SolveResult(True, sol, sol.cost(), nodes, True, method)


# ---------------------------------------------------------------------------
# exhaustive oracle


def _request_paths(inst: DsnInstance) -> List[List[DirectedPath]]:
    """All simple paths per request, cheapest first, requests sorted."""
    out = []
    for s, t in inst.sorted_requests():
        paths = all_simple_paths(inst.host, s, t)
        paths.sort(key=lambda p: (sum(inst.host.weight(u, v) for u, v in p.arcs()), p.vertices))
        out.append(paths)
    return out


def solve_exhaustive(inst: DsnInstance) -> SolveResult:
    """Exact optimum by exhausting combinations of one simple path per
    request (every minimal solution is such a union), with cost pruning.

    Agrees with the plain subset scan everywhere both run; this form stays
    inside the arc cap without visiting all 2^m subsets."""
    if inst.host.m > EXHAUSTIVE_MAX_ARCS:
        raise CapacityError(
            f"host has {inst.host.m} arcs; exhaustive cap is {EXHAUSTIVE_MAX_ARCS}"
        )
    return _solve_path_union(inst)


def _solve_path_union(inst: DsnInstance) -> SolveResult:
    """Uncapped path-union search; suitable whenever simple paths per
    request stay few (e.g. stratified generated instances)."""
    if not inst.requests:
        return _finish(inst, set(), 1, "exhaustive")
    if violated_request(inst.host, inst.requests) is not None:
        return _infeasible("exhaustive")
    per_request = _request_paths(inst)
    weights = inst.host.arcs()
    best_cost: Optional[Fraction] = None
    best_arcs: Optional[Set[Arc]] = None
    nodes = 0

    def go(i: int, chosen: Set[Arc], cost: Fraction) -> None:
        nonlocal best_cost, best_arcs, nodes
        nodes += 1
        if best_cost is not None and cost >= best_cost:
            return
        if i == len(per_request):
            best_cost = cost
            best_arcs = set(chosen)
            return
        for path in per_request[i]:
            extra = [a for a in path.arcs() if a not in chosen]
            add = sum((weights[a] for a in extra), Fraction(0))
            if best_cost is not None and cost + add >= best_cost:
                continue
            chosen.update(extra)
            go(i + 1, chosen, cost + add)
            chosen.difference_update(extra)

    go(0, set(), Fraction(0))
    if best_arcs is None:
        return _infeasible("exhaustive", nodes)
    return _finish(inst, best_arcs, nodes, "exhaustive")


# ---------------------------------------------------------------------------
# branch and bound


def solve_bnb(inst: DsnInstance) -> SolveResult:
    """Branch on arcs by ascending id (include branch first).

    Lower bound at a node: cost of included arcs plus the largest
    shortest-path cost over unsatisfied requests, with included arcs free and
    excluded arcs removed.  The bound ignores sharing between requests, so it
    never overestimates.  Internally weights are scaled to integers to keep
    the inner Dijkstra cheap; reported costs are exact rationals.

    The search runs on an explicit stack, and each node derives its state
    from its parent's.  Arc sets are bitmasks over arc ids.  Every unsatisfied
    request keeps its bound d, the arcs of the path that attains it and the
    vertices Dijkstra settled before reaching t (a superset of those closer
    than d).  A child reruns Dijkstra only where these exact rules fail:

    - excluding an arc off the recorded path leaves d unchanged;
    - including an arc of weight w on the recorded path makes it d - w;
    - including an arc whose tail was not settled before t leaves d
      unchanged, since any path through it already costs at least d.

    Weights are positive, so a request is satisfied by the included arcs
    exactly when its bound is 0."""
    if not inst.requests:
        return _finish(inst, set(), 1, "bnb")
    if violated_request(inst.host, inst.requests) is not None:
        return _infeasible("bnb")
    host = inst.host
    arcs = sorted(host.arcs())
    weights = host.arcs()

    scale = 1
    for w in weights.values():
        scale = scale * w.denominator // math.gcd(scale, w.denominator)
    iw = [int(weights[a] * scale) for a in arcs]
    adj: Dict[int, List[Tuple[int, int, int]]] = {v: [] for v in host.vertices}
    for i, (u, v) in enumerate(arcs):
        adj[u].append((v, iw[i], 1 << i))

    def bound(s: int, t: int, included: int, excluded: int) -> Optional[Bound]:
        """Dijkstra from s to t with included arcs free and excluded arcs
        removed; None when t is unreachable."""
        dist = {s: 0}
        pred: Dict[int, Tuple[int, int]] = {}
        near: Set[int] = set()
        heap = [(0, s)]
        while heap:
            d, u = heapq.heappop(heap)
            if u == t:
                path = 0
                while u != s:
                    u, bit = pred[u]
                    path |= bit
                return s, t, d, path, near
            if d > dist[u]:
                continue
            near.add(u)
            for v, w, bit in adj[u]:
                if excluded & bit:
                    continue
                nd = d if included & bit else d + w
                if v not in dist or nd < dist[v]:
                    dist[v] = nd
                    pred[v] = (u, bit)
                    heapq.heappush(heap, (nd, v))
        return None

    def derive(parent: List[Bound], idx: int, included: int, excluded: int) -> Optional[List[Bound]]:
        """The unsatisfied requests, with bounds, of the child that decided
        arc idx - 1; None when one of them became unreachable."""
        if idx == 0:
            return parent
        i = idx - 1
        bit = 1 << i
        missing = []
        if included & bit:
            tail = arcs[i][0]
            for b in parent:
                s, t, d, path, near = b
                if path & bit:
                    b = s, t, d - iw[i], path, near
                elif tail in near:
                    b = bound(s, t, included, excluded)  # not None: the old path survives
                if b[2]:
                    missing.append(b)
        else:
            for b in parent:
                if b[3] & bit:
                    b = bound(b[0], b[1], included, excluded)
                    if b is None:
                        return None
                missing.append(b)
        return missing

    # Every request is reachable in the host (checked above), so no root
    # bound is None.
    root = [bound(s, t, 0, 0) for s, t in inst.sorted_requests()]
    best_cost: Optional[int] = None
    best_arcs = 0
    nodes = 0
    # Entries: (arcs decided, included, excluded, included cost, the parent's
    # unsatisfied requests with their bounds).
    stack: List[Tuple[int, int, int, int, List[Bound]]] = [(0, 0, 0, 0, root)]
    while stack:
        idx, included, excluded, inc_cost, parent = stack.pop()
        nodes += 1
        missing = derive(parent, idx, included, excluded)
        if missing is None:
            continue  # request unsatisfiable in this subtree
        if not missing:
            if best_cost is None or inc_cost < best_cost:
                best_cost = inc_cost
                best_arcs = included
            continue
        worst = max(b[2] for b in missing)
        if best_cost is not None and inc_cost + worst >= best_cost:
            continue
        if idx == len(arcs):
            continue
        bit = 1 << idx
        stack.append((idx + 1, included, excluded | bit, inc_cost, missing))
        stack.append((idx + 1, included | bit, excluded, inc_cost + iw[idx], missing))

    if best_cost is None:
        return _infeasible("bnb", nodes)
    return _finish(inst, {a for i, a in enumerate(arcs) if best_arcs >> i & 1}, nodes, "bnb")


# ---------------------------------------------------------------------------
# out-star dynamic program


def dst_root(inst: DsnInstance) -> int:
    """The root of an out-star request set, or DomainError."""
    if not inst.requests:
        raise DomainError("empty request set has no root; use solve_bnb")
    sources = {s for s, _ in inst.requests}
    targets = {t for _, t in inst.requests}
    if len(sources) != 1:
        raise DomainError("requests are not an out-star (multiple sources); use solve_bnb")
    (r,) = sources
    if r in targets:
        raise DomainError("requests are not an out-star (root is also a target); use solve_bnb")
    if inst.requests != frozenset((r, t) for t in targets):
        raise DomainError("requests are not an out-star; use solve_bnb")
    return r


def solve_dst(inst: DsnInstance) -> SolveResult:
    """Dynamic program over (terminal subset, vertex) states: a cheapest tree
    from v covering S either walks a shortest path to a vertex u and splits S
    there, or S is a single terminal reached by a shortest path."""
    r = dst_root(inst)
    leaves = sorted(t for _, t in inst.requests)
    if len(leaves) > DST_MAX_LEAVES:
        raise CapacityError(f"{len(leaves)} leaves; out-star cap is {DST_MAX_LEAVES}")
    if violated_request(inst.host, inst.requests) is not None:
        return _infeasible("dst")
    host = inst.host
    verts = list(host.vertices)
    sp: Dict[Tuple[int, int], Tuple[DirectedPath, Fraction]] = {}
    for v in verts:
        for u in verts:
            found = shortest_path(host, v, u)
            if found is not None:
                sp[(v, u)] = found

    bit = {t: 1 << i for i, t in enumerate(leaves)}
    full = (1 << len(leaves)) - 1
    INF = None
    f: List[Dict[int, Fraction]] = [dict() for _ in range(full + 1)]
    choice: List[Dict[int, Tuple]] = [dict() for _ in range(full + 1)]
    nodes = 0

    for t in leaves:
        S = bit[t]
        for v in verts:
            if (v, t) in sp:
                f[S][v] = sp[(v, t)][1]
                choice[S][v] = ("leaf", t)

    masks = sorted(range(1, full + 1), key=lambda m: (bin(m).count("1"), m))
    for S in masks:
        if bin(S).count("1") < 2:
            continue
        low = S & (-S)
        local: Dict[int, Tuple[Fraction, Tuple]] = {}
        for u in verts:
            best = None
            S1 = (S - 1) & S
            while S1 > 0:
                if S1 & low:
                    S2 = S ^ S1
                    if u in f[S1] and u in f[S2]:
                        val = f[S1][u] + f[S2][u]
                        if best is None or val < best[0]:
                            best = (val, ("split", u, S1, S2))
                S1 = (S1 - 1) & S
            if best is not None:
                local[u] = best
        for v in verts:
            best = None
            for u in verts:
                nodes += 1
                if u not in local or (v, u) not in sp:
                    continue
                val = sp[(v, u)][1] + local[u][0]
                if best is None or val < best[0]:
                    best = (val, ("walk", u, local[u][1]))
            if best is not None:
                f[S][v] = best[0]
                choice[S][v] = best[1]

    if r not in f[full]:
        return _infeasible("dst", nodes)

    arcs: Set[Arc] = set()

    def build(S: int, v: int) -> None:
        ch = choice[S][v]
        if ch[0] == "leaf":
            arcs.update(sp[(v, ch[1])][0].arcs())
        elif ch[0] == "walk":
            _, u, inner = ch
            arcs.update(sp[(v, u)][0].arcs())
            _, _, S1, S2 = inner
            build(S1, u)
            build(S2, u)
        else:
            raise AssertionError(ch)

    build(full, r)
    result = _finish(inst, arcs, nodes, "dst")
    if result.cost != f[full][r]:
        raise InvariantError("witness cost disagrees with the table")
    return result


# ---------------------------------------------------------------------------
# wrapper


ENGINES = {"exhaustive": solve_exhaustive, "bnb": solve_bnb, "dst": solve_dst}


def _is_out_star(inst: DsnInstance) -> bool:
    try:
        dst_root(inst)
        return True
    except DomainError:
        return False


def solve_with_certificate(
    inst: DsnInstance, declared_genus: int = 0, engine: str = "auto"
) -> Tuple[SolveResult, Optional[TreewidthCertificate]]:
    """Solve exactly, minimize, then certify the solution's structure."""
    if engine == "auto":
        if _is_out_star(inst) and len(inst.terminals) - 1 <= DST_MAX_LEAVES:
            engine = "dst"
        elif inst.host.m <= EXHAUSTIVE_MAX_ARCS:
            engine = "exhaustive"
        else:
            engine = "bnb"
    if engine not in ENGINES:
        raise DomainError(f"unknown engine {engine!r}")
    result = ENGINES[engine](inst)
    if not result.feasible or result.optimum is None or not inst.requests:
        return result, None
    cert = certify_treewidth_bound(inst, result.optimum, declared_genus)
    return result, cert
