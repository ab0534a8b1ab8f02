"""Exact solvers at desk scale.

`solve_exhaustive` is the ground-truth oracle, `solve_bnb` a branch-and-bound
with an admissible shortest-path bound, `solve_dst` the 3^|T| dynamic program
for out-star requests.  Infeasibility is a first-class result, never an
exception.
"""

from __future__ import annotations

import heapq
import math
import operator
from collections import Counter
from fractions import Fraction
from typing import Dict, Iterable, List, NamedTuple, Optional, Set, Tuple

from .dsn import DsnInstance, SolutionSubgraph, _first_violated, validate
from .errors import CapacityError, DomainError, InvariantError
from .graphs import Arc, WeightedDigraph, necessary_arcs, search
from .structure import StructureReport, reduce_length_graph

EXHAUSTIVE_MAX_ARCS = 24
DST_MAX_LEAVES = 12

# A request's bound in `solve_bnb`: (s, t, distance, the arcs of the path
# attaining it as a bitmask, the vertices Dijkstra settled before reaching t
# with their distances).
Bound = Tuple[int, int, int, int, Dict[int, int]]
_distance = operator.itemgetter(2)
# A simple path in `_solve_path_union`: (arc bit, scaled weight) per arc.
PathArcs = Tuple[Tuple[int, int], ...]
# A request's path with its cost and the mask of its arcs.
CostedPath = Tuple[int, PathArcs, int]


class SolveResult(NamedTuple):
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
    """The engine's optimum as found.  Its vertices are the ends of its
    arcs, which in a valid solution include every terminal.

    It is not minimized: weights are positive, so an arc that could be
    removed from an optimum would leave a cheaper solution, and every
    optimum is already inclusion-minimal.  `validate` is the self-check; a
    violated request is a bug in the engine."""
    sol = SolutionSubgraph(inst.host, arcs)
    violated = validate(inst, sol)
    if violated is not None:
        raise InvariantError(f"{method} solution violates request {violated[0]}->{violated[1]}")
    return SolveResult(True, sol, sol.cost(), nodes, True, method)


class _IntHost:
    """The host as the exact engines search it, built once per solve.

    Arc i of the sorted arcs is bit 1 << i of an arc-set mask.  Weights are
    the host's stored integers over its one `scale`, the least common
    denominator.  `out[u]` and `inn[v]` list (other end, weight, bit) per
    arc, in ascending order of the other end; `inn`, which only `solve_dst`
    reads, is built on each read: building it with `out` costs solve-bnb
    1.0-1.2% and reduce-decide 1.7-1.8% (`tests/ab.py`)."""

    __slots__ = ("arcs", "weights", "scale", "out")

    def __init__(self, host: WeightedDigraph) -> None:
        ints, self.scale = host.scaled_weights()
        self.arcs = sorted(ints)
        self.weights = [ints[a] for a in self.arcs]
        self.out: Dict[int, List[Tuple[int, int, int]]] = {v: [] for v in host.vertices}
        # Sorted arcs come in ascending order of head within a tail, and of
        # tail overall, so both lists are ascending in the other end.
        for i, ((u, v), w) in enumerate(zip(self.arcs, self.weights)):
            self.out[u].append((v, w, 1 << i))

    @property
    def inn(self) -> Dict[int, List[Tuple[int, int, int]]]:
        inn: Dict[int, List[Tuple[int, int, int]]] = {v: [] for v in self.out}
        for u, arcs in self.out.items():
            for v, w, bit in arcs:
                inn[v].append((u, w, bit))
        return inn

    def decode(self, mask: int) -> Set[Arc]:
        return {a for i, a in enumerate(self.arcs) if mask >> i & 1}


# ---------------------------------------------------------------------------
# exhaustive oracle


def _request_paths(
    inst: DsnInstance, host: _IntHost, back: Dict[int, Iterable[int]]
) -> List[List[CostedPath]]:
    """All simple paths per request as (cost, arcs, arc mask), the arcs as
    (arc bit, scaled weight) tuples, by one explicit-stack depth-first
    search per source that stops extending a path once it holds every
    target, and never extends it into a vertex that reaches no target
    (`back[t]` holds the vertices that reach t).  Requests come sorted, and
    paths cheapest first, then by arcs, which orders them by vertices: two
    paths from one source first differ at arcs with a common tail.  Summing
    masks after the search costs reduce-decide 4.6-5.2% (`tests/ab.py`)."""
    found: Dict[Tuple[int, int], List[CostedPath]] = {r: [] for r in inst.requests}
    for s in {s for s, _ in inst.requests}:
        targets = {t for r, t in inst.requests if r == s}
        live = set().union(*(back[t] for t in targets))
        # Entries: (the path's vertices, its arcs, its cost, its arc mask,
        # the number of targets on it).
        stack: List[Tuple[Tuple[int, ...], PathArcs, int, int, int]] = [((s,), (), 0, 0, 0)]
        while stack:
            on_path, path, cost, mask, hits = stack.pop()
            for v, w, bit in host.out[on_path[-1]]:
                if v in on_path or v not in live:
                    continue
                longer = path + ((bit, w),)
                hit = v in targets
                if hit:
                    found[(s, v)].append((cost + w, longer, mask | bit))
                    if hits + 1 == len(targets):
                        continue
                stack.append((on_path + (v,), longer, cost + w, mask | bit, hits + hit))
    # Paths sort by cost, then by arcs: no two paths of a request are equal,
    # so masks are never compared.
    return [sorted(found[r]) for r in inst.sorted_requests()]


def solve_exhaustive(inst: DsnInstance) -> SolveResult:
    """Exact optimum by exhausting combinations of one simple path per
    request (every minimal solution is such a union), pruned by the
    shared-arc lower bound of `_solve_path_union`.

    Agrees with the plain subset scan everywhere both run; this form stays
    inside the arc cap without visiting all 2^m subsets.  `nodes` counts
    the search's stack entries popped, pruned ones included."""
    if inst.host.m > EXHAUSTIVE_MAX_ARCS:
        raise CapacityError(
            f"host has {inst.host.m} arcs; exhaustive cap is {EXHAUSTIVE_MAX_ARCS}"
        )
    return _solve_path_union(inst)


def _solve_path_union(inst: DsnInstance, threshold: Optional[Fraction] = None) -> SolveResult:
    """Uncapped path-union search; suitable whenever simple paths per
    request stay few (e.g. stratified generated instances).

    A depth-first search over the requests in sorted order picks one path
    per request, cheapest first, on an explicit stack; `nodes` counts the
    entries popped.  Arc sets are bitmasks over arc ids and costs are sums
    of the host's scaled integer weights.  Shared-arc lower bound: each
    arc's weight is split evenly among the `users` requests having some
    path through it, so the requests still to route cost at least the sum,
    over each, of its cheapest path in split weights with the chosen arcs
    free.  A node whose cost plus that bound reaches the incumbent is
    pruned.  The bound never overestimates, so the result is the first
    optimal leaf in DFS order.  Only nodes popped after the first leaf read
    the bound, so its split weights are built at the first of them; built up
    front, they cost reduce-decide 10-11% (`tests/ab.py`).

    An internal `threshold` ends the search at the first leaf that costs at
    most it (compared as `threshold * scale`): an optimum when, as on a
    hardness instance, no solution costs less."""
    if not inst.requests:
        return _finish(inst, set(), 1, "exhaustive")
    # One backward search per distinct target answers reachability and
    # bounds the path enumeration; the first unreachable request ends them.
    back: Dict[int, Dict[int, Optional[int]]] = {}
    for s, t in inst.requests:
        if t not in back:
            back[t] = search(inst.host, t, reverse=True)
        if s not in back[t]:
            return _infeasible("exhaustive")
    host = _IntHost(inst.host)
    per_request = _request_paths(inst, host, back)
    if not all(per_request):
        raise InvariantError("a request reachable in the host has no simple path")
    # Each request's paths in push order.
    pushes = [paths[::-1] for paths in per_request]
    split: List[List[PathArcs]] = []

    def rest(i: int, chosen: int) -> int:
        return sum(min(sum(w for bit, w in path if not chosen & bit) for path in paths) for paths in split[i:])

    # Every request has a path (checked above) and nothing is pruned before
    # the first leaf, so best is set once the search ends.
    best: Optional[int] = None
    best_arcs = 0
    nodes = 0
    # Entries: (requests routed, chosen arcs, their cost).
    stack = [(0, 0, 0)]
    while stack:
        i, chosen, cost = stack.pop()
        nodes += 1
        if best is not None:
            if not split:
                users = Counter(bit for paths in per_request for bit in {bit for _, path, _ in paths for bit, _ in path})
                # The bound compares costs times L, the lcm of the user
                # counts, so every split weight w * L / users is an integer.
                L = math.lcm(*users.values())
                split = [[tuple((bit, w * L // users[bit]) for bit, w in path) for _, path, _ in paths] for paths in per_request]
            if cost * L + rest(i, chosen) >= best * L:
                continue
        if i == len(per_request):
            best, best_arcs = cost, chosen
            if threshold is not None and cost <= threshold * host.scale:
                break
            continue
        for c, path, mask in pushes[i]:
            # A path that shares no chosen arc adds its whole cost; summing it
            # anyway costs reduce-decide 0.4-0.7% (tests/ab.py).
            add = c if not chosen & mask else sum(w for bit, w in path if not chosen & bit)
            stack.append((i + 1, chosen | mask, cost + add))
    return _finish(inst, host.decode(best_arcs), nodes, "exhaustive")


# ---------------------------------------------------------------------------
# branch and bound


def solve_bnb(inst: DsnInstance) -> SolveResult:
    """Branch and bound on the arcs of the bound path.

    Forced arcs: the root includes `necessary_arcs` of the host, the arcs on
    every s-t path of some request.  Every feasible solution contains them,
    so the optima, and with them the tie-break's result, are those of a root
    with nothing included.  When every host arc is forced, as on a ladder,
    the root is the only leaf: the search returns it with `nodes` 1 and
    builds nothing.

    Lower bound at a node: cost of included arcs plus the largest
    shortest-path cost d over unsatisfied requests, with included arcs free
    and excluded arcs removed.  The bound ignores sharing between requests,
    so it never overestimates.  Internally the weights are the host's scaled
    integers (`WeightedDigraph.scaled_weights`), which keep the inner
    Dijkstra cheap; reported costs are exact rationals.

    Branching: take the unsatisfied request with the largest d (the first in
    sorted order on ties) and the smallest-id arc of its recorded path that
    is not yet included; the include child comes first, then the exclude
    child.  The search stays complete: the path avoids the excluded arcs and
    included arcs on it are free, so d > 0 means it has an undecided arc.
    A leaf is reached once every d is 0, and its arcs are the included ones.

    Tie-break: an equal-cost leaf replaces the incumbent when the lowest arc
    id on which the two differ is its own.  A node is pruned when its bound
    exceeds the incumbent, or equals it while no leaf below can win that
    tie: the incumbent has an excluded arc, and every arc with a lower id
    is excluded or in the incumbent.  So every optimal arc set that could
    win is reached as a leaf (weights are positive, so an optimum is
    inclusion-minimal), and the result is the optimum whose indicator
    vector over ascending arc ids is lexicographically greatest, in
    whatever order the leaves come.

    The search runs on an explicit stack, and each node derives its state
    from its parent's.  Arc sets are bitmasks over arc ids.  Every
    unsatisfied request keeps its bound d, the path that attains it as an
    arc mask (each Dijkstra heap entry carries the mask of its path) and
    `near`, the vertices Dijkstra settled before reaching t with their
    distances (a superset of those closer than d).  A child reruns Dijkstra only where these exact rules fail:

    - excluding an arc off the recorded path leaves d unchanged;
    - including an arc of weight w on the recorded path makes it d - w;
    - including an arc whose tail was not settled before t leaves d
      unchanged, since any path through it already costs at least d;
    - including an arc (u, v) whose head was settled before t at a distance
      no greater than its tail's leaves d unchanged: a path through the free
      arc reaches v at no less than dist(u) >= dist(v), so no distance from
      s changes and the recorded path stays a shortest one;
    - a rerun stops, and the child is pruned, as soon as Dijkstra pops a
      distance above the incumbent's slack, its cost less the included
      cost.  Dijkstra pops in distance order, so a run that reaches t within
      the slack is exactly the full run.  A bound that an include child
      keeps without a rerun prunes it when it exceeds the slack, as the
      included cost rose by the arc's weight.  No other bound can exceed
      it: the parent's bounds were within the slack when it was expanded,
      and an incumbent found since is a leaf below the parent, so it costs
      at least the parent's included cost plus each of those bounds.

    The returned optimum does not depend on which shortest path is recorded.
    A branch on a recorded path with no undecided arc, which a wrong reuse
    rule would cause, raises InvariantError instead of looping.

    Weights are positive, so a request is satisfied by the included arcs
    exactly when its bound is 0."""
    if not inst.requests:
        return _finish(inst, set(), 1, "bnb")
    forced = necessary_arcs(inst.host, inst.requests)
    if forced is None:
        return _infeasible("bnb")
    if len(forced) == inst.host.m:
        return _finish(inst, forced, 1, "bnb")
    host = _IntHost(inst.host)
    adj, iw = host.out, host.weights
    heappop, heappush = heapq.heappop, heapq.heappush

    def bound(s: int, t: int, included: int, excluded: int, limit: float) -> Optional[Bound]:
        """Dijkstra from s to t with included arcs free and excluded arcs
        removed; None when t is unreachable or farther than `limit`.  A heap
        entry carries the arc mask of its path.  Every push improves a label
        strictly, so no two entries share (distance, vertex) and masks are
        never compared."""
        dist = {s: 0}
        near: Dict[int, int] = {}
        heap = [(0, s, 0)]
        while heap:
            d, u, path = heappop(heap)
            if d > limit:
                return None
            if u == t:
                return s, t, d, path, near
            if d > dist[u]:
                continue
            near[u] = d
            for v, w, bit in adj[u]:
                if excluded & bit:
                    continue
                nd = d if included & bit else d + w
                if v not in dist or nd < dist[v]:
                    dist[v] = nd
                    heappush(heap, (nd, v, path | bit))
        return None

    def derive(parent: List[Bound], i: int, included: int, excluded: int, limit: float) -> Optional[List[Bound]]:
        """The unsatisfied requests, with bounds, of the child that decided
        arc i (-1 at the root); None when one of them became unreachable or
        its bound exceeds `limit`."""
        if i < 0:
            return parent
        bit = 1 << i
        missing = []
        if included & bit:
            tail, head = host.arcs[i]
            for b in parent:
                s, t, d, path, near = b
                if path & bit:
                    b = s, t, d - iw[i], path, near
                elif tail in near and (head not in near or near[head] > near[tail]):
                    # d may fall here, so only the rerun compares it with the limit.
                    b = bound(s, t, included, excluded, limit)
                    if b is None:
                        return None
                elif d > limit:
                    return None
                if b[2]:
                    missing.append(b)
        else:
            for b in parent:
                if b[3] & bit:
                    b = bound(b[0], b[1], included, excluded, limit)
                    if b is None:
                        return None
                missing.append(b)
        return missing

    # Every feasible solution contains the forced arcs, so the root includes
    # them.  Every request is reachable in the host (checked above), so no
    # root bound is None.
    forced_ids = [i for i, a in enumerate(host.arcs) if a in forced]
    included = sum(1 << i for i in forced_ids)
    root = [b for b in (bound(s, t, included, 0, math.inf) for s, t in inst.sorted_requests()) if b[2]]
    best_cost: Optional[int] = None
    best_arcs = 0
    nodes = 0
    # Entries: (arc decided, included, excluded, included cost, the parent's
    # unsatisfied requests with their bounds).
    stack: List[Tuple[int, int, int, int, List[Bound]]] = [
        (-1, included, 0, sum(iw[i] for i in forced_ids), root)
    ]
    while stack:
        i, included, excluded, inc_cost, parent = stack.pop()
        nodes += 1
        slack = math.inf if best_cost is None else best_cost - inc_cost
        missing = derive(parent, i, included, excluded, slack)
        if missing is None:
            continue  # a request unsatisfiable, or too dear, in this subtree
        if not missing:
            differ = included ^ best_arcs
            if best_cost is None or inc_cost < best_cost or inc_cost == best_cost and included & differ & -differ:
                best_cost = inc_cost
                best_arcs = included
            continue
        # max keeps the first of equal bounds, so ties go by sorted request.
        # derive pruned every bound above the incumbent's slack.
        _, _, worst, path, _ = max(missing, key=_distance)
        if inc_cost + worst == best_cost:
            # Every leaf below lacks the lowest excluded incumbent arc, so it
            # wins the tie only with an arc below that one that is neither
            # excluded nor in the incumbent.
            lost = best_arcs & excluded
            if lost and not ((lost & -lost) - 1) & ~(best_arcs | excluded):
                continue
        free = path & ~included
        if not free:
            # A positive bound on a path of included arcs: the bound is wrong,
            # and branching on no arc would loop forever.
            raise InvariantError("bnb bound path has no undecided arc")
        bit = free & -free
        i = bit.bit_length() - 1
        stack.append((i, included, excluded | bit, inc_cost, missing))
        stack.append((i, included | bit, excluded, inc_cost + iw[i], missing))

    return _finish(inst, host.decode(best_arcs), nodes, "bnb")


# ---------------------------------------------------------------------------
# out-star dynamic program


def dst_root(inst: DsnInstance) -> int:
    """The root of an out-star request set, or DomainError."""
    if not inst.requests:
        raise DomainError("empty request set has no root; use solve_bnb")
    sources = {s for s, _ in inst.requests}
    if len(sources) != 1:
        raise DomainError("requests are not an out-star (multiple sources); use solve_bnb")
    # Requests have s != t, so no request enters the one source.
    (r,) = sources
    return r


def solve_dst(inst: DsnInstance) -> SolveResult:
    """Dreyfus-Wagner over (terminal subset S, vertex v) states in the
    Erickson-Monma-Veinott form.  A single terminal seeds itself at cost 0;
    for larger S every vertex u is seeded with its best split
    f[S1][u] + f[S - S1][u].  One Dijkstra over in-arcs then gives f[S][v],
    the cost of a cheapest tree from v covering S, with the seed it walks to.

    Ties go to the smallest seed, then to the lexicographically smallest
    cheapest path to it, then to the first best split."""
    r = dst_root(inst)
    leaves = sorted(t for _, t in inst.requests)
    if len(leaves) > DST_MAX_LEAVES:
        raise CapacityError(f"{len(leaves)} leaves; out-star cap is {DST_MAX_LEAVES}")
    if _first_violated(inst.host, inst.sorted_requests(), None) is not None:
        return _infeasible("dst")
    host = _IntHost(inst.host)
    inn = host.inn
    full = (1 << len(leaves)) - 1
    f: List[Dict[int, Tuple[int, int]]] = [{} for _ in range(full + 1)]
    split: List[Dict[int, int]] = [{} for _ in range(full + 1)]
    nodes = 0

    # Every proper subset of S is a smaller number than S.
    for S in range(1, full + 1):
        if not S & (S - 1):
            t = leaves[S.bit_length() - 1]
            heap = [(0, t, t)]
        else:
            low = S & -S
            heap = []
            for u in inst.host.vertices:
                best = None
                S1 = (S - 1) & S
                while S1:
                    if S1 & low and u in f[S1] and u in f[S ^ S1]:
                        val = f[S1][u][0] + f[S ^ S1][u][0]
                        if best is None or val < best:
                            best = val
                            split[S][u] = S1
                    S1 = (S1 - 1) & S
                if best is not None:
                    heap.append((best, u, u))
            heapq.heapify(heap)
        fS = f[S]
        while heap:
            cost, seed, v = heapq.heappop(heap)
            if v in fS:
                continue
            fS[v] = (cost, seed)
            nodes += 1
            for p, w, _ in inn[v]:
                if p not in fS:
                    heapq.heappush(heap, (cost + w, seed, p))

    # r reaches every leaf (checked above), so every f[S] holds r, if only
    # through a split at r itself.
    arcs = 0
    stack = [(full, r)]
    while stack:
        S, v = stack.pop()
        fS = f[S]
        seed = fS[v][1]
        while v != seed:
            # the smallest next vertex on a cheapest path to the seed
            x, bit = next((x, bit) for x, w, bit in host.out[v] if fS.get(x) == (fS[v][0] - w, seed))
            arcs |= bit
            v = x
        if S & (S - 1):
            S1 = split[S][v]
            stack += [(S1, v), (S ^ S1, v)]

    result = _finish(inst, host.decode(arcs), nodes, "dst")
    if result.cost != Fraction(f[full][r][0], host.scale):
        raise InvariantError("witness cost disagrees with the table")
    return result


# ---------------------------------------------------------------------------
# wrapper


ENGINES = {"exhaustive": solve_exhaustive, "bnb": solve_bnb, "dst": solve_dst}


def solve_with_certificate(
    inst: DsnInstance, engine: str = "auto"
) -> Tuple[SolveResult, Optional[StructureReport]]:
    """Solve exactly; the optimum's length-reduction report certifies it."""
    if engine == "auto":
        if len({s for s, _ in inst.requests}) == 1 and len(inst.terminals) - 1 <= DST_MAX_LEAVES:
            engine = "dst"
        elif inst.host.m <= EXHAUSTIVE_MAX_ARCS:
            engine = "exhaustive"
        else:
            engine = "bnb"
    if engine not in ENGINES:
        raise DomainError(f"unknown engine {engine!r}")
    result = ENGINES[engine](inst)
    if not result.feasible or not inst.requests:
        return result, None
    return result, reduce_length_graph(result.optimum.as_graph(), inst.requests)[1]
