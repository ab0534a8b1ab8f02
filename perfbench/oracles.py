"""Independent references for the benchmark's correctness checks.

Nothing here imports dsnkit.  Instances are read back from the text files
the benchmark wrote, DSN optima come from a multicommodity-flow MILP solved
by HiGHS through `scipy.optimize.milp` (or, where scipy is missing, from a
path-union search written here), and embedding questions are answered by a
backtracking search written here.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Dict, Iterable, List, Optional, Set, Tuple

Arc = Tuple[int, int]


# ---------------------------------------------------------------------------
# file readers


def parse_dsn_text(text: str) -> Tuple[int, Dict[Arc, Fraction], List[Arc]]:
    """(n, arc weights, sorted requests) of a DSN file, 0-based."""
    n = 0
    arcs: Dict[Arc, Fraction] = {}
    requests: Set[Arc] = set()
    for line in text.splitlines():
        tok = line.split()
        if not tok or tok[0] == "c":
            continue
        if tok[0] == "p":
            n = int(tok[2])
        elif tok[0] == "a":
            arcs[(int(tok[1]) - 1, int(tok[2]) - 1)] = Fraction(tok[3])
        elif tok[0] == "r":
            requests.add((int(tok[1]) - 1, int(tok[2]) - 1))
    return n, arcs, sorted(requests)


def parse_psi_text(text: str):
    """(host edges, pattern edges, pattern size, class map) of a PSI file, 0-based."""
    k = 0
    eg: Set[Arc] = set()
    eh: Set[Arc] = set()
    classmap: Dict[int, int] = {}
    for line in text.splitlines():
        tok = line.split()
        if not tok or tok[0] == "c":
            continue
        if tok[0] == "p":
            k = int(tok[4])
        elif tok[0] in ("eg", "eh"):
            u, v = int(tok[1]) - 1, int(tok[2]) - 1
            (eg if tok[0] == "eg" else eh).add((min(u, v), max(u, v)))
        elif tok[0] == "map":
            classmap[int(tok[1]) - 1] = int(tok[2]) - 1
    return eg, eh, k, classmap


# ---------------------------------------------------------------------------
# DSN


def satisfies(arcs: Iterable[Arc], requests: Iterable[Arc]) -> bool:
    """Does the arc set contain an s-t path for every request (s, t)?"""
    out: Dict[int, List[int]] = {}
    for u, v in arcs:
        out.setdefault(u, []).append(v)
    for s, t in requests:
        seen = {s}
        stack = [s]
        while stack and t not in seen:
            for v in out.get(stack.pop(), ()):
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        if t not in seen:
            return False
    return True


def dsn_optimum(n: int, arcs: Dict[Arc, Fraction], requests: List[Arc]) -> Optional[Fraction]:
    """Minimum total weight of an arc set satisfying every request, or None
    if some request is unreachable in the host."""
    if not satisfies(arcs, requests):
        return None
    try:
        from scipy.optimize import milp  # noqa: F401
    except ImportError:
        return _path_union_optimum(arcs, requests)
    return _milp_optimum(n, arcs, requests)


def _milp_optimum(n: int, arcs: Dict[Arc, Fraction], requests: List[Arc]) -> Fraction:
    """Binary x_a per arc, a unit s-t flow f_{r,a} <= x_a per request r;
    minimize sum w_a x_a.  Weights are scaled to integers so the optimum is
    recovered exactly by rounding."""
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp

    arc_list = sorted(arcs)
    m, p = len(arc_list), len(requests)
    scale = lcm(*(w.denominator for w in arcs.values()))
    cost = np.zeros(m + p * m)
    cost[:m] = [int(arcs[a] * scale) for a in arc_list]

    flow = np.zeros((p * n, m + p * m))
    rhs = np.zeros(p * n)
    link = np.zeros((p * m, m + p * m))
    for r, (s, t) in enumerate(requests):
        rhs[r * n + s] = 1
        rhs[r * n + t] = -1
        for j, (u, v) in enumerate(arc_list):
            col = m + r * m + j
            flow[r * n + u, col] += 1
            flow[r * n + v, col] -= 1
            link[r * m + j, col] = 1
            link[r * m + j, j] = -1
    res = milp(
        cost,
        constraints=[LinearConstraint(flow, rhs, rhs), LinearConstraint(link, -np.inf, 0)],
        integrality=np.concatenate([np.ones(m), np.zeros(p * m)]),
        bounds=Bounds(0, 1),
        options={"mip_rel_gap": 0},
    )
    if not res.success:
        raise RuntimeError(f"reference MILP failed: {res.message}")
    return Fraction(round(res.fun), scale)


def _simple_paths(out: Dict[int, List[int]], s: int, t: int) -> List[Tuple[Arc, ...]]:
    paths = []
    stack = [(s, (s,))]
    while stack:
        u, seq = stack.pop()
        if u == t:
            paths.append(tuple(zip(seq, seq[1:])))
            continue
        for v in out.get(u, ()):
            if v not in seq:
                stack.append((v, seq + (v,)))
    return paths


def _path_union_optimum(arcs: Dict[Arc, Fraction], requests: List[Arc]) -> Fraction:
    """Every minimal solution is a union of one simple path per request."""
    out: Dict[int, List[int]] = {}
    for u, v in arcs:
        out.setdefault(u, []).append(v)
    per_request = []
    for s, t in requests:
        paths = _simple_paths(out, s, t)
        paths.sort(key=lambda path: sum(arcs[a] for a in path))
        per_request.append(paths)
    best = sum(arcs.values())
    stack = [(0, frozenset(), Fraction(0))]
    while stack:
        i, chosen, total = stack.pop()
        if total >= best:
            continue
        if i == len(per_request):
            best = total
            continue
        for path in per_request[i]:
            extra = [a for a in path if a not in chosen]
            stack.append((i + 1, chosen.union(extra), total + sum(arcs[a] for a in extra)))
    return best


# ---------------------------------------------------------------------------
# partitioned subgraph isomorphism


def has_class_embedding(eg: Set[Arc], eh: Set[Arc], k: int, classmap: Dict[int, int]) -> bool:
    """Is there a map sending pattern vertex x into its class {u: classmap[u] == x}
    that carries every pattern edge onto a host edge?"""
    cls: Dict[int, List[int]] = {x: [] for x in range(k)}
    for u, x in sorted(classmap.items()):
        cls[x].append(u)
    nbrs: Dict[int, Set[int]] = {x: set() for x in range(k)}
    for x, y in eh:
        nbrs[x].add(y)
        nbrs[y].add(x)
    order = sorted(range(k), key=lambda x: (len(cls[x]), x))
    phi: Dict[int, int] = {}

    def extend(i: int) -> bool:
        if i == k:
            return True
        x = order[i]
        for u in cls[x]:
            if all((min(u, phi[y]), max(u, phi[y])) in eg for y in nbrs[x] if y in phi):
                phi[x] = u
                if extend(i + 1):
                    return True
                del phi[x]
        return False

    return extend(0)
