"""The three workloads: how each builds its seeded corpus, which `dsnkit`
command an item runs, and how an item's output is checked.

dsnkit is imported inside the builders, at set-up time, so that each set-up
repetition uses the freshly imported modules.  The checks use only
`oracles`, never dsnkit.
"""

from __future__ import annotations

import functools
import hashlib
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import oracles

GOLDEN_PATH = Path(__file__).resolve().parent / "golden_analyze.json"
MIN_ITEMS = 100  # so that p90 has at least 10 samples beyond it
TRACE_SHARE = 0.25  # share of a run's items that a --trace 1 run traces


@dataclass
class Item:
    id: str
    suffix: str  # file extension
    text: str  # input file contents
    command: List[str]  # dsnkit arguments before and after the file name
    row: Dict[str, object]  # instance parameters reported per item
    path: str = ""
    ref: object = None

    def argv(self) -> List[str]:
        return [self.command[0], self.path] + self.command[1:]


@dataclass
class Workload:
    name: str
    why: str
    build: Callable[[int, int], Item]  # (seed, index) -> item
    warmup: Callable[[], Item]
    reference: Callable[[Item], object]
    check: Callable[[Item, int, str, object], Optional[str]]
    corrupt: Callable[[object], object]
    rate: float  # items per second when the benchmark was written (2-core Xeon VM); sizes a run
    nodes_of: Callable[[dict], Optional[int]] = field(default=lambda out: None)

    def item_count(self, seconds: int) -> int:
        return max(MIN_ITEMS, round(seconds * self.rate))

    def trace_count(self, seconds: int) -> int:
        return max(1, round(self.item_count(seconds) * TRACE_SHARE))


def _rng(seed: int, index: int) -> random.Random:
    return random.Random(f"{seed}/{index}")


def _check_solution(out: dict, arcs, requests, optimum: Fraction) -> Optional[str]:
    """The returned arcs must be host arcs, satisfy every request and sum to
    the reported cost, which must equal the reference optimum."""
    if not out.get("feasible"):
        return "reported infeasible"
    if not out.get("proved_optimal"):
        return "not proved optimal"
    num, den = out["cost"]
    cost = Fraction(num, den)
    chosen = [tuple(a) for a in out["arcs"]]
    if any(a not in arcs for a in chosen):
        return "returned an arc outside the host"
    if sum((arcs[a] for a in chosen), Fraction(0)) != cost:
        return "arc weights do not sum to the reported cost"
    if not oracles.satisfies(chosen, requests):
        return "returned arcs leave a request unsatisfied"
    if cost != optimum:
        return f"cost {cost} != reference optimum {optimum}"
    return None


def _dsn_reference(item: Item):
    n, arcs, requests = oracles.parse_dsn_text(item.text)
    return {"optimum": oracles.dsn_optimum(n, arcs, requests), "arcs": arcs, "requests": requests}


def _corrupt_optimum(ref):
    return dict(ref, optimum=ref["optimum"] + 1)


# ---------------------------------------------------------------------------
# solve-bnb: seeded random digraphs plus bidirected 2x4 grids, exact bnb solve


BNB_RANDOM = (8, 20, 4, 3)  # gen_random(n, m, q, p)
BNB_GRID_EVERY = 10  # every 10th item is a grid


def _bnb_random(seed: int, index: int) -> Tuple[object, Dict[str, str]]:
    from dsnkit.generators import gen_random

    rng = _rng(seed, index)
    while True:
        inst, meta = gen_random(*BNB_RANDOM, seed=rng.randrange(2**31))
        if oracles.satisfies(inst.host.arcs(), inst.requests):
            return inst, meta


def _bnb_item(inst, meta, item_id: str) -> Item:
    from dsnkit.formats import emit_dsn

    row = {"n": inst.host.n, "m": inst.host.m, "q": inst.q, "p": inst.p}
    return Item(item_id, ".dsn", emit_dsn(inst, meta), ["solve", "--engine", "bnb", "--json"], row)


def build_bnb(seed: int, index: int) -> Item:
    from dsnkit.generators import gen_grid

    if index % BNB_GRID_EVERY == BNB_GRID_EVERY - 1:
        inst, meta = gen_grid(2, 4, q=3, seed=_rng(seed, index).randrange(2**31))
    else:
        inst, meta = _bnb_random(seed, index)
    return _bnb_item(inst, meta, f"b{index}")


def warmup_bnb() -> Item:
    inst, meta = _bnb_random(-1, 0)
    return _bnb_item(inst, meta, "warmup")


def check_bnb(item: Item, rc: int, out: str, ref) -> Optional[str]:
    if rc != 0:
        return f"exit code {rc}"
    return _check_solution(json.loads(out), ref["arcs"], ref["requests"], ref["optimum"])


# ---------------------------------------------------------------------------
# analyze-ladder: ladder hosts with two outside terminals on the rails


LADDER_RUNGS = range(8, 21)
TERMINALS = (1000, 1001)


def ladder_text(n: int, identified: Tuple[int, ...]) -> str:
    """A ladder of n rungs plus terminals s, t wired onto the rails so the
    requests s->t and t->s make the whole graph one minimal solution."""
    from dsnkit.dsn import DsnInstance
    from dsnkit.formats import emit_dsn
    from dsnkit.graphs import WeightedDigraph
    from dsnkit.ladders import LadderSpec, ladder_corners, make_ladder

    spec = LadderSpec(n, frozenset(identified))
    g = make_ladder(spec)
    a1, b1, an, bn = ladder_corners(spec)
    s, t = TERMINALS
    arcs = dict(g.arcs())
    far_in, far_out = (an, bn) if n % 2 == 0 else (bn, an)
    arcs.update({(s, a1): 1, (far_in, t): 1, (t, far_out): 1, (b1, s): 1})
    host = WeightedDigraph(set(g.vertices) | {s, t}, arcs)
    meta = {"generator": f"ladder-with-terminals n={n} I={list(identified)}", "genus": "0"}
    return emit_dsn(DsnInstance(host, {(s, t), (t, s)}), meta)


def _ladder_item(n: int, identified: Tuple[int, ...], item_id: str) -> Item:
    row = {"rungs": n, "identified": list(identified)}
    return Item(item_id, ".dsn", ladder_text(n, identified), ["analyze", "--json"], row)


def build_ladder(seed: int, index: int) -> Item:
    """Rung counts cycle through 8..20 so every run has the same size mix;
    odd items identify one interior rung, drawn from the seed.  (Identifying
    rung 1 or n makes `analyze` exit 4; see perfbench/DESIGN.md.)"""
    n = LADDER_RUNGS[(index // 2) % len(LADDER_RUNGS)]
    identified = () if index % 2 == 0 else (_rng(seed, index).randint(2, n - 1),)
    return _ladder_item(n, identified, f"l{index}")


def warmup_ladder() -> Item:
    return _ladder_item(LADDER_RUNGS[0], (), "warmup")


def all_ladder_inputs() -> List[Tuple[int, Tuple[int, ...]]]:
    """Every (rungs, identified) pair build_ladder can produce."""
    return [(n, ident) for n in LADDER_RUNGS for ident in [()] + [(i,) for i in range(2, n)]]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# Search statistics: a faster search may change them, so the digest leaves them out.
SOLVE_STATS = ("nodes",)
REPORT_STATS = ("rounds",)


def analyze_digest(out: dict) -> str:
    """Hash of the results the criteria fix: the solve result and the
    certificate, without `wall_time_s`, without search statistics, and
    without any top-level key added later."""
    solve = {k: v for k, v in out["solve"].items() if k not in SOLVE_STATS}
    cert = dict(out["certificate"])
    cert["report"] = {k: v for k, v in cert["report"].items() if k not in REPORT_STATS}
    kept = {"solve": solve, "certificate": cert}
    return sha256(json.dumps(kept, sort_keys=True, separators=(",", ":")))


@functools.cache
def golden() -> Dict[str, str]:
    """Input-file digest -> analyze_digest of the output when the golden file
    was recorded.  A missing golden file stops the run."""
    if not GOLDEN_PATH.is_file():
        raise FileNotFoundError(f"{GOLDEN_PATH} is missing; record it with --write-golden")
    return json.loads(GOLDEN_PATH.read_text())


def reference_ladder(item: Item):
    ref = _dsn_reference(item)
    ref["digest"] = golden().get(sha256(item.text))
    return ref


def check_ladder(item: Item, rc: int, out: str, ref) -> Optional[str]:
    """Criterion-7/8 invariants, the reference optimum, treewidth 2 on both
    sides (the host and its replacement are ladders with two attached
    triangles), and the golden digest of the whole output."""
    if rc != 0:
        return f"exit code {rc}"
    d = json.loads(out)
    bad = _check_solution(d["solve"], ref["arcs"], ref["requests"], ref["optimum"])
    if bad:
        return bad
    cert = d["certificate"]
    rep = cert["report"]
    if rep["replacements"] < 1:
        return "no protrusion replacement"
    if rep["vertices_after"] >= rep["vertices_before"]:
        return "replacement did not shrink the solution"
    if not (cert["treewidth_solution_exact"] and cert["treewidth_reduced_exact"]):
        return "treewidth not exact"
    if (cert["treewidth_solution"], cert["treewidth_reduced"]) != (2, 2):
        return "treewidth is not 2 before and after"
    if cert["flagged"]:
        return "certificate flagged"
    if rep["bounds"]["diameter"] is not True:
        return "diameter bound not met"
    if ref["digest"] is None:
        return "no golden digest recorded for this input"
    if analyze_digest(d) != ref["digest"]:
        return "output differs from the golden digest"
    return None


def corrupt_ladder(ref):
    return dict(_corrupt_optimum(ref), digest="0" * 64)


# ---------------------------------------------------------------------------
# reduce-decide: PSI hosts around K4, K3,3 and the cube, half planted


PATTERNS = {
    "K4": (4, [(i, j) for i in range(4) for j in range(i + 1, 4)]),
    "K33": (6, [(i, j + 3) for i in range(3) for j in range(3)]),
    "cube": (8, [(0, 1), (1, 2), (2, 3), (0, 3), (4, 5), (5, 6), (6, 7), (4, 7),
                 (0, 4), (1, 5), (2, 6), (3, 7)]),
}
PATTERN_ORDER = ("K4", "K33", "cube")
PSI_MAX_HOST = 12


PSI_EXTRA_VERTICES = range(0, 4)
PSI_RANDOM_EDGES = range(4, 13)


def psi_text(pattern: str, planted: bool, extra: int, random_edges: int,
             rng: random.Random) -> Tuple[str, Dict[str, object]]:
    """The criterion-3 host family: the pattern's vertices each own a class,
    `extra` more host vertices join random classes, a planted host contains
    the pattern itself, and `random_edges` random cross-class edges are added."""
    k, pattern_edges = PATTERNS[pattern]
    n = min(PSI_MAX_HOST, k + extra)
    classmap = {i: i for i in range(k)}
    for v in range(k, n):
        classmap[v] = rng.randrange(k)
    edges = set(pattern_edges) if planted else set()
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if classmap[u] != classmap[v]]
    edges |= set(rng.sample(pairs, min(len(pairs), random_edges)))
    lines = [f"c pattern {pattern}", f"c planted {int(planted)}",
             f"p psi {n} {len(edges)} {k} {len(pattern_edges)}"]
    lines += [f"eg {u + 1} {v + 1}" for u, v in sorted(edges)]
    lines += [f"eh {u + 1} {v + 1}" for u, v in pattern_edges]
    lines += [f"map {u + 1} {classmap[u] + 1}" for u in range(n)]
    row = {"pattern": pattern, "planted": planted, "n": n, "m": len(edges)}
    return "\n".join(lines) + "\n", row


def _psi_item(index: int, rng: random.Random, item_id: str) -> Item:
    """Item `index` of the stratified cycle: patterns rotate, every other
    block of three is planted, and the host size and random edge count step
    through their ranges, so every run has the same mix of all four; the
    seed draws the class map and the edges."""
    pattern = PATTERN_ORDER[index % 3]
    planted = (index // 3) % 2 == 0
    extra = PSI_EXTRA_VERTICES[(index // 6) % len(PSI_EXTRA_VERTICES)]
    random_edges = PSI_RANDOM_EDGES[(index // 24) % len(PSI_RANDOM_EDGES)]
    text, row = psi_text(pattern, planted, extra, random_edges, rng)
    return Item(item_id, ".psi", text, ["reduce", "--decide", "--json"], row)


def build_psi(seed: int, index: int) -> Item:
    return _psi_item(index, _rng(seed, index), f"r{index}")


def warmup_psi() -> Item:
    return _psi_item(0, _rng(-1, 0), "warmup")


def reference_psi(item: Item):
    eg, eh, k, classmap = oracles.parse_psi_text(item.text)
    return {
        "decision": oracles.has_class_embedding(eg, eh, k, classmap),
        "threshold": 2 * k + 3 * len(eh),
        "requests": k + 2 * len(eh),
    }


def check_psi(item: Item, rc: int, out: str, ref) -> Optional[str]:
    if rc != 0:
        return f"exit code {rc}"
    d = json.loads(out)
    if d["threshold"] != ref["threshold"]:
        return f"threshold {d['threshold']} != 2|V(H)| + 3|E(H)| = {ref['threshold']}"
    if d["requests"] != ref["requests"]:
        return f"{d['requests']} requests != |V(H)| + 2|E(H)| = {ref['requests']}"
    if d["decision"] != ref["decision"]:
        return f"decision {d['decision']} != brute-force embedding answer {ref['decision']}"
    return None


def corrupt_psi(ref):
    return dict(ref, decision=not ref["decision"])


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "solve-bnb",
            "exact branch-and-bound solving: the time is in solvers.solve_bnb's search, "
            "graph rebuilds are rare, so solver changes move it and graph-core changes do not",
            build_bnb, warmup_bnb, _dsn_reference, check_bnb, _corrupt_optimum,
            rate=38.0, nodes_of=lambda out: out["nodes"],
        ),
        Workload(
            "analyze-ladder",
            "structural analysis of ladder solutions: the time is in WeightedDigraph.without_arc "
            "rebuilds under ladder recognition, so graph-core and peeling changes move it",
            build_ladder, warmup_ladder, reference_ladder, check_ladder, corrupt_ladder,
            rate=6.0, nodes_of=lambda out: out["solve"]["nodes"],
        ),
        Workload(
            "reduce-decide",
            "hardness instances decided through the DSN optimum: many short items split "
            "between the path-union search and minimize_graph, with a heavy tail",
            build_psi, warmup_psi, reference_psi, check_psi, corrupt_psi,
            rate=70.0,
        ),
    )
}
