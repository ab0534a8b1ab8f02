#!/usr/bin/env python3
"""Benchmark of dsnkit's three user paths: `solve`, `analyze`, `reduce --decide`.

Run from the repository root:

    python3 perfbench/run.py --workload solve-bnb --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --self-test      # corrupted references must be caught
    python3 perfbench/run.py --write-golden   # re-record golden_analyze.json

One process, one client, closed loop: the seeded corpus is written as
`.dsn`/`.psi` files and fed one item at a time to `dsnkit.cli.main([...])`
in this process, with stdout captured; the next item starts when the
previous one returns.  A run times a fixed number of items, sized from
`--seconds` at the throughput measured when the benchmark was written, so
that faster code times the same items in less time.  A speed probe timed
after each item (`speed.py`) converts the timings to a reference machine
speed.  Every output is checked against the references in `oracles.py`.
With `--trace 1` each item runs untraced and then with spans around
dsnkit's public functions (`tracer.py`), back to back, and then all items
run traced once more; the two traced passes must give identical counts.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  Per-item rows, the environment and the spans go to
`.perfbench_out/` in the repository root.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import speed
from tracer import LAYERS, Tracer
from workloads import GOLDEN_PATH, WORKLOADS, Item, Workload, all_ladder_inputs, analyze_digest, ladder_text, sha256

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 7
SETUP_PROBES = 40  # probes around each set-up repeat
SPAN_CAP = 300_000
SELF_TEST_ITEMS = 6

# Per-layer self times reported as a share of traced item time.
SELF_FRAC_SPANS = (
    "graphs.digraph_build", "graphs.without_arc", "graphs.reaches", "graphs.shortest_path",
    "graphs.treewidth_exact",
    "dsn.minimize_graph", "dsn.is_inclusion_minimal_graph",
    "solvers.solve_bnb", "solvers.path_union", "solvers.solve_exhaustive",
    "structure.reduce_length_graph", "structure.detect_ladder_segments",
    "structure.protrusion_replace", "structure.important_vertices",
    "structure.marked_vertices", "structure.suppress_degree_two",
    "ladders.is_ladder_subdivision",
    "reduction.build_labelling", "reduction.build_dsn",
    "formats.parse_dsn", "formats.parse_psi", "formats.emit_dsn",
)
CALL_SPANS = (
    "graphs.without_arc", "graphs.reaches", "graphs.shortest_path", "graphs.treewidth_exact",
    "graphs.treewidth_upper_bound", "dsn.minimize_graph", "dsn.is_inclusion_minimal_graph",
    "dsn.violated_request", "ladders.is_ladder_subdivision", "reduction.build_labelling",
    "reduction.build_dsn",
)

Result = Tuple[Optional[int], float, str, str]  # exit code, seconds, stdout, stderr


# ---------------------------------------------------------------------------
# running items


def import_dsnkit():
    """(Re-)import dsnkit from this checkout's src/ and return dsnkit.cli."""
    for name in [m for m in sys.modules if m == "dsnkit" or m.startswith("dsnkit.")]:
        del sys.modules[name]
    cli = importlib.import_module("dsnkit.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"imported dsnkit from {cli.__file__}, not from {SRC}")
    return cli


def call(cli, argv: List[str], tracer: Optional[Tracer] = None, index: int = -1) -> Result:
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    start = time.perf_counter()
    try:
        rc = tracer.run_item(index, cli.main, argv) if tracer else cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        rc = None
        err.write(traceback.format_exc())
    finally:
        elapsed = time.perf_counter() - start
        sys.stdout, sys.stderr = saved
    return rc, elapsed, out.getvalue(), err.getvalue()


def set_up(workload: Workload, seed: int, count: int, run_dir: Path):
    """Import, build the corpus, write its files, warm up on a fixed item.
    Returns the seconds spent writing files as well."""
    cli = import_dsnkit()
    items = [workload.build(seed, i) for i in range(count)]
    warm = workload.warmup()
    start = time.perf_counter()
    run_dir.mkdir(parents=True, exist_ok=True)
    for item in items + [warm]:
        item.path = str(run_dir / f"{item.id}{item.suffix}")
        Path(item.path).write_text(item.text)
    write_s = time.perf_counter() - start
    call(cli, warm.argv())
    return cli, items, write_s


def timed_set_up(workload: Workload, seed: int, count: int, run_dir: Path):
    """SETUP_REPEATS set-ups, each timed without its file writes and
    converted to the reference speed by the probes taken around it.  File
    writing is left out of the time: it is the benchmark's own I/O, and on
    the reference machine it varied by a factor of 2.4 between repeats."""
    shutil.rmtree(run_dir, ignore_errors=True)
    # Each repeat creates its files in a directory of its own: deleting and
    # re-creating, or overwriting, the same files made set-up drift upward
    # from repeat to repeat.
    setups, raw, writes = [], [], []
    for repeat in range(SETUP_REPEATS):
        probes = [speed.probe() for _ in range(SETUP_PROBES // 2)]
        start = time.perf_counter()
        cli, items, write_s = set_up(workload, seed, count, run_dir / f"r{repeat}")
        secs = time.perf_counter() - start - write_s
        probes += [speed.probe() for _ in range(SETUP_PROBES // 2)]
        setups.append(secs * speed.factor(probes))
        raw.append(secs)
        writes.append(write_s)
    return cli, items, {"setup_s": setups, "raw_s": raw, "write_s": writes}


def probed_pass(cli, items: List[Item]):
    """Closed loop over the items with one speed probe after each item;
    returns the results and each item's factor to the reference speed."""
    results: List[Result] = []
    spans, probe_at, probe_s = [], [], []
    gc.collect()
    for item in items:
        start = time.perf_counter()
        results.append(call(cli, item.argv()))
        probe_at.append(time.perf_counter())
        spans.append((start, probe_at[-1]))
        probe_s.append(speed.probe())
    return results, probe_s, speed.local_factors(spans, probe_at, probe_s)


def run_pass(cli, items: List[Item], tracer: Optional[Tracer] = None):
    """Closed loop over the items; returns results and, when traced, each
    item's deterministic counts."""
    results: List[Result] = []
    counts: List[Dict[str, float]] = []
    gc.collect()
    for i, item in enumerate(items):
        results.append(call(cli, item.argv(), tracer, i))
        if tracer is not None:
            counts.append(tracer.deterministic_counts())
    return results, counts


def traced_pass(cli, items: List[Item]):
    """A second traced pass, keeping no spans, for the determinism check."""
    tracer = Tracer(0)
    tracer.install()
    try:
        results, counts = run_pass(cli, items, tracer)
    finally:
        tracer.uninstall()
    return results, counts


def alternating_pass(cli, items: List[Item]):
    """Each item untraced, then traced right after it, so that the overhead
    ratio compares the two at the same machine speed."""
    tracer = Tracer(SPAN_CAP)
    base: List[Result] = []
    traced: List[Result] = []
    counts: List[Dict[str, float]] = []
    gc.collect()
    for i, item in enumerate(items):
        base.append(call(cli, item.argv()))
        tracer.install()
        try:
            traced.append(call(cli, item.argv(), tracer, i))
        finally:
            tracer.uninstall()
        counts.append(tracer.deterministic_counts())
    return base, traced, counts, tracer


def check(workload: Workload, items: List[Item], results: List[Result], corrupt: bool = False) -> List[Optional[str]]:
    """Failure reason per item, or None where the output is correct."""
    reasons = []
    for item, (rc, _, out, err) in zip(items, results):
        if item.ref is None:
            item.ref = workload.reference(item)
        ref = workload.corrupt(item.ref) if corrupt else item.ref
        if rc is None:
            reasons.append("raised " + (err.strip().splitlines() or ["?"])[-1])
            continue
        try:
            reasons.append(workload.check(item, rc, out, ref))
        except (KeyError, TypeError, ValueError) as exc:
            reasons.append(f"unreadable output: {exc!r}")
    return reasons


# ---------------------------------------------------------------------------
# metrics


def end_to_end(results: List[Result], factors: List[float], failed: int, setups: List[float], rss_kb: int) -> Dict:
    """Timings at the reference speed: each item's wall time times its factor."""
    ms = [r[1] * 1000 * f for r, f in zip(results, factors)]
    return {
        "latency_ms.p50": (statistics.median(ms), "ms"),
        "latency_ms.p90": (statistics.quantiles(ms, n=10)[8], "ms"),
        "items_per_s": (len(results) / (sum(ms) / 1000), "1/s"),
        "ok_frac": ((len(results) - failed) / len(results), "frac"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }


def per_layer(tr: Tracer, overhead: float) -> Dict:
    total = tr.item_time()
    layer_self = {layer: tr.layer_self_time(layer) for layer in LAYERS}
    tried = tr.count("dsn.minimize_graph.tried")
    m = {
        "trace.item_s": (total, "s"),
        "trace.overhead_ratio": (overhead, "ratio"),
        "trace.covered_frac": (sum(layer_self.values()) / total, "frac"),
        "cli.self_frac": ((total - sum(v for k, v in layer_self.items() if k != "cli")) / total, "frac"),
        "graphs.digraph_builds": (tr.count("graphs.digraph_builds"), "count"),
        "graphs.without_arc.incl_frac": (tr.incl_s[tr.ids["graphs.without_arc"]] / total, "frac"),
        "graphs.without_arc.under_ladders_frac": (tr.count("graphs.without_arc.under_ladders_s") / total, "frac"),
        "dsn.minimize_graph.incl_frac": (tr.incl_s[tr.ids["dsn.minimize_graph"]] / total, "frac"),
        "dsn.minimize_graph.tried": (tried, "count"),
        "solvers.nodes": (tr.count("solvers.nodes"), "count"),
        "structure.replacements": (tr.count("structure.replacements"), "count"),
        "structure.rounds": (tr.count("structure.rounds"), "count"),
        "ladders.max_peel_depth": (tr.count("ladders.max_peel_depth"), "count"),
    }
    m["dsn.minimize_graph.removed_per_try"] = (tr.count("dsn.minimize_graph.removed") / tried if tried else 0.0, "frac")
    calls = tr.count("ladders.is_ladder_subdivision.calls")
    m["ladders.ok_ratio"] = (tr.count("ladders.ok") / calls if calls else 0.0, "frac")
    for name in CALL_SPANS:
        m[f"{name}.calls"] = (tr.count(f"{name}.calls"), "count")
    for name in SELF_FRAC_SPANS:
        m[f"{name}.self_frac"] = (tr.self_time(name) / total, "frac")
    for layer in LAYERS:
        m[f"layer.{layer}.self_frac"] = (layer_self[layer] / total, "frac")
    return m


def top_self_times(tr: Tracer, k: int = 8) -> List[Tuple[str, float]]:
    total = tr.item_time()
    ranked = sorted(zip(tr.names[1:], tr.self_s[1:]), key=lambda x: -x[1])
    return [(name, s / total) for name, s in ranked[:k]]


# ---------------------------------------------------------------------------
# environment and report


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def environment() -> Dict:
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "src_dsnkit_lines": sum(len(p.read_text().splitlines()) for p in sorted((SRC / "dsnkit").glob("*.py"))),
        "loop": "closed, one client, one process",
    }


def rows(workload: Workload, items: List[Item], results: List[Result], reasons: List[Optional[str]]) -> List[Dict]:
    out = []
    for item, (rc, secs, stdout, _), reason in zip(items, results, reasons):
        try:
            nodes = workload.nodes_of(json.loads(stdout)) if rc == 0 else None
        except (ValueError, KeyError, TypeError):
            nodes = None
        out.append(dict(id=item.id, **item.row, time_ms=secs * 1000, nodes=nodes, exit_code=rc, failure=reason))
    return out


def emit(metrics: Dict, attempted: int, failed: int, extra_lines: List[str]) -> None:
    for line in extra_lines:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name:<44} {value:>16.6f} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))


# ---------------------------------------------------------------------------
# modes


def bench(workload: Workload, seed: int, seconds: int, trace: bool) -> int:
    run_dir = OUT / f"{workload.name}-seed{seed}"
    count = workload.trace_count(seconds) if trace else workload.item_count(seconds)
    cli, items, setup = timed_set_up(workload, seed, count, run_dir / "inputs")

    lines = [f"workload {workload.name}  seed {seed}  items {count}  trace {int(trace)}"]
    report = {"environment": environment(), "workload": workload.name, "why": workload.why,
              "seed": seed, "seconds": seconds, "items": count, "setup": setup}
    if not trace:
        results, probes, factors = probed_pass(cli, items)
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        reasons = check(workload, items, results)
        failed = sum(r is not None for r in reasons)
        metrics = end_to_end(results, factors, failed, setup["setup_s"], rss_kb)
        attempted = len(results)
        wall_ms = [r[1] * 1000 for r in results]
        lines.append(f"latency samples {len(results)}")
        lines.append(f"speed factor median {statistics.median(factors):.4f}, range {min(factors):.4f}-"
                     f"{max(factors):.4f}; wall latency p50 {statistics.median(wall_ms):.3f} ms")
        report["rows"] = rows(workload, items, results, reasons)
        for row, probe_s, f in zip(report["rows"], probes, factors):
            row.update(probe_ms=probe_s * 1000, factor=f)
    else:
        base, traced, counts, tracer = alternating_pass(cli, items)
        again, again_counts = traced_pass(cli, items)
        for i, (a, b) in enumerate(zip(counts, again_counts)):
            if a != b:
                print(f"error: traced counts differ between two passes over item {items[i].id}: "
                      f"{a} != {b}", file=sys.stderr)
                return 1
        reasons = [r1 or r2 or r3 for r1, r2, r3 in zip(
            check(workload, items, base), check(workload, items, traced), check(workload, items, again))]
        failed = sum(r is not None for r in reasons)
        attempted = len(items)
        metrics = per_layer(tracer, sum(r[1] for r in traced) / sum(r[1] for r in base))
        spans_path = OUT / f"{workload.name}-seed{seed}-spans.jsonl"
        kept = tracer.write_spans(spans_path)
        lines.append(f"spans kept {kept}, dropped {tracer.spans_dropped}, written to {spans_path}")
        lines += [f"  self {name:<40} {frac:8.3%}" for name, frac in top_self_times(tracer)]
        report["rows"] = rows(workload, items, base, reasons)
        report["top_self_frac"] = top_self_times(tracer, 20)
    for item, reason in zip(items, reasons):
        if reason is not None:
            lines.append(f"FAILED {item.id}: {reason}")
    report["metrics"] = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    results_path = OUT / f"{workload.name}-seed{seed}-trace{int(trace)}.json"
    results_path.write_text(json.dumps(report, indent=1))
    lines.append(f"results written to {results_path}")
    emit(metrics, attempted, failed, lines)
    return 0


def self_test() -> int:
    """A corrupted reference must turn every item into a failure, and the
    true references none."""
    ok = True
    for workload in WORKLOADS.values():
        cli, items, _ = set_up(workload, 0, SELF_TEST_ITEMS, OUT / "self-test" / workload.name)
        results, _ = run_pass(cli, items)
        true_failed = sum(r is not None for r in check(workload, items, results))
        bad_failed = sum(r is not None for r in check(workload, items, results, corrupt=True))
        passed = true_failed == 0 and bad_failed == len(items)
        ok &= passed
        print(f"{workload.name:<16} failed_frac true refs {true_failed / len(items):.2f}  "
              f"corrupted refs {bad_failed / len(items):.2f}  {'ok' if passed else 'FAIL'}")
    return 0 if ok else 1


def write_golden() -> int:
    """Record analyze_digest for every input the analyze-ladder workload can draw."""
    cli = import_dsnkit()
    path = OUT / "golden" / "ladder.dsn"
    path.parent.mkdir(parents=True, exist_ok=True)
    table = {}
    for n, identified in all_ladder_inputs():
        text = ladder_text(n, identified)
        path.write_text(text)
        rc, _, out, err = call(cli, ["analyze", str(path), "--json"])
        if rc != 0:
            print(f"error: analyze exits {rc} on rungs={n} identified={identified}: {err}", file=sys.stderr)
            return 1
        table[sha256(text)] = analyze_digest(json.loads(out))
    GOLDEN_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} digests to {GOLDEN_PATH}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "dsnkit" / "__init__.py").is_file():
        print(f"error: no dsnkit sources at {SRC}; run from a dsnkit checkout", file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    if args.self_test:
        return self_test()
    if args.write_golden:
        return write_golden()
    if args.workload is None:
        parser.error("--workload is required")
    return bench(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
