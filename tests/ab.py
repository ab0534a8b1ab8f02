"""Paired in-process A/B of two dsnkit trees on the benchmark workloads.

`git archive REV src/dsnkit` is unpacked as the package `dsnkit_a`, and
this checkout's `src/dsnkit` is copied as `dsnkit_b`, both into a
temporary directory and both imported in one process (the package's
imports are relative, so the rename is free).  The items come from the
benchmark's own builders (`perfbench/workloads.py`), as in
`tests/workload_identity.py`.  Each item runs through each side's
`cli.main(argv)` K times; which side goes first alternates per item and
per repeat, and each side keeps its best time per item.  `--swap` places
the trees the other way round (this checkout as `dsnkit_a`, imported and
warmed first); B is still this checkout, so a battery that alternates it
over its runs separates a tree's effect from its place.

Per workload it prints the total ratio (B's summed best times over A's),
the median per-item ratio, the number of items B ran faster with the
two-sided sign-test p-value, and each item whose exit code, stdout
without the `wall_time_s` value, or stderr differs between the sides.
Ratios below 1 mean B is faster.  Best of K in one warm process is not the
p50 of the benchmark's one-shot items: these ratios are the harness's own,
not a `BENCHMARK.json` metric.

Run from the repository root (an A/A run passes `--base HEAD` on a clean
tree):

    python3 tests/ab.py --base HEAD~1
    python3 tests/ab.py --base HEAD --workload analyze-ladder --seed 4242 --swap

It uses the standard library only, and pytest does not collect it.  The
item files go to a temporary directory; nothing under `perfbench/` is
written.
"""

from __future__ import annotations

import argparse
import importlib
import io
import math
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

from workload_identity import ROOT, WALL_TIME

PACKAGES = ("dsnkit_a", "dsnkit_b")


def unpack(base: str, directory: Path, names: tuple) -> None:
    """`base`'s src/dsnkit as directory/names[0], this checkout's as names[1]."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", base, "src/dsnkit"], capture_output=True, check=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(directory / "rev", filter="data")
    shutil.move(directory / "rev" / "src" / "dsnkit", directory / names[0])
    shutil.copytree(ROOT / "src" / "dsnkit", directory / names[1], ignore=shutil.ignore_patterns("__pycache__"))


def sign_test(wins: int, losses: int) -> float:
    """Two-sided sign-test p-value of `wins` against `losses` (ties dropped)."""
    n = wins + losses
    tail = sum(math.comb(n, i) for i in range(min(wins, losses) + 1))
    return min(1.0, 2 * tail / 2**n) if n else 1.0


def compare(run, clis, workload, seed: int, count: int, repeats: int, directory: Path) -> dict:
    """Best time per item and side, and the ids of items whose outputs differ."""
    best = [[math.inf] * count for _ in clis]
    differ = []
    for index in range(count):
        item = workload.build(seed, index)
        item.path = str(directory / f"{item.id}{item.suffix}")
        Path(item.path).write_text(item.text)
        outputs = [None, None]
        for r in range(repeats):
            first = (index + r) % 2
            for side in (first, 1 - first):
                rc, elapsed, out, err = run.call(clis[side], item.argv())
                best[side][index] = min(best[side][index], elapsed)
                outputs[side] = (rc, WALL_TIME.sub(r"\1#", out), err)
        if outputs[0] != outputs[1]:
            differ.append(item.id)
    a, b = best
    wins = sum(y < x for x, y in zip(a, b))
    losses = sum(y > x for x, y in zip(a, b))
    return {
        "items": count,
        "total_ratio": sum(b) / sum(a),
        "median_ratio": statistics.median(y / x for x, y in zip(a, b)),
        "b_faster": wins,
        "b_slower": losses,
        "sign_p": sign_test(wins, losses),
        "differ": differ,
    }


def main(argv=None) -> int:
    # The builders import dsnkit from this checkout to write the item files.
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import run
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision for side A; side B is this checkout")
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--items", type=int, help="items per workload (default: a 25 s benchmark run's count)")
    parser.add_argument("--repeats", type=int, default=5, help="runs per item and side; the best counts")
    parser.add_argument("--swap", action="store_true",
                        help="place this checkout first (as dsnkit_a) and the base second; B is still this checkout")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        names = PACKAGES[::-1] if args.swap else PACKAGES
        unpack(args.base, directory, names)
        sys.path.insert(0, tmp)
        placed = {name: importlib.import_module(f"{name}.cli") for name in PACKAGES}
        clis = [placed[name] for name in names]
        ok = True
        for name in args.workload or sorted(WORKLOADS):
            workload = WORKLOADS[name]
            for side in placed.values():  # warm both sides, in import order, before timing
                warm = workload.warmup()
                warm.path = str(directory / f"warmup{warm.suffix}")
                Path(warm.path).write_text(warm.text)
                run.call(side, warm.argv())
            count = args.items or workload.item_count(25)
            row = compare(run, clis, workload, args.seed, count, args.repeats, directory)
            print(
                f"{name} seed {args.seed}: {row['items']} items, best of {args.repeats}; "
                f"B/A total {row['total_ratio']:.4f} ({row['total_ratio'] - 1:+.2%}), "
                f"median per item {row['median_ratio']:.4f} ({row['median_ratio'] - 1:+.2%}); "
                f"B faster on {row['b_faster']}, slower on {row['b_slower']} (sign test p = {row['sign_p']:.3g}); "
                f"{len(row['differ'])} outputs differ",
                flush=True,
            )
            for item_id in row["differ"]:
                print(f"  output differs: {item_id}")
            ok = ok and not row["differ"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
