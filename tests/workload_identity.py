"""Byte-identity check of the benchmark workloads' outputs.

Runs the first 1,000 seed-0 items of each `perfbench` workload through
`dsnkit.cli.main` in one process, as the benchmark does, with the items
built by the benchmark's own builders (`perfbench/workloads.py`).  Each
item's exit code, its stdout with the `wall_time_s` value masked, and its
stderr are digested, in blocks of 100 items, and compared with
`tests/workload_digests.json`.  Search statistics such as `nodes` stay in
the digest, so a change that moves them fails here too.

Run from the repository root:

    python3 tests/workload_identity.py           # compare; exit 1 on a difference
    python3 tests/workload_identity.py --write   # record the digests again

Record again only when an output is meant to change.  The item files go to
a temporary directory; nothing under `perfbench/` is written.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).with_name("workload_digests.json")
SEED = 0
ITEMS = 1000
BLOCK = 100
WALL_TIME = re.compile(r'("wall_time_s": )[^,\n}]+')


def workload_digests(run, workload, directory: Path) -> list:
    """sha256 per block of BLOCK items, over (exit code, masked stdout, stderr)."""
    cli = run.import_dsnkit()
    digests = []
    block = hashlib.sha256()
    for index in range(ITEMS):
        item = workload.build(SEED, index)
        item.path = str(directory / f"{item.id}{item.suffix}")
        Path(item.path).write_text(item.text)
        rc, _, out, err = run.call(cli, item.argv())
        record = [rc, WALL_TIME.sub(r"\1#", out), err]
        block.update((json.dumps(record).replace(str(directory), "DIR") + "\n").encode())
        if (index + 1) % BLOCK == 0:
            digests.append(block.hexdigest())
            block = hashlib.sha256()
    return digests


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true", help="record the digests instead of comparing")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import run
    from workloads import WORKLOADS

    with tempfile.TemporaryDirectory() as tmp:
        got = {name: workload_digests(run, w, Path(tmp)) for name, w in sorted(WORKLOADS.items())}
    if args.write:
        DIGESTS.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(got)} workloads of {ITEMS} items to {DIGESTS}")
        return 0
    expected = json.loads(DIGESTS.read_text())
    ok = sorted(got) == sorted(expected)
    for name in sorted(got):
        for i, (a, b) in enumerate(zip(got[name], expected.get(name, []))):
            if a != b:
                ok = False
                print(f"{name}: items {i * BLOCK}..{(i + 1) * BLOCK - 1} differ from the recorded outputs")
    print("workload outputs identical" if ok else "workload outputs differ")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
