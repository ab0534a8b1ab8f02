"""Golden CLI outputs on a fixed corpus.

Each case stores the sha256 of its input text, the exit code and the JSON
stdout without `wall_time_s` and without the search statistics `nodes` and
`rounds` (as `perfbench/workloads.analyze_digest` leaves them out).  It also
stores `stdout_sha256`, the sha256 of the raw stdout with those three numbers
masked, which pins key order and layout as well.  The corpus: `analyze --json` on ladders with two terminals attached, including
identified end and consecutive rungs; `analyze --json` and `solve --json`
with both exact engines on seeded random instances; `analyze --json` and
`solve --engine dst --json` on seeded out-stars with 1 to 6 leaves
(fractional weights and unit-weight grids) and on an infeasible one; and
`reduce --json --decide` on the two PSI instances of `dsnkit bench`, on
seeded hosts around K3,3 and the cube, planted and unplanted (the unplanted
K3,3 host is feasible above the threshold, the unplanted cube host and one K4
host have a request that no path serves), with the `.dsn` instance that
`-o` writes stored as `output_sha256` for two of them.  Text-mode
variants of `reduce --decide` on both PSI instances and of `solve` and
`analyze` on `random-0` store `stdout_sha256`, with `N nodes` masked, and the
stderr text in place of the parsed stdout.

Record again with `PYTHONPATH=src:tests python tests/test_golden_cli.py`
only when an output is meant to change."""

import hashlib
import io
import json
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from dsnkit.cli import main
from dsnkit.dsn import DsnInstance
from dsnkit.formats import emit_dsn, emit_psi
from dsnkit.generators import gen_random
from dsnkit.graphs import UndirectedGraph, WeightedDigraph
from dsnkit.reduction import PsiInstance

from conftest import CUBE, K33, K4, ladder_with_terminals, out_star, random_psi_host

GOLDEN_PATH = Path(__file__).with_name("golden_cli.json")
UNSTABLE_KEYS = ("wall_time_s", "nodes", "rounds")
# The number after each unstable key in JSON stdout, and the node count in text stdout.
UNSTABLE_NUMBERS = re.compile(r'("(?:wall_time_s|nodes|rounds)": )[^,\n]+|\d+( nodes\b)')

LADDERS = (
    [(n, ()) for n in range(8, 14)]
    + [(n, (n // 2,)) for n in range(8, 14)]
    + [(n, ident) for n in (8, 13) for ident in ((1,), (n,), (1, n), (2, 3))]
)
RANDOM_SEEDS = range(6)
C4 = UndirectedGraph(range(4), [(0, 1), (1, 2), (2, 3), (0, 3)])
# (kind, leaves, seed); every one of them is feasible
OUT_STARS = [("frac", k, seed) for k, seed in zip(range(1, 7), (1, 1, 1, 1, 3, 5))]
OUT_STARS += [("grid", k, k) for k in range(1, 7)]
# nothing reaches leaf 3
INFEASIBLE_OUT_STAR = DsnInstance(WeightedDigraph(range(4), {(0, 1): 1, (1, 2): 1, (3, 0): 1}), {(0, 2), (0, 3)})
# (name, pattern, seed, planted) for `random_psi_host`
PSI_HOSTS = [
    ("k33-planted", K33, 0, True),
    ("k33-unplanted", K33, 3, False),
    ("cube-planted", CUBE, 0, True),
    ("cube-unplanted", CUBE, 0, False),
    ("k4-unreachable", K4, 2, False),
]
# cases whose `-o` instance text is stored too
PSI_OUTPUTS = ("k33-planted", "cube-unplanted")


def cases():
    """name -> (suffix, input text, argv with FILE standing for the input)."""
    out = {}
    for n, ident in LADDERS:
        text = emit_dsn(ladder_with_terminals(n, ident), {"generator": f"ladder n={n} I={list(ident)}"})
        out[f"analyze-ladder-{n}-I{'-'.join(map(str, ident))}"] = (".dsn", text, ["analyze", "FILE", "--json"])
    for seed in RANDOM_SEEDS:
        text = emit_dsn(*gen_random(8, 20, 4, 3, seed))
        out[f"analyze-random-{seed}"] = (".dsn", text, ["analyze", "FILE", "--json"])
        for engine in ("bnb", "exhaustive"):
            out[f"solve-{engine}-random-{seed}"] = (".dsn", text, ["solve", "FILE", "--engine", engine, "--json"])
    out_stars = {
        f"{kind}-{leaves}": emit_dsn(out_star(seed, kind, leaves), {"generator": f"out-star {kind} leaves={leaves} seed={seed}"})
        for kind, leaves, seed in OUT_STARS
    }
    out_stars["infeasible"] = emit_dsn(INFEASIBLE_OUT_STAR)
    for name, text in out_stars.items():
        out[f"analyze-outstar-{name}"] = (".dsn", text, ["analyze", "FILE", "--json"])
        out[f"solve-dst-outstar-{name}"] = (".dsn", text, ["solve", "FILE", "--engine", "dst", "--json"])
    for name, host in (("k4", K4), ("c4", C4)):
        text = emit_psi(PsiInstance(host, K4, {i: i for i in range(4)}))
        out[f"reduce-decide-psi-{name}"] = (".psi", text, ["reduce", "FILE", "--json", "--decide"])
    for name, pattern, seed, planted in PSI_HOSTS:
        text = emit_psi(random_psi_host(pattern, seed, planted=planted))
        out[f"reduce-decide-psi-{name}"] = (".psi", text, ["reduce", "FILE", "--json", "--decide"])
        if name in PSI_OUTPUTS:
            out[f"reduce-output-psi-{name}"] = (".psi", text, ["reduce", "FILE", "-o", "OUT", "--json", "--decide"])
    for name in ("reduce-decide-psi-k4", "reduce-decide-psi-c4", "solve-bnb-random-0", "analyze-random-0"):
        suffix, text, argv = out[name]
        out[f"{name}-text"] = (suffix, text, [a for a in argv if a != "--json"])
    return out


def strip_unstable(value):
    if isinstance(value, dict):
        return {k: strip_unstable(v) for k, v in value.items() if k not in UNSTABLE_KEYS}
    if isinstance(value, list):
        return [strip_unstable(v) for v in value]
    return value


def run_case(case, directory):
    suffix, text, argv = case
    path = Path(directory) / f"input{suffix}"
    path.write_text(text)
    written = Path(directory) / "output.dsn"
    paths = {"FILE": str(path), "OUT": str(written)}
    with redirect_stdout(io.StringIO()) as out, redirect_stderr(io.StringIO()) as err:
        code = main([paths.get(a, a) for a in argv])
    record = {
        "input_sha256": hashlib.sha256(text.encode()).hexdigest(),
        "exit": code,
        "stdout_sha256": hashlib.sha256(UNSTABLE_NUMBERS.sub(r"\1#\2", out.getvalue()).encode()).hexdigest(),
    }
    if "OUT" in argv:
        record["output_sha256"] = hashlib.sha256(written.read_bytes()).hexdigest()
    if "--json" in argv:
        record["stdout"] = strip_unstable(json.loads(out.getvalue()))
    else:
        record["stderr"] = err.getvalue()
    return record


CASES = cases()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_cli(name, tmp_path):
    expected = json.loads(GOLDEN_PATH.read_text())[name]
    assert run_case(CASES[name], tmp_path) == expected


def test_golden_covers_every_case():
    assert sorted(json.loads(GOLDEN_PATH.read_text())) == sorted(CASES)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        recorded = {name: run_case(CASES[name], tmp) for name in sorted(CASES)}
    GOLDEN_PATH.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(recorded)} cases to {GOLDEN_PATH}")
