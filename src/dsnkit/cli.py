"""Command-line surface: solve, analyze, reduce, gen, bench.

`main` is the one runner: it reads and parses the input file, times the
command's step, writes the report that the step returns to stdout (a dict as
indented JSON, a text as it is) and maps errors to exit codes.  gen and
reduce write their instance through `_write`, the one `-o` rule.  Every
command takes `--json`.

`_parse_direct` reads a solve, analyze or reduce argv of options spelled in
full, their values and one file; argparse parses any other argv (`-`,
`--opt=value`, abbreviations, `--`, `-h`) and writes all help and usage text.

Exit codes: 0 solved/ok, 1 bench disagreement, 2 infeasible, 3 capacity cap
exceeded, 4 domain/input error (unreadable files, an `-o` path that cannot
be written, the empty one too, `--json` with the instance on stdout, a
failed write to stdout or stderr, usage errors and a negative genus too),
5 toolkit bug (a failed runtime self-check; `solve`, `analyze` and
`reduce` then print the DSN instance in hand to stderr as a reproducer).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
import warnings
from typing import List, Optional

from .errors import CapacityError, DomainError, DsnkitError, InputError, PreconditionError
from .formats import emit_dsn, parse_dsn, parse_psi
from .generators import gen_grid, gen_ladder, gen_random
from .graphs import UndirectedGraph
from .reduction import (
    PsiInstance,
    decide_psi_via_dsn,
    generate_hardness_instance,
    solve_psi_bruteforce,
)
from .solvers import ENGINES, SolveResult, solve_bnb, solve_exhaustive, solve_with_certificate

EXIT_OK = 0
EXIT_DISAGREE = 1
EXIT_INFEASIBLE = 2
EXIT_CAPACITY = 3
EXIT_DOMAIN = 4
EXIT_BUG = 5


def _read(path: str) -> str:
    """Read `path` as UTF-8 ("-" reads stdin); unreadable input is an InputError."""
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "rb", buffering=0) as fh:
            return fh.read().decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from None


def _write(path: Optional[str], text: str) -> None:
    """Write `text` to `path` (None or "-" writes stdout); an unwritable
    path, the empty one too, is an InputError."""
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from None


_ESCAPE = json.encoder.encode_basestring_ascii
_FLOAT_NAMES = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
# Encoders by exact type, as the payloads hold no subclasses of these.
_SCALARS = {
    str: _ESCAPE,
    int: int.__repr__,
    float: lambda x: _FLOAT_NAMES.get(repr(x), repr(x)),
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}
_scalar_encoder = _SCALARS.get


def _indented_json(obj, newline: str = "\n") -> str:
    """Exactly `json.dumps(obj, indent=2)` for dicts with string keys, lists,
    tuples, str, int, float, bool and None.  With `indent` set, json
    runs its pure-Python encoder; this one looks each scalar's encoder up by
    type and builds each container with one join."""
    enc = _scalar_encoder(type(obj))
    if enc is not None:
        return enc(obj)
    inner = newline + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            _ESCAPE(k) + ": "
            + (enc(v) if (enc := _scalar_encoder(type(v))) else _indented_json(v, inner))
            for k, v in obj.items()
        ]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        # A pair of ints, such as a solve result's arc, is written in one step;
        # recursing costs analyze-ladder 2.1-3.6% and solve-bnb 1.1-1.4% (tests/ab.py).
        items = [
            enc(v) if (enc := _scalar_encoder(type(v)))
            else f"[{inner}  {v[0]},{inner}  {v[1]}{inner}]"
            if type(v) is tuple and len(v) == 2 and type(v[0]) is int and type(v[1]) is int
            else _indented_json(v, inner)
            for v in obj
        ]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def cmd_solve(args, inst, meta):
    result = ENGINES[args.engine](inst)
    code = EXIT_OK if result.feasible else EXIT_INFEASIBLE
    if args.json:
        payload = result.to_json_dict()
        payload["wall_time_s"] = None  # the runner fills in the time
        return code, payload
    if not result.feasible:
        return code, "infeasible\n"
    lines = [f"cost {result.cost} ({result.method}, {result.node_count} nodes)"]
    lines += [f"  arc {u + 1} -> {v + 1}" for u, v in sorted(result.optimum.arcs)]
    return code, "\n".join(lines) + "\n"


def cmd_analyze(args, inst, meta):
    genus = meta.get("genus", 0)
    try:
        genus = int(genus)
    except ValueError:
        raise InputError(f"genus must be an integer, got {genus!r}") from None
    if genus < 0:
        raise InputError(f"genus must be non-negative, got {genus}")
    result, rep = solve_with_certificate(inst, engine=args.engine)
    code = EXIT_OK if result.feasible else EXIT_INFEASIBLE
    if args.json:
        return code, {
            "solve": result.to_json_dict(),
            "certificate": rep.certificate_json(genus) if rep is not None else None,
            "wall_time_s": None,  # the runner fills in the time
        }
    if not result.feasible:
        return code, "infeasible\n"
    if rep is None:
        return code, f"cost {result.cost}; no requests, no certificate\n"
    lines = [
        f"cost {result.cost}; |V| {rep.vertices_before} -> {rep.vertices_after}",
        f"treewidth {rep.tw_before} -> {rep.tw_after}; "
        f"diameter {rep.diameter_after}; max ratio {rep.max_ratio:.2f}",
    ]
    lines += [
        f"  request {p.request[0] + 1}->{p.request[1] + 1}: len {p.length}, "
        f"{p.num_important} important, {len(p.segments)} segments"
        for p in rep.paths
    ]
    return code, "\n".join(lines) + "\n"


def cmd_reduce(args, inst, out):
    # --json without -o never prints the instance, so it is not emitted.
    if args.output is not None or not args.json:
        meta = {
            "generator": "hardness-reduction",
            "threshold": str(out.threshold),
            "k": str(out.psi.k),
        }
        _write(args.output, emit_dsn(inst, meta))
    decision = decide_psi_via_dsn(out) if args.decide else None
    if args.json:
        return EXIT_OK, {
            "n": inst.host.n,
            "m": inst.host.m,
            "q": inst.q,
            "requests": inst.p,
            "threshold": out.threshold,
            "decision": decision,
        }
    print(f"c threshold {out.threshold}", file=sys.stderr)
    return EXIT_OK, "" if decision is None else "yes\n" if decision else "no\n"


def cmd_gen(args, *_):
    if args.kind == "ladder":
        inst, meta = gen_ladder(args.n, args.identify or ())
    elif args.kind == "grid":
        inst, meta = gen_grid(args.width, args.height, q=args.q, seed=args.seed)
    else:
        inst, meta = gen_random(args.n, args.m, args.q, args.p, args.seed)
    _write(args.output, emit_dsn(inst, meta))
    summary = {"n": inst.host.n, "m": inst.host.m, "q": inst.q, "p": inst.p}
    return EXIT_OK, json.dumps(summary) + "\n" if args.json else ""


def _bench_corpus():
    rows = []
    for seed in range(6):
        inst, meta = gen_random(7, 14, 3, 2, seed)
        rows.append((f"random-s{seed}", inst))
    inst, _ = gen_ladder(6)
    rows.append(("ladder-6", inst))
    inst, _ = gen_grid(3, 3, q=3, seed=1)
    rows.append(("grid-3x3", inst))
    return sorted(rows)


def _cost(result: SolveResult) -> str:
    return str(result.cost) if result.feasible else "infeasible"


def cmd_bench(args, *_):
    # (name, check) pairs: a check returns its row's answer and its oracle's.
    checks = [
        (name, lambda inst=inst: (_cost(solve_bnb(inst)), _cost(solve_exhaustive(inst))))
        for name, inst in _bench_corpus()
    ]
    k4 = UndirectedGraph(range(4), [(i, j) for i in range(4) for j in range(i + 1, 4)])
    c4 = UndirectedGraph(range(4), [(0, 1), (1, 2), (2, 3), (0, 3)])
    for name, host in (("psi-k4", k4), ("psi-c4", c4)):
        psi = PsiInstance(host, k4, {i: i for i in range(4)})
        checks.append((name, lambda psi=psi: tuple(
            "yes" if answer else "no"
            for answer in (decide_psi_via_dsn(generate_hardness_instance(psi)), solve_psi_bruteforce(psi) is not None)
        )))
    table = []
    for name, check in checks:
        t0 = time.perf_counter()
        answer, oracle = check()
        elapsed = time.perf_counter() - t0
        table.append({
            "instance": name,
            "cost": answer,
            "oracle_cost": oracle,
            "agree": answer == oracle,
            "time_s": round(elapsed, 3),
        })
    disagreements = sum(not r["agree"] for r in table)
    code = EXIT_OK if disagreements == 0 else EXIT_DISAGREE
    if args.json:
        return code, {"rows": table, "disagreements": disagreements}
    width = max(len(r["instance"]) for r in table)
    return code, "".join(
        f"{r['instance']:<{width}}  {r['cost']:>12} {r['oracle_cost']:>12} "
        f"{'ok' if r['agree'] else 'MISMATCH':>8} {r['time_s']:>7.3f}s\n"
        for r in table
    )


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 4, the input-error code
    (argparse's own 2 is "infeasible" here); subparsers inherit the class.
    Like argparse from a later 3.11 patch release on, and unlike early 3.11
    releases such as 3.11.2, it drops a text it cannot write."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_DOMAIN, f"{self.prog}: error: {message}\n")

    def _print_message(self, message, file=None):
        try:
            super()._print_message(message, file)
        except OSError:
            pass


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    parser = _Parser(
        prog="dsnkit",
        description="Directed Steiner network toolkit: exact solving, "
        "structural analysis, hardness-instance generation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve a DSN instance file")
    p.add_argument("file")
    p.add_argument("--engine", choices=sorted(ENGINES), default="bnb")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_solve, reads="dsn")

    p = sub.add_parser("analyze", help="solve, then certify solution structure")
    p.add_argument("file")
    p.add_argument("--engine", default="auto",
                   choices=["auto"] + sorted(ENGINES))
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_analyze, reads="dsn")

    p = sub.add_parser("reduce", help="turn a PSI file into a DSN hardness instance")
    p.add_argument("file")
    p.add_argument("-o", "--output")
    p.add_argument("--decide", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_reduce, reads="psi")

    p = sub.add_parser("gen", help="generate instance files")
    gsub = p.add_subparsers(dest="kind", required=True)
    g = gsub.add_parser("ladder")
    g.add_argument("n", type=int)
    g.add_argument("--identify", type=int, nargs="*")
    g = gsub.add_parser("grid")
    g.add_argument("width", type=int)
    g.add_argument("height", type=int)
    g.add_argument("--q", type=int, default=3)
    g.add_argument("--seed", type=int, default=0)
    g = gsub.add_parser("random")
    g.add_argument("n", type=int)
    g.add_argument("m", type=int)
    g.add_argument("q", type=int)
    g.add_argument("p", type=int)
    g.add_argument("--seed", type=int, default=0)
    for kind_parser in gsub.choices.values():
        kind_parser.add_argument("-o", "--output", default="-")
        kind_parser.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_gen, reads=None)

    p = sub.add_parser("bench", help="run the built-in corpus and cross-check solvers")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_bench, reads=None)

    # `_parse_direct`'s table for each command that reads a file: argparse's
    # namespace of the defaults, and each option string's action but -h's.
    parser.direct = {
        name: (vars(p.parse_args([""])), {s: a for s, a in p._option_string_actions.items()
                                           if a.default is not argparse.SUPPRESS})
        for name, p in sub.choices.items() if p.get_default("reads")
    }
    return parser


def _parse_direct(defaults, options, tokens) -> Optional[argparse.Namespace]:
    """argparse's namespace for `tokens` if each is an option string of
    `options`, the value after a value option (no leading "-", one of its
    choices if it has them) or the one file; None for any other `tokens`.
    Argparse alone costs solve-bnb and reduce-decide 12-13% (`tests/ab.py`)."""
    ns, it = dict(defaults, file=None), iter(tokens)
    for tok in it:
        action = options.get(tok)
        if action is None:
            if tok.startswith("-") or ns["file"] is not None:
                return None
            ns["file"] = tok
        elif action.nargs == 0:
            ns[action.dest] = action.const
        elif (value := next(it, "-")).startswith("-") or action.choices and value not in action.choices:
            return None
        else:
            ns[action.dest] = value
    return None if ns["file"] is None else argparse.Namespace(**ns)


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser()
    # solve, analyze and reduce parse a plain argv without argparse;
    # argparse parses every other argv and writes all help and usage text.
    table = parser.direct.get(argv[0]) if argv else None
    args = _parse_direct(*table, argv[1:]) if table else None
    try:
        if args is None:
            args = parser.parse_args(argv)
    except SystemExit:
        # argparse's help and usage exits; the parser drops a text it cannot write.
        _report(0)
        raise
    inst = data = None  # the parsed input; a failed self-check prints `inst`
    try:
        # gen writes its instance to stdout by default, reduce with -o - only.
        # Refused before anything is read or generated, as a usage error would be.
        if args.json and getattr(args, "output", None) == "-":
            raise InputError("-o - and --json both write to stdout; give -o a file")
        if args.reads == "dsn":
            inst, data = parse_dsn(_read(args.file))
        elif args.reads == "psi":
            psi = parse_psi(_read(args.file))[0]
            # A library warning (a pattern that is not 3-regular) is one plain line.
            with warnings.catch_warnings(record=True) as caught:
                data = generate_hardness_instance(psi)
            sys.stderr.writelines(f"warning: {w.message}\n" for w in caught)
            inst = data.dsn
        start = time.perf_counter()
        code, report = args.func(args, inst, data)
        if not isinstance(report, str):
            if "wall_time_s" in report:
                report["wall_time_s"] = round(time.perf_counter() - start, 6)
            report = _indented_json(report) + "\n"
        sys.stdout.write(report)
        sys.stdout.flush()
        return code
    except CapacityError as exc:
        return _report(EXIT_CAPACITY, f"error: {exc}\n")
    except (DomainError, InputError, PreconditionError) as exc:
        return _report(EXIT_DOMAIN, f"error: {exc}\n")
    except DsnkitError as exc:
        # What is left, InvariantError and InconsistencyError, is a failed
        # self-check: a bug in the toolkit, not in the input.
        return _report(EXIT_BUG, f"internal error: {exc}\n" + (emit_dsn(inst) if inst is not None else ""))
    except OSError as exc:
        # Reads and -o writes raise InputError, so what is left is a failed
        # write to stdout or stderr: a closed pipe or a full disk.  Only a
        # working stderr shows the message, and then stdout was the one.
        return _report(EXIT_DOMAIN, f"error: cannot write stdout: {exc}\n")


def _report(code: int, message: str = "") -> int:
    """Flush stdout, write `message` to stderr and return `code`; a stream
    that fails is discarded, and one that works keeps its output."""
    for stream, text in ((sys.stdout, ""), (sys.stderr, message)):
        try:
            stream.write(text)
            stream.flush()
        except OSError:
            _discard(stream)
    return code


def _discard(stream) -> None:
    """Point `stream`'s descriptor at devnull, so that the interpreter's flush
    at exit cannot fail a second time; a stream without one is left as is."""
    try:
        fd = stream.fileno()
    except (AttributeError, ValueError):  # io.UnsupportedOperation is a ValueError
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


if __name__ == "__main__":
    sys.exit(main())
