"""Line-oriented instance files, DIMACS-adjacent.

DSN: `c key value` metadata, `p dsn n m q p` header, `a u v num/den` arcs,
`r s t` requests.  PSI: `p psi nG mG kH mH`, `eg u v`, `eh x y`, `map u x`.
Files are 1-based; in-memory objects are 0-based.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Tuple, Union

from .dsn import DsnInstance
from .errors import CapacityError, ParseError
from .graphs import UndirectedGraph, WeightedDigraph
from .reduction import PsiInstance

Metadata = Dict[str, str]

# Checked on the header, before any per-vertex structure is allocated.
DSN_MAX_VERTICES = 100_000
DSN_MAX_ARCS = 1_000_000


def _int_field(tok: str, lineno: int, col: int, lo: int = None, hi: int = None) -> int:
    try:
        value = int(tok)
    except ValueError:
        raise ParseError(f"expected an integer, got {tok!r}", lineno, col)
    if lo is not None and value < lo:
        raise ParseError(f"value {value} below minimum {lo}", lineno, col)
    if hi is not None and value > hi:
        raise ParseError(f"value {value} above maximum {hi}", lineno, col)
    return value


def _int_pair(toks: List[str], lineno: int, col: int, hi1: int, hi2: int) -> Tuple[int, int]:
    """toks[1] and toks[2] as integers in 1..hi1 and 1..hi2, at columns col
    and col + 2; `_int_field` reports the first bad one."""
    try:
        u, v = int(toks[1]), int(toks[2])
        if 1 <= u <= hi1 and 1 <= v <= hi2:
            return u, v
    except ValueError:
        pass
    return _int_field(toks[1], lineno, col, 1, hi1), _int_field(toks[2], lineno, col + 2, 1, hi2)


def _is_ascii_int(tok: str) -> bool:
    return tok.isascii() and tok.isdigit()


def _weight_field(tok: str, lineno: int, col: int) -> Union[int, Fraction]:
    """The value of `Fraction(tok)`, which must be positive: an int when
    it is a whole number, else a Fraction.  A token `n` or `n/d` of ASCII
    digits is read with `int` (d = 0 raises ZeroDivisionError, as
    `Fraction(tok)` does); any other token goes through `Fraction(tok)`, so
    both accept, reject and report the same tokens.

    One exception: a decimal exponent above 4300 in absolute value is
    rejected before `Fraction` builds 10**exponent, which for a 12-byte
    token like `1e400000000` would take hours.  4300 is Python's default
    limit on the digits of an `int` string, so no token reaches a
    magnitude that a digit string cannot."""
    num, slash, den = tok.partition("/")
    try:
        if _is_ascii_int(num) and (not slash or _is_ascii_int(den)):
            d = int(den) if slash else 1
            w = int(num) if d == 1 else Fraction(int(num), d)
        else:
            # Fraction reads the exponent after the token's only 'e' with
            # int, so a malformed exponent fails here as it would there; only
            # a space after the 'e' passes int and fails Fraction.
            head, e, exp = tok.lower().partition("e")
            if e and not exp[:1].isspace() and abs(int(exp)) > 4300:
                Fraction(head + "e0")  # a malformed mantissa fails as in Fraction(tok)
                raise ParseError(f"weight exponent {exp.rstrip()} is beyond 4300 in absolute value", lineno, col)
            w = Fraction(tok)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"expected a rational weight, got {tok!r}", lineno, col)
    # A Fraction's denominator is positive, so its sign is the numerator's.
    if w.numerator <= 0:
        raise ParseError(f"weight must be positive, got {tok}", lineno, col)
    return w.numerator if w.denominator == 1 else w


def parse_dsn(text: str) -> Tuple[DsnInstance, Metadata]:
    meta: Metadata = {}
    header = None
    arcs: Dict[Tuple[int, int], Union[int, Fraction]] = {}
    # Each distinct weight token is read once: its value does not depend on
    # where it stands, and a bad one stops the parse where it first appears.
    # Reading every token costs solve-bnb and analyze-ladder 1.1-2.4% (tests/ab.py).
    weights: Dict[str, Union[int, Fraction]] = {}
    requests = set()
    for lineno, raw in enumerate(text.splitlines(), 1):
        toks = raw.split()
        if not toks:
            continue
        kind = toks[0]
        # Arcs are most of a file, so their record is tested first.
        if kind == "a" and header:
            if len(toks) != 4:
                raise ParseError("arc record must be `a u v w`", lineno)
            u, v = _int_pair(toks, lineno, 3, header[0], header[0])
            if u == v:
                raise ParseError(f"loop arc at vertex {u}", lineno, 3)
            w = weights.get(toks[3])
            if w is None:
                w = weights[toks[3]] = _weight_field(toks[3], lineno, 7)
            arc = (u - 1, v - 1)
            if arc in arcs:
                raise ParseError(f"duplicate arc {u} {v}", lineno, 3)
            arcs[arc] = w
        elif kind == "r" and header:
            if len(toks) != 3:
                raise ParseError("request record must be `r s t`", lineno)
            s, t = _int_pair(toks, lineno, 3, header[0], header[0])
            if s == t:
                raise ParseError(f"request from {s} to itself", lineno, 3)
            requests.add((s - 1, t - 1))
        elif kind == "c":
            if len(toks) >= 2:
                meta[toks[1]] = " ".join(toks[2:])
        elif kind == "p":
            if header is not None:
                raise ParseError("duplicate header", lineno)
            if len(toks) != 6 or toks[1] != "dsn":
                raise ParseError("header must be `p dsn n m q p`", lineno)
            header = tuple(_int_field(t, lineno, i + 3, lo=0) for i, t in enumerate(toks[2:]))
            if header[0] > DSN_MAX_VERTICES:
                raise CapacityError(
                    f"header declares {header[0]} vertices; the cap is {DSN_MAX_VERTICES}"
                )
            if header[1] > DSN_MAX_ARCS:
                raise CapacityError(f"header declares {header[1]} arcs; the cap is {DSN_MAX_ARCS}")
        elif header is None:
            raise ParseError(f"record {kind!r} before the header", lineno)
        else:
            raise ParseError(f"unknown record kind {kind!r}", lineno)
    if header is None:
        raise ParseError("missing `p dsn` header", 1)
    n, m, q, p = header
    if len(arcs) != m:
        raise ParseError(f"header promises {m} arcs, file has {len(arcs)}", 1)
    if len(requests) != p:
        raise ParseError(f"header promises {p} requests, file has {len(requests)}", 1)
    inst = DsnInstance(WeightedDigraph(range(n), arcs), requests)
    if inst.q != q:
        raise ParseError(f"header promises {q} terminals, requests touch {inst.q}", 1)
    return inst, meta


def emit_dsn(inst: DsnInstance, meta: Metadata = None) -> str:
    verts = sorted(inst.host.vertices)
    index = {v: i + 1 for i, v in enumerate(verts)}
    lines: List[str] = []
    for key in sorted(meta or {}):
        lines.append(f"c {key} {meta[key]}".rstrip())
    lines.append(f"p dsn {len(verts)} {inst.host.m} {inst.q} {inst.p}")
    for (u, v), w in sorted(inst.host.arcs().items()):
        lines.append(f"a {index[u]} {index[v]} {w.numerator}/{w.denominator}")
    for s, t in inst.sorted_requests():
        lines.append(f"r {index[s]} {index[t]}")
    return "\n".join(lines) + "\n"


def parse_psi(text: str) -> Tuple[PsiInstance, Metadata]:
    meta: Metadata = {}
    header = None
    eg = set()
    eh = set()
    classmap: Dict[int, int] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        toks = raw.split()
        if not toks:
            continue
        kind = toks[0]
        # Records are tested in the order of their frequency in a file.
        if (kind == "eg" or kind == "eh") and header:
            if len(toks) != 3:
                raise ParseError(f"edge record must be `{kind} u v`", lineno)
            hi = nG if kind == "eg" else kH
            u, v = _int_pair(toks, lineno, 4, hi, hi)
            if u == v:
                raise ParseError(f"loop edge at {u}", lineno, 4)
            (eg if kind == "eg" else eh).add((u - 1, v - 1) if u < v else (v - 1, u - 1))
        elif kind == "map" and header:
            if len(toks) != 3:
                raise ParseError("class record must be `map u x`", lineno)
            u, x = _int_pair(toks, lineno, 5, nG, kH)
            if u - 1 in classmap:
                raise ParseError(f"vertex {u} mapped twice", lineno, 5)
            classmap[u - 1] = x - 1
        elif kind == "c":
            if len(toks) >= 2:
                meta[toks[1]] = " ".join(toks[2:])
        elif kind == "p":
            if header is not None:
                raise ParseError("duplicate header", lineno)
            if len(toks) != 6 or toks[1] != "psi":
                raise ParseError("header must be `p psi nG mG kH mH`", lineno)
            header = tuple(_int_field(t, lineno, i + 3, lo=0) for i, t in enumerate(toks[2:]))
            nG, mG, kH, mH = header
            # nG is bounded by the file, which must hold nG `map` records.
            if kH > nG:
                raise ParseError("pattern graph is larger than the host graph", lineno, 5)
        elif header is None:
            raise ParseError(f"record {kind!r} before the header", lineno)
        else:
            raise ParseError(f"unknown record kind {kind!r}", lineno)
    if header is None:
        raise ParseError("missing `p psi` header", 1)
    if len(eg) != mG:
        raise ParseError(f"header promises {mG} host edges, file has {len(eg)}", 1)
    if len(eh) != mH:
        raise ParseError(f"header promises {mH} pattern edges, file has {len(eh)}", 1)
    if len(classmap) != nG:
        raise ParseError(f"{nG - len(classmap)} host vertices lack a class", 1)
    psi = PsiInstance(UndirectedGraph(range(nG), eg), UndirectedGraph(range(kH), eh), classmap)
    return psi, meta


def emit_psi(psi: PsiInstance, meta: Metadata = None) -> str:
    lines: List[str] = []
    for key in sorted(meta or {}):
        lines.append(f"c {key} {meta[key]}".rstrip())
    g, h = psi.hostG, psi.patternH
    lines.append(f"p psi {g.n} {g.m} {h.n} {h.m}")
    for u, v in sorted(g.edges):
        lines.append(f"eg {u + 1} {v + 1}")
    for u, v in sorted(h.edges):
        lines.append(f"eh {u + 1} {v + 1}")
    for u in sorted(psi.classmap):
        lines.append(f"map {u + 1} {psi.classmap[u] + 1}")
    return "\n".join(lines) + "\n"
