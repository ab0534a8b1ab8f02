import fractions
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dsnkit import formats
from dsnkit.errors import CapacityError, ParseError
from dsnkit.formats import emit_dsn, emit_psi, parse_dsn, parse_psi
from dsnkit.generators import gen_ladder

from conftest import K4, K33, random_instances, random_psi_host

MINIMAL = """\
c name tiny
p dsn 3 2 2 1
a 1 2 3/2
a 2 3 1
r 1 3
"""


class TestDsnFormat:
    def test_minimal_parse(self):
        inst, meta = parse_dsn(MINIMAL)
        assert meta == {"name": "tiny"}
        assert inst.host.n == 3
        assert inst.host.arcs() == {(0, 1): Fraction(3, 2), (1, 2): Fraction(1)}
        assert inst.requests == frozenset({(0, 2)})

    def test_round_trip_is_identity_on_emitted_text(self):
        for inst in random_instances(15, base_seed=400):
            text = emit_dsn(inst, {"seed": "x"})
            inst2, meta2 = parse_dsn(text)
            assert emit_dsn(inst2, meta2) == text
            assert inst2.requests == inst.requests or inst.host.vertices != tuple(
                range(inst.host.n)
            )

    def test_round_trip_preserves_contiguous_instances(self):
        for inst in random_instances(15, base_seed=500):
            inst2, _ = parse_dsn(emit_dsn(inst))
            assert inst2.host.arcs() == inst.host.arcs()
            assert inst2.requests == inst.requests

    @pytest.mark.parametrize(
        "mutation, line, fragment",
        [
            (lambda t: t.replace("a 2 3 1", "a 1 2 1"), 4, "duplicate arc"),
            (lambda t: t.replace("a 2 3 1", "a 2 2 1"), 4, "loop arc"),
            (lambda t: t.replace("3/2", "0"), 3, "positive"),
            (lambda t: t.replace("3/2", "fast"), 3, "rational"),
            (lambda t: t.replace("r 1 3", "r 3 3"), 5, "itself"),
            (lambda t: t.replace("a 1 2 3/2\n", ""), 1, "promises 2 arcs"),
            # Requests are a set, so a repeated `r` line counts once.
            (lambda t: t.replace("2 2 1", "2 2 2") + "r 1 3\n", 1, "promises 2 requests, file has 1"),
            (lambda t: t.replace("p dsn 3 2 2 1", "p dsn 3 2 3 1"), 1, "terminals"),
            (lambda t: t.replace("p dsn 3 2 2 1\n", ""), 2, "before the header"),
            (lambda t: t.replace("r 1 3", "z 1 3"), 5, "unknown record"),
            (lambda t: t + "p dsn 1 0 0 0\n", 6, "duplicate header"),
            (lambda t: t.replace("a 1 2", "a 1 9"), 3, "above maximum"),
        ],
    )
    def test_parse_errors_carry_line_numbers(self, mutation, line, fragment):
        with pytest.raises(ParseError, match=fragment) as info:
            parse_dsn(mutation(MINIMAL))
        assert info.value.line == line

    @pytest.mark.parametrize(
        "line, record, message",
        [
            (2, "a x 2 1", "line 2, column 3: expected an integer, got 'x'"),
            (2, "a 1 9 1", "line 2, column 5: value 9 above maximum 3"),
            (2, "a 1 2.0 1", "line 2, column 5: expected an integer, got '2.0'"),
            (2, "a 0 y 1", "line 2, column 3: value 0 below minimum 1"),
            (2, "a y 0 1", "line 2, column 3: expected an integer, got 'y'"),
            (2, "a 4 0 1", "line 2, column 3: value 4 above maximum 3"),
            (4, "r 4 3", "line 4, column 3: value 4 above maximum 3"),
            (4, "r 1 z", "line 4, column 5: expected an integer, got 'z'"),
            (4, "r -1 z", "line 4, column 3: value -1 below minimum 1"),
            (4, "r z -1", "line 4, column 3: expected an integer, got 'z'"),
        ],
    )
    def test_two_integer_fields_report_the_first_bad_one(self, line, record, message):
        """The whole message, with line and column, for each field of `a` and `r`."""
        lines = "p dsn 3 2 2 1\na 1 2 1\na 2 3 1\nr 1 3".splitlines()
        lines[line - 1] = record
        with pytest.raises(ParseError) as info:
            parse_dsn("\n".join(lines) + "\n")
        assert str(info.value) == message

    def test_empty_file_rejected(self):
        with pytest.raises(ParseError, match="missing"):
            parse_dsn("c only a comment\n")

    def test_emit_is_canonical(self):
        inst, _ = parse_dsn(MINIMAL)
        a = emit_dsn(inst, {"b": "2", "a": "1"})
        assert a.index("c a 1") < a.index("c b 2")
        assert a == emit_dsn(inst, {"a": "1", "b": "2"})


def weight_by_fraction(tok):
    """Reference: the weight parser that reads every token with
    `Fraction(tok)`, after rejecting a token of Fraction's own grammar whose
    decimal exponent is beyond 4300 in absolute value; the weight, or the
    ParseError message."""
    match = fractions._RATIONAL_FORMAT.match(tok)
    if match and match.group("exp") and abs(int(match.group("exp"))) > 4300:
        return f"line 3, column 7: weight exponent {match.group('exp')} is beyond 4300 in absolute value"
    try:
        w = Fraction(tok)
    except (ValueError, ZeroDivisionError):
        return f"line 3, column 7: expected a rational weight, got {tok!r}"
    if w <= 0:
        return f"line 3, column 7: weight must be positive, got {tok}"
    return w


def weight_or_message(tok):
    """The weight, an int when it is whole and a Fraction otherwise, or the
    ParseError message."""
    try:
        w = formats._weight_field(tok, 3, 7)
    except ParseError as exc:
        return str(exc)
    assert type(w) is (int if w.denominator == 1 else Fraction)
    return w


class TestWeightField:
    @pytest.mark.parametrize(
        "tok",
        ["1", "12", "3/2", "6/4", "0", "00", "0/5", "5/0", "0/0", "5/", "/5", "5//2", "007/010",
         "+5", "-5", "1/-2", "1_000", "1.5", "1e3", "٣", "²", "", "1" * 5000, "1/" + "2" * 5000,
         "1e4300", "1E+4301", "2.5e-4301", "-1e5000", "0e5000", "1e43_01", "..e5000", "1/2e5000",
         "1e5e9999", "0E 5000", "1e5000 ", " 1e5000"],
    )
    def test_matches_fraction_reference(self, tok):
        assert weight_or_message(tok) == weight_by_fraction(tok)

    @pytest.mark.parametrize("tok", ["1e4300", "1e-4300", "1e4301", "1e-4301", "1e400000000"])
    def test_exponent_bound_is_quick(self, tok):
        start = time.perf_counter()
        result = weight_or_message(tok)
        assert time.perf_counter() - start < 0.1
        assert (not isinstance(result, str)) == (tok in ("1e4300", "1e-4300"))

    def test_each_distinct_token_is_read_once(self, monkeypatch):
        read = []
        weight_field = formats._weight_field

        def counted(tok, lineno, col):
            read.append(tok)
            return weight_field(tok, lineno, col)

        monkeypatch.setattr(formats, "_weight_field", counted)
        inst, _ = parse_dsn("p dsn 4 5 2 1\na 1 2 1/1\na 2 3 1/1\na 3 4 3/2\na 1 3 1/1\na 2 4 3/2\nr 1 4\n")
        assert sorted(read) == ["1/1", "3/2"]
        assert inst.host.weight(2, 3) == Fraction(3, 2)

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet="0123456789/+-._eE٣² ", max_size=8))
    def test_matches_fraction_reference_on_drawn_tokens(self, tok):
        """[DERIVED: `Fraction(tok)` reference]"""
        assert weight_or_message(tok) == weight_by_fraction(tok)


# Emitted files that the fuzzer mutates: integer, fractional and unit weights.
FUZZ_SEEDS = [emit_dsn(inst, {"seed": "x"}) for inst in random_instances(4, base_seed=600)]
FUZZ_SEEDS += [MINIMAL, emit_dsn(*gen_ladder(4))]
FUZZ_TOKENS = st.one_of(
    st.sampled_from(["a", "r", "p", "c", "dsn", "psi", "0", "1", "2", "3", "-1", "1/2", "0/1", "1/0", "x"]),
    st.text(alphabet="0123456789/-.e", min_size=1, max_size=4),
)


PSI_FUZZ_SEEDS = [emit_psi(random_psi_host(K4, seed), {"pattern": "k4"}) for seed in range(3)]
PSI_FUZZ_SEEDS += [emit_psi(random_psi_host(K33, 0)), "p psi 2 1 2 1\neg 1 2\neh 1 2\nmap 1 1\nmap 2 2\n"]
PSI_FUZZ_TOKENS = st.one_of(
    st.sampled_from(["eg", "eh", "map", "p", "c", "psi", "dsn", "0", "1", "2", "3", "4", "9", "-1", "1/2", "x"]),
    st.text(alphabet="0123456789/-.e", min_size=1, max_size=4),
)


@st.composite
def mutated_files(draw, seeds=FUZZ_SEEDS, tokens=FUZZ_TOKENS):
    """An emitted file with a few tokens replaced, dropped or added and
    lines dropped, duplicated or swapped."""
    lines = [line.split() for line in draw(st.sampled_from(seeds)).splitlines()]
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(["replace", "drop-token", "add-token", "drop-line", "dup-line", "swap-lines"]))
        if op == "replace" and lines[i]:
            lines[i][draw(st.integers(0, len(lines[i]) - 1))] = draw(tokens)
        elif op == "drop-token" and lines[i]:
            del lines[i][draw(st.integers(0, len(lines[i]) - 1))]
        elif op == "add-token":
            lines[i].insert(draw(st.integers(0, len(lines[i]))), draw(tokens))
        elif op == "drop-line" and len(lines) > 1:
            del lines[i]
        elif op == "dup-line":
            lines.insert(i, list(lines[i]))
        elif op == "swap-lines":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
    return "".join(" ".join(line) + "\n" for line in lines)


class TestParserFuzz:
    @settings(max_examples=400, deadline=None)
    @given(mutated_files())
    def test_mutated_file_parses_or_raises_a_parse_error(self, text):
        try:
            inst, _ = parse_dsn(text)
        except (ParseError, CapacityError):
            return
        assert parse_dsn(emit_dsn(inst))[0] == inst

    @settings(max_examples=400, deadline=None)
    @given(mutated_files(PSI_FUZZ_SEEDS, PSI_FUZZ_TOKENS))
    def test_mutated_psi_file_parses_or_raises_a_parse_error(self, text):
        try:
            psi, meta = parse_psi(text)
        except (ParseError, CapacityError):
            return
        emitted = emit_psi(psi, meta)
        psi2, meta2 = parse_psi(emitted)
        assert (psi2.hostG, psi2.patternH, psi2.classmap, meta2) == (psi.hostG, psi.patternH, psi.classmap, meta)
        assert emit_psi(psi2, meta2) == emitted


class TestPsiFormat:
    def test_round_trip(self):
        for seed in range(6):
            psi = random_psi_host(K4, seed)
            text = emit_psi(psi, {"pattern": "k4"})
            psi2, meta = parse_psi(text)
            assert meta == {"pattern": "k4"}
            assert psi2.hostG.edges == psi.hostG.edges
            assert psi2.patternH.edges == psi.patternH.edges
            assert psi2.classmap == psi.classmap
            assert emit_psi(psi2, meta) == text

    def test_unmapped_vertex_rejected(self):
        text = "p psi 2 1 2 1\neg 1 2\neh 1 2\nmap 1 1\n"
        with pytest.raises(ParseError, match="lack a class"):
            parse_psi(text)

    def test_double_mapping_rejected(self):
        text = "p psi 2 1 2 1\neg 1 2\neh 1 2\nmap 1 1\nmap 1 2\n"
        with pytest.raises(ParseError, match="mapped twice") as info:
            parse_psi(text)
        assert info.value.line == 5

    @pytest.mark.parametrize(
        "line, record, message",
        [
            (2, "eg x 2", "line 2, column 4: expected an integer, got 'x'"),
            (2, "eg 1 4", "line 2, column 6: value 4 above maximum 3"),
            (2, "eg 0 x", "line 2, column 4: value 0 below minimum 1"),
            (2, "eg x 0", "line 2, column 4: expected an integer, got 'x'"),
            (4, "eh 3 1", "line 4, column 4: value 3 above maximum 2"),
            (4, "eh 1 y", "line 4, column 6: expected an integer, got 'y'"),
            (4, "eh 9 y", "line 4, column 4: value 9 above maximum 2"),
            (7, "map 3 3", "line 7, column 7: value 3 above maximum 2"),
            (7, "map 4 2", "line 7, column 5: value 4 above maximum 3"),
            (7, "map 3 1/2", "line 7, column 7: expected an integer, got '1/2'"),
            (7, "map 0 x", "line 7, column 5: value 0 below minimum 1"),
            (7, "map x 9", "line 7, column 5: expected an integer, got 'x'"),
        ],
    )
    def test_two_integer_fields_report_the_first_bad_one(self, line, record, message):
        """The whole message for `eg`, `eh` (bounded by nG and kH) and `map`
        (u bounded by nG, x by kH)."""
        lines = "p psi 3 2 2 1\neg 1 2\neg 2 3\neh 1 2\nmap 1 1\nmap 2 2\nmap 3 2".splitlines()
        lines[line - 1] = record
        with pytest.raises(ParseError) as info:
            parse_psi("\n".join(lines) + "\n")
        assert str(info.value) == message

    def test_pattern_edge_out_of_range(self):
        text = "p psi 2 1 2 1\neg 1 2\neh 1 3\nmap 1 1\nmap 2 2\n"
        with pytest.raises(ParseError, match="above maximum"):
            parse_psi(text)


PSI_MINIMAL = "p psi 2 1 2 1\neg 1 2\neh 1 2\nmap 1 1\nmap 2 2\n"


@pytest.mark.parametrize("parse, text", [(parse_dsn, MINIMAL), (parse_psi, PSI_MINIMAL)], ids=["dsn", "psi"])
def test_blank_lines_between_records_are_skipped(parse, text):
    """Empty and whitespace-only lines change neither the instance nor the
    line number an error reports."""
    spaced = "\n \t\n\n".join(text.splitlines()) + "\n"
    assert parse(spaced) == parse(text)
    with pytest.raises(ParseError, match="unknown record kind 'z'") as info:
        parse(spaced + "\n  \nz 1 2\n")
    assert info.value.line == 3 * len(text.splitlines()) + 1


def peak_bytes_of_failed_parse(parse, text, error, match):
    """Peak traced allocation while `parse(text)` raises `error`."""
    tracemalloc.start()
    try:
        with pytest.raises(error, match=match):
            parse(text)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestHeaderBounds:
    """Headers that claim 10^9 vertices are refused before any per-vertex
    structure exists."""

    def test_dsn_vertex_cap(self):
        text = "p dsn 1000000000 0 0 0\n"
        assert peak_bytes_of_failed_parse(parse_dsn, text, CapacityError, "cap") < 1 << 20

    def test_dsn_arc_cap(self, monkeypatch):
        text = "p dsn 3 1000000001 0 0\n"
        assert peak_bytes_of_failed_parse(parse_dsn, text, CapacityError, "1000000001 arcs; the cap") < 1 << 20
        monkeypatch.setattr(formats, "DSN_MAX_ARCS", 1)
        assert parse_dsn(MINIMAL.replace("p dsn 3 2", "p dsn 3 1").replace("a 2 3 1\n", ""))[0].host.m == 1
        with pytest.raises(CapacityError, match="2 arcs; the cap is 1"):
            parse_dsn(MINIMAL)

    def test_dsn_vertex_cap_boundary(self, monkeypatch):
        monkeypatch.setattr(formats, "DSN_MAX_VERTICES", 3)
        assert parse_dsn(MINIMAL)[0].host.n == 3
        with pytest.raises(CapacityError):
            parse_dsn(MINIMAL.replace("p dsn 3", "p dsn 4"))

    def test_psi_pattern_larger_than_host(self):
        text = "p psi 1 0 1000000000 0\nmap 1 1\n"
        peak = peak_bytes_of_failed_parse(parse_psi, text, ParseError, "larger than the host")
        assert peak < 1 << 20

    def test_psi_host_bounded_by_map_records(self):
        text = "p psi 1000000000 0 1000000000 0\nmap 1 1\n"
        peak = peak_bytes_of_failed_parse(parse_psi, text, ParseError, "lack a class")
        assert peak < 1 << 20
