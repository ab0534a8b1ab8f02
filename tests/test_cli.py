import argparse
import contextlib
import errno
import io
import itertools
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import dsnkit
from dsnkit import cli, reduction, solvers
from dsnkit.cli import main
from dsnkit.dsn import DsnInstance
from dsnkit.errors import InconsistencyError, InvariantError, ParseError
from dsnkit.formats import DSN_MAX_ARCS, DSN_MAX_VERTICES, emit_dsn, emit_psi, parse_dsn
from dsnkit.graphs import WeightedDigraph
from dsnkit.reduction import PsiInstance, generate_hardness_instance
from dsnkit.solvers import ENGINES, _finish

from conftest import K4, ladder_with_terminals

INFEASIBLE = "p dsn 3 1 2 1\na 1 2 1\nr 1 3\n"
LOOP = "p dsn 2 1 2 1\na 1 1 1\nr 1 2\n"


@pytest.fixture
def ladder_file(tmp_path):
    path = tmp_path / "ladder6.dsn"
    assert main(["gen", "ladder", "6", "-o", str(path)]) == 0
    return path


class TestGen:
    def test_ladder_is_byte_deterministic(self, tmp_path):
        a, b = tmp_path / "a.dsn", tmp_path / "b.dsn"
        assert main(["gen", "random", "8", "16", "3", "2", "--seed", "5", "-o", str(a)]) == 0
        assert main(["gen", "random", "8", "16", "3", "2", "--seed", "5", "-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_gen_json_summary(self, tmp_path, capsys):
        path = tmp_path / "g.dsn"
        assert main(["gen", "grid", "3", "3", "-o", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n"] == 9 and payload["q"] == 3

    @pytest.mark.parametrize("output", [[], ["-o", "-"]], ids=["default", "dash"])
    def test_json_with_instance_on_stdout_is_refused(self, monkeypatch, capsys, output):
        # The rule and the message are reduce's, and nothing is generated.
        monkeypatch.setattr(cli, "gen_ladder", lambda *args: pytest.fail("gen_ladder called"))
        assert main(["gen", "ladder", "3", *output, "--json"]) == 4
        assert capsys.readouterr() == ("", "error: -o - and --json both write to stdout; give -o a file\n")

    def test_oversized_generator_is_capacity_exit(self, tmp_path, capsys):
        path = tmp_path / "huge.dsn"
        assert main(["gen", "ladder", "1000000000", "-o", str(path)]) == 3
        assert "cap" in capsys.readouterr().err
        assert not path.exists()

    @pytest.mark.parametrize(
        "args,message",
        [
            (["grid", "0", "3"], "grid dimensions must be positive"),
            (["grid", "2", "2", "--q", "5"], "need 2 <= q <= 4 terminals"),
            (["random", "1", "0", "1", "1"], "need at least 2 vertices"),
            (["random", "3", "7", "2", "1"], "need 0 <= m <= 6 arcs"),
            (["random", "3", "2", "4", "1"], "need 2 <= q <= 3 terminals"),
            (["random", "3", "2", "2", "0"], "need 1 <= p <= 2 requests"),
        ],
        ids=["grid-empty", "grid-q", "random-n", "random-m", "random-q", "random-p"],
    )
    def test_generator_argument_out_of_range_is_input_error(self, tmp_path, capsys, args, message):
        path = tmp_path / "out.dsn"
        assert main(["gen", *args, "-o", str(path)]) == 4
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not path.exists()

    def test_random_arc_count_over_cap_is_capacity_exit(self, tmp_path, capsys):
        path = tmp_path / "dense.dsn"
        start = time.perf_counter()
        assert main(["gen", "random", "100000", "9999900000", "2", "1", "-o", str(path)]) == 3
        assert time.perf_counter() - start < 1
        assert "9999900000 arcs requested; the cap is 1000000" in capsys.readouterr().err
        assert not path.exists()


class TestUsageErrors:
    """argparse's own usage errors exit 2, which here means "infeasible"; the
    CLI's parser exits 4, the input-error code, with the same stderr text."""

    @pytest.mark.parametrize(
        "argv,prog,message",
        [
            (["solve"], "dsnkit solve", "the following arguments are required: file"),
            (["solve", "x.dsn", "--engine", "nope"], "dsnkit solve", "argument --engine: invalid choice: 'nope'"),
            (["gen", "ladder", "x"], "dsnkit gen ladder", "argument n: invalid int value: 'x'"),
            (["gen", "grid", "2", "2", "--q", "x"], "dsnkit gen grid", "argument --q: invalid int value: 'x'"),
            (["nope"], "dsnkit", "argument command: invalid choice: 'nope'"),
            # A command's own parser leaves these over; the full parser reports them.
            (["solve", "x.dsn", "--bogus"], "dsnkit", "unrecognized arguments: --bogus"),
            (["gen", "ladder", "4", "extra"], "dsnkit", "unrecognized arguments: extra"),
            # The genus comes only from the file's `c genus` line.
            (["analyze", "f.dsn", "--genus", "2"], "dsnkit", "unrecognized arguments: --genus 2"),
            ([], "dsnkit", "the following arguments are required: command"),
        ],
        ids=["missing-file", "unknown-engine", "non-integer-n", "non-integer-q", "unknown-command",
             "unknown-option", "extra-argument", "genus-option", "no-command"],
    )
    def test_usage_error_exits_4(self, capsys, argv, prog, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"usage: {prog} ")
        assert err.splitlines()[-1].startswith(f"{prog}: error: {message}")

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: dsnkit solve ")

    def test_top_level_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: dsnkit ")


class TestDirectParse:
    """solve, analyze and reduce parse a plain argv without argparse; the
    namespace must be the one argparse builds, and every other argv must be
    left to argparse."""

    @pytest.mark.parametrize("name", ["solve", "analyze", "reduce"])
    def test_direct_parse_equals_argparse(self, name):
        parser = cli.build_parser()
        table = parser.direct[name]
        actions = table[1]
        value_options = [(s, a) for s, a in actions.items() if s.startswith("--") and a.nargs is None]
        alphabet = list(dict.fromkeys([
            *actions, *(c for a in actions.values() for c in a.choices or ()), "nope", "a.dsn", "b.psi",
            "-", "--", "", "-1", "-h", "--js", "--bogus",
            *(f"{s}={(a.choices or ['o.dsn'])[0]}" for s, a in value_options),
        ]))
        accepted = 0
        for length in range(5):
            for argv in itertools.product(alphabet, repeat=length):
                direct = cli._parse_direct(*table, argv)
                if direct is None:
                    continue
                accepted += 1
                try:
                    args, rest = parser.parse_known_args([name, *argv])
                except SystemExit:
                    pytest.fail(f"argparse refuses {argv}")
                del args.command
                assert (args, rest) == (direct, []), argv
        assert accepted > 0

    @pytest.mark.parametrize(
        "command, options",
        [("solve", ["--engine", "bnb", "--json"]), ("analyze", ["--json"]), ("reduce", ["--decide", "--json"])],
        ids=["solve", "analyze", "reduce"],
    )
    def test_workload_forms_take_the_direct_path(self, ladder_file, tmp_path, monkeypatch, capsys, command, options):
        psi_path = tmp_path / "k4.psi"
        psi_path.write_text(emit_psi(PsiInstance(K4, K4, {i: i for i in range(4)})))
        argv = [command, str(psi_path if command == "reduce" else ladder_file), *options]
        assert main(argv) == 0
        plain = capsys.readouterr()

        def refuse(*args, **kwargs):
            raise AssertionError("argparse parsed a workload argv")

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", refuse)
        assert main(argv) == 0
        direct = capsys.readouterr()
        wall_time = re.compile(r'"wall_time_s": [^,\n}]+')
        assert wall_time.sub("", direct.out) == wall_time.sub("", plain.out)
        assert direct.err == plain.err


class TestSolve:
    def test_oversized_header_is_capacity_exit(self, tmp_path):
        path = tmp_path / "huge.dsn"
        path.write_text("p dsn 1000000000 0 0 0\n")
        assert main(["solve", str(path)]) == 3

    def test_solve_ladder(self, ladder_file, capsys):
        assert main(["solve", str(ladder_file), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["feasible"] is True
        assert payload["cost"] == [16, 1]

    def test_engines_agree(self, ladder_file, capsys):
        costs = set()
        for engine in ("bnb", "exhaustive"):
            assert main(["solve", str(ladder_file), "--engine", engine, "--json"]) == 0
            costs.add(tuple(json.loads(capsys.readouterr().out)["cost"]))
        assert len(costs) == 1

    def test_infeasible_exit_code(self, tmp_path, capsys):
        path = tmp_path / "inf.dsn"
        path.write_text(INFEASIBLE)
        assert main(["solve", str(path)]) == 2
        assert "infeasible" in capsys.readouterr().out

    def test_parse_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "loop.dsn"
        path.write_text(LOOP)
        assert main(["solve", str(path)]) == 4
        assert "loop arc" in capsys.readouterr().err

    def test_dst_on_cycle_request_is_domain_error(self, ladder_file, capsys):
        assert main(["solve", str(ladder_file), "--engine", "dst"]) == 4
        assert "solve_bnb" in capsys.readouterr().err

    def test_dst_over_the_leaf_cap_is_capacity_exit(self, tmp_path, capsys):
        leaves = solvers.DST_MAX_LEAVES + 1
        path = tmp_path / "star.dsn"
        path.write_text(emit_dsn(DsnInstance(
            WeightedDigraph(range(leaves + 1), {(0, t): 1 for t in range(1, leaves + 1)}),
            {(0, t) for t in range(1, leaves + 1)},
        )))
        assert main(["solve", str(path), "--engine", "dst"]) == 3
        assert capsys.readouterr() == ("", f"error: {leaves} leaves; out-star cap is {solvers.DST_MAX_LEAVES}\n")

    @pytest.mark.parametrize(
        "error,code",
        [
            (InvariantError("self-check failed"), 5),
            (InconsistencyError("self-check failed"), 5),
            (ParseError("bad token", 1), 4),
        ],
        ids=["invariant", "inconsistency", "parse"],
    )
    def test_toolkit_bug_exit_code(self, ladder_file, monkeypatch, capsys, error, code):
        def broken(inst):
            raise error

        monkeypatch.setitem(cli.ENGINES, "bnb", broken)
        assert main(["solve", str(ladder_file)]) == code
        assert str(error) in capsys.readouterr().err

    def test_engine_result_violating_a_request_is_a_bug(self, ladder_file, monkeypatch, capsys):
        monkeypatch.setitem(cli.ENGINES, "bnb", lambda inst: _finish(inst, set(), 0, "bnb"))
        assert main(["solve", str(ladder_file), "--engine", "bnb"]) == 5
        assert "bnb solution violates request" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "analyze", "reduce"])
    def test_toolkit_bug_prints_the_instance(self, ladder_file, tmp_path, monkeypatch, capsys, command):
        monkeypatch.setitem(cli.ENGINES, "bnb", lambda inst: _finish(inst, set(), 0, "bnb"))
        if command == "reduce":
            psi = PsiInstance(K4, K4, {i: i for i in range(4)})
            path = tmp_path / "k4.psi"
            path.write_text(emit_psi(psi))
            broken = lambda inst, *_: _finish(inst, set(), 0, "exhaustive")  # noqa: E731
            monkeypatch.setattr(reduction, "_solve_path_union", broken)
            argv, expected = ["reduce", str(path), "--decide"], generate_hardness_instance(psi).dsn
        else:
            argv = [command, str(ladder_file), "--engine", "bnb"]
            expected = parse_dsn(ladder_file.read_text())[0]
        assert main(argv) == 5
        first, text = capsys.readouterr().err.split("\n", 1)
        assert first.startswith("internal error: ") and "solution violates request" in first
        assert text == emit_dsn(expected)
        assert parse_dsn(text)[0] == expected

    @pytest.mark.parametrize("command", ["reduce", "gen", "bench"])
    def test_toolkit_bug_without_an_instance_prints_no_reproducer(self, tmp_path, monkeypatch, capsys, command):
        # reduce fails in its labelling, before `build_dsn` returns; gen and
        # bench never hand over an instance.
        def broken(*args):
            raise InvariantError("self-check failed")

        if command == "reduce":
            path = tmp_path / "k4.psi"
            path.write_text(emit_psi(PsiInstance(K4, K4, {i: i for i in range(4)})))
            monkeypatch.setattr(reduction, "check_labelling", lambda h, lab: "a violation")
            argv, message = ["reduce", str(path), "--decide"], "labelling condition violated: a violation"
        else:
            monkeypatch.setattr(cli, "gen_ladder" if command == "gen" else "solve_bnb", broken)
            argv, message = (["gen", "ladder", "4"] if command == "gen" else ["bench"]), "self-check failed"
        assert main(argv) == 5
        assert capsys.readouterr() == ("", f"internal error: {message}\n")

    def test_bnb_self_check_prints_the_instance(self, tmp_path, unsound_bnb_bound, capsys):
        path = tmp_path / "two_routes.dsn"
        path.write_text(emit_dsn(unsound_bnb_bound))
        assert main(["solve", str(path), "--engine", "bnb"]) == 5
        first, text = capsys.readouterr().err.split("\n", 1)
        assert first.startswith("internal error: ") and "no undecided arc" in first
        assert text == emit_dsn(unsound_bnb_bound)

    def test_bnb_on_path_longer_than_the_recursion_limit(self, tmp_path, capsys):
        m = sys.getrecursionlimit() + 1
        g = WeightedDigraph(range(m + 1), {(i, i + 1): 1 for i in range(m)})
        path = tmp_path / "long.dsn"
        path.write_text(emit_dsn(DsnInstance(g, {(0, m)})))
        assert main(["solve", str(path), "--engine", "bnb", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cost"] == [m, 1] and len(payload["arcs"]) == m

    def test_parser_built_once(self):
        assert cli.build_parser() is cli.build_parser()


class TestAnalyze:
    def test_analyze_json(self, ladder_file, capsys):
        assert main(["analyze", str(ladder_file), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["solve"]["feasible"] is True
        cert = payload["certificate"]
        assert cert["flagged"] is False
        assert cert["treewidth_solution"] <= 4 * cert["q"]

    def test_analyze_identified_first_rung(self, tmp_path, capsys):
        path = tmp_path / "ladder8_ident1.dsn"
        path.write_text(emit_dsn(ladder_with_terminals(8, {1})))
        assert main(["analyze", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["certificate"]["report"]["replacements"] >= 1

    def test_non_integer_genus_is_input_error(self, ladder_file, tmp_path, capsys):
        path = tmp_path / "genus.dsn"
        path.write_text(ladder_file.read_text() + "c genus abc\n")
        assert main(["analyze", str(path)]) == 4
        assert capsys.readouterr().err == "error: genus must be an integer, got 'abc'\n"

    def test_genus_from_the_file(self, ladder_file, tmp_path, capsys):
        path = tmp_path / "genus.dsn"
        path.write_text(ladder_file.read_text() + "c genus 3\n")
        assert main(["analyze", str(path), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["certificate"]["declared_genus"] == 3

    def test_negative_genus_is_input_error(self, ladder_file, tmp_path, capsys):
        path = tmp_path / "genus.dsn"
        path.write_text(ladder_file.read_text() + "c genus -2\n")
        assert main(["analyze", str(path)]) == 4
        assert capsys.readouterr() == ("", "error: genus must be non-negative, got -2\n")

    @pytest.fixture
    def no_requests_file(self, tmp_path):
        path = tmp_path / "no_requests.dsn"
        path.write_text(emit_dsn(DsnInstance(WeightedDigraph(range(2), {(0, 1): 1}), set())))
        return path

    def test_analyze_without_requests(self, no_requests_file, capsys):
        assert main(["analyze", str(no_requests_file)]) == 0
        assert capsys.readouterr().out == "cost 0; no requests, no certificate\n"

    def test_analyze_json_without_requests(self, no_requests_file, capsys):
        assert main(["analyze", str(no_requests_file), "--json"]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out)
        assert list(payload) == ["solve", "certificate", "wall_time_s"]
        assert payload["solve"]["feasible"] is True and payload["solve"]["cost"] == [0, 1]
        assert payload["certificate"] is None
        assert out == cli._indented_json(payload) + "\n"

    def test_analyze_json_infeasible(self, tmp_path, capsys):
        path = tmp_path / "inf.dsn"
        path.write_text(INFEASIBLE)
        assert main(["analyze", str(path), "--json"]) == 2
        out = capsys.readouterr().out
        payload = json.loads(out)
        assert list(payload) == ["solve", "certificate", "wall_time_s"]
        assert payload["solve"]["feasible"] is False and payload["certificate"] is None
        assert out == cli._indented_json(payload) + "\n"
        assert main(["analyze", str(path)]) == 2
        assert capsys.readouterr().out == "infeasible\n"

    def test_analyze_json_disconnected_solution(self, tmp_path, capsys):
        path = tmp_path / "two.dsn"
        path.write_text("p dsn 4 2 4 2\na 1 2 1\na 3 4 1\nr 1 2\nr 3 4\n")
        assert main(["analyze", str(path), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)["certificate"]["report"]
        assert report["diameter_after"] is None
        assert report["bounds"]["diameter"] is None

    def test_analyze_long_out_star_path(self, tmp_path, capsys):
        m = 400
        g = WeightedDigraph(range(m + 1), {(i, i + 1): 1 for i in range(m)})
        path = tmp_path / "long.dsn"
        path.write_text(emit_dsn(DsnInstance(g, {(0, m)})))
        assert main(["analyze", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["solve"]["method"] == "dst" and payload["solve"]["cost"] == [m, 1]


    def test_analyze_long_path_is_fast(self, tmp_path, capsys):
        # Suppression and the minimality check are linear in the path.
        m = 2_400
        g = WeightedDigraph(range(m + 1), {(i, i + 1): 1 for i in range(m)})
        path = tmp_path / "long.dsn"
        path.write_text(emit_dsn(DsnInstance(g, {(0, m)})))
        start = time.perf_counter()
        assert main(["analyze", str(path), "--json"]) == 0
        assert time.perf_counter() - start < 1.0
        report = json.loads(capsys.readouterr().out)["certificate"]["report"]
        assert report["vertices_after"] == 2


class TestReduce:
    def test_reduce_decides_and_writes(self, tmp_path, capsys):
        psi_path = tmp_path / "k4.psi"
        out_path = tmp_path / "k4.dsn"
        psi = PsiInstance(K4, K4, {i: i for i in range(4)})
        psi_path.write_text(emit_psi(psi))
        code = main(
            ["reduce", str(psi_path), "-o", str(out_path), "--decide", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["threshold"] == 26
        assert payload["decision"] is True
        assert "p dsn 21 26" in out_path.read_text()
        assert main(["solve", str(out_path), "--engine", "bnb", "--json"]) == 0
        solved = json.loads(capsys.readouterr().out)
        assert solved["cost"] == [26, 1]

    def test_output_file_equals_printed_instance(self, tmp_path, capsys):
        psi_path = tmp_path / "k4.psi"
        out_path = tmp_path / "k4.dsn"
        psi_path.write_text(emit_psi(PsiInstance(K4, K4, {i: i for i in range(4)})))
        assert main(["reduce", str(psi_path), "--decide"]) == 0
        plain = capsys.readouterr()
        assert plain.out.endswith("yes\n") and plain.err == "c threshold 26\n"
        assert main(["reduce", str(psi_path), "-o", str(out_path), "--decide"]) == 0
        written = capsys.readouterr()
        assert written.out == "yes\n" and written.err == plain.err
        assert out_path.read_text() + "yes\n" == plain.out
        assert main(["reduce", str(psi_path), "-o", str(out_path), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["threshold"] == 26
        assert out_path.read_text() + "yes\n" == plain.out

    def test_json_with_instance_on_stdout_is_refused(self, tmp_path, capsys):
        # Both would go to stdout, and the report would not parse as JSON.  The
        # refusal comes before the file is read, so a missing file still gives it.
        for psi_path in (tmp_path / "missing.psi", tmp_path / "k4.psi"):
            assert main(["reduce", str(psi_path), "-o", "-", "--json", "--decide"]) == 4
            out, err = capsys.readouterr()
            assert out == ""
            assert err == "error: -o - and --json both write to stdout; give -o a file\n"
            psi_path.write_text(emit_psi(PsiInstance(K4, K4, {i: i for i in range(4)})))

    @pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
    def test_pattern_not_3_regular_is_one_warning_line(self, tmp_path, capsys, flags):
        # The library's UserWarning, with its source file and line, is not shown.
        psi_path = tmp_path / "k2.psi"
        psi_path.write_text("p psi 2 1 2 1\neg 1 2\neh 1 2\nmap 1 1\nmap 2 2\n")
        assert main(["reduce", str(psi_path), "--decide", *flags]) == 0
        out, err = capsys.readouterr()
        note = "warning: pattern graph is not 3-regular; size bounds still hold\n"
        assert err == note + ("" if flags else "c threshold 7\n")
        if flags:
            assert json.loads(out)["decision"] is True
        else:
            assert out.endswith("yes\n")

    @pytest.mark.parametrize(
        "text,message",
        [
            ("p psi 2 1 2 1\neg 1 1\neh 1 2\nmap 1 1\nmap 2 2\n", "line 2, column 4: loop edge at 1"),
            ("p psi 2 1 2 1\neg 1 2\neh 2 2\nmap 1 1\nmap 2 2\n", "line 3, column 4: loop edge at 2"),
            ("c only\nc comments\n", "line 1, column 1: missing `p psi` header"),
        ],
        ids=["host-loop", "pattern-loop", "no-header"],
    )
    def test_psi_parse_error_is_input_error(self, tmp_path, capsys, text, message):
        psi_path = tmp_path / "bad.psi"
        psi_path.write_text(text)
        assert main(["reduce", str(psi_path)]) == 4
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_json_without_output_emits_no_instance(self, tmp_path, monkeypatch, capsys):
        psi_path = tmp_path / "k4.psi"
        psi_path.write_text(emit_psi(PsiInstance(K4, K4, {i: i for i in range(4)})))

        def unused(inst, meta=None):
            raise AssertionError("emit_dsn called")

        monkeypatch.setattr(cli, "emit_dsn", unused)
        assert main(["reduce", str(psi_path), "--decide", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["threshold"] == 26 and payload["decision"] is True

    @pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
    @pytest.mark.parametrize("command", ["gen", "reduce"])
    def test_empty_output_path_is_input_error(self, tmp_path, monkeypatch, capsys, command, flags):
        # `-o ''` names a path that cannot be written, not a missing -o.
        monkeypatch.chdir(tmp_path)
        if command == "gen":
            argv = ["gen", "ladder", "3"]
        else:
            Path("k4.psi").write_text(emit_psi(PsiInstance(K4, K4, {i: i for i in range(4)})))
            argv = ["reduce", "k4.psi", "--decide"]
        assert main([*argv, "-o", "", *flags]) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: cannot write : ") and err.count("\n") == 1
        assert sorted(os.listdir()) == (["k4.psi"] if command == "reduce" else [])


@pytest.mark.parametrize("kind", ["missing", "directory", "non-utf8"])
def test_unreadable_input_is_input_error(tmp_path, capsys, kind):
    path = tmp_path / "input"
    if kind == "directory":
        path.mkdir()
    elif kind == "non-utf8":
        path.write_bytes(b"c name \xff\xfe\np dsn 1 0 0 0\n")
    for command in ("solve", "analyze", "reduce"):
        assert main([command, str(path)]) == 4
        assert capsys.readouterr().err.startswith(f"error: cannot read {path}: ")


@pytest.mark.parametrize(
    "data",
    [b"c name \xff\np dsn 1 0 0 0\n", b"c x\np dsn 1 0 0 0\n\xe2\x82", b"c pad\r\n" * 3000 + b"c \xc0\x80\n"],
    ids=["invalid-start", "truncated-at-end", "past-the-first-block"],
)
def test_non_utf8_message_matches_the_text_reader(tmp_path, capsys, data):
    path = tmp_path / "input.dsn"
    path.write_bytes(data)
    with pytest.raises(UnicodeDecodeError) as info:
        with open(path, encoding="utf-8") as fh:
            fh.read()
    assert main(["solve", str(path)]) == 4
    assert capsys.readouterr().err == f"error: cannot read {path}: {info.value}\n"


class _FailingStream(io.StringIO):
    """A stdout or stderr whose `write` or `flush` raises `exc`."""

    def __init__(self, method, exc):
        super().__init__()
        self.method, self.exc = method, exc

    def write(self, text):
        if self.method == "write":
            raise self.exc
        return super().write(text)

    def flush(self):
        if self.method == "flush":
            raise self.exc


@pytest.mark.parametrize("method", ["write", "flush"])
@pytest.mark.parametrize(
    "exc",
    [BrokenPipeError(errno.EPIPE, "Broken pipe"), OSError(errno.ENOSPC, "No space left on device")],
    ids=["broken-pipe", "disk-full"],
)
def test_failed_stdout_write_is_input_error(monkeypatch, capsys, method, exc):
    monkeypatch.setattr(sys, "stdout", _FailingStream(method, exc))
    assert main(["gen", "ladder", "4"]) == 4
    assert capsys.readouterr().err == f"error: cannot write stdout: {exc}\n"


@pytest.mark.parametrize("rungs", ["3", "3000"], ids=["held-in-the-buffer", "past-the-buffer"])
@pytest.mark.parametrize("flags", [[], ["-u"]], ids=["buffered", "unbuffered"])
def test_failed_stdout_write_in_a_process(flags, rungs):
    # A buffered stdout fails at main's flush, and the interpreter flushes it
    # once more at exit; either way the one error line and exit 4 must be all.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(SRC)
    argv = [sys.executable, *flags, "-m", "dsnkit.cli", "gen", "ladder", rungs]
    read_end, write_end = os.pipe()
    os.close(read_end)
    with os.fdopen(write_end, "wb") as closed_pipe:
        run = subprocess.run(argv, env=env, stdout=closed_pipe, stderr=subprocess.PIPE, text=True)
    assert (run.returncode, run.stderr) == (4, "error: cannot write stdout: [Errno 32] Broken pipe\n")
    if os.path.exists("/dev/full"):
        with open("/dev/full", "wb") as full:
            run = subprocess.run(argv, env=env, stdout=full, stderr=subprocess.PIPE, text=True)
        assert (run.returncode, run.stderr) == (4, "error: cannot write stdout: [Errno 28] No space left on device\n")


@pytest.mark.parametrize("method", ["write", "flush"])
@pytest.mark.parametrize(
    "argv,code",
    [(["solve", "missing.dsn"], 4), (["gen", "ladder", "1000000000", "-o", "x.dsn"], 3)],
    ids=["input-error", "capacity-error"],
)
def test_failed_stderr_write_keeps_the_exit_code(monkeypatch, capsys, tmp_path, method, argv, code):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "stderr", _FailingStream(method, OSError(errno.ENOSPC, "No space left on device")))
    assert main(argv) == code
    assert capsys.readouterr().out == ""


def test_failed_stderr_write_keeps_stdout(monkeypatch, capsys, tmp_path):
    # reduce's text mode writes the instance to stdout and the threshold to stderr.
    psi_path = tmp_path / "k4.psi"
    psi_path.write_text(emit_psi(PsiInstance(K4, K4, {i: i for i in range(4)})))
    assert main(["reduce", str(psi_path)]) == 0
    instance = capsys.readouterr().out
    monkeypatch.setattr(sys, "stderr", _FailingStream("write", BrokenPipeError(errno.EPIPE, "Broken pipe")))
    assert main(["reduce", str(psi_path)]) == 4
    assert capsys.readouterr().out == instance


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("flags", [[], ["-u"]], ids=["buffered", "unbuffered"])
def test_failed_stderr_write_in_a_process(tmp_path, flags):
    # Nothing can be reported on a stderr that fails, but each run still ends
    # in its documented exit code, and a stdout that works keeps its output.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(SRC)
    (tmp_path / "k4.psi").write_text(emit_psi(PsiInstance(K4, K4, {i: i for i in range(4)})))
    cases = [  # argv, the streams that fail, exit code
        (["solve", "missing.dsn"], "stderr", 4),
        (["gen", "ladder", "3"], "stdout stderr", 4),
        (["reduce", "k4.psi"], "stderr", 4),
        (["gen", "ladder", "1000000000", "-o", "x.dsn"], "stderr", 3),
        (["solve"], "stderr", 4),
        (["--help"], "stdout", 0),
    ]
    codes, outputs = [], {}
    with open("/dev/full", "wb") as full:
        for argv, failing, _ in cases:
            streams = {name: full if name in failing else subprocess.PIPE for name in ("stdout", "stderr")}
            run = subprocess.run([sys.executable, *flags, "-m", "dsnkit.cli", *argv], env=env, cwd=tmp_path, **streams)
            codes.append(run.returncode)
            outputs[argv[0]] = run.stdout
    assert codes == [code for *_, code in cases]
    assert outputs["reduce"] == emit_dsn(
        generate_hardness_instance(PsiInstance(K4, K4, {i: i for i in range(4)})).dsn,
        {"generator": "hardness-reduction", "threshold": "26", "k": "4"},
    ).encode()


def _print_message_without_a_guard(self, message, file=None):
    """argparse's `_print_message` as early 3.11 releases have it: a failed write raises."""
    if message:
        if file is None:
            file = sys.stderr
        file.write(message)


@pytest.mark.parametrize(
    "argv, failing, code",
    [
        (["solve"], "stderr", 4),
        (["solve", "x.dsn", "--bogus"], "stderr", 4),
        (["--help"], "stdout", 0),
        (["gen", "ladder", "--help"], "stdout", 0),
    ],
    ids=["usage-error", "left-over-argument", "help", "subcommand-help"],
)
def test_unwritable_usage_or_help_exits_as_in_python_3_11(monkeypatch, argv, failing, code):
    # Under an argparse without the guard the OSError of the failed write escaped `main`.
    monkeypatch.setattr(argparse.ArgumentParser, "_print_message", _print_message_without_a_guard)
    monkeypatch.setattr(sys, failing, _FailingStream("write", OSError(errno.ENOSPC, "No space left on device")))
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == code


@pytest.mark.parametrize("command", ["gen", "reduce"])
def test_unwritable_output_is_input_error(tmp_path, capsys, command):
    out = tmp_path / "missing" / "x.dsn"
    if command == "gen":
        argv = ["gen", "ladder", "6", "-o", str(out)]
    else:
        psi_path = tmp_path / "k4.psi"
        psi_path.write_text(emit_psi(PsiInstance(K4, K4, {i: i for i in range(4)})))
        argv = ["reduce", str(psi_path), "-o", str(out)]
    assert main(argv) == 4
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}: ") and err.count("\n") == 1


# A size is at most 30 or past its cap, never in between, so no run builds a
# large instance; the rest are negative and non-integer tokens.
FUZZ_VALUES = st.sampled_from(
    [str(i) for i in range(-3, 31)]
    + [str(DSN_MAX_VERTICES + 1), str(DSN_MAX_ARCS + 1), str(10**30), "x", "1.5", "", "1e3"]
)
# Each command's number of positionals and its own options.
FUZZ_COMMANDS = {
    "solve": (1, ["--engine", "--json"]),
    "analyze": (1, ["--engine", "--json"]),
    "reduce": (1, ["-o", "--decide", "--json"]),
    "gen ladder": (1, ["--identify", "-o", "--json"]),
    "gen grid": (2, ["--q", "--seed", "-o", "--json"]),
    "gen random": (4, ["--seed", "-o", "--json"]),
}


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """A .dsn, a .psi, an empty file, a non-UTF-8 file and a directory."""
    root = tmp_path_factory.mktemp("fuzz")
    (root / "small.dsn").write_text(emit_dsn(ladder_with_terminals(3)))
    (root / "k4.psi").write_text(emit_psi(PsiInstance(K4, K4, {i: i for i in range(4)})))
    (root / "empty").write_text("")
    (root / "latin1").write_bytes(b"c \xff\np dsn 1 0 0 0\n")
    (root / "dir").mkdir()
    return root


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_fuzzed_argv_exits_with_a_documented_code(fuzz_dir, data):
    files = [str(fuzz_dir / name) for name in ("small.dsn", "k4.psi", "empty", "latin1", "dir", "missing")] + ["-"]
    outputs = ["-", str(fuzz_dir / "out.dsn"), str(fuzz_dir / "missing" / "out.dsn"), str(fuzz_dir / "dir")]
    values = {
        "--engine": st.sampled_from(["auto", "nope", *ENGINES]),
        "-o": st.sampled_from(outputs),
        "--q": FUZZ_VALUES,
        "--seed": FUZZ_VALUES,
        "--identify": st.lists(FUZZ_VALUES, max_size=3).map(" ".join),
    }
    command = data.draw(st.sampled_from(sorted(FUZZ_COMMANDS)), label="command")
    count, options = FUZZ_COMMANDS[command]
    # One positional in four goes missing.
    count -= data.draw(st.sampled_from([0, 0, 0, 1]), label="missing")
    positional = st.sampled_from(files) if command in ("solve", "analyze", "reduce") else FUZZ_VALUES
    argv = command.split() + [data.draw(positional) for _ in range(count)]
    for option in data.draw(st.lists(st.sampled_from(options + ["--bogus"]), max_size=3), label="options"):
        argv.append(option)
        if option in values:
            argv += data.draw(values[option]).split()
    stdin = data.draw(st.sampled_from([(fuzz_dir / "small.dsn").read_text(), (fuzz_dir / "k4.psi").read_text(), ""]))
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as m:
        m.setattr(sys, "stdin", io.StringIO(stdin))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    assert code in range(6), argv
    assert "Traceback" not in err.getvalue(), argv


SRC = Path(dsnkit.__file__).resolve().parent.parent


def test_every_module_imports_only_the_standard_library():
    # dsnkit has no runtime dependency: in a fresh interpreter, importing
    # every one of its modules loads nothing from outside the standard
    # library.
    code = (
        "import importlib, json, pkgutil, sys\n"
        "before = set(sys.modules)\n"
        "import dsnkit\n"
        "names = sorted(m.name for m in pkgutil.iter_modules(dsnkit.__path__))\n"
        "for name in names:\n"
        "    importlib.import_module('dsnkit.' + name)\n"
        "loaded = {m.split('.')[0] for m in set(sys.modules) - before}\n"
        "print(json.dumps([names, sorted(loaded - sys.stdlib_module_names - {'dsnkit'})]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    names, foreign = json.loads(run.stdout)
    assert names == sorted(p.stem for p in SRC.joinpath("dsnkit").glob("*.py") if p.stem != "__init__")
    assert foreign == []


def test_commands_run_with_networkx_blocked(tmp_path):
    # A networkx.py that raises ImportError, first on the path, stands in for
    # an environment without networkx.
    (tmp_path / "networkx.py").write_text('raise ImportError("networkx is blocked")\n')
    env = dict(os.environ, PYTHONPATH=f"{tmp_path}{os.pathsep}{SRC}")

    def run(*args):
        return subprocess.run([sys.executable, *args], env=env, cwd=tmp_path, capture_output=True).returncode

    assert run("-c", "import networkx") == 1
    (tmp_path / "k4.psi").write_text(emit_psi(PsiInstance(K4, K4, {i: i for i in range(4)})))
    commands = [
        ["gen", "ladder", "6", "-o", "ladder6.dsn"],
        ["analyze", "ladder6.dsn", "--json"],
        ["solve", "ladder6.dsn"],
        ["reduce", "k4.psi", "--decide"],
        ["bench"],
    ]
    assert [run("-m", "dsnkit.cli", *argv) for argv in commands] == [0, 0, 0, 0, 0]


JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**63, max_value=10**60).flatmap(lambda n: st.sampled_from([n, -n]))
    | st.floats()
    | st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0])
    | st.text()
    | st.sampled_from(["\x00\x1f\x7f", "tab\tnew\nline", '"quoted" \\ slash', "é ü €", "\u2028\ud83d", "😀"])
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=25,
)


class TestIndentedJson:
    @settings(max_examples=300, deadline=None)
    @given(JSON_VALUES)
    def test_matches_json_dumps_indent_2(self, value):
        """[DERIVED: json.dumps(value, indent=2)]"""
        assert cli._indented_json(value) == json.dumps(value, indent=2)

    # The strategy rarely draws a tuple of exactly two ints, the shape that
    # takes the one-step path; bools, floats and other lengths must not.
    @pytest.mark.parametrize(
        "value",
        [[(1, 2)], [(True, 1)], [(1, 2.0)], [(2**70, -3)], [(1, 2, 3)], [[1, 2]], ((1, 2),)],
        ids=["int-pair", "bool", "float", "big-and-negative", "triple", "list-pair", "in-a-tuple"],
    )
    def test_pairs_match_json_dumps_indent_2(self, value):
        assert cli._indented_json(value) == json.dumps(value, indent=2)

    def test_unknown_type_raises_like_json(self):
        with pytest.raises(TypeError, match="not JSON serializable"):
            cli._indented_json({"w": object()})


BENCH_ROWS = [
    ("grid-3x3", "6", "6"),
    ("ladder-6", "16", "16"),
    ("random-s0", "14", "14"),
    ("random-s1", "13", "13"),
    ("random-s2", "infeasible", "infeasible"),
    ("random-s3", "13", "13"),
    ("random-s4", "19", "19"),
    ("random-s5", "infeasible", "infeasible"),
    ("psi-k4", "yes", "yes"),
    ("psi-c4", "no", "no"),
]


class TestBench:
    def test_bench_all_agree(self, capsys):
        assert main(["bench", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["disagreements"] == 0
        assert all(row["agree"] for row in payload["rows"])

    def test_bench_json_rows(self, capsys):
        assert main(["bench", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [list(row) for row in payload["rows"]] == [["instance", "cost", "oracle_cost", "agree", "time_s"]] * 10
        rows = [{k: v for k, v in row.items() if k != "time_s"} for row in payload["rows"]]
        assert rows == [{"instance": n, "cost": c, "oracle_cost": o, "agree": True} for n, c, o in BENCH_ROWS]
        assert list(payload) == ["rows", "disagreements"]

    def test_disagreement_exits_1(self, monkeypatch, capsys):
        # The brute-force oracle finds no PSI solution: psi-k4 disagrees.
        monkeypatch.setattr(cli, "solve_psi_bruteforce", lambda psi: None)
        assert main(["bench", "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["disagreements"] == 1
        assert [row["instance"] for row in payload["rows"] if not row["agree"]] == ["psi-k4"]
        assert main(["bench"]) == 1
        (line,) = [line for line in capsys.readouterr().out.splitlines() if "MISMATCH" in line]
        assert line.split()[:3] == ["psi-k4", "yes", "no"]


LADDER6_SOLVE = """cost 16 (bnb, 1 nodes)
  arc 1 -> 2
  arc 2 -> 4
  arc 3 -> 1
  arc 3 -> 5
  arc 4 -> 3
  arc 5 -> 6
  arc 6 -> 4
  arc 6 -> 8
  arc 7 -> 5
  arc 7 -> 9
  arc 8 -> 7
  arc 9 -> 10
  arc 10 -> 8
  arc 10 -> 12
  arc 11 -> 9
  arc 12 -> 11
"""

LADDER6_ANALYZE = """cost 16; |V| 12 -> 12
treewidth 2 -> 2; diameter 6; max ratio 2.25
  request 1->2: len 1, 2 important, 0 segments
  request 2->1: len 3, 2 important, 0 segments
  request 2->12: len 9, 4 important, 0 segments
  request 11->1: len 9, 4 important, 0 segments
  request 11->12: len 3, 2 important, 0 segments
  request 12->11: len 1, 2 important, 0 segments
"""


class TestTextMode:
    @pytest.mark.parametrize("command,expected", [("solve", LADDER6_SOLVE), ("analyze", LADDER6_ANALYZE)])
    def test_ladder_text(self, ladder_file, monkeypatch, capsys, command, expected):
        assert main([command, str(ladder_file)]) == 0
        assert capsys.readouterr().out == expected
        monkeypatch.setattr("sys.stdin", io.StringIO(ladder_file.read_text()))
        assert main([command, "-"]) == 0
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("output", [[], ["-o", "-"]])
    def test_gen_to_stdout_equals_the_file(self, ladder_file, capsys, output):
        assert main(["gen", "ladder", "6", *output]) == 0
        assert capsys.readouterr().out == ladder_file.read_text()

    def test_bench_rows(self, capsys):
        assert main(["bench"]) == 0
        lines = capsys.readouterr().out.splitlines()
        names = [name for name, _ in cli._bench_corpus()] + ["psi-k4", "psi-c4"]
        assert [line.split()[0] for line in lines] == names
        width = max(map(len, names))
        for line in lines:
            # The name padded to the longest, two spaces, then the costs and
            # the mark right-aligned in 12, 12 and 8 columns and "0.000s" in 8.
            assert len(line) == width + 2 + 12 + 1 + 12 + 1 + 8 + 1 + 8
            name, cost, oracle, mark, seconds = line.split()
            assert cost == oracle and mark == "ok"
            assert re.fullmatch(r"\d+\.\d{3}s", seconds)
