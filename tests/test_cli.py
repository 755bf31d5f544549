"""CLI end-to-end: subcommands, file formats, exit codes."""

import argparse
import contextlib
import errno
import functools
import io
import json
import os
import re
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, note, settings, strategies as st

from neighborly import cli, constructions
from neighborly.analysis import AUDIT_CHECKS, CheckResult
from neighborly.cli import EXIT_PIPE, main, parse_family, read_family, write_family
from neighborly.constructions import alon_product
from neighborly.errors import ParseError
from neighborly.search import _kernel

from conftest import requires_cc
from oracles import parse_family_by_lines


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse usage failures
            code = exc.code
    return code, out.getvalue(), err.getvalue()


class TestFamilyFiles:
    def test_round_trip(self):
        family = alon_product(2, 4)
        buf = io.StringIO()
        write_family(family, buf, comment="round trip")
        parsed = parse_family(io.StringIO(buf.getvalue()))
        assert parsed == family
        assert (parsed.d, parsed.k) == (4, 2)

    def test_comments_and_whitespace(self):
        text = "# a comment\nd=2 k=1\n00   \n# another\n01\n"
        family = parse_family(io.StringIO(text))
        assert {str(v) for v in family} == {"00", "01"}

    def test_missing_header(self):
        with pytest.raises(ParseError):
            parse_family(io.StringIO("00\n01\n"))

    def test_duplicate_line_rejected(self):
        with pytest.raises(ParseError) as exc:
            parse_family(io.StringIO("d=2 k=1\n00\n00\n"))
        assert exc.value.line == 3

    def test_wrong_length_reports_line(self):
        with pytest.raises(ParseError) as exc:
            parse_family(io.StringIO("d=3 k=1\n000\n0101\n"))
        assert exc.value.line == 3

    def test_bad_symbol(self):
        with pytest.raises(ParseError):
            parse_family(io.StringIO("d=2 k=1\n0x\n"))

    def test_bad_symbol_mid_line(self):
        with pytest.raises(ParseError) as exc:
            parse_family(io.StringIO("d=5 k=2\n01*01\n01x*1\n"))
        assert exc.value.line == 3
        assert str(exc.value) == "line 3: vector '01x*1' has symbols outside 0, 1, *"

    def test_empty_file(self):
        with pytest.raises(ParseError):
            parse_family(io.StringIO(""))

    def test_header_with_k_above_d_rejected(self):
        with pytest.raises(ParseError):
            parse_family(io.StringIO("d=2 k=5\n00\n"))

    def test_machine_report_schema(self):
        code, out, _ = run_cli("report", "5", "7", "--machine")
        assert code == 0
        record = dict(line.split("=", 1) for line in out.strip().splitlines())
        assert set(record) == {
            "k", "d", "alon_lower", "alon_upper", "huang_sudakov", "agkp",
            "main", "main2", "refined", "kleitman", "stability",
            "best_lower", "best_upper", "exact_known", "exact_source", "status",
        }


def parse_outcome(parse, text):
    """What ``parse`` makes of ``text``: the family's fields, or the error's text and line."""
    try:
        family = parse(io.StringIO(text))
    except ParseError as exc:
        return "error", str(exc), exc.line
    return "family", family.d, family.k, family.ranks


# (file text, message, line number or None) of every ParseError of the format
PARSE_ERRORS = [
    ("", "missing 'd=<int> k=<int>' header line", None),
    ("# only\n\n# comments\n", "missing 'd=<int> k=<int>' header line", None),
    ("00\n01\n", "expected header 'd=<int> k=<int>', got '00'", 1),
    ("# c\nd=3\n000\n", "expected header 'd=<int> k=<int>', got 'd=3'", 2),
    ("k=1 d=3\n000\n", "expected header 'd=<int> k=<int>', got 'k=1 d=3'", 1),
    ("d=3 k=1 x\n000\n", "expected header 'd=<int> k=<int>', got 'd=3 k=1 x'", 1),
    ("d=x k=1\n000\n", "malformed header 'd=x k=1'", 1),
    ("d=3 k=\n000\n", "malformed header 'd=3 k='", 1),
    # only runs of ASCII digits, although int() reads all of these
    ("d=3_0 k=1\n000\n", "malformed header 'd=3_0 k=1'", 1),
    ("d=+3 k=1\n000\n", "malformed header 'd=+3 k=1'", 1),
    ("d=3 k=0_2\n000\n", "malformed header 'd=3 k=0_2'", 1),
    ("d=-3 k=1\n000\n", "malformed header 'd=-3 k=1'", 1),
    ("d=\u0663 k=1\n000\n", "malformed header 'd=\u0663 k=1'", 1),
    ("d=2 k=5\n00\n", "need 1 <= k <= d, got k=5 d=2", None),
    ("d=0 k=1\n", "need 1 <= k <= d, got k=1 d=0", None),
    ("d=0 k=1\n0\n", "vector '0' has length 1, expected 0", 2),
    ("d=3 k=1\n000\n0101\n", "vector '0101' has length 4, expected 3", 3),
    ("d=3 k=1\n000\n 01\n", "vector ' 01' has symbols outside 0, 1, *", 3),
    ("d=5 k=2\n01*01\n01x*1\n", "vector '01x*1' has symbols outside 0, 1, *", 3),
    ("d=2 k=1\n00\n0\u00e9\n", "vector '0\u00e9' has symbols outside 0, 1, *", 3),
    ("d=2 k=1\n00\n# again\n00\n", "duplicate vector '00'", 4),
    # the first bad line wins, whatever its fault; on one line length comes first
    ("d=3 k=1\n000\n000\n00\n", "duplicate vector '000'", 3),
    ("d=3 k=1\n0x0\n00\n", "vector '0x0' has symbols outside 0, 1, *", 2),
    ("d=3 k=1\n0x\n000\n000\n", "vector '0x' has length 2, expected 3", 2),
    ("d=2 k=5\n00\n0\n", "vector '0' has length 1, expected 2", 3),
    # CRLF line endings, trailing blanks, no final newline
    ("d=2 k=1\r\n00\r\n0\r\n", "vector '0' has length 1, expected 2", 3),
    ("d=2 k=1 \t\n00  \n\n00\t\n", "duplicate vector '00'", 4),
    ("d=2 k=1\n00\n0*1", "vector '0*1' has length 3, expected 2", 3),
]

# (file text, d, k, members) of files that parse
PARSED = [
    ("d=2 k=1\r\n00\r\n01\r\n", 2, 1, ["00", "01"]),
    ("d=2 k=1  \n00 \t\n\n# c  \n01   \n\n\n", 2, 1, ["00", "01"]),
    ("d=2 k=1\n00\n01", 2, 1, ["00", "01"]),
    ("d=03 k=001\n000\n", 3, 1, ["000"]),  # leading zeros are digits
    ("d=3 k=1\n", 3, 1, []),
    ("#\n\n  d=2   k=2  \n1*\n0*\n", 2, 2, ["0*", "1*"]),
]


class TestParseParity:
    """``parse_family`` against the line-by-line parser it replaces, which
    ``oracles.parse_family_by_lines`` keeps."""

    @pytest.mark.parametrize("text, message, line", PARSE_ERRORS)
    def test_parse_errors(self, text, message, line, tmp_path):
        expected = ("error", message if line is None else f"line {line}: {message}", line)
        assert parse_outcome(parse_family, text) == expected
        assert parse_outcome(parse_family_by_lines, text) == expected
        if text.isascii():  # and through a file, whose reader turns CRLF into LF
            path = tmp_path / "family.txt"
            path.write_bytes(text.encode("ascii"))
            code, out, err = run_cli("verify", str(path))
            assert (code, out, err) == (1, "", f"parse error: {expected[1]}\n")

    def test_header_number_longer_than_int_converts(self):
        text = f"d={'9' * 5000} k=1\n"
        expected = ("error", f"line 1: malformed header {text.rstrip()!r}", 1)
        assert parse_outcome(parse_family, text) == expected
        assert parse_outcome(parse_family_by_lines, text) == expected

    @pytest.mark.parametrize("text, d, k, words", PARSED)
    def test_parsed_files(self, text, d, k, words, tmp_path):
        expected = ("family", d, k, "".join(w.replace("*", "2") for w in words))
        assert parse_outcome(parse_family, text) == expected
        assert parse_outcome(parse_family_by_lines, text) == expected
        path = tmp_path / "family.txt"
        path.write_bytes(text.encode("ascii"))
        assert read_family(str(path)).ranks == expected[3]

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_random_files_with_one_fault(self, data):
        draw = data.draw
        d = draw(st.integers(1, 6), label="d")
        k = draw(st.integers(1, d), label="k")
        words = draw(st.lists(st.text("01*", min_size=d, max_size=d), unique=True, max_size=12))
        header = f"d={d} k={k}"
        fault = draw(st.sampled_from(
            ["none", "length", "symbol", "repeat", "header", "no header", "k above d"]
        ), label="fault")
        if fault in ("length", "symbol", "repeat") and not words:
            words = ["0" * d]
        i = draw(st.integers(0, max(0, len(words) - 1)), label="line")
        if fault == "length":
            words[i] = draw(st.sampled_from([words[i][:-1], words[i] + "0", "*" + words[i]]))
        elif fault == "symbol":
            at = draw(st.integers(0, d - 1))
            symbol = draw(st.sampled_from("x2 \t#\u00e9"))
            words[i] = words[i][:at] + symbol + words[i][at + 1:]
        elif fault == "repeat":
            words.insert(draw(st.integers(i + 1, len(words))), words[i])
        elif fault == "header":
            header = draw(st.sampled_from(
                ["d=", f"k={k} d={d}", f"d={d}", f"d=x k={k}", f"d={d} k={k} k={k}",
                 f"d={d}_0 k={k}", f"d=+{d} k=+{k}", f"d={d} K={k}", f"d={d} k=-{k}",
                 f"d={chr(0x660 + d)} k={k}", f"d={d}.0 k={k}", f"d=0_{d} k={k}"]
            ), label="header")
        elif fault == "k above d":
            header = f"d={d} k={d + draw(st.integers(1, 3))}"
        lines = ([] if fault == "no header" else [header]) + words
        text = ""
        ending = draw(st.sampled_from(["\n", "\r\n"]), label="ending")
        for line in lines:
            text += draw(st.sampled_from(["", "", "# comment" + ending, ending, " \t" + ending]))
            text += line + draw(st.sampled_from(["", "", " ", "\t "])) + ending
        if draw(st.booleans(), label="no final newline"):
            text = text[:-len(ending)]
        outcome = parse_outcome(parse_family, text)
        assert outcome == parse_outcome(parse_family_by_lines, text)
        if fault == "header":  # every header fault is named on the header line
            assert outcome[0] == "error" and outcome[2] == text[:text.index(header)].count("\n") + 1
            assert outcome[1].split(": ", 1)[1].startswith(("malformed header", "expected header"))

    def test_non_ascii_is_reported_whatever_comes_first(self, tmp_path):
        # the bad line 2 is in the first 8 KB the reader decodes, the non-ASCII
        # byte far after it: a file is now decoded whole before any line is checked
        path = tmp_path / "family.txt"
        text = "d=2 k=1\n0x\n" + "# padding\n" * 2000 + "# caf\u00e9\n"
        path.write_bytes(text.encode("utf-8"))
        code, out, err = run_cli("verify", str(path))
        assert (code, out) == (1, "")
        assert err == f"parse error: {path} is not ASCII text (byte 0xc3)\n"
        # the line-by-line parser met line 2 before the reader reached the byte
        with open(path, encoding="ascii") as fh, pytest.raises(ParseError) as info:
            parse_family_by_lines(fh)
        assert str(info.value) == "line 2: vector '0x' has symbols outside 0, 1, *"


@requires_cc
def test_verify_prints_the_same_bytes_under_both_kernels(tmp_path, monkeypatch):
    # d = 21 is above the default cap: sets of 2^21 bits, neighbourhoods of
    # radius up to 14
    path = tmp_path / "family.txt"
    with open(path, "w", encoding="ascii") as fh:
        write_family(alon_product(6, 21), fh)
    outputs = []
    for kernel in ("compiled", "python"):
        monkeypatch.setattr(_kernel, "_default", _kernel.get_kernel(kernel))
        outputs.append(run_cli("verify", str(path), "--dimension-cap", "21"))
    assert outputs[0] == outputs[1]
    code, out, err = outputs[0]
    assert (code, err) == (0, "") and out.endswith(
        "PASS prefix_diameter_bound\nPASS mirror_weight_cap\nPASS pair_weight_cap\n"
        "PASS weight_identity\nsum of weights = 8000 (family size 8000)\n"
    )


class TestReport:
    def test_human_output(self):
        code, out, _ = run_cli("report", "5", "7")
        assert code == 0
        assert "806" in out and "128" in out and "75" in out
        assert "exact: n(5,7) = 74" in out

    def test_machine_output(self):
        code, out, _ = run_cli("report", "2", "10", "--machine")
        assert code == 0
        record = dict(line.split("=", 1) for line in out.strip().splitlines())
        assert record["best_upper"] == "95"
        assert record["best_lower"] == "36"
        assert record["huang_sudakov"] == "101"
        assert record["status"] == "gap"

    def test_certified_cell(self):
        code, out, _ = run_cli("report", "2", "4")
        assert code == 0
        assert "certified by formulas" in out

    def test_usage_error(self):
        code, _, _ = run_cli("report", "0", "5")
        assert code == 2
        code, _, _ = run_cli("report", "7", "5")
        assert code == 2


class TestTableCommand:
    def test_csv_default(self):
        code, out, _ = run_cli("table", "6", "8")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "k,d,lower,prior_upper,new_upper,star"
        assert "6,8,150,221,150," in lines

    def test_markdown(self):
        code, out, _ = run_cli("table", "2", "10", "--markdown")
        assert code == 0
        assert "95*" in out

    def test_byte_stable(self):
        first = run_cli("table", "10", "12")
        second = run_cli("table", "10", "12")
        assert first == second

    def test_limits_below_two_rejected(self):
        code, _, _ = run_cli("table", "1", "5")
        assert code == 2


class TestConstructVerify:
    @pytest.mark.parametrize(
        "argv,expected_lines",
        [
            (("alon-product", "3", "6"), 27),
            (("corollary35", "-", "4"), 12),
            (("corollary35", "4"), 12),
            (("b-config", "5", "7"), 44),
            (("staircase", "3"), 4),
        ],
    )
    def test_construct_emits_family(self, argv, expected_lines, tmp_path):
        code, out, _ = run_cli("construct", *argv)
        assert code == 0
        body = [l for l in out.splitlines() if l and not l.startswith(("#", "d="))]
        assert len(body) == expected_lines
        path = tmp_path / "fam.txt"
        path.write_text(out)
        code, vout, verr = run_cli("verify", str(path))
        assert code == 0, verr

    def test_b_config_emits_binary_vectors(self):
        _, out, _ = run_cli("construct", "b-config", "5", "7")
        body = [l for l in out.splitlines() if l and not l.startswith(("#", "d="))]
        assert all(set(line) <= {"0", "1"} for line in body)

    def test_construct_round_trips_all_names_up_to_d_ten(self, tmp_path):
        cases = []
        for d in range(2, 11):
            for k in range(1, d + 1):
                cases.append(("alon-product", str(k), str(d)))
                if k < d:
                    cases.append(("b-config", str(k), str(d)))
            cases.append(("corollary35", str(d)))
            cases.append(("staircase", str(d)))
        for argv in cases:
            code, out, _ = run_cli("construct", *argv)
            assert code == 0, argv
            path = tmp_path / "fam.txt"
            path.write_text(out)
            # cap keeps the exhaustive audits to small d; validity runs everywhere
            code, _, verr = run_cli("verify", str(path), "--dimension-cap", "6")
            assert code == 0, (argv, verr)

    @pytest.mark.parametrize(
        "argv, words",
        [
            (("staircase", "2"), "0* 10 11"),
            (("alon-product", "2", "4"), "0*0* 0*10 0*11 100* 1010 1011 110* 1110 1111"),
            (("corollary35", "3"), "0*0 0*1 100 101 110 111"),
            (("b-config", "3", "4"), "0000 0001 0010 0100 1000 1001 1010 1100"),
        ],
    )
    def test_construct_output_bytes(self, argv, words):
        # the words of a product come out in rank order (0 < 1 < *)
        d = len(words.split()[0])
        k = argv[1] if len(argv) == 3 else {"staircase": "1", "corollary35": str(d - 1)}[argv[0]]
        expected = f"# construction: {argv[0]}\nd={d} k={k}\n" + words.replace(" ", "\n") + "\n"
        assert run_cli("construct", *argv) == (0, expected, "")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("alon-product", "5", "4"), "need 1 <= k <= d, got k=5 d=4"),
            (("b-config", "4", "3"), "need 1 <= k <= d, got k=4 d=3"),
            (("corollary35", "1"), "need d >= 2, got 1"),
            (("staircase", "0"), "staircase block size must be >= 1, got 0"),
        ],
    )
    def test_construct_domain_error_text(self, argv, message):
        assert run_cli("construct", *argv) == (2, "", f"error: {message}\n")

    def test_unknown_name_is_usage_error(self):
        code, _, _ = run_cli("construct", "nonesuch", "3", "4")
        assert code == 2

    def test_wrong_arity(self):
        code, _, err = run_cli("construct", "alon-product", "4")
        assert code == 2

    def test_non_integer_params(self):
        code, _, _ = run_cli("construct", "alon-product", "x", "y")
        assert code == 2


class TestVerifyCommand:
    def test_valid_family_full_audit(self, tmp_path):
        _, out, _ = run_cli("construct", "corollary35", "4")
        path = tmp_path / "fam.txt"
        path.write_text(out)
        code, vout, _ = run_cli("verify", str(path))
        assert code == 0
        assert "PASS unique_cover" in vout
        assert "sum of weights = 12" in vout

    def test_duplicate_rejected(self, tmp_family_file):
        path = tmp_family_file("d=3 k=1\n010\n010\n")
        code, _, err = run_cli("verify", path)
        assert code == 1
        assert "line 3" in err

    def test_wrong_length_rejected(self, tmp_family_file):
        path = tmp_family_file("d=3 k=1\n0101\n")
        code, _, err = run_cli("verify", path)
        assert code == 1
        assert "line 2" in err

    @pytest.mark.parametrize(
        "body, message",
        [
            ("12\n1*\n", "line 2: vector '12' has symbols outside 0, 1, *"),
            ("1*\n12\n", "line 3: vector '12' has symbols outside 0, 1, *"),
            ("00\n010\n", "line 3: vector '010' has length 3, expected 2"),
        ],
    )
    def test_bad_word_message(self, tmp_family_file, body, message):
        path = tmp_family_file("d=2 k=1\n" + body)
        assert run_cli("verify", path) == (1, "", f"parse error: {message}\n")

    def test_malformed_header_message(self, tmp_family_file):
        path = tmp_family_file("# a comment\nd=x k=2\n00\n")
        assert run_cli("verify", path) == (
            1, "", "parse error: line 2: malformed header 'd=x k=2'\n"
        )

    def test_failed_check_is_printed_in_order(self, tmp_path, monkeypatch):
        # no real family fails the audit, so one check is made to fail
        real_audit = cli.audit

        def failing(family, *args, **kwargs):
            report = real_audit(family, *args, **kwargs)
            failed = CheckResult(False, "0110 weighs 1/2^1, above the cap 1/2^2")
            return replace(report, checks=dict(report.checks, mirror_weight_cap=failed))

        monkeypatch.setattr(cli, "audit", failing)
        _, out, _ = run_cli("construct", "corollary35", "4")
        path = tmp_path / "fam.txt"
        path.write_text(out)
        code, vout, err = run_cli("verify", str(path))
        assert (code, err) == (1, "")
        assert [line.split()[1].rstrip(":") for line in vout.splitlines()[1:-1]] == list(
            AUDIT_CHECKS
        )
        assert vout == (
            "family of 12 vectors, d=4, k=3: k-neighborly\n"
            "PASS unique_cover\n"
            "PASS disjoint_mirror_classes\n"
            "PASS prefix_diameter_bound\n"
            "FAIL mirror_weight_cap: 0110 weighs 1/2^1, above the cap 1/2^2\n"
            "PASS pair_weight_cap\n"
            "PASS weight_identity\n"
            "sum of weights = 12 (family size 12)\n"
        )

    def test_distance_violation_names_pair(self, tmp_family_file):
        path = tmp_family_file("d=2 k=1\n00\n11\n")
        code, _, err = run_cli("verify", path)
        assert code == 1
        assert "00" in err and "11" in err and "distance 2" in err

    def test_corrupted_member_text(self, tmp_family_file):
        # corollary35 3, scrambled, plus 1*1: the first bad pair in sorted order is named
        path = tmp_family_file("d=3 k=2\n010\n00*\n111\n10*\n011\n1*1\n110\n")
        assert run_cli("verify", path) == (
            1, "", "invalid family: pair (10*, 1*1) has distance 0, outside 1..2\n"
        )

    def test_members_sorted_once(self, tmp_path, monkeypatch):
        # construct builds each family from words and verify reads words:
        # the words are the sort keys, so neither builds a member as a vector
        from neighborly import core

        def refuse(v):
            raise AssertionError("a member was built as a JokerVector")

        monkeypatch.setattr(core.JokerVector, "__post_init__", refuse)
        for argv, size in [
            (("staircase", "6"), 7),
            (("alon-product", "3", "7"), 36),
            (("b-config", "5", "7"), 44),
            (("corollary35", "8"), 3 * 2**6),
        ]:
            code, out, _ = run_cli("construct", *argv)
            assert code == 0 and out.count("\n") == 2 + size, argv
            path = tmp_path / "fam.txt"
            path.write_text(out)
            code, vout, _ = run_cli("verify", str(path))
            assert code == 0 and "PASS weight_identity" in vout, argv

    def test_audit_above_dimension_limit_is_resource_error(self, tmp_family_file, monkeypatch):
        # a 2^30-bit audit would need gigabytes; it must stop before building any set
        from neighborly import analysis

        def refuse(*args):
            raise AssertionError("the audit built a 2^d-bit set")

        monkeypatch.setattr(analysis, "_prefix_diameter_failure", refuse)
        monkeypatch.setattr(analysis, "_cover_map", refuse)
        path = tmp_family_file("d=30 k=29\n" + "0" * 30 + "\n")
        code, out, err = run_cli("verify", path, "--dimension-cap", "64")
        assert code == 3
        assert out == "family of 1 vectors, d=30, k=29: k-neighborly\n"
        assert err == "resource limit: audit is exhaustive over 2^d vectors; d=30 exceeds the limit 24\n"

    def test_audit_skipped_when_k_equals_d(self, tmp_family_file):
        path = tmp_family_file("d=2 k=2\n00\n11\n01\n")
        code, out, _ = run_cli("verify", path)
        assert code == 0
        assert "audit skipped" in out


class TestSearchCommand:
    def test_search_optimal(self):
        code, out, _ = run_cli("search", "2", "4")
        assert code == 0
        assert out.splitlines()[0] == "9 optimal"

    def test_search_3_5(self):
        code, out, _ = run_cli("search", "3", "5")
        assert code == 0
        assert out.splitlines()[0] == "18 optimal"

    def test_search_timeout_prefix(self):
        code, out, _ = run_cli("search", "3", "6", "--max-nodes", "1000")
        assert code == 0
        first = out.splitlines()[0]
        assert first.startswith("≥")
        assert first.endswith("timeout")

    def test_seed_accepted_and_hidden(self, capsys):
        code, out, _ = run_cli("search", "2", "5", "--seed", "7")
        assert code == 0 and out.splitlines()[0] == "12 optimal"
        assert out.splitlines()[1].startswith("nodes=183 ")
        with pytest.raises(SystemExit):
            main(["search", "--help"])
        assert "--seed" not in capsys.readouterr().out

    def test_witness_round_trip(self, tmp_path):
        witness = tmp_path / "witness.txt"
        code, out, _ = run_cli("search", "3", "4", "--witness", str(witness))
        assert code == 0
        family = read_family(str(witness))
        assert len(family) == 12
        code, _, _ = run_cli("verify", str(witness))
        assert code == 0

    def test_incumbent_seeding(self, tmp_path):
        incumbent = tmp_path / "inc.txt"
        _, out, _ = run_cli("construct", "corollary35", "4")
        incumbent.write_text(out)
        code, out, _ = run_cli(
            "search", "3", "4", "--incumbent", str(incumbent), "--max-nodes", "0"
        )
        assert code == 0
        assert out.splitlines()[0] == "12 optimal"

    def test_bad_incumbent(self, tmp_family_file):
        path = tmp_family_file("d=4 k=3\n0000\n0000\n")
        code, _, err = run_cli("search", "3", "4", "--incumbent", path)
        assert code == 1

    @pytest.mark.parametrize(
        "flag,value", [("--max-nodes", "-1"), ("--max-seconds", "-1"), ("--max-seconds", "nan")]
    )
    def test_bad_budget_is_usage_error(self, flag, value):
        code, out, err = run_cli("search", "2", "5", flag, value)
        assert code == 2 and not out
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_infinite_seconds_accepted(self):
        code, out, _ = run_cli("search", "2", "5", "--max-seconds", "inf")
        assert code == 0 and out.splitlines()[0] == "12 optimal"

    def test_kernel_flag(self):
        code, out, _ = run_cli("search", "2", "4", "--kernel", "python")
        assert code == 0
        assert "kernel=python" in out

    def test_warm_start_closes_17_18(self):
        # alon_product(17, 18) meets the formula bound: 196,608 members, no search
        code, out, err = run_cli("search", "17", "18", "--max-nodes", "0")
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert lines[0] == "196608 optimal"
        assert lines[1].startswith("nodes=0 ") and lines[1].endswith(" formula_upper=196608")

    def test_warm_start_closes_9_10_without_a_graph(self):
        # n(9,10) = 3 * 2^8; the 3^10-vertex graph exceeds the memory budget
        code, out, _ = run_cli("search", "9", "10")
        assert code == 0 and out.splitlines()[0] == "768 optimal"

    @pytest.mark.parametrize("where", ["missing directory", "directory"])
    def test_unwritable_witness_is_usage_error(self, tmp_path, where):
        path = tmp_path / "absent" / "witness.txt" if where == "missing directory" else tmp_path
        code, out, err = run_cli("search", "2", "4", "--witness", str(path))
        assert code == 2
        assert out.splitlines()[0] == "9 optimal" and out.splitlines()[1].startswith("nodes=")
        assert len(err.splitlines()) == 1 and err.startswith("error: ") and str(path) in err

    def test_failed_witness_write_keeps_the_old_file(self, tmp_path, monkeypatch):
        import neighborly.cli as cli

        witness = tmp_path / "witness.txt"
        witness.write_text("old contents\n")

        def write_then_fail(family, stream, comment=None):
            stream.write("d=4 k=2\n")
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(cli, "write_family", write_then_fail)
        code, out, err = run_cli("search", "2", "4", "--witness", str(witness))
        assert code == 2 and out.splitlines()[0] == "9 optimal"
        assert err == f"error: cannot write witness {witness}: No space left on device\n"
        assert witness.read_text() == "old contents\n"
        assert [p.name for p in tmp_path.iterdir()] == ["witness.txt"]

    def test_witness_through_a_symlink(self, tmp_path):
        target = tmp_path / "target.txt"
        target.write_text("old contents\n")
        link = tmp_path / "link.txt"
        link.symlink_to(target)
        code, _, _ = run_cli("search", "2", "4", "--witness", str(link))
        assert code == 0
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert len(read_family(str(target))) == 9
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.txt", "target.txt"]

    def test_memory_guard_exit_code(self):
        code, _, err = run_cli("search", "2", "10")
        assert code == 3
        assert "resource limit" in err

    def test_memory_guard_exit_code_at_large_d(self):
        # 3^25 vertices: refused by the estimate, before any vertex mask
        # exists; (14,28) before its 4.8 M-member warm start is built
        for argv in (("2", "25"), ("14", "28", "--max-seconds", "1")):
            start = time.perf_counter()
            code, out, err = run_cli("search", *argv)
            assert time.perf_counter() - start < 5, argv
            assert code == 3 and not out
            assert err.startswith("resource limit: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ("search", "39", "40"),  # closed by the formulas: 3 * 2^38 members
            ("search", "17", "30", "--max-nodes", "0"),  # 25,509,168 members
            ("construct", "alon-product", "20", "60"),  # 4^20 members
            ("construct", "corollary35", "40"),
            ("construct", "b-config", "10", "60"),  # the radius-5 ball, 5,985,198 members
        ],
        ids=["search-39-40", "search-17-30-warm-start", "alon-product-20-60",
             "corollary35-40", "b-config-10-60"],
    )
    def test_oversized_family_is_resource_error(self, monkeypatch, argv):
        # a check that let the family through stops at its first word product
        def built(*args):
            raise AssertionError("the family was built")

        monkeypatch.setattr(constructions, "_products", built)
        monkeypatch.setattr(constructions, "_ball_words", built)
        code, out, err = run_cli(*argv)
        assert code == 3 and not out
        assert err.startswith("resource limit: the ") and err.count("\n") == 1
        assert "members of " in err and "budget is 536870912" in err

    def test_unavailable_compiled_kernel_is_usage_error(self, monkeypatch):
        from neighborly.search import _kernel

        monkeypatch.setattr(_kernel, "_compiled", None)
        monkeypatch.setattr(_kernel, "COMPILED_ERROR", "no C compiler 'cc'")
        code, out, err = run_cli("search", "2", "4", "--kernel", "compiled")
        assert code == 2 and not out
        assert err == "error: compiled kernel is not available: no C compiler 'cc'\n"


class TestAllocationFailure:
    @requires_cc
    @pytest.mark.parametrize(
        "entry,argv,what",
        [
            ("_solve", ("search", "2", "6"), "kernel"),
            ("_first_bad_pair", ("verify",), "pair check"),
            ("_cover_map", ("verify",), "cover map"),
            ("_adjacency", ("search", "2", "6"), "adjacency"),
        ],
        ids=["solve", "first_bad_pair", "cover_map", "adjacency"],
    )
    def test_no_memory_exits_3(self, monkeypatch, tmp_path, entry, argv, what):
        from neighborly.search import _kernel

        path = tmp_path / "fam.txt"
        with open(path, "w") as fh:
            write_family(alon_product(5, 14), fh)
        if argv == ("verify",):
            argv = ("verify", str(path))
        compiled = _kernel.get_kernel("compiled")
        monkeypatch.setattr(_kernel, "_default", compiled)
        monkeypatch.setattr(compiled, entry, lambda *args: _kernel._NO_MEMORY)
        code, out, err = run_cli(*argv)
        assert code == 3
        assert err == f"resource limit: the compiled {what} could not allocate its buffers\n"
        # the audit's cover map runs after the pair check has printed its verdict
        assert out == ("family of 768 vectors, d=14, k=5: k-neighborly\n" if entry == "_cover_map" else "")

    def test_memory_error_without_text(self, monkeypatch):
        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr(cli.bounds, "report", exhausted)
        assert run_cli("report", "2", "4") == (3, "", "resource limit: out of memory\n")


def test_python_dash_m_runs_the_cli():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "neighborly", "report", "2", "4"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("bounds for n(k=2, d=4)")


def test_closed_stdout_ends_quietly():
    # ~180 kB of output, far more than a pipe buffers: the writes must meet
    # the closed read end
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.Popen(
        [sys.executable, "-m", "neighborly", "construct", "corollary35", "14"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == EXIT_PIPE == 141
    assert first == b"# construction: corollary35\n"
    assert err == b""


@pytest.mark.parametrize(
    "argv", [("verify",), ("search", "2", "3", "--incumbent")], ids=["verify", "incumbent"]
)
class TestUnreadableFamilyFile:
    def test_missing_path_is_usage_error(self, argv, tmp_path):
        code, out, err = run_cli(*argv, str(tmp_path / "absent.txt"))
        assert code == 2 and not out
        assert len(err.splitlines()) == 1 and "absent.txt" in err

    def test_directory_is_usage_error(self, argv, tmp_path):
        code, out, err = run_cli(*argv, str(tmp_path))
        assert code == 2 and not out
        assert len(err.splitlines()) == 1 and str(tmp_path) in err

    def test_non_ascii_file_is_invalid(self, argv, tmp_path):
        path = tmp_path / "family.txt"
        path.write_text("d=2 k=1\n00\n0é\n", encoding="utf-8")
        code, out, err = run_cli(*argv, str(path))
        assert code == 1 and not out
        assert len(err.splitlines()) == 1 and "not ASCII" in err


NO_STATE_SCRIPT = """
import contextlib, io, json, sys
from neighborly import cli

before = dict(vars(cli))
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            cli.main(argv)
        except SystemExit:  # help and usage errors
            pass
after = vars(cli)
print("added or removed:", sorted(after.keys() ^ before.keys()))
print("rebound:", sorted(name for name in before.keys() & after.keys()
                         if after[name] is not before[name]))
"""


class TestParserReuse:
    """``main`` keeps nothing from one call to the next: every call gives
    what the same call gives first, and the module is left as it was."""

    @staticmethod
    def corpus(tmp_path):
        family = tmp_path / "family.txt"
        with open(family, "w", encoding="ascii") as fh:
            write_family(alon_product(2, 4), fh)
        witness = str(tmp_path / "witness.txt")
        return [
            ["report", "2", "5"],
            ["report", "5", "7", "--machine"],
            ["table", "4", "6"],
            ["table", "4", "6", "--markdown"],
            ["verify", str(family)],
            ["verify", str(family), "--dimension-cap", "3"],
            ["search", "2", "4", "--witness", witness],
            ["search", "2", "4", "--incumbent", str(family), "--max-nodes", "0"],
            ["search", "2", "5", "--kernel", "python"],
            ["construct", "corollary35", "3"],
            ["construct", "alon-product", "2", "4"],
            # forms the matcher declines and argparse reads
            ["search", "2", "4", "--max-nodes=0"],
            ["report", "2", "5", "--mach"],
            ["verify", "--", str(family)],
            ["-h"],
            ["report", "-h"],
            ["table", "-h"],
            ["verify", "-h"],
            ["search", "-h"],
            ["construct", "-h"],
            # usage errors
            ["report", "3", "2"],
            ["table", "3", "3", "--csv", "--markdown"],
            ["search", "2", "4", "--max-nodes", "-1"],
            ["construct", "no-such-name", "3"],
            [],
        ]

    @staticmethod
    def outcome(argv):
        # a search prints the seconds it took
        code, out, err = run_cli(*argv)
        return code, re.sub(r"elapsed=\S+", "elapsed=", out), err

    def test_repeated_calls_match_a_fresh_parser(self, tmp_path, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # help text wraps to the terminal
        corpus = self.corpus(tmp_path)
        fresh = [self.outcome(argv) for argv in corpus]
        assert {code for code, _, _ in fresh} == {0, 2}
        order = list(range(len(corpus)))
        for rounds in range(3):  # forward, backward, then every other one
            for i in order:
                assert self.outcome(corpus[i]) == fresh[i], corpus[i]
            order = order[::-1] if rounds == 0 else order[::2] + order[1::2]

    def test_usage_error_leaves_the_next_call_alone(self):
        expected = self.outcome(["table", "4", "6", "--markdown"])
        for bad in (["table", "3", "3", "--csv", "--markdown"], ["report", "3", "2"],
                    ["construct", "no-such-name", "3"], ["report", "2", "x"]):
            code, out, err = self.outcome(bad)
            assert code == 2 and not out and err.startswith("usage: neighborly")
            assert self.outcome(["table", "4", "6", "--markdown"]) == expected

    def test_main_keeps_no_state(self, tmp_path):
        # in a fresh interpreter, where no earlier test has run main
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run(
            [sys.executable, "-c", NO_STATE_SCRIPT, json.dumps(self.corpus(tmp_path))],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(src)),
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "added or removed: []\nrebound: []\n"


COMMAND_NAMES = [command[0] for command in cli.COMMANDS]
OPTION_NAMES = sorted({arg for command in cli.COMMANDS for arg, *_ in command[4] if arg[0] == "-"})
TOKENS = ["5", "2", "7", "0", "-1", "+3", "\u0663", "inf", "nan", "", "-", "\u2014", "--", "-h",
          "alon-product", "corollary35", "python", "2.5", "x"]


@functools.cache
def argparse_parser():
    return cli.build_parser()


def argparse_outcome(argv):
    """What the argparse parser returns for argv; None when it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return argparse_parser().parse_args(argv)
        except SystemExit:
            return None


def namespace_items(args):
    """The Namespace's attributes in order, with NaN made comparable."""
    return [(name, "nan" if value != value else value) for name, value in vars(args).items()]


class TestMatcher:
    """``match_argv`` reads a command line as argparse does, or declines it."""

    @settings(max_examples=500, deadline=None)
    @given(st.data())
    def test_matches_argparse_or_declines(self, data):
        # a command line from the command's arguments, then up to two edits
        draw = data.draw
        name, _, _, _, arguments = draw(st.sampled_from(cli.COMMANDS), label="command")
        value = st.sampled_from(TOKENS)

        def fitting(keywords):  # mostly a value the argument takes
            return st.one_of(st.sampled_from(list(keywords.get("choices", ["2", "5", "7"]))), value)

        argv = []
        for arg, keywords, *_ in arguments:
            if arg[0] != "-":
                count = st.integers(1, 3 if "nargs" in keywords else 1)
                argv += [draw(fitting(keywords)) for _ in range(draw(count))]
        for arg, keywords, *_ in arguments:
            if arg[0] == "-" and draw(st.booleans()):
                at = draw(st.integers(0, len(argv)))
                argv[at:at] = [arg] if keywords.get("action") else [arg, draw(fitting(keywords))]
        option = st.sampled_from(OPTION_NAMES)
        token = st.one_of(
            value,
            option,
            st.tuples(option, st.integers(3, 13)).map(lambda o: o[0][:o[1]]),  # abbreviated
            st.tuples(option, value).map("=".join),
        )
        argv.insert(0, name)
        for _ in range(draw(st.sampled_from([0, 0, 1, 2]), label="edits")):
            at = draw(st.integers(0, len(argv)))
            edit = draw(st.sampled_from(["insert", "replace", "delete"]))
            if edit == "insert" or at == len(argv):
                argv.insert(at, draw(token))
            elif edit == "replace":
                argv[at] = draw(token)
            else:
                del argv[at]
        note(f"argv={argv}")
        matched, expected = cli.match_argv(argv), argparse_outcome(argv)
        if matched is not None:
            assert isinstance(matched, argparse.Namespace)
            assert expected is not None and namespace_items(matched) == namespace_items(expected)

    @pytest.mark.parametrize("argv", [
        ["report", "2", "5", "--machine"],
        ["report", "+3", "\u0663"],
        ["table", "4", "6", "--csv"],
        ["verify", "-", "--dimension-cap", "12"],
        ["verify", ""],
        ["search", "2", "4", "--seed", "1", "--max-seconds", "3600", "--witness", "W",
         "--max-nodes", "500"],
        ["search", "7", "--kernel", "python", "3", "--incumbent", "-", "--max-seconds", "inf"],
        ["search", "2", "4", "--max-seconds", "nan"],
        ["construct", "alon-product", "-", "2", "\u2014", "4"],
    ])
    def test_well_formed_argv_is_matched(self, argv):
        matched = cli.match_argv(argv)
        assert matched is not None and namespace_items(matched) == namespace_items(
            argparse_outcome(argv))

    @pytest.mark.parametrize("argv", [
        [], ["-h"], ["report"], ["report", "2", "5", "-h"], ["report", "-1", "5"],
        ["report", "2", "5", "6"], ["report", "2", "5", "--mach"], ["report", "2", "x"],
        ["report", "2", "5", "--machine", "--machine"], ["table", "3", "3", "--csv", "--markdown"],
        ["verify", "f", "--dimension-cap=3"], ["verify", "f", "--dimension-cap"],
        ["verify", "--", "f"], ["search", "2", "4", "--max-nodes", "-1"],
        ["search", "2", "4", "--kernel", "fast"], ["search", "2", "4", "--seed", "1", "--seed", "2"],
        ["construct", "no-such-name", "3"], ["construct", "alon-product"],
    ])
    def test_unusual_argv_is_left_to_argparse(self, argv):
        assert cli.match_argv(argv) is None


FAST_PATH_SCRIPT = """
import contextlib, io, sys
from neighborly import cli
from neighborly.constructions import alon_product

def refuse():
    raise AssertionError("build_parser was called")

cli.build_parser = refuse
family, witness = sys.argv[1:]
with open(family, "w", encoding="ascii") as fh:
    cli.write_family(alon_product(2, 4), fh)
for argv in (
    ["report", "2", "5", "--machine"],
    ["table", "4", "6"],
    ["verify", family],
    ["search", "2", "4", "--seed", "1", "--max-seconds", "3600", "--witness", witness,
     "--max-nodes", "500"],
    ["construct", "alon-product", "2", "4"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
assert "locale" not in sys.modules, "locale was imported"
"""


def test_canonical_command_lines_skip_argparse(tmp_path):
    # the benchmark's command lines: a fall back to argparse fails here too
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", FAST_PATH_SCRIPT, str(tmp_path / "family.txt"),
         str(tmp_path / "witness.txt")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr

