"""CLI end-to-end: subcommands, file formats, exit codes."""

import contextlib
import errno
import io
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from neighborly import cli, constructions
from neighborly.cli import EXIT_PIPE, main, parse_family, read_family, write_family
from neighborly.constructions import alon_product
from neighborly.errors import ParseError

from conftest import requires_cc


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

        monkeypatch.setattr(analysis, "_flip_masks", refuse)
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
