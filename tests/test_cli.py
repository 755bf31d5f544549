"""CLI end-to-end: subcommands, file formats, exit codes."""

import io
import contextlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from neighborly.cli import main, parse_family, read_family, write_family
from neighborly.constructions import alon_product
from neighborly.errors import ParseError


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
        assert parsed.members == family.members
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

    def test_distance_violation_names_pair(self, tmp_family_file):
        path = tmp_family_file("d=2 k=1\n00\n11\n")
        code, _, err = run_cli("verify", path)
        assert code == 1
        assert "00" in err and "11" in err and "distance 2" in err

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

    def test_kernel_flag(self):
        code, out, _ = run_cli("search", "2", "4", "--kernel", "python")
        assert code == 0
        assert "kernel=python" in out

    def test_memory_guard_exit_code(self):
        code, _, err = run_cli("search", "2", "10")
        assert code == 3
        assert "resource limit" in err

    def test_unavailable_compiled_kernel_is_usage_error(self, monkeypatch):
        from neighborly.search import _kernel

        monkeypatch.setattr(_kernel, "_compiled", None)
        monkeypatch.setattr(_kernel, "COMPILED_ERROR", "no C compiler 'cc'")
        code, out, err = run_cli("search", "2", "4", "--kernel", "compiled")
        assert code == 2 and not out
        assert err == "error: compiled kernel is not available: no C compiler 'cc'\n"


def test_python_dash_m_runs_the_cli():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "neighborly", "report", "2", "4"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("bounds for n(k=2, d=4)")


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
