"""The benchmark's own tests: smoke runs, determinism, the oracle, the contract.

    python3 -m pytest perfbench -q
    PERFBENCH_FULL=1 python3 -m pytest perfbench -q -k shares   # full sizes, minutes

Not part of the package's test suite (pyproject's testpaths is tests/).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import oracle  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, Op  # noqa: E402


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout.splitlines()


def result_of(lines: list[str]) -> dict:
    return json.loads(lines[-1])


def smoke(seed: int, trace: int) -> dict:
    code, lines = bench("--workload", "all", "--seed", str(seed), "--seconds", "0.2",
                        "--trace", str(trace), "--smoke")
    result = result_of(lines)
    assert code == 0, lines
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    return result


@pytest.mark.parametrize("seed", [1, 2])
def test_smoke_runs_every_workload_without_failures(seed):
    metrics = smoke(seed, 0)["metrics"]
    expected = {f"{w}.{name}" for w in WORKLOADS for name, _ in run.END_TO_END}
    assert set(metrics) == expected
    assert all(m["value"] > 0 for m in metrics.values())


def test_traced_runs_repeat_exact_counts():
    first, second = smoke(7, 1)["metrics"], smoke(7, 1)["metrics"]
    assert set(first) == {f"{w}.{name}" for w in WORKLOADS for name, _ in run.PER_LAYER}
    exact = [name for name, unit in run.PER_LAYER if unit == "count"]
    exact.append("search.solver.greedy_useful")
    for w in WORKLOADS:
        for name in exact:
            assert first[f"{w}.{name}"] == second[f"{w}.{name}"], (w, name)
    assert first["search-deep.search.kernel.exhausted"]["value"] >= 1
    assert first["verify.core.pairs_checked"]["value"] > 0


def test_refuses_to_run_without_a_source_tree(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    code, lines = bench("--workload", "table", "--seed", "1", "--seconds", "1",
                        "--trace", "0", cwd=tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


# ------------------------------------------------------------------ oracle


def op_result(stdout: str, code: int = 0) -> dict:
    return {"exit": code, "stdout": stdout, "stderr": "", "seconds": 0.0}


def write_witness(path: Path, words: list[str], k: int, d: int) -> None:
    path.write_text(f"# w\nd={d} k={k}\n" + "".join(w + "\n" for w in words))


def family_words() -> list[str]:
    from neighborly import alon_product

    return [str(m) for m in alon_product(2, 4).sorted_members()]  # 9 members


def blur(word: str) -> str:
    """The word with its first binary symbol turned into a joker: distance 0 to it."""
    i = next(i for i, ch in enumerate(word) if ch != "*")
    return word[:i] + "*" + word[i + 1:]


@pytest.mark.parametrize("mutate, fragment", [
    (lambda ws: ws, None),
    (lambda ws: ws[:-1] + ws[:1], "repeats"),
    (lambda ws: ws[:-1] + [blur(ws[0])], "distance 0"),
    (lambda ws: ws[:-1], "members"),
])
def test_oracle_checks_witnesses(tmp_path, mutate, fragment):
    wit = tmp_path / "w.txt"
    write_witness(wit, mutate(family_words()), 2, 4)
    reason = oracle.check_witness(str(wit), 2, 4, 9)
    assert reason is None if fragment is None else fragment in reason


def test_oracle_rejects_wrong_search_claims(tmp_path):
    wit = tmp_path / "w.txt"
    write_witness(wit, family_words(), 2, 4)
    op = Op(("search",), "search", 2, 4, exhaustive=True, witness=str(wit))
    stats = "nodes=0 elapsed=0.001s kernel=python formula_upper=9"
    assert oracle.check(op, op_result(f"9 optimal\n{stats}"), "python", {}) is None
    assert "kernel" in oracle.check(op, op_result(f"9 optimal\n{stats}"), "compiled", {})
    assert "timeout" in oracle.check(op, op_result(f"≥9 timeout\n{stats}"), "python", {})
    assert "exit" in oracle.check(op, op_result("", code=3), "python", {})
    capped = Op(("search",), "search", 2, 5, witness=str(wit))
    over = "≥15 timeout\nnodes=9 elapsed=0.1s kernel=python formula_upper=14"
    assert "outside" in oracle.check(capped, op_result(over), "python", {})


def test_oracle_checks_verify_and_bounds_outputs():
    good = ("family of 9 vectors, d=4, k=2: k-neighborly\n"
            + "".join(f"PASS check{i}\n" for i in range(6))
            + "sum of weights = 9 (family size 9)\n")
    op = Op(("verify", "f"), "verify", 2, 4, size=9)
    assert oracle.check(op, op_result(good), "python", {}) is None
    assert "PASS" in oracle.check(op, op_result(good.replace("PASS check5", "FAIL x")), "python", {})
    assert "weight" in oracle.check(op, op_result(good.replace("= 9 (", "= 8 (")), "python", {})
    corrupted = Op(("verify", "f"), "verify", 2, 4, size=10, valid=False)
    assert "corrupted" in oracle.check(corrupted, op_result(good), "python", {})

    report = Op(("report",), "report", 2, 4)
    text = "k=2\nd=4\nbest_lower=9\nbest_upper=9\n"
    digests = {"report 2 4": oracle.digest(text)}
    assert oracle.check(report, op_result(text), "python", digests) is None
    assert "digest" in oracle.check(report, op_result(text + "x=1\n"), "python", digests)
    swapped = "k=2\nd=4\nbest_lower=10\nbest_upper=9\n"
    digests["report 2 4"] = oracle.digest(swapped)
    assert "best_lower" in oracle.check(report, op_result(swapped), "python", digests)


# ------------------------------------------------------------ full sizes

LARGEST_LAYERS = {
    "search-deep": {"search.kernel.solve_root_s"},
    "search-wide": {"search.kernel.build_adjacency_s"},
    "verify": {"analysis.audit_s", "core.check_s"},
    "table": {"bounds.report_s", "bounds.table_extra_s"},
}


@pytest.mark.skipif(os.environ.get("PERFBENCH_FULL") != "1", reason="set PERFBENCH_FULL=1")
@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_shares_at_full_size(workload):
    code, lines = bench("--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "1")
    assert code == 0, lines
    units = dict(run.PER_LAYER)
    metrics = {m: v["value"] for m, v in result_of(lines)["metrics"].items()
               if units[m] == "s" and m != "trace.overhead_s"}
    named = sum(metrics[m] for m in LARGEST_LAYERS[workload])
    others = max(v for m, v in metrics.items() if m not in LARGEST_LAYERS[workload])
    assert named > others, metrics
