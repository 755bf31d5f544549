"""Output oracle: decides whether one CLI operation gave the right answer.

``check`` returns None for a correct operation and a one-line reason
otherwise.  Search witnesses are re-checked here with a pairwise distance
check written off the definition, without ``neighborly.core``; certified
values are compared with ``neighborly.reference`` (or, where it has none,
with the values pinned below); bound tables and reports must match the
digests of the seed code's output in ``digests.json``.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path
from typing import Optional

from workloads import Op

DIGESTS_PATH = Path(__file__).with_name("digests.json")

# Exact values that neighborly.reference does not hold, each certified by an
# exhaustive search: (2,5) by the seed code's Python kernel (3,660 nodes),
# (2,6) by its compiled kernel (1.34 M nodes).
PINNED_EXACT = {(2, 5): 12, (2, 6): 16}

AUDIT_CHECK_COUNT = 6

_SEARCH_HEAD = re.compile(r"^(≥?)(\d+) (\w+)$")
_SEARCH_STATS = re.compile(r"^nodes=(\d+) elapsed=\S+ kernel=(\w+) formula_upper=(\d+)$")


def load_digests() -> dict[str, str]:
    return json.loads(DIGESTS_PATH.read_text(encoding="ascii"))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:32]


def joker_distance(a: str, b: str) -> int:
    return sum(1 for x, y in zip(a, b) if x != y and "*" not in (x, y))


def check_witness(path: str, k: int, d: int, size: int) -> Optional[str]:
    try:
        lines = Path(path).read_text(encoding="ascii").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        return f"witness unreadable: {exc}"
    body = [line.rstrip() for line in lines if line.strip() and not line.startswith("#")]
    if not body or body[0] != f"d={d} k={k}":
        return f"witness header is {body[:1]}, expected 'd={d} k={k}'"
    words = body[1:]
    if len(words) != size:
        return f"witness has {len(words)} members, search reported {size}"
    if len(set(words)) != len(words):
        return "witness repeats a member"
    for w in words:
        if len(w) != d or set(w) - set("01*"):
            return f"witness member {w!r} is not a word over 01* of length {d}"
    for i, a in enumerate(words):
        for b in words[i + 1:]:
            dist = joker_distance(a, b)
            if not 1 <= dist <= k:
                return f"witness pair {a} {b} has distance {dist}, outside 1..{k}"
    return None


def exact_value(k: int, d: int) -> Optional[int]:
    from neighborly import reference

    known = reference.exact_value(k, d)
    return known[0] if known is not None else PINNED_EXACT.get((k, d))


def check_search(op: Op, res: dict, kernel: str) -> Optional[str]:
    from neighborly import bounds

    if res["exit"] != 0:
        return f"exit {res['exit']}: {res['stderr'].strip()[-200:]}"
    lines = res["stdout"].splitlines()
    head = _SEARCH_HEAD.match(lines[0]) if lines else None
    stats = _SEARCH_STATS.match(lines[1]) if len(lines) > 1 else None
    if head is None or stats is None:
        return f"unparsable search output {lines[:2]}"
    prefix, size, status = head.group(1), int(head.group(2)), head.group(3)
    if status not in ("optimal", "timeout") or (prefix == "") != (status == "optimal"):
        return f"unexpected status line {lines[0]!r}"
    if op.exhaustive and status != "optimal":
        return f"exhaustive search ended {status}"
    if stats.group(2) != kernel:
        return f"ran kernel {stats.group(2)}, expected {kernel}"
    rep = bounds.report(op.k, op.d)
    if int(stats.group(3)) != rep.best_upper:
        return f"formula_upper={stats.group(3)}, bounds give {rep.best_upper}"
    if not rep.entries["alon_lower"] <= size <= rep.best_upper:
        return f"size {size} outside {rep.entries['alon_lower']}..{rep.best_upper}"
    exact = exact_value(op.k, op.d)
    if exact is not None and size > exact:
        return f"size {size} exceeds the exact value {exact}"
    if status == "optimal" and size != (rep.best_upper if exact is None else exact):
        return f"certified {size}, but the exact value is {exact} and the formula bound {rep.best_upper}"
    return check_witness(op.witness, op.k, op.d, size)


def check_verify(op: Op, res: dict) -> Optional[str]:
    if not op.valid:
        if res["exit"] != 1 or res["stdout"] or not res["stderr"].startswith("invalid family:"):
            return f"corrupted file: exit {res['exit']}, stderr {res['stderr'][:80]!r}"
        return None
    if res["exit"] != 0:
        return f"exit {res['exit']}: {(res['stderr'] or res['stdout']).strip()[-200:]}"
    lines = res["stdout"].splitlines()
    n = op.size
    expected_head = f"family of {n} vectors, d={op.d}, k={op.k}: k-neighborly"
    passes = {line[5:] for line in lines if line.startswith("PASS ")}
    if not lines or lines[0] != expected_head:
        return f"first line {lines[:1]}, expected {expected_head!r}"
    if len(passes) != AUDIT_CHECK_COUNT or any(line.startswith("FAIL") for line in lines):
        return f"{len(passes)} PASS lines, expected {AUDIT_CHECK_COUNT} and no FAIL"
    if lines[-1] != f"sum of weights = {n} (family size {n})":
        return f"last line {lines[-1]!r}, expected a weight sum of {n}"
    return None


def _rows_ordered(op: Op, stdout: str) -> Optional[str]:
    if op.kind == "table":
        for row in stdout.splitlines()[1:]:
            k, d, lower, prior, new, _ = row.split(",")
            if not int(lower) <= int(new.rstrip("*")) < int(prior):
                return f"table row {row!r} is not lower <= new < prior"
        return None
    fields = dict(line.split("=", 1) for line in stdout.splitlines())
    if not int(fields["best_lower"]) <= int(fields["best_upper"]):
        return f"report {op.k} {op.d} has best_lower > best_upper"
    return None


def check_bounds_output(op: Op, res: dict, digests: dict[str, str]) -> Optional[str]:
    if res["exit"] != 0:
        return f"exit {res['exit']}: {res['stderr'].strip()[-200:]}"
    key = f"{op.kind} {op.k} {op.d}"
    if digest(res["stdout"]) != digests.get(key):
        return f"{key} output differs from the seed code's digest"
    try:
        return _rows_ordered(op, res["stdout"])
    except (ValueError, KeyError) as exc:
        return f"{key} output unparsable: {exc}"


def check(op: Op, res: dict, kernel: str, digests: dict[str, str]) -> Optional[str]:
    if op.kind == "search":
        return check_search(op, res, kernel)
    if op.kind == "verify":
        return check_verify(op, res)
    return check_bounds_output(op, res, digests)
