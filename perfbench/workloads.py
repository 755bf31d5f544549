"""The benchmark's workloads: seeded CLI operation lists and their input files.

Every workload is a fixed list of ``neighborly`` CLI invocations.  The seed
changes the inputs the program sees (greedy restart seeds, coordinate
permutations and bit flips of the verified families, the order of the
report cells) but not the amount of work each operation is meant to do.
``smoke`` swaps in tiny sizes with the same structure, for the benchmark's
own tests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

WORKLOADS = ("search-deep", "search-wide", "verify", "table")

# Searches never stop on time: the node cap alone ends a capped search, so
# node counts and results repeat exactly for one seed on any machine.
SEARCH_MAX_SECONDS = "3600"

# (k, d, node cap or None for an exhaustive search)
SEARCHES = {
    "search-deep": [(2, 5, None), (2, 6, 50_000), (3, 6, 50_000)],
    "search-wide": [(6, 7, None), (3, 7, 500), (4, 7, 500), (5, 7, 500)],
}
SMOKE_SEARCHES = {
    "search-deep": [(2, 5, None), (2, 6, 300)],
    "search-wide": [(3, 4, None), (2, 5, 100)],
}

# (construction name, parameters, family size the construction must give)
FAMILIES = [
    ("corollary35", (12,), 3072),
    ("alon-product", (5, 14), 768),
    ("alon-product", (6, 14), 1296),
    ("b-config", (6, 14), 470),
]
SMOKE_FAMILIES = [
    ("corollary35", (6,), 48),
    ("alon-product", (3, 8), 48),
    ("b-config", (3, 8), 16),
]
# index into the family list of the one that also gets a corrupted copy
CORRUPTED = {False: 3, True: 2}

TABLE_LIMIT = {False: 40, True: 10}


class BenchError(Exception):
    """The benchmark itself could not run (not an operation failure)."""


@dataclass(frozen=True)
class Op:
    """One CLI invocation and what the oracle needs to judge its output."""

    argv: tuple[str, ...]
    kind: str  # "search", "verify", "table" or "report"
    k: int = 0
    d: int = 0
    exhaustive: bool = False  # search: must end certified
    witness: Optional[str] = None  # search: witness file path
    size: int = 0  # verify: members in the file
    valid: bool = True  # verify: whether the file is k-neighborly


def build(name: str, seed: int, workdir: Path, smoke: bool = False) -> list[Op]:
    """The operation list of workload ``name`` for ``seed``; writes input files."""
    rng = random.Random(f"{name}/{seed}")
    if name in SEARCHES:
        return _search_ops(name, rng, workdir, smoke)
    if name == "verify":
        return _verify_ops(rng, workdir, smoke)
    if name == "table":
        return _table_ops(rng, smoke)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


def _search_ops(name: str, rng: random.Random, workdir: Path, smoke: bool) -> list[Op]:
    cells = (SMOKE_SEARCHES if smoke else SEARCHES)[name]
    greedy_seed = str(rng.randrange(1 << 16))
    ops = []
    for i, (k, d, cap) in enumerate(cells):
        witness = str(workdir / f"witness-{i}-{k}-{d}.txt")
        argv = ["search", str(k), str(d), "--seed", greedy_seed,
                "--max-seconds", SEARCH_MAX_SECONDS, "--witness", witness]
        if cap is not None:
            argv += ["--max-nodes", str(cap)]
        ops.append(Op(tuple(argv), "search", k, d, exhaustive=cap is None, witness=witness))
    return ops


def _construction(name: str, params: tuple[int, ...]):
    from neighborly import alon_product, b_config_family, extremal_dminus1_family

    if name == "corollary35":
        return extremal_dminus1_family(*params)
    if name == "alon-product":
        return alon_product(*params)
    return b_config_family(*params)


def _scramble(words: list[str], d: int, rng: random.Random) -> list[str]:
    """Permute coordinates and flip bits; distances and joker counts are kept."""
    perm = rng.sample(range(d), d)
    flips = [rng.random() < 0.5 for _ in range(d)]
    swap = {"0": "1", "1": "0", "*": "*"}
    out = [
        "".join(swap[w[p]] if f else w[p] for p, f in zip(perm, flips)) for w in words
    ]
    rng.shuffle(out)
    return out


def _corrupt(words: list[str], rng: random.Random) -> list[str]:
    """Add a copy of one member with a bit turned into a joker: distance 0 to it."""
    present = set(words)
    while True:
        w = rng.choice(words)
        binary = [i for i, ch in enumerate(w) if ch != "*"]
        i = rng.choice(binary)
        bad = w[:i] + "*" + w[i + 1:]
        if bad not in present:
            out = list(words)
            out.insert(rng.randrange(len(out) + 1), bad)
            return out


def _write_family(path: Path, d: int, k: int, words: list[str]) -> None:
    path.write_text(f"# perfbench input\nd={d} k={k}\n" + "".join(w + "\n" for w in words),
                    encoding="ascii")


def _verify_ops(rng: random.Random, workdir: Path, smoke: bool) -> list[Op]:
    families = SMOKE_FAMILIES if smoke else FAMILIES
    ops = []
    for i, (name, params, size) in enumerate(families):
        family = _construction(name, params)
        if len(family) != size:
            raise BenchError(
                f"construction {name} {params} gave {len(family)} members, "
                f"the workload is defined with {size}"
            )
        d, k = family.d, family.k
        words = _scramble([str(m) for m in family.sorted_members()], d, rng)
        path = workdir / f"family-{i}.txt"
        _write_family(path, d, k, words)
        ops.append(Op(("verify", str(path)), "verify", k, d, size=size))
        if i == CORRUPTED[smoke]:
            path = workdir / f"family-{i}-corrupted.txt"
            _write_family(path, d, k, _corrupt(words, rng))
            ops.append(Op(("verify", str(path)), "verify", k, d, size=size + 1, valid=False))
    return ops


def table_cells(limit: int) -> list[tuple[int, int]]:
    return [(k, d) for d in range(1, limit + 1) for k in range(1, d + 1)]


def _table_ops(rng: random.Random, smoke: bool) -> list[Op]:
    limit = TABLE_LIMIT[smoke]
    cells = table_cells(limit)
    rng.shuffle(cells)
    ops = [Op(("table", str(limit), str(limit)), "table", limit, limit)]
    ops += [Op(("report", str(k), str(d), "--machine"), "report", k, d) for k, d in cells]
    return ops
