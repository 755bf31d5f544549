"""Shared helpers: vector builders and independent mini-oracles."""

from __future__ import annotations

import os
import shutil

import pytest

from neighborly.core import Family, JokerVector
from neighborly.search import _kernel

# Where a C compiler exists the compiled kernel library must have built:
# its tests fail rather than skip when it did not.
HAVE_CC = shutil.which(_kernel.default_compiler()[0]) is not None
requires_cc = pytest.mark.skipif(not HAVE_CC, reason="no C compiler")
# runs of tens of seconds, opted into with NEIGHBORLY_SLOW=1
slow = pytest.mark.skipif(os.environ.get("NEIGHBORLY_SLOW") != "1", reason="NEIGHBORLY_SLOW=1 runs it")


def jv(word: str) -> JokerVector:
    return JokerVector.from_string(word)


def fam(d: int, k: int, *words: str) -> Family:
    return Family.from_strings(d, k, words)


def pascal_binomial(n: int, k: int) -> int:
    """Binomial via Pascal's triangle; independent of math.comb."""
    if k < 0 or k > n:
        return 0
    row = [1]
    for _ in range(n):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    return row[k]


def naive_distance(a: str, b: str) -> int:
    """Reference Hamming distance straight off the definition."""
    assert len(a) == len(b)
    return sum(
        1 for x, y in zip(a, b) if x != "*" and y != "*" and x != y
    )


def all_binaries(d: int) -> list[JokerVector]:
    return [JokerVector(d, bits, 0) for bits in range(1 << d)]


def random_words(rng, d: int, size: int, joker_rate: float) -> list[str]:
    """``size`` random words of length d, repeats possible."""
    return [
        "".join("*" if rng.random() < joker_rate else rng.choice("01") for _ in range(d))
        for _ in range(size)
    ]


def random_family(rng, d: int, k: int, size: int, joker_rate: float, validated: bool = False) -> Family:
    """Up to ``size`` random words of length d; ``validated`` forges the flag unchecked."""
    words = set(random_words(rng, d, size, joker_rate))
    return Family.of(d, k, map(JokerVector.from_string, words), validated=validated)


@pytest.fixture
def tmp_family_file(tmp_path):
    def write(text: str):
        path = tmp_path / "family.txt"
        path.write_text(text)
        return str(path)

    return write
