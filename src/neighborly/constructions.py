"""Generators for the extremal configurations.

The isodiametric extremal set, the staircase distance-1 code, the block
product realizing the product lower bound, and the {11,10,0*} x cube
family attaining n(d-1, d).  Each is generated as words over {0,1,*}; a
product of families is the product of their word lists, each word of the
first followed by each word of the next.  The families are built from
those words (``Family.from_strings``) and come validated.  Every builder
checks its closed-form size against the memory budget before it builds a
word.
"""

from __future__ import annotations

from itertools import combinations, product
from math import prod
from typing import Iterable, List, Sequence

from .core import Family, _check_k, check_memory
from .errors import DomainError
from .bounds import b_config_size

# Peak bytes of building a family, per member and per symbol of a member:
# the word, its rank string, the sort and the joined ranks.  tracemalloc
# over `construct` and `search --witness` at d = 12-24 read 168-245 bytes
# per member; this gives 210-270.
MEMBER_BYTES, SYMBOL_BYTES = 150, 5


def _check_size(name: str, size: int, d: int) -> None:
    """ResourceError, before a word is built, when ``size`` members of d
    symbols would exceed the memory budget."""
    check_memory(f"the {size} members of {name}", size * (MEMBER_BYTES + SYMBOL_BYTES * d))


def _ball_words(m: int, t: int) -> List[str]:
    """The binary words of length m within distance t of 0^m."""
    out = []
    for r in range(t + 1):
        for ones in combinations(range(m), r):
            word = ["0"] * m
            for i in ones:
                word[i] = "1"
            out.append("".join(word))
    return out


def _products(blocks: Sequence[Iterable[str]]) -> List[str]:
    """Every concatenation of one word from each block, in order."""
    return list(map("".join, product(*blocks)))


def _staircase_words(m: int) -> List[str]:
    """The m+1 words 1^j 0 *^(m-1-j) (j < m) plus 1^m."""
    if m < 1:
        raise DomainError(f"staircase block size must be >= 1, got {m}")
    _check_size(f"a staircase block of size {m}", m + 1, m)
    return ["1" * j + "0" + "*" * (m - 1 - j) for j in range(m)] + ["1" * m]


def staircase_code(m: int) -> Family:
    """The m+1 words 1^j 0 *^(m-1-j) (j < m) plus 1^m, a (d=m, k=1) family;
    pairwise distance exactly 1."""
    return Family.from_strings(m, 1, _staircase_words(m), validated=True)


def alon_product(k: int, d: int) -> Family:
    """Product of k staircase blocks realizing the product lower bound.

    Block i has size floor((d+i)/k); the sizes sum to d and the product of
    (size+1) is alon_lower(k, d).  Distinct members differ in 1..k blocks,
    each contributing distance exactly 1.
    """
    _check_k(d, k)
    blocks = [_staircase_words((d + i) // k) for i in range(k)]
    _check_size(f"alon_product({k}, {d})", prod(map(len, blocks)), d)
    return Family.from_strings(d, k, _products(blocks), validated=True)


def extremal_dminus1_family(d: int) -> Family:
    """The family {11, 10, 0*} x {0,1}^(d-2) attaining n(d-1, d) = 3*2^(d-2)."""
    if d < 2:
        raise DomainError(f"need d >= 2, got {d}")
    _check_size(f"extremal_dminus1_family({d})", 3 << (d - 2), d)
    blocks = [("11", "10", "0*")] + [("0", "1")] * (d - 2)
    return Family.from_strings(d, d - 1, _products(blocks), validated=True)


def b_config_family(k: int, d: int) -> Family:
    """The extremal diameter-k binary configuration B_k in dimension d.

    Even k = 2t: the radius-t ball around 0.  Odd k = 2t+1: {0,1} times
    the radius-t ball around 0 in dimension d-1.  Distinct binary words
    are at least 1 apart, so B_k is a k-neighborly family.
    """
    _check_k(d, k)
    size = b_config_size(k, d)
    _check_size(f"b_config({k}, {d})", size, d)
    t, odd = divmod(k, 2)
    if odd:
        words = _products([("0", "1"), _ball_words(d - 1, t)])
    else:
        words = _ball_words(d, t)
    assert len(words) == size
    return Family.from_strings(d, k, words, validated=True)
