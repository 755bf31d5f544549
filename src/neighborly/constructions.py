"""Generators for the extremal configurations.

Hamming balls, the isodiametric extremal set, the staircase distance-1
code, the block product realizing the product lower bound, and the
{11,10,0*} x cube family attaining n(d-1, d).  Each is generated as words
over {0,1,*}; a product of families is the product of their word lists,
each word of the first followed by each word of the next.  The families
are built from those words (``Family.from_strings``) and come validated;
``hamming_ball``, ``b_config`` and ``staircase_code`` return sets of
vectors.  Every builder but ``hamming_ball`` checks its closed-form size
against the memory budget before it builds a word.
"""

from __future__ import annotations

from itertools import combinations, product
from math import prod
from typing import Iterable, List, Sequence, Set

from .core import Family, JokerVector
from .errors import DimensionError, DomainError
from .bounds import b_config_size
from .search import _kernel

# Peak bytes of building a family, per member and per symbol of a member:
# the word, its rank string, the sort and the joined ranks.  tracemalloc
# over `construct` and `search --witness` at d = 12-24 read 168-245 bytes
# per member; this gives 210-270.
MEMBER_BYTES, SYMBOL_BYTES = 150, 5


def _check_size(name: str, size: int, d: int) -> None:
    """ResourceError, before a word is built, when ``size`` members of d
    symbols would exceed the memory budget."""
    _kernel.check_memory(f"the {size} members of {name}", size * (MEMBER_BYTES + SYMBOL_BYTES * d))


def _ball_words(center: str, t: int) -> List[str]:
    """The binary words within distance t of a binary word."""
    flip = {"0": "1", "1": "0"}
    out = []
    for r in range(t + 1):
        for flips in combinations(range(len(center)), r):
            word = list(center)
            for i in flips:
                word[i] = flip[word[i]]
            out.append("".join(word))
    return out


def hamming_ball(d: int, t: int, center: JokerVector) -> Set[JokerVector]:
    """All binary vectors within distance t of a binary center."""
    if not 0 <= t <= d:
        raise DomainError(f"radius {t} out of range for d={d}")
    if center.d != d:
        raise DimensionError(f"center has length {center.d}, expected {d}")
    if center.jokers:
        raise DimensionError("ball center must be binary")
    return set(map(JokerVector.from_string, _ball_words(str(center), t)))


def zero_vector(d: int) -> JokerVector:
    return JokerVector(d, 0, 0)


def _products(blocks: Sequence[Iterable[str]]) -> List[str]:
    """Every concatenation of one word from each block, in order."""
    return list(map("".join, product(*blocks)))


def _b_config_words(k: int, d: int) -> List[str]:
    """The words of b_config(k, d); see there."""
    if not 0 <= k <= d:
        raise DomainError(f"need 0 <= k <= d, got k={k} d={d}")
    size = b_config_size(k, d)
    _check_size(f"b_config({k}, {d})", size, d)
    t, odd = divmod(k, 2)
    if odd:
        words = _products([("0", "1"), _ball_words("0" * (d - 1), t)])
    else:
        words = _ball_words("0" * d, t)
    assert len(words) == size
    return words


def b_config(k: int, d: int) -> Set[JokerVector]:
    """The extremal diameter-k binary configuration B_k in dimension d.

    Even k = 2t: the radius-t ball around 0.  Odd k = 2t+1: {0,1} times
    the radius-t ball around 0 in dimension d-1.
    """
    return set(map(JokerVector.from_string, _b_config_words(k, d)))


def _staircase_words(m: int) -> List[str]:
    """The m+1 words 1^j 0 *^(m-1-j) (j < m) plus 1^m."""
    if m < 1:
        raise DomainError(f"staircase block size must be >= 1, got {m}")
    _check_size(f"a staircase block of size {m}", m + 1, m)
    return ["1" * j + "0" + "*" * (m - 1 - j) for j in range(m)] + ["1" * m]


def staircase_code(m: int) -> Set[JokerVector]:
    """The m+1 vectors 1^j 0 *^(m-1-j) (j < m) plus 1^m; pairwise distance exactly 1."""
    return set(map(JokerVector.from_string, _staircase_words(m)))


def alon_product(k: int, d: int) -> Family:
    """Product of k staircase blocks realizing the product lower bound.

    Block i has size floor((d+i)/k); the sizes sum to d and the product of
    (size+1) is alon_lower(k, d).  Distinct members differ in 1..k blocks,
    each contributing distance exactly 1.
    """
    if not 1 <= k <= d:
        raise DomainError(f"need 1 <= k <= d, got k={k} d={d}")
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
    """b_config viewed as an all-binary family (distinct binaries are >= 1 apart)."""
    if not 1 <= k <= d:
        raise DomainError(f"need 1 <= k <= d, got k={k} d={d}")
    return Family.from_strings(d, k, _b_config_words(k, d), validated=True)
