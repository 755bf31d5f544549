"""Vectors over {0, 1, *} and the pairwise-distance constraint.

A joker vector of length d is a word over the alphabet {0, 1, *}; the *
symbol (the "joker") is a wildcard that never contributes to Hamming
distance.  A set of joker vectors whose pairwise distances all lie in
{1, ..., k} is exactly a k-neighborly family in the box picture, so this
module is the data model everything else builds on.

A vector is stored as two parallel bit masks (values and joker positions),
so that the distance of two vectors takes a couple of word operations.
Bit i of a mask corresponds to coordinate i, i.e. to character i of the
string form.  A family is stored as text instead: the sorted rank strings
of its members (each word with * written as 2), joined.  The pair check,
the audit, the search and the file writer read that string; vectors are
built from it only on request.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property, reduce
from operator import and_, or_
from typing import Iterable, Iterator, NamedTuple, Optional, Tuple

from .errors import DimensionError, DomainError, ValidationError


@dataclass(frozen=True, order=True)
class JokerVector:
    """Immutable word over {0,1,*}; ``bits`` holds the 1-positions, ``jokers`` the *-positions."""

    d: int
    bits: int
    jokers: int

    def __post_init__(self):
        if self.d < 1:
            raise DimensionError(f"vector length must be >= 1, got {self.d}")
        full = (1 << self.d) - 1
        if self.bits & ~full or self.jokers & ~full:
            raise DimensionError("mask bits beyond the vector length")
        if self.bits & self.jokers:
            raise DimensionError("a position cannot be both 1 and joker")

    @classmethod
    def from_string(cls, word: str) -> "JokerVector":
        bad = word.strip("01*")  # starts at the first symbol outside {0, 1, *}
        if bad:
            raise DomainError(f"invalid symbol {bad[0]!r} in {word!r}")
        # reversed, so character i is bit i; "" becomes d=0 and is refused below
        digits = word[::-1] or "0"
        bits = int(digits.replace("*", "0"), 2)
        jokers = int(digits.replace("1", "0").replace("*", "1"), 2)
        return cls(len(word), bits, jokers)

    def __str__(self) -> str:
        out = []
        for i in range(self.d):
            if self.jokers >> i & 1:
                out.append("*")
            else:
                out.append("1" if self.bits >> i & 1 else "0")
        return "".join(out)

    def __repr__(self) -> str:
        return f"JokerVector({str(self)!r})"

    @property
    def joker_count(self) -> int:
        return self.jokers.bit_count()

    @property
    def is_binary(self) -> bool:
        return self.jokers == 0


def _check_same_length(u: JokerVector, v: JokerVector) -> None:
    if u.d != v.d:
        raise DimensionError(f"length mismatch: {u.d} vs {v.d}")


def _check_binary(v: JokerVector, what: str = "operand") -> None:
    if v.jokers:
        raise DimensionError(f"{what} must be a binary vector, got {v}")


def hamming_distance(u: JokerVector, v: JokerVector) -> int:
    """Number of positions where u and v differ and neither holds a joker."""
    _check_same_length(u, v)
    return ((u.bits ^ v.bits) & ~(u.jokers | v.jokers)).bit_count()


def covers(u: JokerVector, v: JokerVector) -> bool:
    """True iff u agrees with binary v on every non-joker position of u."""
    _check_same_length(u, v)
    _check_binary(v, "covered vector")
    return (u.bits ^ v.bits) & ~u.jokers == 0


def complement(v: JokerVector) -> JokerVector:
    """Flip every bit of a binary vector."""
    _check_binary(v)
    return JokerVector(v.d, v.bits ^ ((1 << v.d) - 1), 0)


def join(v: JokerVector, u: JokerVector) -> JokerVector:
    """Coordinate-wise OR of two binary vectors."""
    _check_same_length(v, u)
    _check_binary(v)
    _check_binary(u)
    return JokerVector(v.d, v.bits | u.bits, 0)


class NeighborlyCheck(NamedTuple):
    """Outcome of a pairwise-distance check; falsy when a pair violates it."""

    ok: bool
    pair: Optional[Tuple[JokerVector, JokerVector]]
    distance: Optional[int]

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class Family:
    """A set of equal-length joker vectors with the distance-in-{1..k} contract attached.

    A family is stored as its rank strings: each member's word with * written
    as 2, so that string order is the output order (0 < 1 < *), sorted,
    without repeats and joined into ``ranks``.  Member i is
    ``ranks[i*d:(i+1)*d]``.  ``of`` (vectors in) and ``from_strings`` (words
    in) are the two ways to build one; both sort, and both take the
    ``validated`` flag as given.  ``JokerVector``s are built from the words
    only when asked for (``members``, iteration, ``sorted_members``).

    A freshly built Family is unchecked; ``validate()`` returns a copy marked
    validated, holding the same ``ranks``, after verifying every pair.
    Operations that rely on the pairwise constraint (cover profiles, audits)
    require a validated family.
    """

    d: int
    k: int
    ranks: str
    validated: bool = field(default=False, compare=False)

    def __post_init__(self):
        _check_k(self.d, self.k)

    @classmethod
    def of(cls, d: int, k: int, members: Iterable[JokerVector], validated: bool = False) -> "Family":
        members = list(members)
        _check_k(d, k)
        for m in members:
            if m.d != d:
                raise DimensionError(f"member {m} has length {m.d}, family has d={d}")
        return cls(d, k, _joined(map(_vector_sort_key, members)), validated)

    @classmethod
    def from_strings(cls, d: int, k: int, words: Iterable[str], validated: bool = False) -> "Family":
        """The family of these words, sorted by their own rank strings.

        Errors come as ``of`` raises them on the words' vectors: a bad
        symbol or an empty word (the first in input order), then k out of
        range, then a word of the wrong length.  "12" and "1*" would share
        a rank string, so the symbols are checked before any word is ranked.
        """
        words = list(words)
        text = "".join(words)
        if sum(map(text.count, "01*")) != len(text) or not all(words):
            for word in words:
                JokerVector.from_string(word)  # raises for the first bad word
        _check_k(d, k)
        if set(map(len, words)) - {d}:
            word = next(word for word in words if len(word) != d)
            raise DimensionError(f"member {word} has length {len(word)}, family has d={d}")
        return cls(d, k, _joined(word.replace("*", "2") for word in words), validated)

    def __len__(self) -> int:
        return len(self.ranks) // self.d

    def __iter__(self) -> Iterator[JokerVector]:
        """The members in output order, each built from its word."""
        return map(JokerVector.from_string, self.sorted_words())

    @cached_property
    def members(self) -> frozenset[JokerVector]:
        return frozenset(self)

    def sorted_members(self) -> list[JokerVector]:
        """Members in the deterministic output order (string form, 0 < 1 < *)."""
        return list(self)

    def sorted_words(self) -> list[str]:
        """The members' words in the output order, read off the rank strings."""
        text = self.ranks.replace("2", "*")
        return [text[i:i + self.d] for i in range(0, len(text), self.d)]

    def check(self) -> NeighborlyCheck:
        return is_k_neighborly(self)

    def validate(self) -> "Family":
        """Return a validated copy, or raise ValidationError naming a bad pair."""
        res = self.check()
        if not res:
            u, v = res.pair
            raise ValidationError(
                f"pair ({u}, {v}) has distance {res.distance}, outside 1..{self.k}"
            )
        return replace(self, validated=True)


def _check_k(d: int, k: int) -> None:
    if not 1 <= k <= d:
        raise DomainError(f"need 1 <= k <= d, got k={k} d={d}")


def _joined(ranks: Iterable[str]) -> str:
    """Rank strings of one length, sorted without repeats and joined."""
    # repeats are dropped after sorting, so input that comes sorted (a word
    # product, a vertex mask) is sorted in linear time
    return "".join(dict.fromkeys(sorted(ranks)))


def _vector_sort_key(v: JokerVector) -> str:
    """The word of v with * written as 2: its rank in the output order (0 < 1 < *)."""
    return str(v).replace("*", "2")


def is_k_neighborly(family: Family) -> NeighborlyCheck:
    """Check every unordered pair of distinct members for distance in {1..k}.

    Families of size 0 or 1 pass vacuously.  On failure the returned record
    carries the first bad pair (u, v) in sorted member order, u before v,
    and its distance; they are the only members built as vectors.

    The pairs are not visited one by one: see ``_first_bad_pair``, which
    tests each member against all later ones at once on bit masks.  Its
    compiled twin in the kernel library (``search/_kernel_c.c``) runs
    whenever that library loaded; both return the same pair.
    """
    from .search import _kernel  # at call time: search imports core

    n = len(family)
    if n < 2:
        return NeighborlyCheck(True, None, None)
    if _kernel.HAVE_COMPILED:
        first_bad_pair = _kernel.get_kernel("compiled").first_bad_pair
    else:
        first_bad_pair = _first_bad_pair
    pair = first_bad_pair(family.ranks, n, family.d, family.k)
    if pair is None:
        return NeighborlyCheck(True, None, None)
    words = family.sorted_words()
    u, v = (JokerVector.from_string(words[i]) for i in pair)
    return NeighborlyCheck(False, (u, v), hamming_distance(u, v))


def _first_bad_pair(ranks: str, n: int, d: int, k: int) -> Optional[Tuple[int, int]]:
    """Indices (i, j), i < j, of the first pair at a distance outside 1..k, or None.

    ``ranks`` joins the rank strings of n sorted members of length d, as
    ``Family.ranks`` holds them.  Each coordinate c gets two n-bit masks,
    member i at bit i: the members holding a 1 there and those holding a
    0.  For member u, the members that differ from u at a non-joker
    coordinate of u form one such mask, and the distance from u to every
    member at once is a count over these masks.  Their union rules out
    distance 0.  Distance above k needs more than k of the masks, so the
    count depends on how many u has:

    - at most k (u has at least d-k jokers): no count is needed;
    - exactly k+1: the intersection of the masks;
    - more: a binary counter with (k+1).bit_length() bit planes,
      preloaded so that it carries out of its top plane exactly when the
      distance exceeds k.

    One mask per member selects the members after it.  So the whole check
    takes O(n*d*log k) operations on n-bit integers, O(n*d) when
    d-k <= 1, instead of n^2/2 distance evaluations.  This is the pure
    twin of the kernel library's ``neighborly_first_bad_pair`` and the
    oracle it is tested against.
    """
    if n < 2:
        return None
    full = (1 << n) - 1
    # column c of the rank strings, read as an n-bit integer with member i at bit i
    columns = [ranks[c::d][::-1] for c in range(d)]
    ones = [int(col.replace("2", "0"), 2) for col in columns]
    jokers = [int(col.replace("1", "0").replace("2", "1"), 2) for col in columns]
    # per column, the members differing from a word's symbol there ("2": none)
    differing = [{"0": one, "1": full ^ one ^ joker} for one, joker in zip(ones, jokers)]
    planes = (k + 1).bit_length()
    preload = (1 << planes) - k - 1  # a count above k carries out of the top plane
    count0 = [full if preload >> p & 1 else 0 for p in range(planes)]
    for i in range(n - 1):
        masks = [col[ch] for ch, col in zip(ranks[i * d:(i + 1) * d], differing) if ch != "2"]
        good = reduce(or_, masks, 0)  # differ somewhere: distance >= 1
        need = len(masks) - k  # distance > k needs more than k of the masks
        if need == 1:
            good &= ~reduce(and_, masks)
        elif need > 1:
            count = count0[:]
            over = 0  # distance > k
            for carry in masks:
                for p in range(planes):
                    plane = count[p]
                    count[p] = plane ^ carry
                    carry &= plane
                    if not carry:
                        break
                else:
                    over |= carry
            good &= ~over
        bad = full >> (i + 1) << (i + 1) & ~good
        if bad:
            return i, (bad & -bad).bit_length() - 1
    return None
