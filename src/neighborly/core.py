"""Vectors over {0, 1, *} and the pairwise-distance constraint.

A joker vector of length d is a word over the alphabet {0, 1, *}; the *
symbol (the "joker") is a wildcard that never contributes to Hamming
distance.  A set of joker vectors whose pairwise distances all lie in
{1, ..., k} is exactly a k-neighborly family in the box picture, so this
module is the data model everything else builds on.

Vectors are stored as two parallel bit masks (values and joker positions)
so that distances reduce to a couple of word operations; the search module
evaluates millions of them.  Bit i of a mask corresponds to coordinate i,
i.e. to character i of the string form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
        bits = jokers = 0
        for i, ch in enumerate(word):
            if ch == "1":
                bits |= 1 << i
            elif ch == "*":
                jokers |= 1 << i
            elif ch != "0":
                raise DomainError(f"invalid symbol {ch!r} in {word!r}")
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

    def concat(self, other: "JokerVector") -> "JokerVector":
        return JokerVector(
            self.d + other.d,
            self.bits | other.bits << self.d,
            self.jokers | other.jokers << self.d,
        )


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


def covered_vectors(u: JokerVector) -> Iterator[JokerVector]:
    """All 2^t binary vectors covered by u (t = joker count of u)."""
    base = u.bits
    jm = u.jokers
    sub = 0
    while True:
        yield JokerVector(u.d, base | sub, 0)
        if sub == jm:
            return
        sub = (sub - jm) & jm


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

    A freshly built Family is unchecked; ``validate()`` returns a copy marked
    validated after verifying every pair.  Operations that rely on the
    pairwise constraint (cover profiles, audits) require a validated family.
    """

    d: int
    k: int
    members: frozenset[JokerVector]
    validated: bool = field(default=False, compare=False)

    def __post_init__(self):
        if not 1 <= self.k <= self.d:
            raise DomainError(f"need 1 <= k <= d, got k={self.k} d={self.d}")
        for m in self.members:
            if m.d != self.d:
                raise DimensionError(f"member {m} has length {m.d}, family has d={self.d}")

    @classmethod
    def of(cls, d: int, k: int, members: Iterable[JokerVector], validated: bool = False) -> "Family":
        return cls(d, k, frozenset(members), validated)

    @classmethod
    def from_strings(cls, d: int, k: int, words: Iterable[str]) -> "Family":
        return cls.of(d, k, (JokerVector.from_string(w) for w in words))

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[JokerVector]:
        return iter(self.members)

    def sorted_members(self) -> list[JokerVector]:
        """Members in the deterministic output order (string form, 0 < 1 < *).

        The order is sorted once per family and handed on to its validated
        copy, so checking, auditing and writing a family sort it only once.
        """
        order = self.__dict__.get("_order")
        if order is None:
            order = tuple(sorted(self.members, key=_vector_sort_key))
            object.__setattr__(self, "_order", order)
        return list(order)

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
        checked = Family(self.d, self.k, self.members, validated=True)
        object.__setattr__(checked, "_order", self.__dict__.get("_order"))
        return checked


# symbol -> rank in the output order of members (0 < 1 < *)
_RANKS = str.maketrans("01*", "012")


def _vector_sort_key(v: JokerVector) -> str:
    return str(v).translate(_RANKS)


# symbol -> bit of the column masks in is_k_neighborly
_ONES = str.maketrans("01*", "010")
_ZEROS = str.maketrans("01*", "100")


def is_k_neighborly(family: Family) -> NeighborlyCheck:
    """Check every unordered pair of distinct members for distance in {1..k}.

    Families of size 0 or 1 pass vacuously.  On failure the returned record
    carries the first bad pair (u, v) in sorted member order, u before v,
    and its distance.

    The pairs are not visited one by one.  With the members indexed 0..n-1
    in sorted order, each coordinate c gets two n-bit masks: the members
    holding a 1 there and those holding a 0.  For member i, the later
    members that differ from it at a non-joker coordinate of i form one
    such mask; counting those differences per later member with k+1
    threshold masks (``at[j]``: distance >= j+1) takes O(d*k) big-integer
    operations on n-bit integers, so the whole check costs O(n*d*k) of
    them instead of n^2/2 distance evaluations.
    """
    members = family.sorted_members()
    n, k = len(members), family.k
    # column c of the words, read as an n-bit integer with member i at bit i
    columns = ["".join(col)[::-1] for col in zip(*map(str, members))]
    ones = [int(col.translate(_ONES), 2) for col in columns]
    zeros = [int(col.translate(_ZEROS), 2) for col in columns]
    for i, u in enumerate(members):
        shift = i + 1  # bit j of the masks below is member shift + j
        at = [0] * (k + 1)
        top = 0  # at[j] is still empty for j > top
        for c in range(family.d):
            if u.jokers >> c & 1:
                continue
            differ = (zeros[c] if u.bits >> c & 1 else ones[c]) >> shift
            for j in range(top, 0, -1):
                at[j] |= at[j - 1] & differ
            at[0] |= differ
            if top < k:
                top += 1
        later = (1 << (n - shift)) - 1
        bad = (later & ~at[0]) | at[k]
        if bad:
            v = members[shift + (bad & -bad).bit_length() - 1]
            return NeighborlyCheck(False, (u, v), hamming_distance(u, v))
    return NeighborlyCheck(True, None, None)
