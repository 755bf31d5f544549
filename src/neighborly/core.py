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
from functools import reduce
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
        """The family of these words, sorted by their own rank strings.

        No member is rendered: the words are the sort keys.  Every word is
        built and the family checked before any is keyed by rank, where
        "12" and "1*" would be one key.
        """
        words = list(words)
        vectors = list(map(JokerVector.from_string, words))
        family = cls.of(d, k, vectors)
        by_rank = dict(zip((word.replace("*", "2") for word in words), vectors))
        ranks = sorted(by_rank)
        return family._with_order(tuple(map(by_rank.__getitem__, ranks)), "".join(ranks))

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[JokerVector]:
        return iter(self.members)

    def sorted_members(self) -> list[JokerVector]:
        """Members in the deterministic output order (string form, 0 < 1 < *).

        The order is sorted once per family and handed on to its validated
        copy, so checking, auditing and writing a family sort it only once.
        """
        return list(self._sorted()[0])

    def sorted_words(self) -> list[str]:
        """The members' words in the output order, read off the rank strings."""
        _, ranks = self._sorted()
        text = ranks.replace("2", "*")
        return [text[i:i + self.d] for i in range(0, len(text), self.d)]

    def _sorted(self) -> Tuple[Tuple[JokerVector, ...], str]:
        """The sorted members and the rank strings they were sorted by, joined.

        Member i's rank string (its word with * written as 2) is
        ``ranks[i*d:(i+1)*d]``.  A family read from words (``from_strings``)
        is built with this state; any other family renders each member
        once, here.
        """
        order = self.__dict__.get("_order")
        if order is None:
            by_rank = {_vector_sort_key(v): v for v in self.members}
            ranks = sorted(by_rank)
            order = tuple(map(by_rank.__getitem__, ranks))
            self._with_order(order, "".join(ranks))
        return order, self.__dict__["_ranks"]

    def _with_order(self, order: Tuple[JokerVector, ...], ranks: str) -> "Family":
        """Attach the sorted members and their joined rank strings; returns self.

        The caller vouches that ``order`` is ``members`` in ascending rank
        order and that ``ranks`` spells them.
        """
        object.__setattr__(self, "_order", order)
        object.__setattr__(self, "_ranks", ranks)
        return self

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
        return Family(self.d, self.k, self.members, validated=True)._with_order(*self._sorted())


def _vector_sort_key(v: JokerVector) -> str:
    """The word of v with * written as 2: its rank in the output order (0 < 1 < *)."""
    return str(v).replace("*", "2")


def is_k_neighborly(family: Family) -> NeighborlyCheck:
    """Check every unordered pair of distinct members for distance in {1..k}.

    Families of size 0 or 1 pass vacuously.  On failure the returned record
    carries the first bad pair (u, v) in sorted member order, u before v,
    and its distance.

    The pairs are not visited one by one: see ``_first_bad_pair``, which
    tests each member against all later ones at once on bit masks.  Its
    compiled twin in the kernel library (``search/_kernel_c.c``) runs
    whenever that library loaded; both return the same pair.
    """
    from .search import _kernel  # at call time: search imports core

    members, ranks = family._sorted()
    n = len(members)
    if n < 2:
        return NeighborlyCheck(True, None, None)
    if _kernel.HAVE_COMPILED:
        first_bad_pair = _kernel.get_kernel("compiled").first_bad_pair
    else:
        first_bad_pair = _first_bad_pair
    pair = first_bad_pair(ranks, n, family.d, family.k)
    if pair is None:
        return NeighborlyCheck(True, None, None)
    u, v = members[pair[0]], members[pair[1]]
    return NeighborlyCheck(False, (u, v), hamming_distance(u, v))


def _first_bad_pair(ranks: str, n: int, d: int, k: int) -> Optional[Tuple[int, int]]:
    """Indices (i, j), i < j, of the first pair at a distance outside 1..k, or None.

    ``ranks`` joins the rank strings of n sorted members of length d, as
    ``Family._sorted`` holds them.  Each coordinate c gets two n-bit masks,
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
