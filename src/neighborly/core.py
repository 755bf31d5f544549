"""Vectors over {0, 1, *} and the pairwise-distance constraint.

A joker vector of length d is a word over the alphabet {0, 1, *}; the *
symbol (the "joker") is a wildcard that never contributes to Hamming
distance.  A set of joker vectors whose pairwise distances all lie in
{1, ..., k} is exactly a k-neighborly family in the box picture, so this
module is the data model everything else builds on.

A family is stored as text: the sorted rank strings of its members (each
word with * written as 2), joined.  The pair check, the audit, the search
and the file writer read that string.  A ``JokerVector`` (two bit masks,
values and joker positions; bit i is character i of the word) is the
public form of one member: ``Family.of`` takes them, and iteration,
``sorted_members`` and a failed check's pair return them.  The pair check
runs in the search package's kernel (``search._kernel``), compiled or pure
Python.  The one memory budget, ``MEMORY_BUDGET``, is here too: the
constructions, the graph and the search call ``check_memory`` before they
allocate.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, NamedTuple, Optional, Tuple

from .errors import DimensionError, DomainError, ResourceError, ValidationError

# the one memory budget: a search, a graph or a family needing more is refused
MEMORY_BUDGET = 512 * 1024 * 1024


def check_memory(subject: str, estimated: int) -> None:
    """ResourceError when ``estimated`` bytes exceed ``MEMORY_BUDGET``;
    ``subject`` names what would need them, in the plural."""
    if estimated > MEMORY_BUDGET:
        raise ResourceError(f"{subject} need ~{estimated} bytes, budget is {MEMORY_BUDGET}")


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
    only when asked for (iteration, ``sorted_members``).

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
        return cls.from_strings(d, k, map(str, members), validated)

    @classmethod
    def from_strings(cls, d: int, k: int, words: Iterable[str], validated: bool = False) -> "Family":
        """The family of these words, sorted by their own rank strings.

        Errors come in this order: a bad symbol or an empty word (the
        first in input order), then k out of range, then a word of the
        wrong length (the first in input order).  "12" and "1*" would share
        a rank string, so the symbols are checked before any word is ranked.
        """
        words = list(words)
        if not only_symbols("".join(words)) or not all(words):
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


def only_symbols(text: str) -> bool:
    """Whether every character of ``text`` is 0, 1 or *."""
    # one table pass over the bytes; str.count per symbol takes 9x longer
    return text.isascii() and not text.encode("ascii").translate(None, b"01*")


def _check_k(d: int, k: int) -> None:
    if not 1 <= k <= d:
        raise DomainError(f"need 1 <= k <= d, got k={k} d={d}")


def _joined(ranks: Iterable[str]) -> str:
    """Rank strings of one length, sorted without repeats and joined."""
    # repeats are dropped after sorting, so input that comes sorted (a word
    # product, a vertex mask) is sorted in linear time
    return "".join(dict.fromkeys(sorted(ranks)))


def is_k_neighborly(family: Family) -> NeighborlyCheck:
    """Check every unordered pair of distinct members for distance in {1..k}.

    Families of size 0 or 1 pass vacuously.  On failure the returned record
    carries the first bad pair (u, v) in sorted member order, u before v,
    and its distance; they are the only members built as vectors.

    The pairs are not visited one by one: the kernel's ``first_bad_pair``
    (described in ``search/_kernel_py.py``) tests each member against all
    later ones at once on bit masks.
    """
    from .search import _kernel  # at call time: search imports core

    pair = _kernel.get_kernel().first_bad_pair(family.ranks, len(family), family.d, family.k)
    if pair is None:
        return NeighborlyCheck(True, None, None)
    words = family.sorted_words()
    u, v = (JokerVector.from_string(words[i]) for i in pair)
    distance = ((u.bits ^ v.bits) & ~(u.jokers | v.jokers)).bit_count()  # jokers never count
    return NeighborlyCheck(False, (u, v), distance)
