"""Weighted-cover analysis of a validated family.

A member u with t jokers covers exactly the 2^t binary vectors agreeing
with it outside the joker positions.  Partitioning {0,1}^d by the joker
count of the (unique) covering member and weighting each covered vector
by 1/2^t gives the machinery behind the weighted-cover bounds; ``audit``
re-proves every step of that machinery on a concrete family over all of
{0,1}^d, which is the main defense against implementation bugs in both
this package and any family file a user supplies.

Subsets of {0,1}^d are held as 2^d-bit integers: binary vector v is bit
v of the integer.  ``cover_profile`` returns the partition in this form,
as a ``CoverProfile``, and the audit reads the same map.  The classes are
built by the kernel's ``cover_map`` (``search._kernel``): the compiled
library walks each member's subcube vector by vector, and its pure twin
in ``search/_kernel_py.py`` shifts one subcube per member.  The Hamming
neighbourhoods of the diameter check are the kernel's ``neighbourhood``:
flipping coordinate j of every vector of a set is a masked swap of its
blocks of 2^j bits, so a neighbourhood takes d such swaps per unit of
radius, done in place on the set's words by the compiled library and on
big integers by the twin.  Complementing every vector of a set reverses
its 2^d bits, so a mirror is one byte-wise bit reversal.  Every check is
then a handful of whole-set operations.

The audit compares weights as integer numerators over 2^d: a vector
covered by a t-joker member weighs 2^(d-t).  ``fractions.Fraction`` only
carries the reported sums of weights and renders failure messages, which
write a weight as num/2^e.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Tuple

from .bounds import b_config_size, shell_depths
from .core import Family
from .errors import DomainError, ResourceError, ValidationError
from .search import _kernel

AUDIT_DIMENSION_CAP = 20
# hard ceiling on d for the audit whatever its cap, and for cover_profile:
# both hold several 2^d-bit sets at once (the audit up to four per joker
# count: the class, its mirror and their running unions), and at d=24 each
# is 2 MB (the pure-Python kernel's neighbourhood adds 48 MB of flip masks)
AUDIT_DIMENSION_LIMIT = 24


@dataclass(frozen=True)
class CoverProfile:
    """Partition of {0,1}^d by the joker count of the covering member.

    Every set is a 2^d-bit integer (see the module docstring).
    ``classes[t]`` is V(t), the binary vectors whose first covering member
    in sorted order has t jokers, and ``mirrored[t]`` is {~v : v in V(t)}.
    ``covered`` is the union of the classes; the uncovered vectors are its
    complement within 2^d bits.  ``collision`` is None when no vector is
    covered twice; otherwise it holds three words: the lowest vector
    covered by the first member (in sorted order) that meets an earlier
    one, the first member that covers it and the later one.
    """

    family: Family
    classes: Dict[int, int]
    mirrored: Dict[int, int]
    covered: int
    collision: Optional[Tuple[str, str, str]]

    def total_weight(self) -> Fraction:
        """Sum of f over {0,1}^d: |V(t)|/2^t over the classes."""
        return Fraction(_weight_numerator(self), 1 << self.family.d)


def _weight_numerator(cover: CoverProfile) -> int:
    """2^d times the sum of f over {0,1}^d: |V(t)|*2^(d-t) over the classes."""
    d = cover.family.d
    return sum(c.bit_count() << (d - t) for t, c in cover.classes.items())


def _require_validated(family: Family) -> None:
    if not family.validated:
        raise ValidationError("operation requires a validated family; call validate() first")


def _require_within_limit(d: int, what: str) -> None:
    if d > AUDIT_DIMENSION_LIMIT:
        raise ResourceError(
            f"{what} is exhaustive over 2^d vectors; d={d} exceeds the limit {AUDIT_DIMENSION_LIMIT}"
        )


def _cover_map(family: Family) -> CoverProfile:
    """The cover map of ``cover_profile``, collision included.

    The sets come from the kernel's ``cover_map``; the mirrors are built here.
    """
    d, n = family.d, len(family)
    classes, covered, clash = _kernel.get_kernel().cover_map(family.ranks, n, d)
    collision = None
    if clash is not None:
        i, lowest = clash
        v, words = _word(lowest, d), family.sorted_words()
        first = next(w for w in words if all(c in ("*", b) for c, b in zip(w, v)))
        collision = (v, first, words[i])
    mirrored = {t: _mirror(cls, d) for t, cls in classes.items()}
    return CoverProfile(family, classes, mirrored, covered, collision)


def _lowest(s: int) -> int:
    """The smallest element of a nonempty set."""
    return (s & -s).bit_length() - 1


def _word(v: int, d: int) -> str:
    """Binary vector v as its word: character i is bit i."""
    return format(v, f"0{d}b")[::-1]


def _reversed_bits() -> bytes:
    """Entry b is byte b with its 8 bits in reverse order."""
    table = [0]
    for bit in (128, 64, 32, 16, 8, 4, 2, 1):  # bit j of an index is bit 7-j of its entry
        table += [entry | bit for entry in table]
    return bytes(table)


_REVERSED_BITS = _reversed_bits()


def _mirror(s: int, d: int) -> int:
    """{~v : v in s}: ~v is 2^d-1-v, so the 2^d bits of s read backwards."""
    size = max(1, (1 << d) >> 3)  # bytes; below d=3 the set sits in the low bits of one
    backwards = s.to_bytes(size, "big").translate(_REVERSED_BITS)
    return int.from_bytes(backwards, "little") >> (8 * size - (1 << d))


def cover_profile(family: Family) -> CoverProfile:
    """Compute the cover classes, their mirrors, and the covered set.

    Covering members are unique for a validated family; a collision is
    reported as a ValidationError since it means the family (or this
    package) is broken.  Above AUDIT_DIMENSION_LIMIT (24) it raises
    ResourceError before building any set.
    """
    _require_validated(family)
    _require_within_limit(family.d, "cover profile")
    profile = _cover_map(family)
    if profile.collision is not None:
        v, prev, u = profile.collision
        raise ValidationError(f"{v} covered by both {prev} and {u}")
    return profile


@dataclass(frozen=True)
class CheckResult:
    passed: bool
    counterexample: Optional[str] = None


@dataclass(frozen=True)
class AuditReport:
    """Verdicts of the exhaustive weighted-cover checks for one family."""

    family_size: int
    checks: Dict[str, CheckResult]
    total_weight: Fraction

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks.values())

    def failures(self) -> Dict[str, CheckResult]:
        return {name: c for name, c in self.checks.items() if not c.passed}


AUDIT_CHECKS = (
    "unique_cover",
    "disjoint_mirror_classes",
    "prefix_diameter_bound",
    "mirror_weight_cap",
    "pair_weight_cap",
    "weight_identity",
)


def audit(family: Family, dimension_cap: int = AUDIT_DIMENSION_CAP) -> AuditReport:
    """Re-check the weighted-cover facts on a validated family, over all of {0,1}^d.

    Checks:
      unique_cover            at most one member covers each binary vector
      disjoint_mirror_classes the classes and their mirrors are pairwise disjoint
                              for every admissible prefix depth
      prefix_diameter_bound   each class prefix has diameter <= k+2i and size
                              within the isodiametric bound
      mirror_weight_cap       vectors in a mirrored class have weight <= 1/2^(d-k-i)
      pair_weight_cap         outside the first i+1 classes and mirrors,
                              f(v) + f(~v) <= 1/2^(i+1) + 1/2^(d-k-i-1)
                              (terminal odd depth: <= 1/2^i)
      weight_identity         sum of f over {0,1}^d equals |family| exactly

    Every class V(t) is one 2^d-bit set (see the module docstring); each
    check is decided by whole-set operations on the classes, their mirrors
    and the running unions V(0)|...|V(t) of both, built once:
      - a member's subcube must miss the union of the earlier ones;
      - a prefix P has diameter <= L exactly when P misses the
        (d-L-1)-neighbourhood of its mirror;
      - a mirrored class must miss the union of the classes over the cap;
      - the pair cap ANDs each class (the uncovered set counting as
        weight 0) with the union of the mirrors heavy enough to exceed
        the cap with it, one lookup by weight, and the live set with the
        result, so each class is touched once per depth;
      - the weight identity reads the class sizes.
    Building the cover map takes one step per covered vector of each
    member and one bit reversal per class for the mirrors; a diameter
    check is one kernel ``neighbourhood`` of radius d-L-1, d flips of
    every word of the set per unit of radius, and a second one of a
    single vector when it fails.  Weights and caps are numerators over
    2^d.
    A failed check names the lowest vector of the offending set.  d is
    capped (default 20) because every set is 2^d bits wide; above
    AUDIT_DIMENSION_LIMIT (24) the audit raises ResourceError whatever the
    cap.
    """
    _require_validated(family)
    d, k = family.d, family.k
    if d - k < 1:
        raise DomainError(f"audit requires d - k >= 1, got k={k} d={d}")
    _require_within_limit(d, "audit")
    if d > dimension_cap:
        raise DomainError(f"audit is exhaustive over 2^d vectors; d={d} exceeds cap {dimension_cap}")

    cover = _cover_map(family)
    classes, mirrored = cover.classes, cover.mirrored
    upto, mirror_upto = _running_unions(classes, d), _running_unions(mirrored, d)
    depths = shell_depths(k, d)

    collision = None
    if cover.collision is not None:
        v, prev, u = cover.collision
        collision = f"{v} covered by {prev} and {u}"

    # double-counting identity; it fails exactly when some vector is covered twice
    numerator = _weight_numerator(cover)
    total = Fraction(numerator, 1 << d)
    identity = None
    if numerator != len(family) << d:
        identity = f"sum of weights is {_dyadic(total)}, family size is {len(family)}"
        if cover.collision is not None:
            identity += f"; {cover.collision[0]} is covered more than once"

    failures = (  # in the order of AUDIT_CHECKS
        collision,
        _disjoint_mirror_failure(d, classes, mirrored, depths),
        _prefix_diameter_failure(d, k, upto, mirror_upto, depths),
        _mirror_weight_failure(d, k, mirrored, upto, depths),
        _pair_weight_failure(d, k, classes, upto, mirror_upto, depths),
        identity,
    )
    checks = {
        name: CheckResult(failure is None, failure)
        for name, failure in zip(AUDIT_CHECKS, failures, strict=True)
    }
    return AuditReport(len(family), checks, total)


def _dyadic(value: Fraction) -> str:
    """A weight as num/2^e, or as num when it is an integer."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/2^{value.denominator.bit_length() - 1}"


def _disjoint_mirror_failure(d, classes, mirrored, depths) -> Optional[str]:
    seen = 0
    named = []  # (name, set) in the order V(0), mirror V(0), V(1), ...
    for i in depths:
        for name, cls in ((f"V({i})", classes.get(i, 0)), (f"mirror V({i})", mirrored.get(i, 0))):
            clash = seen & cls
            if clash:
                v = _lowest(clash)
                first = next(n for n, s in named if s >> v & 1)
                return f"{_word(v, d)} lies in {first} and {name} at depth {i}"
            named.append((name, cls))
            seen |= cls
    return None


def _running_unions(sets: Dict[int, int], d: int) -> Dict[int, int]:
    """{t: sets[0] | ... | sets[t]} for t = 0..d; a t absent from ``sets``
    shares the union before it."""
    upto, union = {}, 0
    for t in range(d + 1):
        if t in sets:
            union |= sets[t]
        upto[t] = union
    return upto


def _weight(upto: Dict[int, int], v: int, d: int) -> int:
    """2^d f(v): v is in V(t) for the first t with v in ``upto[t]``, else uncovered."""
    return next((1 << (d - t) for t, union in upto.items() if union >> v & 1), 0)


def _prefix_diameter_failure(d, k, upto, mirror_upto, depths) -> Optional[str]:
    # a and b are more than L apart exactly when ~b is within d-L-1 of a
    neighbourhood = _kernel.get_kernel().neighbourhood
    for i in depths:
        prefix = upto[i]
        size = prefix.bit_count()
        cap = b_config_size(min(k + 2 * i, d), d)
        if size > cap:
            return f"prefix through depth {i} has {size} > {cap} vectors"
        limit = k + 2 * i
        radius = d - limit - 1
        far = prefix & neighbourhood(mirror_upto[i], radius, d)
        if far:
            # the lowest a with a partner; its partners all lie above it
            a = _lowest(far)
            b = _lowest(prefix & neighbourhood(1 << (a ^ ((1 << d) - 1)), radius, d))
            return (
                f"{_word(a, d)} and {_word(b, d)} are "
                f"{(a ^ b).bit_count()} > {limit} apart at depth {i}"
            )
    return None


def _mirror_weight_failure(d, k, mirrored, upto, depths) -> Optional[str]:
    for i in depths:
        # weight 1/2^t exceeds the cap 1/2^(d-k-i) exactly when t < d-k-i
        bad = mirrored.get(i, 0) & upto[d - k - i - 1]
        if bad:
            v = _lowest(bad)
            return (
                f"mirror of {_word(v ^ ((1 << d) - 1), d)} has weight "
                f"{_dyadic(Fraction(_weight(upto, v, d), 1 << d))} > 1/2^{d - k - i}"
            )
    return None


def _pair_weight_failure(d, k, classes, upto, mirror_upto, depths) -> Optional[str]:
    everything = (1 << (1 << d)) - 1
    # (2^d f on the set, the set), the uncovered vectors at weight 0; every
    # weight and cap below is a numerator over 2^d
    parts = [(1 << (d - t), cls) for t, cls in classes.items()]
    parts.append((0, everything & ~upto[d]))
    for i in depths:
        cap = (
            1 << (d - i)  # 1/2^i
            if 2 * i + 1 == d - k  # the terminal odd shell
            else (1 << (d - i - 1)) + (1 << (k + i + 1))  # 1/2^(i+1) + 1/2^(d-k-i-1)
        )
        # v of weight w fails when ~v is heavier than cap - w, that is when v
        # lies in the mirror of a V(s) with s <= d - (cap - w).bit_length();
        # a class heavier than the cap lies in the excluded prefix
        bad = 0
        for weight_v, cls in parts:
            bad |= cls & mirror_upto.get(d - (cap - weight_v).bit_length(), 0)
        bad &= ~(upto[i] | mirror_upto[i])  # the live set
        if bad:
            v = _lowest(bad)
            got = _weight(upto, v, d) + _weight(mirror_upto, v, d)  # f(v) + f(~v)
            return (
                f"f(v)+f(~v) = {_dyadic(Fraction(got, 1 << d))} exceeds the depth-{i} cap for "
                f"v={_word(v, d)}"
            )
    return None
