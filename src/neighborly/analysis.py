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
in ``search/_kernel_py.py`` shifts one subcube per member.  Flipping
coordinate j of every vector of a set is a masked swap of the 2^d/2^(j+1)
blocks of 2^j bits, so a Hamming neighbourhood takes d such swaps per unit
of radius.  Complementing every vector of a set reverses its 2^d bits, so
a mirror is one byte-wise bit reversal.  Every check is then a handful of
whole-set operations.

The audit compares weights as integer numerators over 2^d: a vector
covered by a t-joker member weighs 2^(d-t).  ``fractions.Fraction`` only
carries the reported sums of weights and renders failure messages, which
write a weight as num/2^e.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Optional, Tuple

from .bounds import b_config_size, shell_depths
from .core import Family
from .errors import DomainError, ResourceError, ValidationError
from .search import _kernel

AUDIT_DIMENSION_CAP = 20
# hard ceiling on d for the audit whatever its cap, and for cover_profile:
# both hold several 2^d-bit sets at once, and at d=24 each is 2 MB (the
# flip masks alone take 48 MB)
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


@lru_cache(maxsize=2)
def _flip_masks(d: int) -> Tuple[int, ...]:
    """Per coordinate j, the set of binary vectors of length d whose bit j is 0."""
    masks = []
    for j in range(d):
        mask, width = (1 << (1 << j)) - 1, 2 << j
        while width < 1 << d:
            mask |= mask << width
            width *= 2
        masks.append(mask)
    return tuple(masks)


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


def _neighbourhood(s: int, radius: int, masks: Tuple[int, ...]) -> int:
    """All binary vectors within Hamming distance ``radius`` of some vector of s."""
    for _ in range(radius):
        grown = s
        for j, low in enumerate(masks):
            grown |= ((s & low) << (1 << j)) | ((s >> (1 << j)) & low)
        s = grown
    return s


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

    Every class V(t) is one 2^d-bit set (see the module docstring), and
    each check is decided by whole-set operations:
      - a member's subcube must miss the union of the earlier ones;
      - a prefix P has diameter <= L exactly when P misses the
        (d-L-1)-neighbourhood of its mirror;
      - a mirrored class must miss every class heavier than the cap;
      - the pair cap compares the weights of each pair of classes
        (s, s'), the uncovered set counting as weight 0, once, and looks
        for a live v in V(s) with ~v in V(s') only when they exceed it;
      - the weight identity reads the class sizes.
    Building the cover map takes one step per covered vector of each
    member and one bit reversal per class for the mirrors; a diameter
    check takes d-L-1 rounds of d flips.  Weights and caps are numerators
    over 2^d.
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
        _prefix_diameter_failure(d, k, classes, mirrored, depths, _flip_masks(d)),
        _mirror_weight_failure(d, k, classes, mirrored, depths),
        _pair_weight_failure(d, k, cover, depths),
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


def _prefix_diameter_failure(d, k, classes, mirrored, depths, masks) -> Optional[str]:
    # a and b are more than L apart exactly when ~b is within d-L-1 of a
    prefix = mirror = 0
    for i in depths:
        prefix |= classes.get(i, 0)
        mirror |= mirrored.get(i, 0)
        size = prefix.bit_count()
        cap = b_config_size(min(k + 2 * i, d), d)
        if size > cap:
            return f"prefix through depth {i} has {size} > {cap} vectors"
        limit = k + 2 * i
        radius = d - limit - 1
        far = prefix & _neighbourhood(mirror, radius, masks)
        if far:
            # the lowest a with a partner; its partners all lie above it
            a = _lowest(far)
            b = _lowest(prefix & _neighbourhood(1 << (a ^ ((1 << d) - 1)), radius, masks))
            return (
                f"{_word(a, d)} and {_word(b, d)} are "
                f"{(a ^ b).bit_count()} > {limit} apart at depth {i}"
            )
    return None


def _mirror_weight_failure(d, k, classes, mirrored, depths) -> Optional[str]:
    for i in depths:
        # weight 1/2^t exceeds the cap 1/2^(d-k-i) exactly when t < d-k-i
        heavy = 0
        for t, cls in classes.items():
            if t < d - k - i:
                heavy |= cls
        bad = mirrored.get(i, 0) & heavy
        if bad:
            v = _lowest(bad)
            t = next(t for t, cls in classes.items() if cls >> v & 1)
            return (
                f"mirror of {_word(v ^ ((1 << d) - 1), d)} has weight "
                f"{_dyadic(Fraction(1, 1 << t))} > 1/2^{d - k - i}"
            )
    return None


def _pair_weight_failure(d, k, cover, depths) -> Optional[str]:
    everything = (1 << (1 << d)) - 1
    mirror_covered = 0
    for cls in cover.mirrored.values():
        mirror_covered |= cls
    # (2^d f on the set, the set, its mirror), the uncovered vectors at weight 0;
    # every weight and cap below is a numerator over 2^d
    parts = [(1 << (d - t), cls, cover.mirrored[t]) for t, cls in cover.classes.items()]
    parts.append((0, everything & ~cover.covered, everything & ~mirror_covered))
    for i in depths:
        cap = (
            1 << (d - i)  # 1/2^i
            if 2 * i + 1 == d - k  # the terminal odd shell
            else (1 << (d - i - 1)) + (1 << (k + i + 1))  # 1/2^(i+1) + 1/2^(d-k-i-1)
        )
        excluded = 0
        for s in range(i + 1):
            excluded |= cover.classes.get(s, 0) | cover.mirrored.get(s, 0)
        live = everything & ~excluded
        worst = None  # (v, f(v) + f(~v)) with the lowest v over the class pairs
        for weight_v, cls, _ in parts:
            for weight_mirror, _, mirror_cls in parts:
                got = weight_v + weight_mirror
                if got <= cap:
                    continue
                bad = cls & mirror_cls & live
                if bad and (worst is None or _lowest(bad) < worst[0]):
                    worst = (_lowest(bad), got)
        if worst is not None:
            v, got = worst
            return (
                f"f(v)+f(~v) = {_dyadic(Fraction(got, 1 << d))} exceeds the depth-{i} cap for "
                f"v={_word(v, d)}"
            )
    return None
