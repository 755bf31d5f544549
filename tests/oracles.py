"""Reference implementations the fast paths of the package are checked against."""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Dict, Iterable, Iterator, Set

from neighborly.analysis import AuditReport, CheckResult, _require_validated
from neighborly.bounds import ball_size, b_config_size
from neighborly.core import Family, JokerVector, NeighborlyCheck
from neighborly.errors import DimensionError, DomainError

from conftest import naive_distance


def all_joker_vectors(d: int) -> list[JokerVector]:
    """All 3^d words of length d, listed in vertex order (lexicographic, 0 < 1 < *)."""
    return [JokerVector.from_string("".join(w)) for w in product("01*", repeat=d)]


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


def concat(x: JokerVector, y: JokerVector) -> JokerVector:
    """The word of x followed by the word of y, on the bit masks."""
    return JokerVector(x.d + y.d, x.bits | y.bits << x.d, x.jokers | y.jokers << x.d)


def cartesian(xs: Iterable[JokerVector], ys: Iterable[JokerVector]) -> Set[JokerVector]:
    """All concatenations (x, y) as a set of vectors; sizes multiply."""
    xs = set(xs)
    ys = set(ys)
    if len({x.d for x in xs}) > 1 or len({y.d for y in ys}) > 1:
        raise DimensionError("ragged input lengths in Cartesian product")
    return {concat(x, y) for x in xs for y in ys}


def staircase_by_masks(m: int) -> Set[JokerVector]:
    """The staircase code 1^j 0 *^(m-1-j) (j < m) plus 1^m, on bit masks."""
    full = (1 << m) - 1
    # 1^j 0 *^(m-1-j): ones at 0..j-1, a 0 at j, jokers at j+1..m-1
    code = {JokerVector(m, (1 << j) - 1, full & ~((2 << j) - 1)) for j in range(m)}
    return code | {JokerVector(m, full, 0)}


def alon_product_by_sets(k: int, d: int) -> Family:
    """``alon_product`` as the product of k staircase codes, taken on sets of vectors."""
    acc = staircase_by_masks(d // k)
    for i in range(1, k):
        acc = cartesian(acc, staircase_by_masks((d + i) // k))
    return Family.of(d, k, acc, validated=True)


def extremal_dminus1_by_sets(d: int) -> Family:
    """``extremal_dminus1_family``: {11, 10, 0*} x {0,1}^(d-2) on sets of vectors."""
    members = {JokerVector.from_string(w) for w in ("11", "10", "0*")}
    if d > 2:
        cube = {JokerVector(d - 2, bits, 0) for bits in range(1 << (d - 2))}
        members = cartesian(members, cube)
    return Family.of(d, d - 1, members, validated=True)


def b_config_family_by_sets(k: int, d: int) -> Family:
    """``b_config_family``: a ball around 0, times {0,1} when k is odd, on sets of vectors."""
    t, odd = divmod(k, 2)
    bit = {JokerVector(1, 0, 0), JokerVector(1, 1, 0)}
    if odd and d == 1:
        return Family.of(1, k, bit, validated=True)
    m = d - odd
    members = {JokerVector(m, bits, 0) for bits in range(1 << m) if bits.bit_count() <= t}
    if odd:
        members = cartesian(bit, members)
    return Family.of(d, k, members, validated=True)


def pairwise_adjacency(values: list[int], jokers: list[int], k: int) -> list[int]:
    """Adjacency bit rows for distance-in-{1..k}, comparing every pair of vectors.

    Vectors are given as their value and joker bit masks; this is the O(n^2)
    definition that ``build_graph`` replaces with a recursion over symbols.
    """
    n = len(values)
    rows = [0] * n
    for i in range(n):
        vi = values[i]
        ji = jokers[i]
        row_i = rows[i]
        for j in range(i + 1, n):
            dist = ((vi ^ values[j]) & ~(ji | jokers[j])).bit_count()
            if 1 <= dist <= k:
                row_i |= 1 << j
                rows[j] |= 1 << i
        rows[i] = row_i
    return rows


def max_family_bruteforce(k: int, d: int) -> tuple[int, Family]:
    """Maximum k-neighborly family by trying every subset of the 3^d words.

    Only usable for d <= 2 (at most 512 subsets); the solver's results are
    checked against it exactly there.
    """
    if d > 2:
        raise DomainError(f"brute force enumerates 2^(3^d) subsets; d={d} is too large")
    vectors = all_joker_vectors(d)
    words = list(map(str, vectors))
    n = len(vectors)
    best_size = 0
    best_subset = 0
    for subset in range(1 << n):
        size = subset.bit_count()
        if size <= best_size:
            continue
        chosen = [words[i] for i in range(n) if subset >> i & 1]
        if all(
            1 <= naive_distance(u, v) <= k
            for a, u in enumerate(chosen)
            for v in chosen[a + 1 :]
        ):
            best_size = size
            best_subset = subset
    members = [vectors[i] for i in range(n) if best_subset >> i & 1]
    return best_size, Family.of(d, k, members).validate()


def pairwise_is_k_neighborly(family: Family) -> NeighborlyCheck:
    """``is_k_neighborly`` by a nested loop over the pairs in sorted member order.

    Families of size 0 or 1 pass vacuously.  On failure the returned record
    carries one witnessing pair and its distance.
    """
    members = family.sorted_members()
    words = family.sorted_words()
    k = family.k
    for i, u in enumerate(words):
        for j in range(i + 1, len(words)):
            dist = naive_distance(u, words[j])
            if not 1 <= dist <= k:
                return NeighborlyCheck(False, (members[i], members[j]), dist)
    return NeighborlyCheck(True, None, None)


def enumerated_audit(family: Family, dimension_cap: int = 16) -> AuditReport:
    """``audit`` by enumeration of {0,1}^d, vector by vector and pair by pair.

    Checks, over all of {0,1}^d:
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

    Weights are integer numerators over 2^d (f(v) = 2^(d-t) for a vector
    covered by a t-joker member), compared as integers and printed by
    ``_dyadic_text``.  Enumeration is exhaustive, so d is capped (default 16).
    """
    _require_validated(family)
    d, k = family.d, family.k
    if d - k < 1:
        raise DomainError(f"audit requires d - k >= 1, got k={k} d={d}")
    if d > dimension_cap:
        raise DomainError(f"audit is exhaustive over 2^d vectors; d={d} exceeds cap {dimension_cap}")

    checks: Dict[str, CheckResult] = {}

    # unique cover, plus the weight map everything else reads
    owner: Dict[int, JokerVector] = {}
    collision = None
    for u in family.sorted_members():
        for v in covered_vectors(u):
            if v.bits in owner and collision is None:
                collision = f"{v} covered by {owner[v.bits]} and {u}"
            owner.setdefault(v.bits, u)
    checks["unique_cover"] = CheckResult(collision is None, collision)

    full = (1 << d) - 1
    t_of: Dict[int, int] = {bits: u.joker_count for bits, u in owner.items()}
    classes: Dict[int, Set[int]] = {}
    for bits, t in t_of.items():
        classes.setdefault(t, set()).add(bits)

    def f(bits: int) -> int:
        t = t_of.get(bits)
        return 0 if t is None else 1 << (d - t)

    depths = range(0, (d - k - 1) // 2 + 1)

    # pairwise disjoint classes and mirrors up to each depth
    failure = None
    for i in depths:
        sets = []
        for s in range(i + 1):
            cls = classes.get(s, set())
            sets.append((f"V({s})", cls))
            sets.append((f"mirror V({s})", {bits ^ full for bits in cls}))
        seen: Dict[int, str] = {}
        for name, cls in sets:
            for bits in cls:
                if bits in seen and failure is None:
                    failure = (
                        f"{JokerVector(d, bits, 0)} lies in {seen[bits]} and {name} at depth {i}"
                    )
                seen.setdefault(bits, name)
        if failure:
            break
    checks["disjoint_mirror_classes"] = CheckResult(failure is None, failure)

    # prefix diameter and isodiametric size bound
    failure = None
    for i in depths:
        prefix = sorted(b for s in range(i + 1) for b in classes.get(s, set()))
        cap = b_config_size(min(k + 2 * i, d), d)
        if len(prefix) > cap:
            failure = f"prefix through depth {i} has {len(prefix)} > {cap} vectors"
            break
        limit = k + 2 * i
        for a_idx, a in enumerate(prefix):
            for b in prefix[a_idx + 1 :]:
                if (a ^ b).bit_count() > limit:
                    failure = (
                        f"{JokerVector(d, a, 0)} and {JokerVector(d, b, 0)} are "
                        f"{(a ^ b).bit_count()} > {limit} apart at depth {i}"
                    )
                    break
            if failure:
                break
        if failure:
            break
    checks["prefix_diameter_bound"] = CheckResult(failure is None, failure)

    # weight cap on mirrored classes
    failure = None
    for i in depths:
        cap = 1 << (k + i)  # 1/2^(d-k-i)
        for bits in classes.get(i, set()):
            mirrored = bits ^ full
            if not f(mirrored) <= cap:
                failure = (
                    f"mirror of {JokerVector(d, bits, 0)} has weight "
                    f"{_dyadic_text(f(mirrored), d)} > 1/2^{d - k - i}"
                )
                break
        if failure:
            break
    checks["mirror_weight_cap"] = CheckResult(failure is None, failure)

    # paired weight cap outside the first classes
    failure = None
    gap = d - k
    pair_depths = list(range(0, (gap - 2) // 2 + 1))
    if gap % 2 == 1:
        pair_depths.append((gap - 1) // 2)
    for i in pair_depths:
        terminal = gap % 2 == 1 and i == (gap - 1) // 2
        # 1/2^i, else 1/2^(i+1) + 1/2^(d-k-i-1)
        cap = (1 << (d - i)) if terminal else (1 << (d - i - 1)) + (1 << (k + i + 1))
        excluded = set()
        for s in range(i + 1):
            for bits in classes.get(s, set()):
                excluded.add(bits)
                excluded.add(bits ^ full)
        for bits in range(1 << d):
            if bits in excluded:
                continue
            got = f(bits) + f(bits ^ full)
            if not got <= cap:
                failure = (
                    f"f(v)+f(~v) = {_dyadic_text(got, d)} exceeds the depth-{i} cap for "
                    f"v={JokerVector(d, bits, 0)}"
                )
                break
        if failure:
            break
    checks["pair_weight_cap"] = CheckResult(failure is None, failure)

    # double-counting identity
    total = sum(len(cls) << (d - t) for t, cls in classes.items())
    ok = total == len(family) << d
    failure = f"sum of weights is {_dyadic_text(total, d)}, family size is {len(family)}"
    checks["weight_identity"] = CheckResult(ok, None if ok else failure)

    return AuditReport(len(family), checks, Fraction(total, 1 << d))


def _dyadic_text(num: int, d: int) -> str:
    """num/2^d in lowest terms, written num/2^e, or num when it is an integer."""
    exp = d
    while exp and num % 2 == 0:
        num //= 2
        exp -= 1
    return f"{num}/2^{exp}" if exp else str(num)


# The weighted-cover bounds as integer numerators over 2^d: every weight
# there is 1/2^e with e <= d, so 2^d times each sum is an integer, and the
# bound is that integer shifted right by d.


def _shell_numerator(k: int, d: int, j: int) -> int:
    """2^d (1/2^(j+1) - 1/2^(d-k-j)) |B_(k+2j)|."""
    return ((1 << (d - j - 1)) - (1 << (k + j))) * b_config_size(k + 2 * j, d)


def g_shells(k: int, d: int) -> list[int]:
    """The admissible shells i of g: 0..(d-k-2)/2, plus (d-k-1)/2 when d-k is odd."""
    gap = d - k
    shells = list(range((gap - 2) // 2 + 1))
    if gap % 2 == 1:
        shells.append((gap - 1) // 2)
    return shells


def g_numerator(k: int, d: int, i: int) -> int:
    """2^d g(i) for an admissible shell i.

    g(i) sums the shells j <= i and adds 2^(d-i-2) + 2^(k+i); at the
    terminal i = (d-k-1)/2 of an odd d-k the shell i enters with weight
    1/2^(d-k-i) alone and the additive term is 2^((d+k-1)/2).
    """
    gap = d - k
    if gap % 2 == 1 and i == (gap - 1) // 2:
        shells = sum(_shell_numerator(k, d, j) for j in range(i))
        return shells + (b_config_size(k + 2 * i, d) << (k + i)) + (1 << (d + (d + k - 1) // 2))
    shells = sum(_shell_numerator(k, d, j) for j in range(i + 1))
    return shells + (1 << (2 * d - i - 2)) + (1 << (d + k + i))


def weighted_cover_uppers(k: int, d: int) -> tuple[int, int, int]:
    """(main, main2, refined) at 1 <= k < d, in integers only.

    main is g minimized over its shells.  The split bounds take g at the
    last shell, which sums every shell, and drop the shells j <= h:
    main2 is h = 0 against a radius-k ball, refined the best h against
    2^h radius-k balls in dimension d-h, where the terminal h of an odd
    d-k keeps only the power term 2^((d+k-1)/2).
    """
    gap = d - k
    shells = g_shells(k, d)
    main = min(g_numerator(k, d, i) for i in shells) >> d
    whole = g_numerator(k, d, shells[-1])

    def tail(h: int) -> int:
        if gap % 2 == 1 and h == (gap - 1) // 2:
            return 1 << ((d + k - 1) // 2)
        return (whole - sum(_shell_numerator(k, d, j) for j in range(h + 1))) >> d

    main2 = max(ball_size(d, k), tail(0))
    refined = min(max((1 << h) * ball_size(d - h, k), tail(h)) for h in shells)
    return main, main2, refined
