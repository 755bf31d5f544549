"""Exact upper/lower bound formulas for n(k,d), the largest k-neighborly family.

Every formula is evaluated exactly, in ints and ``fractions.Fraction``
(the weighted-cover sums are dyadic: each denominator is a power of two),
and floored once at the end; no floating point is involved anywhere.
``report`` aggregates all applicable bounds for a single (k, d) cell
together with embedded exact values.

Naming follows the established literature: Alon's product/polynomial
bounds, the Huang-Sudakov rank bound, the AGKP halfcube-plus-ball bound,
Kleitman's isodiametric bound and its stability strengthening.  The
``main``/``main2``/``refined`` entries are the weighted-cover bounds this
package exists to compute: ``main`` optimizes a shell parameter i,
``main2`` splits on whether the family contains a fully binary member, and
``refined`` generalizes the split to members with at most h jokers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, floor
from typing import Optional

from .errors import DomainError
from . import reference


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise DomainError(msg)


def binomial(n: int, k: int) -> int:
    if k < 0 or k > n:
        return 0
    return comb(n, k)


def ball_size(d: int, t: int) -> int:
    """Number of binary vectors of length d with at most t ones."""
    return sum(binomial(d, i) for i in range(t + 1))


def b_config_size(k: int, d: int) -> int:
    """Size of the extremal diameter-k configuration B_k in dimension d.

    Even k = 2t: a radius-t Hamming ball.  Odd k = 2t+1: {0,1} times a
    radius-t ball in dimension d-1.
    """
    _require(0 <= k <= d, f"need 0 <= k <= d, got k={k} d={d}")
    t, odd = divmod(k, 2)
    if odd:
        return 2 * ball_size(d - 1, t)
    return ball_size(d, t)


def kleitman_bound(k: int, d: int) -> int:
    """Isodiametric bound: max binary code of diameter <= k; attained by B_k."""
    _require(d > k >= 0, f"need d > k >= 0, got k={k} d={d}")
    return b_config_size(k, d)


def stability_bound(k: int, d: int) -> int:
    """Bound for diameter-k sets not contained in any copy of B_k."""
    _require(d >= k + 2, f"need d >= k+2, got k={k} d={d}")
    t, odd = divmod(k, 2)
    if odd:
        return 2 * ball_size(d - 1, t) - binomial(d - t - 2, t) + 1
    return ball_size(d, t) - binomial(d - t - 1, t) + 1


def alon_lower(k: int, d: int) -> int:
    """Block-product construction lower bound."""
    _require(1 <= k <= d, f"need 1 <= k <= d, got k={k} d={d}")
    prod = 1
    for i in range(k):
        prod *= (d + i) // k + 1
    return prod


def alon_upper(k: int, d: int) -> int:
    """Polynomial-method upper bound: sum of 2^i C(d,i)."""
    _require(1 <= k <= d, f"need 1 <= k <= d, got k={k} d={d}")
    return sum((1 << i) * binomial(d, i) for i in range(k + 1))


def huang_sudakov_upper(k: int, d: int) -> int:
    """Rank-argument upper bound: 1 + sum of 2^(i-1) C(d,i)."""
    _require(1 <= k <= d, f"need 1 <= k <= d, got k={k} d={d}")
    return 1 + sum((1 << (i - 1)) * binomial(d, i) for i in range(1, k + 1))


def agkp_valid_i(k: int, d: int) -> range:
    """Shell parameters i >= 1 admissible in the AGKP bound."""
    # constraint: k + 2i - 2 <= d - 1
    return range(1, (d + 1 - k) // 2 + 1)


def agkp_upper(k: int, d: int) -> int:
    """Halfcube-plus-ball upper bound, minimized over its shell parameter."""
    _require(1 <= k <= d, f"need 1 <= k <= d, got k={k} d={d}")
    choices = agkp_valid_i(k, d)
    _require(len(choices) > 0, f"no admissible shell parameter for k={k} d={d}")
    return min(
        (1 << (d - i)) + ball_size(d, (k + 2 * i - 2 + 1) // 2) for i in choices
    )


def shell_depths(k: int, d: int) -> range:
    """Shells 0 <= i <= (d-k-1)/2 of g, refined_upper's h and the audit.

    When d-k is odd the last one, 2i+1 = d-k, is the terminal odd shell.
    """
    return range((d - k + 1) // 2)


def _shell_coefficient(k: int, d: int, j: int) -> Fraction:
    """Weight (1/2^(j+1) - 1/2^(d-k-j)) applied to |B_(k+2j)|."""
    return Fraction(1, 1 << (j + 1)) - Fraction(1, 1 << (d - k - j))


def _shell_sum(k: int, d: int, j_lo: int, j_hi: int) -> Fraction:
    """Sum of coefficient * |B_(k+2j)| for j in [j_lo, j_hi]; 0 when j_lo > j_hi."""
    total = Fraction(0)
    for j in range(j_lo, j_hi + 1):
        total += _shell_coefficient(k, d, j) * b_config_size(k + 2 * j, d)
    return total


def g_function(k: int, d: int, i: int) -> Fraction:
    """Exact dyadic value of the parameterized weighted-cover bound g(i).

    For 0 <= i <= (d-k-2)/2 this is the generic form
    sum_j coef_j |B_(k+2j)| + 2^(d-i-2) + 2^(k+i); when d-k is odd the
    terminal i = (d-k-1)/2 takes the variant whose last shell enters with
    weight 1/2^(d-k-i) and whose additive term is 2^((d+k-1)/2).
    """
    _require(1 <= k <= d - 1, f"need 1 <= k <= d-1, got k={k} d={d}")
    _require(i in shell_depths(k, d), f"shell index i={i} out of range for k={k} d={d}")
    if 2 * i + 1 == d - k:
        return _tail_after(k, d, -1)
    return _shell_sum(k, d, 0, i) + (1 << (d - i - 2)) + (1 << (k + i))


def main_upper(k: int, d: int) -> int:
    """Weighted-cover upper bound: g at its optimal (largest admissible) shell."""
    _require(1 <= k <= d - 1, f"need 1 <= k <= d-1, got k={k} d={d}")
    return floor(_tail_after(k, d, -1))


def _tail_after(k: int, d: int, h: int) -> Fraction:
    """The shell sum of main_upper restricted to shells j > h.

    h = -1 keeps every shell: that is main_upper's own sum, and g at the
    largest admissible shell.
    """
    gap = d - k
    if gap % 2 == 0:
        return _shell_sum(k, d, h + 1, (gap - 2) // 2) + (1 << ((d + k) // 2))
    last = Fraction(b_config_size(d - 1, d), 1 << ((gap + 1) // 2))
    return _shell_sum(k, d, h + 1, (gap - 3) // 2) + last + (1 << ((d + k - 1) // 2))


def main2_upper(k: int, d: int) -> int:
    """Weighted-cover bound with a split on fully binary members.

    Either the family contains a binary vector (then it injects into a
    radius-k ball) or the zero-joker shell is empty (then the shell sum
    starts at j = 1); the bound is the max of the two floored branches.
    """
    _require(1 <= k <= d - 1, f"need 1 <= k <= d-1, got k={k} d={d}")
    return max(ball_size(d, k), floor(_tail_after(k, d, 0)))


def refined_upper(k: int, d: int) -> int:
    """Weighted-cover bound split on members with at most h jokers, minimized over h.

    Branch one embeds the family into 2^h copies of a radius-k ball in
    dimension d-h; branch two drops the first h+1 shells from the main
    bound.  h = 0 reproduces main2_upper; when d-k is odd the terminal
    h = (d-k-1)/2 replaces branch two by the bare power term.
    """
    _require(1 <= k <= d - 1, f"need 1 <= k <= d-1, got k={k} d={d}")
    best: Optional[int] = None
    for h in shell_depths(k, d):
        ball_branch = (1 << h) * ball_size(d - h, k)
        if 2 * h + 1 == d - k:
            tail_branch = 1 << ((d + k - 1) // 2)
        else:
            tail_branch = floor(_tail_after(k, d, h))
        value = max(ball_branch, tail_branch)
        if best is None or value < best:
            best = value
    return best


def best_new_upper(k: int, d: int) -> int:
    """min(main_upper, main2_upper, refined_upper) for one cell."""
    return min(main_upper(k, d), main2_upper(k, d), refined_upper(k, d))


def refined_strictly_best(k: int, d: int) -> bool:
    """True iff the h-split bound beats both other weighted-cover forms."""
    return refined_upper(k, d) < min(main_upper(k, d), main2_upper(k, d))


@dataclass(frozen=True)
class BoundReport:
    """Every applicable bound for one (k, d), plus the best aggregates."""

    k: int
    d: int
    entries: dict[str, int]
    best_upper: int
    best_lower: int
    exact_known: Optional[int] = None
    exact_source: Optional[str] = None

    def has_gap(self) -> bool:
        return self.best_lower < self.best_upper


UPPER_ENTRIES = ("alon_upper", "huang_sudakov", "agkp", "main", "main2", "refined")


def report(k: int, d: int) -> BoundReport:
    """Evaluate all bounds defined at (k, d) and aggregate them.

    best_upper minimizes the upper-bound entries; best_lower maximizes the
    product construction and the exact value, which reference.exact_value
    gives for every k = d-1 (the 3*2^(d-2) family).  The exact value (with
    its provenance tag) is attached whenever (k, d) has one.
    """
    _require(1 <= k <= d, f"need 1 <= k <= d, got k={k} d={d}")
    entries: dict[str, int] = {
        "alon_lower": alon_lower(k, d),
        "alon_upper": alon_upper(k, d),
        "huang_sudakov": huang_sudakov_upper(k, d),
    }
    if k <= d - 1:
        entries["agkp"] = agkp_upper(k, d)
        entries["main"] = main_upper(k, d)
        entries["main2"] = main2_upper(k, d)
        entries["refined"] = refined_upper(k, d)
    if d > k:
        entries["kleitman"] = kleitman_bound(k, d)
    if d >= k + 2:
        entries["stability"] = stability_bound(k, d)

    best_upper = min(entries[name] for name in UPPER_ENTRIES if name in entries)
    lowers = [entries["alon_lower"]]
    exact = reference.exact_value(k, d)
    exact_known = exact_source = None
    if exact is not None:
        exact_known, exact_source = exact
        lowers.append(exact_known)
    best_lower = max(lowers)
    return BoundReport(k, d, entries, best_upper, best_lower, exact_known, exact_source)
