"""Embedded reference data: exact values, best-known lower bounds, witnesses.

The exact values and the lower-bound table below are reproduced from the
published record for this problem (product constructions, MIP searches,
and case analyses).  They are reference data, not recomputed: the search
module can confirm the small ones, and the table generator uses the
lower-bound column to fill cells no formula in this package produces.
The witness families are checked by the test suite and seed the search.
"""

from typing import Optional

# Exact values established by matching a construction or MIP witness with
# an upper bound, or by a stability-based case analysis.
EXACT_VALUES: dict[tuple[int, int], tuple[int, str]] = {
    (2, 4): (9, "bound meets product construction"),
    (3, 5): (18, "bound meets product construction"),
    (4, 6): (37, "bound meets MIP witness"),
    (3, 6): (27, "stability case analysis"),
    (5, 7): (74, "stability case analysis"),
    (6, 8): (150, "stability case analysis"),
}


def exact_value(k: int, d: int) -> Optional[tuple[int, str]]:
    """Exact n(k,d) with a provenance tag, when one is on record."""
    if (k, d) in EXACT_VALUES:
        return EXACT_VALUES[(k, d)]
    if k == 1:
        return d + 1, "distance-1 families (classical)"
    if k == d - 1:
        return 3 * (1 << (d - 2)), "extremal three-block product"
    return None


# Witness families for values on record (an exact value, else the published
# lower bound) that no construction in the package reaches, keyed (k, d),
# members as words over {0,1,*}.  Each is k-neighborly and passes every
# check of the weighted-cover audit.
# - (4,6), exact 37, constructions 36: from a seeded greedy clique run on
#   the compatibility graph (start vertex rotated, then always the candidate
#   with the most neighbours among the candidates).
# - (2,7), published lower bound 21, constructions 20: the first 21-member
#   clique found by the exhaustive `search 2 7` with orbit pruning to depth
#   3, which then closed at 21 (4,227,063 nodes, 17 s, compiled kernel on
#   a 2-CPU x86_64 VM, from the 20-member product).  Starting from this
#   witness, `search 2 7` closes in 4,108,440 nodes (14-15 s).  That one
#   search is the only route to "no 22", so no exact value for (2,7) is on
#   record here.
WITNESSES: dict[tuple[int, int], tuple[str, ...]] = {
    (4, 6): (
        "00000*", "000010", "000011", "000100", "000101", "000110", "000111",
        "00100*", "001010", "001011", "001100", "001101", "001110", "001111",
        "01001*", "01010*", "010110", "010111", "01101*", "01110*", "011110",
        "011111", "01*00*", "100110", "100111", "101110", "101111", "10*00*",
        "10*010", "10*011", "10*100", "10*101", "110*0*", "111*0*", "11*01*",
        "11*110", "11*111",
    ),
    (2, 7): (
        "000000*", "000100*", "010000*", "010100*", "0*0001*", "0*0101*", "100*000",
        "110*000", "1*000*1", "1*010*1", "1*0*010", "*01*000", "*0**100", "*11*000",
        "*1**100", "**100*1", "**110*1", "**1*010", "***01*1", "***11*1", "****110",
    ),
}


# Best-known lower bounds for 2 <= k, d <= 20 with d - k >= 2, keyed (k, d).
# Mix of product constructions and MIP search results; always >= the
# product bound this package computes itself.
BEST_KNOWN_LOWER: dict[tuple[int, int], int] = {
    # k = 2
    (2, 4): 9,
    (2, 5): 12,
    (2, 6): 16,
    (2, 7): 21,
    (2, 8): 25,
    (2, 9): 30,
    (2, 10): 36,
    # k = 3
    (3, 5): 18,
    (3, 6): 27,
    (3, 7): 36,
    (3, 8): 48,
    (3, 9): 64,
    (3, 10): 80,
    (3, 11): 100,
    (3, 12): 125,
    (3, 13): 150,
    (3, 14): 180,
    (3, 15): 216,
    (3, 16): 252,
    (3, 17): 294,
    # k = 4
    (4, 6): 37,
    (4, 7): 54,
    (4, 8): 81,
    (4, 9): 108,
    (4, 10): 144,
    (4, 11): 192,
    (4, 12): 256,
    (4, 13): 320,
    (4, 14): 400,
    (4, 15): 500,
    (4, 16): 625,
    (4, 17): 750,
    (4, 18): 900,
    (4, 19): 1080,
    (4, 20): 1296,
    # k = 5
    (5, 7): 74,
    (5, 8): 114,
    (5, 9): 162,
    (5, 10): 243,
    (5, 11): 324,
    (5, 12): 432,
    (5, 13): 576,
    (5, 14): 768,
    (5, 15): 1024,
    (5, 16): 1280,
    (5, 17): 1600,
    (5, 18): 2000,
    (5, 19): 2500,
    (5, 20): 3125,
    # k = 6
    (6, 8): 150,
    (6, 9): 216,
    (6, 10): 324,
    (6, 11): 486,
    (6, 12): 729,
    (6, 13): 972,
    (6, 14): 1296,
    (6, 15): 1728,
    (6, 16): 2304,
    (6, 17): 3072,
    (6, 18): 4096,
    (6, 19): 5120,
    (6, 20): 6400,
    # k = 7
    (7, 9): 288,
    (7, 10): 432,
    (7, 11): 648,
    (7, 12): 972,
    (7, 13): 1458,
    (7, 14): 2187,
    (7, 15): 2916,
    (7, 16): 3888,
    (7, 17): 5184,
    (7, 18): 6912,
    (7, 19): 9216,
    (7, 20): 12288,
    # k = 8
    (8, 10): 576,
    (8, 11): 864,
    (8, 12): 1296,
    (8, 13): 1944,
    (8, 14): 2916,
    (8, 15): 4374,
    (8, 16): 6561,
    (8, 17): 8748,
    (8, 18): 11664,
    (8, 19): 15552,
    (8, 20): 20736,
    # k = 9
    (9, 11): 1152,
    (9, 12): 1728,
    (9, 13): 2592,
    (9, 14): 3888,
    (9, 15): 5832,
    (9, 16): 8748,
    (9, 17): 13122,
    (9, 18): 19683,
    (9, 19): 26244,
    (9, 20): 34992,
    # k = 10
    (10, 12): 2304,
    (10, 13): 3456,
    (10, 14): 5184,
    (10, 15): 7776,
    (10, 16): 11664,
    (10, 17): 17496,
    (10, 18): 26244,
    (10, 19): 39366,
    (10, 20): 59049,
    # k = 11
    (11, 13): 4608,
    (11, 14): 6912,
    (11, 15): 10368,
    (11, 16): 15552,
    (11, 17): 23328,
    (11, 18): 34992,
    (11, 19): 52488,
    (11, 20): 78732,
    # k = 12
    (12, 14): 9216,
    (12, 15): 13824,
    (12, 16): 20736,
    (12, 17): 31104,
    (12, 18): 46656,
    (12, 19): 69984,
    (12, 20): 104976,
    # k = 13
    (13, 15): 18432,
    (13, 16): 27648,
    (13, 17): 41472,
    (13, 18): 62208,
    (13, 19): 93312,
    (13, 20): 139968,
    # k = 14
    (14, 16): 36864,
    (14, 17): 55296,
    (14, 18): 82944,
    (14, 19): 124416,
    (14, 20): 186624,
    # k = 15
    (15, 17): 73728,
    (15, 18): 110592,
    (15, 19): 165888,
    (15, 20): 248832,
    # k = 16
    (16, 18): 147456,
    (16, 19): 221184,
    (16, 20): 331776,
    # k = 17
    (17, 19): 294912,
    (17, 20): 442368,
    # k = 18
    (18, 20): 589824,
}


def best_known_lower(k: int, d: int) -> Optional[int]:
    return BEST_KNOWN_LOWER.get((k, d))
