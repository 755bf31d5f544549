"""Reference implementations the fast paths of the package are checked against."""

from __future__ import annotations


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
