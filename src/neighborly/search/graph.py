"""Compatibility graph over {0,1,*}^d: edges join vectors at distance 1..k.

Cliques of this graph are exactly the k-neighborly families, so maximum
family search is maximum clique search here.  Adjacency is stored one
bit mask per vertex; vertex order is lexicographic over the symbols
0 < 1 < *, which keeps every downstream result reproducible.

Vertex i is the word whose base-3 digits (0, 1, * as 0, 1, 2, most
significant symbol first) spell i, so the words of length m+1 that start
with symbol t occupy the block of indices [t*3^m, (t+1)*3^m).  Distance is
a sum over coordinates, which makes the rows a recursion over the first
symbol instead of a comparison of all pairs.  Let within[w][j] be the mask
of words within distance j of w.  For the word s+w:

* s = *: every block t takes within[w][j];
* s = 0: blocks 0 and * take within[w][j], block 1 takes within[w][j-1]
  (empty for j = 0);
* s = 1: the mirror case, with blocks 0 and 1 swapped.

A row is within[k] & ~within[0].  The tables are kept only up to length
d-2; each word of length d-1 is extended when it is reached and its three
final rows are written in place, so the (k+1) masks of every length-d word
never exist at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Dict, Iterator, List

from ..core import Family, JokerVector
from ..errors import DomainError, ResourceError

DEFAULT_MEMORY_BUDGET = 256 * 1024 * 1024


@dataclass(frozen=True)
class CompatGraph:
    """All 3^d joker vectors with distance-in-{1..k} adjacency bit rows."""

    d: int
    k: int
    vectors: List[JokerVector]
    adjacency: List[int]

    @property
    def n(self) -> int:
        return len(self.vectors)

    def index_of(self) -> Dict[JokerVector, int]:
        return {v: i for i, v in enumerate(self.vectors)}

    def degree(self, i: int) -> int:
        return self.adjacency[i].bit_count()

    def family_of(self, indices, validate: bool = True) -> Family:
        members = [self.vectors[i] for i in indices]
        fam = Family.of(self.d, self.k, members)
        return fam.validate() if validate else fam

    def all_joker_index(self) -> int:
        return self.vectors.index(JokerVector(self.d, 0, (1 << self.d) - 1))


def build_graph(k: int, d: int, memory_budget: int = DEFAULT_MEMORY_BUDGET) -> CompatGraph:
    """Enumerate {0,1,*}^d in lexicographic order and fill the adjacency rows.

    The adjacency matrix needs about n^2/8 bytes for n = 3^d; builds that
    would exceed ``memory_budget`` raise ResourceError instead of thrashing.
    """
    if not 1 <= k <= d:
        raise DomainError(f"need 1 <= k <= d, got k={k} d={d}")
    n = 3**d
    if n * n // 8 > memory_budget:
        raise ResourceError(
            f"adjacency for d={d} needs ~{n * n // 8} bytes, budget is {memory_budget}"
        )
    vectors = [JokerVector.from_string("".join(word)) for word in product("01*", repeat=d)]
    return CompatGraph(d, k, vectors, _adjacency_rows(k, d))


def _prefixed(within: List[int], symbol: int, size: int) -> List[int]:
    """within[j] masks of symbol+w from those of w; words of w's length number ``size``."""
    if symbol == 2:
        return [m | m << size | m << 2 * size for m in within]
    closer = [0] + within[:-1]  # within[j-1]: the prefixes 0 and 1 differ by one
    if symbol == 0:
        return [m | c << size | m << 2 * size for m, c in zip(within, closer)]
    return [c | m << size | m << 2 * size for m, c in zip(within, closer)]


def _last_but_one(k: int, d: int) -> Iterator[List[int]]:
    """within[j] masks of each word of length d-1 in vertex order; stores only length d-2."""
    tables = [[1] * (k + 1)]  # the empty word, at distance 0 from itself
    size = 1
    for _ in range(d - 2):
        tables = [_prefixed(w, symbol, size) for symbol in range(3) for w in tables]
        size *= 3
    if d == 1:
        yield from tables
        return
    for symbol in range(3):
        for w in tables:
            yield _prefixed(w, symbol, size)


def _adjacency_rows(k: int, d: int) -> List[int]:
    """Distance-in-{1..k} rows of {0,1,*}^d by the recursion in the module docstring."""
    size = 3 ** (d - 1)
    rows = [0] * (3 * size)
    for i, within in enumerate(_last_but_one(k, d)):
        near = within[k] & ~within[0]
        far = within[k - 1]  # the opposite 0/1 block is at distance >= 1 already
        tail = near << 2 * size
        rows[i] = near | far << size | tail
        rows[i + size] = far | near << size | tail
        rows[i + 2 * size] = near | near << size | tail
    return rows


def degeneracy_order(adjacency: List[int], n: int) -> List[int]:
    """Vertices in smallest-last (degeneracy) order; ties break by index."""
    degs = [adjacency[i].bit_count() for i in range(n)]
    alive = set(range(n))
    order = []
    for _ in range(n):
        v = min(alive, key=lambda x: (degs[x], x))
        alive.remove(v)
        order.append(v)
        row = adjacency[v]
        while row:
            low = row & -row
            u = low.bit_length() - 1
            if u in alive:
                degs[u] -= 1
            row ^= low
    return order


def relabel(adjacency: List[int], order: List[int]) -> List[int]:
    """Adjacency rows after renaming vertex order[i] to i."""
    n = len(order)
    pos = [0] * n
    for new, old in enumerate(order):
        pos[old] = new
    rows = [0] * n
    for old in range(n):
        row = adjacency[old]
        new_row = 0
        while row:
            low = row & -row
            new_row |= 1 << pos[low.bit_length() - 1]
            row ^= low
        rows[pos[old]] = new_row
    return rows
