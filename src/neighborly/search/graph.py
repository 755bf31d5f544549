"""Compatibility graph over {0,1,*}^d: edges join vectors at distance 1..k.

Cliques of this graph are exactly the k-neighborly families, so maximum
family search is maximum clique search here.  Adjacency is stored one
bit mask per vertex; vertices are plain indices, and this module is the
one place (outside the two kernels) where an index and its word convert
into each other.

Vertex i is the word whose base-3 digits (0, 1, * as 0, 1, 2, most
significant symbol first) spell i, so vertex order is lexicographic over
0 < 1 < *, the order families are written in, and the words of length m+1
that start with symbol t occupy the block of indices [t*3^m, (t+1)*3^m).
Distance is a sum over coordinates, which makes the rows a recursion over
the first symbol instead of a comparison of all pairs.  Let within[w][j]
be the mask of words within distance j of w.  For the word s+w:

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
from typing import Iterator, List

from ..core import Family, _check_k, check_memory
from . import _kernel


@dataclass(frozen=True)
class CompatGraph:
    """Distance-in-{1..k} adjacency bit rows over the 3^d vertex indices."""

    d: int
    k: int
    adjacency: List[int]

    @property
    def n(self) -> int:
        return len(self.adjacency)


def vertex_of(word: str) -> int:
    """The vertex index of a word: its symbols read as base-3 digits.

    A rank string (the word with * written as 2) gives the same index.
    """
    return int(word.replace("*", "2"), 3)


def word_of(i: int, d: int) -> str:
    """The word of vertex index i: i in d base-3 digits, 2 written as *."""
    symbols = []
    for _ in range(d):  # the last symbol is the least significant digit
        i, digit = divmod(i, 3)
        symbols.append("01*"[digit])
    return "".join(reversed(symbols))


def family_of(k: int, d: int, mask: int) -> Family:
    """The validated family of the vertices set in ``mask``."""
    words = []
    while mask:
        low = mask & -mask
        words.append(word_of(low.bit_length() - 1, d))
        mask ^= low
    return Family.from_strings(d, k, words).validate()


def joker_classes(d: int) -> List[int]:
    """classes[t]: the mask of the vertices with exactly t jokers, t = 0..d."""
    classes = [1]  # the empty word
    size = 1
    for _ in range(d):
        # prefixes 0 and 1 keep the joker count, prefix * adds one
        classes = [m | m << size | c << 2 * size for m, c in zip(classes + [0], [0] + classes)]
        size *= 3
    return classes


def build_graph(k: int, d: int) -> CompatGraph:
    """The adjacency rows of {0,1,*}^d by the recursion in the module docstring.

    A graph on which even the smallest search (target 0, the rows held
    twice) exceeds the memory budget, every d >= 10, raises ResourceError.
    """
    _check_k(d, k)
    check_memory(f"adjacency rows for d={d}", _kernel.buffer_bytes(3**d, 0, 0))
    return CompatGraph(d, k, _adjacency_rows(k, d))


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

