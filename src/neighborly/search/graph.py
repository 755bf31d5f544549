"""Compatibility graph over {0,1,*}^d: edges join vectors at distance 1..k.

Cliques of this graph are exactly the k-neighborly families, so maximum
family search is maximum clique search here.  Adjacency is stored one
bit mask per vertex; vertices are plain indices, and this module is the
one place (outside the two kernels) where an index and its word convert
into each other.

Vertex i is the word whose base-3 digits (0, 1, * as 0, 1, 2, most
significant symbol first) spell i, so vertex order is lexicographic over
0 < 1 < *, the order families are written in.  The kernel's ``adjacency``
builds the rows (``_kernel_py.adjacency`` states the recursion).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from ..core import Family, _check_k, check_memory
from . import _kernel


@dataclass(frozen=True)
class CompatGraph:
    """Distance-in-{1..k} adjacency bit rows over the 3^d vertex indices:
    a list from the Python kernel, the C buffer read as ints
    (``_kernel.BitRows``) from the compiled one."""

    d: int
    k: int
    adjacency: Sequence[int]

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


def build_graph(k: int, d: int, kernel: str = "auto") -> CompatGraph:
    """The adjacency rows of {0,1,*}^d, built by ``kernel`` (as ``get_kernel`` names it).

    A graph on which even the smallest search (target 0, the rows held
    twice) exceeds the memory budget, every d >= 10, raises ResourceError.
    """
    _check_k(d, k)
    check_memory(f"adjacency rows for d={d}", _kernel.buffer_bytes(3**d, 0, 0))
    return CompatGraph(d, k, _kernel.get_kernel(kernel).adjacency(k, d))
