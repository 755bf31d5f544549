"""The pure-Python kernel: the compiled kernel's fallback and oracle.

``solve_root`` is a branch-and-bound clique search through one root on
integer bit sets (``solver.search_roots`` runs the root subproblems), with
the compiled one's greedy-coloring bound, lowest-bit-first tie breaking,
orbit pruning below the root and traversal order, so both return identical
sizes, witnesses and node counts on identical inputs (``_kernel_c.c``
states the orbit rule and why it is sound).  ``adjacency`` builds the
compatibility graph that ``solve_root`` searches, ``first_bad_pair`` is the
k-neighborly pair check, ``cover_map`` the audit's cover map and
``neighbourhood`` the Hamming neighbourhood of its prefix-diameter check.
Each routine first calls ``check_solve_inputs``, ``check_adjacency``,
``check_ranks`` or ``check_neighbourhood``, and so does the compiled
kernel, so both refuse the same inputs with the same ValueError.  The
module imports nothing from the package.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from operator import and_, or_
from time import perf_counter
from typing import Iterator

KERNEL_NAME = "python"


class _BudgetExhausted(Exception):
    pass


class _TargetReached(Exception):
    pass


def _color_sort(
    pool: int, adj: list[int], deadline: float | None = None
) -> tuple[list[int], list[int]]:
    """Greedy sequential coloring; returns vertices sorted by color (ascending).

    The clock is read before each color class, and _BudgetExhausted raised
    once it reaches ``deadline``: a pool of thousands of vertices takes a
    tenth of a second to color.
    """
    order: list[int] = []
    colors: list[int] = []
    color = 0
    rest = pool
    while rest:
        if deadline is not None and perf_counter() >= deadline:
            raise _BudgetExhausted
        color += 1
        avail = rest
        while avail:
            low = avail & -avail
            v = low.bit_length() - 1
            order.append(v)
            colors.append(color)
            rest ^= low
            avail = (avail ^ low) & ~adj[v]
    return order, colors


def _symbols(v: int, d: int) -> tuple[int, int]:
    """The 1s and the jokers of vertex v as d-bit masks, bit j for base-3 digit j."""
    ones = jokers = 0
    for j in range(d):
        v, digit = divmod(v, 3)
        if digit == 1:
            ones |= 1 << j
        elif digit == 2:
            jokers |= 1 << j
    return ones, jokers


def _orbit_classes(clique: int, pool: int, d: int) -> dict[int, int]:
    """Each pool vertex -> the pool vertices sharing its orbit key under the
    coordinate symmetries that fix every member of ``clique``."""
    full = (1 << d) - 1
    groups = [full]  # coordinates with equal columns over the clique
    flips = full  # coordinates where every member has '*'
    while clique:
        low = clique & -clique
        ones, jokers = _symbols(low.bit_length() - 1, d)
        zeros = full & ~ones & ~jokers
        groups = [part for g in groups for part in (g & zeros, g & ones, g & jokers) if part]
        flips &= jokers
        clique ^= low
    keys: dict[int, tuple[int, ...]] = {}
    classes: dict[tuple[int, ...], int] = {}
    rest = pool
    while rest:
        low = rest & -rest
        u = low.bit_length() - 1
        ones, jokers = _symbols(u, d)
        key = tuple(
            (0 if g & flips else (ones & g).bit_count(), (jokers & g).bit_count())
            for g in groups
        )
        keys[u] = key
        classes[key] = classes.get(key, 0) | low
        rest ^= low
    return {u: classes[key] for u, key in keys.items()}


def check_solve_inputs(
    adjacency: list[int], root: int, pool: int, best_mask: int,
    d: int | None, symmetry_depth: int,
) -> None:
    """ValueError for input ``solve_root`` refuses, in either kernel.

    Orbit pruning reads symbols off vertex indices, so it needs n = 3^d;
    the root, a candidate or an incumbent vertex outside 0..n-1 would be
    read past the adjacency.
    """
    n = len(adjacency)
    if symmetry_depth < 0:
        raise ValueError(f"symmetry_depth must be >= 0, got {symmetry_depth}")
    if symmetry_depth > 0 and (d is None or d < 1 or 3**d != n):
        raise ValueError(f"orbit pruning needs n = 3^d, got n={n} d={d}")
    if best_mask >> n:
        raise ValueError(f"the incumbent mask has vertices outside 0..{n - 1}")
    if not 0 <= root < n or pool >> n:
        raise ValueError(f"root {root} or its candidates lie outside 0..{n - 1}")


def check_adjacency(k: int, d: int) -> None:
    """ValueError unless 1 <= k <= d <= 19: the rows need k >= 1, and the
    compiled kernel numbers the 3^d vertices with a C int."""
    if not 1 <= k <= d <= 19:
        raise ValueError(f"the adjacency needs 1 <= k <= d <= 19, got k={k} d={d}")


def check_ranks(ranks: str, n: int, d: int, for_cover_map: bool = False) -> bytes:
    """``ranks`` as ASCII bytes, the form the C entry points read; ValueError
    unless it holds n*d symbols 0, 1 or 2 and, for the cover map, 1 <= d <= 63."""
    # bytes.translate deletes in one table pass; str.strip("012") takes 20x longer
    encoded = ranks.encode("ascii") if ranks.isascii() else b"?"
    if len(encoded) != n * d or encoded.translate(None, b"012"):
        raise ValueError(f"ranks must be {n}*{d} symbols 0, 1 or 2")
    # the compiled cover map keeps one slot per joker count in 64
    if for_cover_map and not 1 <= d <= 63:
        raise ValueError(f"the cover map needs 1 <= d <= 63, got d={d}")
    return encoded


def check_neighbourhood(s: int, radius: int, d: int) -> None:
    """ValueError unless radius >= 0, 1 <= d <= 32 (a set of 2^32 vectors
    takes 512 MiB already) and s is a set of binary vectors of length d."""
    if radius < 0:
        raise ValueError(f"the radius must be >= 0, got {radius}")
    if not 1 <= d <= 32:
        raise ValueError(f"the neighbourhood needs 1 <= d <= 32, got d={d}")
    if s < 0 or s >> (1 << d):
        raise ValueError(f"the set must lie within the 2^{d} binary vectors of length {d}")


class _Searcher:
    def __init__(self, adj: list[int], target: int, node_limit, deadline, d, symmetry_depth):
        self.adj = adj
        self.d = d
        self.symmetry_depth = symmetry_depth
        self.target = target
        self.node_limit = node_limit
        self.deadline = deadline
        self.nodes = 0
        self.best = 0
        self.best_mask = 0

    def _charge(self) -> None:
        self.nodes += 1
        if self.node_limit is not None and self.nodes > self.node_limit:
            raise _BudgetExhausted
        if self.deadline is not None and perf_counter() >= self.deadline:
            raise _BudgetExhausted

    def _expand(self, mask: int, size: int, pool: int) -> None:
        adj = self.adj
        try:
            order, colors = _color_sort(pool, adj, self.deadline)
        except _BudgetExhausted:
            self.nodes += 1  # the node the deadline refused, as _charge counts it
            raise
        orbits = None
        if size <= self.symmetry_depth:
            orbits = _orbit_classes(mask, pool, self.d)
        for idx in range(len(order) - 1, -1, -1):
            if size + colors[idx] <= self.best:
                return
            v = order[idx]
            bit = 1 << v
            if not pool & bit:
                continue  # dropped with an earlier vertex's orbit
            self._charge()
            child = pool & adj[v]
            if size + 1 > self.best:
                self.best = size + 1
                self.best_mask = mask | bit
                if self.best >= self.target:
                    raise _TargetReached
            if child:
                self._expand(mask | bit, size + 1, child)
            pool &= ~(bit if orbits is None else orbits[v])


def solve_root(
    adjacency: list[int],
    root: int,
    pool: int,
    best_mask: int,
    target: int,
    node_limit: int | None,
    time_limit: float | None,
    d: int | None = None,
    symmetry_depth: int = 0,
) -> tuple[int, int, int, bool]:
    """Search one root subproblem: the cliques through ``root`` whose other
    members lie in the candidate mask ``pool``.

    The graph has n = len(adjacency) vertices; the incumbent is the clique
    ``best_mask``, its size the mask's popcount.  Nodes whose clique has at
    most ``symmetry_depth`` members, the root alone counting as one, drop a
    finished vertex's whole orbit; that needs graph.py's vertex numbering
    with n = 3^d (``d`` is the caller's statement that the graph is that
    one), and 0 gives the plain tree.  Returns (best_size, best_mask, nodes,
    completed), where best_size is the popcount of best_mask and completed
    is False only when a budget ran out; reaching ``target`` counts as
    completed.  The loop over the root subproblems is ``solver.search_roots``.
    """
    check_solve_inputs(adjacency, root, pool, best_mask, d, symmetry_depth)
    deadline = None if time_limit is None else perf_counter() + time_limit
    s = _Searcher(adjacency, target, node_limit, deadline, d, symmetry_depth)
    s.best = best_mask.bit_count()
    s.best_mask = best_mask
    if s.best >= target:
        return s.best, s.best_mask, 0, True
    try:
        s._expand(1 << root, 1, pool)
    except _BudgetExhausted:
        return s.best, s.best_mask, s.nodes, False
    except _TargetReached:
        pass
    return s.best, s.best_mask, s.nodes, True


def _prefixed(within: list[int], symbol: int, size: int) -> list[int]:
    """within[j] masks of symbol+w from those of w; words of w's length number ``size``."""
    if symbol == 2:
        return [m | m << size | m << 2 * size for m in within]
    closer = [0] + within[:-1]  # within[j-1]: the prefixes 0 and 1 differ by one
    if symbol == 0:
        return [m | c << size | m << 2 * size for m, c in zip(within, closer)]
    return [c | m << size | m << 2 * size for m, c in zip(within, closer)]


def _last_but_one(k: int, d: int) -> Iterator[list[int]]:
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


def adjacency(k: int, d: int) -> list[int]:
    """Row i: the mask of the vertices at distance 1..k from vertex i of {0,1,*}^d.

    Vertex i is the word whose base-3 digits (0, 1, * as 0, 1, 2, most
    significant symbol first) spell i, as in ``graph``, so the words of
    length m+1 that start with symbol t occupy the block of indices
    [t*3^m, (t+1)*3^m).  Distance is a sum over coordinates, which makes
    the rows a recursion over the first symbol instead of a comparison of
    all pairs.  Let within[w][j] be the mask of words within distance j of
    w.  For the word s+w:

    * s = *: every block t takes within[w][j];
    * s = 0: blocks 0 and * take within[w][j], block 1 takes within[w][j-1]
      (empty for j = 0);
    * s = 1: the mirror case, with blocks 0 and 1 swapped.

    A row is within[k] & ~within[0].  The tables are kept only up to length
    d-2; each word of length d-1 is extended when it is reached and its
    three final rows are written in place, so the (k+1) masks of every
    length-d word never exist at once.  This is the pure twin of the kernel
    library's ``neighborly_adjacency``, which walks the same recursion depth
    first, and the oracle it is tested against.
    """
    check_adjacency(k, d)
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


def first_bad_pair(ranks: str, n: int, d: int, k: int) -> tuple[int, int] | None:
    """Indices (i, j), i < j, of the first pair at a distance outside 1..k, or None.

    ``ranks`` joins the rank strings of n sorted members of length d, as
    ``Family.ranks`` holds them.  Each coordinate c gets two n-bit masks,
    member i at bit i: the members holding a 1 there and those holding a
    0.  For member u, the members that differ from u at a non-joker
    coordinate of u form one such mask, and the distance from u to every
    member at once is a count over these masks.  Their union rules out
    distance 0.  Distance above k needs more than k of the masks, so the
    count depends on how many u has:

    - at most k (u has at least d-k jokers): no count is needed;
    - exactly k+1: the intersection of the masks;
    - more: a binary counter with (k+1).bit_length() bit planes,
      preloaded so that it carries out of its top plane exactly when the
      distance exceeds k.

    One mask per member selects the members after it.  So the whole check
    takes O(n*d*log k) operations on n-bit integers, O(n*d) when
    d-k <= 1, instead of n^2/2 distance evaluations.  This is the pure
    twin of the kernel library's ``neighborly_first_bad_pair`` and the
    oracle it is tested against.
    """
    check_ranks(ranks, n, d)
    if n < 2:
        return None
    full = (1 << n) - 1
    # column c of the rank strings, read as an n-bit integer with member i at bit i
    columns = [ranks[c::d][::-1] for c in range(d)]
    ones = [int(col.replace("2", "0"), 2) for col in columns]
    jokers = [int(col.replace("1", "0").replace("2", "1"), 2) for col in columns]
    # per column, the members differing from a word's symbol there ("2": none)
    differing = [{"0": one, "1": full ^ one ^ joker} for one, joker in zip(ones, jokers)]
    planes = (k + 1).bit_length()
    preload = (1 << planes) - k - 1  # a count above k carries out of the top plane
    count0 = [full if preload >> p & 1 else 0 for p in range(planes)]
    for i in range(n - 1):
        masks = [col[ch] for ch, col in zip(ranks[i * d:(i + 1) * d], differing) if ch != "2"]
        good = reduce(or_, masks, 0)  # differ somewhere: distance >= 1
        need = len(masks) - k  # distance > k needs more than k of the masks
        if need == 1:
            good &= ~reduce(and_, masks)
        elif need > 1:
            count = count0[:]
            over = 0  # distance > k
            for carry in masks:
                for p in range(planes):
                    plane = count[p]
                    count[p] = plane ^ carry
                    carry &= plane
                    if not carry:
                        break
                else:
                    over |= carry
            good &= ~over
        bad = full >> (i + 1) << (i + 1) & ~good
        if bad:
            return i, (bad & -bad).bit_length() - 1
    return None


def cover_map(
    ranks: str, n: int, d: int
) -> tuple[dict[int, int], int, tuple[int, int] | None]:
    """(classes, covered, clash) of n sorted members, as ``CoverProfile`` holds them.

    ``ranks`` joins the members' rank strings as ``Family.ranks`` holds
    them.  ``classes`` is keyed by joker count in order of first appearance.
    ``clash`` is None when no vector is covered twice; otherwise it is
    (i, v): member i is the first that meets an earlier one, and v is the
    lowest vector they share.  An earlier member keeps what it covers.
    Member i covers the subcube ``cube << bits``, where ``cube`` is built
    from its joker mask by one shift-OR per joker.  This is the pure twin
    of the kernel library's ``neighborly_cover_map`` and the oracle it is
    tested against.
    """
    check_ranks(ranks, n, d, for_cover_map=True)
    cubes: dict[str, tuple[int, int]] = {}  # joker pattern -> (t, subcube of 0...0)
    classes: dict[int, int] = {}
    covered = 0
    clash = None
    for i in range(n):
        rank = ranks[i * d:(i + 1) * d][::-1]  # character c is bit c
        pattern = rank.replace("1", "0")
        entry = cubes.get(pattern)
        if entry is None:
            cube, rest = 1, int(pattern.replace("2", "1"), 2)
            t = rest.bit_count()
            while rest:
                step = rest & -rest
                cube |= cube << step
                rest ^= step
            entry = cubes[pattern] = (t, cube)
        t, cube = entry
        cell = cube << int(rank.replace("2", "0"), 2)
        shared = covered & cell
        if shared:
            if clash is None:
                clash = (i, (shared & -shared).bit_length() - 1)
            cell &= ~covered  # an earlier member keeps what it covers
        classes[t] = classes.get(t, 0) | cell
        covered |= cell
    return classes, covered, clash


@lru_cache(maxsize=2)
def _flip_masks(d: int) -> tuple[int, ...]:
    """Per coordinate j, the set of binary vectors of length d whose bit j is 0."""
    masks = []
    for j in range(d):
        mask, width = (1 << (1 << j)) - 1, 2 << j
        while width < 1 << d:
            mask |= mask << width
            width *= 2
        masks.append(mask)
    return tuple(masks)


def _neighbourhood(s: int, radius: int, masks: tuple[int, ...]) -> int:
    """All binary vectors within Hamming distance ``radius`` of some vector of s."""
    for _ in range(radius):
        grown = s
        for j, low in enumerate(masks):
            grown |= ((s & low) << (1 << j)) | ((s >> (1 << j)) & low)
        s = grown
    return s


def neighbourhood(s: int, radius: int, d: int) -> int:
    """The binary vectors of length d within Hamming distance ``radius`` of
    some vector of the set s.

    A set is a 2^d-bit integer, binary vector v being bit v.  Flipping
    coordinate j of every vector of a set is a masked swap of its blocks of
    2^j bits, so each of the ``radius`` rounds grows the set as it stood
    when the round began by d such swaps.  The masks take d * 2^d bits
    (48 MB at d = 24) and the last two dimensions' are kept.  This is the
    pure twin of the kernel library's ``neighborly_neighbourhood`` and the
    oracle it is tested against.
    """
    check_neighbourhood(s, radius, d)
    return _neighbourhood(s, radius, _flip_masks(d))
