"""Pure-Python branch-and-bound clique kernel on integer bit sets.

Fallback twin of the compiled kernel: same greedy-coloring bound, same
lowest-bit-first tie breaking, same orbit pruning below the root, same
traversal order, so both kernels return identical sizes, witnesses and
node counts on identical inputs.  ``_kernel_c.c`` states the orbit rule
and why it is sound.
"""

from __future__ import annotations

from time import perf_counter

KERNEL_NAME = "python"

_TIME_CHECK_MASK = 0x3FF


class _BudgetExhausted(Exception):
    pass


class _TargetReached(Exception):
    pass


def _color_sort(pool: int, adj: list[int]) -> tuple[list[int], list[int]]:
    """Greedy sequential coloring; returns vertices sorted by color (ascending)."""
    order: list[int] = []
    colors: list[int] = []
    color = 0
    rest = pool
    while rest:
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


def check_orbit_inputs(n: int, d: int | None, symmetry_depth: int) -> None:
    """Orbit pruning reads symbols off vertex indices: it needs n = 3^d."""
    if symmetry_depth < 0:
        raise ValueError(f"symmetry_depth must be >= 0, got {symmetry_depth}")
    if symmetry_depth > 0 and (d is None or d < 1 or 3**d != n):
        raise ValueError(f"orbit pruning needs n = 3^d, got n={n} d={d}")


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
        if (
            self.deadline is not None
            and self.nodes & _TIME_CHECK_MASK == 0
            and perf_counter() > self.deadline
        ):
            raise _BudgetExhausted

    def _expand(self, mask: int, size: int, pool: int) -> None:
        adj = self.adj
        order, colors = _color_sort(pool, adj)
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
    roots: list[tuple[int, int]],
    best_mask: int,
    target: int,
    node_limit: int | None,
    time_limit: float | None,
    d: int | None = None,
    symmetry_depth: int = 0,
) -> tuple[int, int, int, bool]:
    """Run the root subproblems (vertex, candidate pool) in order.

    The graph has n = len(adjacency) vertices; the incumbent is the clique
    ``best_mask``, its size the mask's popcount.  Node and time budgets are
    shared across roots.  Nodes whose clique has at most ``symmetry_depth``
    members, the root alone counting as one, drop a finished vertex's whole
    orbit; that needs graph.py's vertex numbering with n = 3^d (``d`` is
    the caller's statement that the graph is that one), and 0 gives the
    plain tree.  Returns (best_size, best_mask, nodes, completed), where
    best_size is the popcount of best_mask and completed is False only when
    a budget ran out; reaching ``target`` counts as completed.
    """
    check_orbit_inputs(len(adjacency), d, symmetry_depth)
    deadline = None if time_limit is None else perf_counter() + time_limit
    s = _Searcher(adjacency, target, node_limit, deadline, d, symmetry_depth)
    s.best = best_mask.bit_count()
    s.best_mask = best_mask
    if s.best >= target:
        return s.best, s.best_mask, 0, True
    for root, pool in roots:
        if 1 + pool.bit_count() <= s.best:
            continue
        try:
            if pool:
                s._expand(1 << root, 1, pool)
            elif s.best < 1:
                s.best, s.best_mask = 1, 1 << root
                if s.best >= target:
                    return s.best, s.best_mask, s.nodes, True
        except _BudgetExhausted:
            return s.best, s.best_mask, s.nodes, False
        except _TargetReached:
            return s.best, s.best_mask, s.nodes, True
    return s.best, s.best_mask, s.nodes, True
