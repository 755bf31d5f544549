"""Pure-Python branch-and-bound clique kernel on integer bit sets.

Fallback twin of the compiled kernel: same greedy-coloring bound, same
lowest-bit-first tie breaking, same traversal order, so both kernels
return identical sizes, witnesses and node counts on identical inputs.
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


class _Searcher:
    def __init__(self, adj: list[int], target: int, node_limit, deadline):
        self.adj = adj
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
        for idx in range(len(order) - 1, -1, -1):
            if size + colors[idx] <= self.best:
                return
            v = order[idx]
            bit = 1 << v
            self._charge()
            child = pool & adj[v]
            if size + 1 > self.best:
                self.best = size + 1
                self.best_mask = mask | bit
                if self.best >= self.target:
                    raise _TargetReached
            if child:
                self._expand(mask | bit, size + 1, child)
            pool &= ~bit


def solve_root(
    adjacency: list[int],
    n: int,
    roots: list[tuple[int, int]],
    best: int,
    best_mask: int,
    target: int,
    node_limit: int | None,
    time_limit: float | None,
    max_depth: int | None = None,
) -> tuple[int, int, int, bool]:
    """Run the root subproblems (vertex, candidate pool) in order.

    Node and time budgets are shared across roots.  Returns
    (best_size, best_mask, nodes, completed); completed is False only when
    a budget ran out, and reaching ``target`` counts as completed.
    """
    deadline = None if time_limit is None else perf_counter() + time_limit
    s = _Searcher(adjacency, target, node_limit, deadline)
    s.best = best
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
