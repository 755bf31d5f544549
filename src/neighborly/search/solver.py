"""Maximum-family search: greedy heuristics plus exact branch and bound.

The solver works on the compatibility graph (cliques = families).  It
seeds an incumbent from the built-in constructions and greedy restarts,
stops immediately when the incumbent meets the formula upper bound (the
bound machinery then proves optimality with no search at all), and
otherwise runs a branch-and-bound over orbit representatives of the first
vertex: coordinate permutations and per-coordinate bit swaps act on the
graph, so the first clique vertex can be assumed to be 0^(d-t) *^t for
some t, which cuts the root branching factor from 3^d to d.

Results are deterministic for fixed (k, d, budget): vertex order, greedy
seeds and kernel traversal are all fixed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from time import perf_counter
from typing import Optional

from .. import bounds, reference
from ..core import Family, JokerVector
from ..errors import DomainError, InconsistencyError, ResourceError
from ..constructions import alon_product, b_config_family, extremal_dminus1_family
from . import _kernel
from .graph import CompatGraph, build_graph

STATUS_OPTIMAL = "optimal"
STATUS_TIMEOUT = "timeout"
STATUS_LOWER_BOUND_ONLY = "lower_bound_only"

DEFAULT_NODE_LIMIT = 10**8
DEFAULT_MAX_SECONDS = 60.0
KERNEL_MEMORY_BUDGET = 512 * 1024 * 1024
MANY_VERTICES = 1024  # greedy restarts are pure Python: at most 4 above this size


@dataclass(frozen=True)
class Budget:
    """Search limits; None disables a limit, node_limit=0 skips search entirely."""

    node_limit: Optional[int] = DEFAULT_NODE_LIMIT
    max_seconds: Optional[float] = DEFAULT_MAX_SECONDS

    @classmethod
    def unlimited(cls) -> "Budget":
        return cls(None, None)


@dataclass(frozen=True)
class SearchResult:
    k: int
    d: int
    best_size: int
    witness: Family
    status: str
    nodes_explored: int
    elapsed: float
    kernel: str
    upper_limit: int


@dataclass(frozen=True)
class Certification:
    """Outcome of trying to pin n(k,d) exactly."""

    k: int
    d: int
    lower: int
    upper: int
    status: str  # "certified" or "gap"
    value: Optional[int]
    evidence: Optional[str]  # "formulas" or "search"
    search: Optional[SearchResult] = None

    def __str__(self) -> str:
        if self.status == "certified":
            return f"CERTIFIED n({self.k},{self.d}) = {self.value} [{self.evidence}]"
        return f"GAP {self.lower} <= n({self.k},{self.d}) <= {self.upper}"


@lru_cache(maxsize=4)
def _graph(k: int, d: int) -> CompatGraph:
    return build_graph(k, d)


def _isolated_free_indices(graph: CompatGraph) -> list[int]:
    return [i for i in range(graph.n) if graph.adjacency[i]]


def greedy_family(k: int, d: int, seed: int = 0) -> Family:
    """One seeded greedy run: rotate the start vertex by seed, then repeatedly
    take the candidate with the most neighbors among the remaining candidates
    (ties to the lowest index).

    The result is maximal (no vertex can be added) and always validated.
    """
    graph = _graph(k, d)
    actives = _isolated_free_indices(graph)
    if not actives:
        return graph.family_of([0])  # edgeless graph: any singleton
    adj = graph.adjacency
    start = actives[seed % len(actives)]
    chosen = [start]
    pool = adj[start]
    while pool:
        best_v = -1
        best_deg = -1
        row = pool
        while row:
            low = row & -row
            v = low.bit_length() - 1
            deg = (adj[v] & pool).bit_count()
            if deg > best_deg:
                best_v, best_deg = v, deg
            row ^= low
        chosen.append(best_v)
        pool &= adj[best_v]
    return graph.family_of(chosen)


def _construction_candidates(k: int, d: int) -> list[Family]:
    cands = [alon_product(k, d), b_config_family(k, d)]
    if k == d - 1:
        cands.append(extremal_dminus1_family(d))
    return cands


def _family_indices(family: Family, graph: CompatGraph) -> list[int]:
    index = graph.index_of()
    return [index[v] for v in family.sorted_members()]


def max_family(
    k: int,
    d: int,
    budget: Optional[Budget] = None,
    incumbent: Optional[Family] = None,
    kernel: str = "auto",
    greedy_restarts: int = 16,
    seed: int = 0,
    memory_budget: int = KERNEL_MEMORY_BUDGET,
) -> SearchResult:
    """Best k-neighborly family the budget allows; exact when it suffices.

    status is ``optimal`` when the branch-and-bound tree was exhausted or
    the incumbent met the formula upper bound, ``timeout`` when a budget
    ran out (the incumbent is preserved), and ``lower_bound_only`` when
    node_limit=0 asked for the warm start alone.  The witness is always a
    validated family of the reported size, and results never contradict
    the embedded exact values or certify below a published lower bound
    (either would raise InconsistencyError).  The deadline is checked
    before every greedy restart as well as inside the kernel.
    """
    if budget is None:
        budget = Budget()
    start = perf_counter()
    deadline = None if budget.max_seconds is None else start + budget.max_seconds
    impl = _kernel.get_kernel(kernel)
    rep = bounds.report(k, d)
    target = rep.best_upper
    exact = rep.exact_known
    published = reference.best_known_lower(k, d)

    graph = _graph(k, d)
    n = graph.n
    if n > MANY_VERTICES:
        greedy_restarts = min(greedy_restarts, 4)

    best_indices: list[int] = []
    if incumbent is not None:
        if incumbent.d != d:
            raise DomainError(f"incumbent has d={incumbent.d}, search is for d={d}")
        if incumbent.k > k:
            raise DomainError(f"incumbent allows distance {incumbent.k} > k={k}")
        if not incumbent.validated:
            incumbent = incumbent.validate()
        best_indices = _family_indices(incumbent, graph)
    for cand in _construction_candidates(k, d):
        if len(cand) > len(best_indices):
            best_indices = _family_indices(cand, graph)
    for offset in range(greedy_restarts):
        if deadline is not None and perf_counter() > deadline:
            break
        fam = greedy_family(k, d, seed=seed + offset)
        if len(fam) > len(best_indices):
            best_indices = _family_indices(fam, graph)

    best_size = len(best_indices)

    def _finish(status: str, nodes: int, indices: list[int]) -> SearchResult:
        witness = graph.family_of(indices)
        size = len(indices)
        if exact is not None:
            if size > exact:
                raise InconsistencyError(
                    f"search found {size} members for (k={k}, d={d}) but the "
                    f"embedded exact value is {exact}"
                )
            if status == STATUS_OPTIMAL and size != exact:
                raise InconsistencyError(
                    f"search certified {size} for (k={k}, d={d}) but the "
                    f"embedded exact value is {exact}"
                )
        if status == STATUS_OPTIMAL and published is not None and size < published:
            raise InconsistencyError(
                f"search certified {size} for (k={k}, d={d}) but the "
                f"published lower bound is {published}"
            )
        return SearchResult(
            k, d, size, witness, status, nodes, perf_counter() - start,
            impl.KERNEL_NAME, target,
        )

    if best_size >= target:
        return _finish(STATUS_OPTIMAL, 0, best_indices)
    if budget.node_limit == 0:
        return _finish(STATUS_LOWER_BOUND_ONLY, 0, best_indices)

    max_depth = min(n, target)
    words = (n + 63) // 64
    levels = max_depth + 3
    estimated = levels * (3 * words * 8 + 2 * n * 4) + n * words * 8
    if estimated > memory_budget:
        raise ResourceError(
            f"kernel buffers for (k={k}, d={d}) need ~{estimated} bytes, "
            f"budget is {memory_budget}"
        )

    # root subproblems: orbit representatives 0^(d-t) *^t, earlier orbits removed
    adj = graph.adjacency
    index = graph.index_of()
    active = (1 << n) - 1
    active &= ~(1 << graph.all_joker_index())
    orbit_members: dict[int, list[int]] = {}
    for i, v in enumerate(graph.vectors):
        orbit_members.setdefault(v.joker_count, []).append(i)
    roots: list[tuple[int, int]] = []
    for t in range(d):
        r = index[JokerVector(d, 0, ((1 << t) - 1) << (d - t))]
        roots.append((r, adj[r] & active))
        for member in orbit_members[t]:
            active &= ~(1 << member)

    best_mask = 0
    for i in best_indices:
        best_mask |= 1 << i

    remaining = None
    if deadline is not None:
        remaining = deadline - perf_counter()
        if remaining <= 0:
            return _finish(STATUS_TIMEOUT, 0, best_indices)
    size, mask, nodes, completed = impl.solve_root(
        adj, n, roots, best_size, best_mask, target,
        budget.node_limit, remaining, max_depth,
    )
    return _finish(STATUS_OPTIMAL if completed else STATUS_TIMEOUT, nodes, _bits(mask))


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def certify(
    k: int,
    d: int,
    budget: Optional[Budget] = None,
    kernel: str = "auto",
) -> Certification:
    """Close the gap between best_lower and best_upper, by formulas or search.

    The lower bound is the best of the formulas and the published lower
    bounds.  Formula closure needs no search at all; otherwise an exhausted
    search pins the value, and a budget-bound one reports the surviving gap.
    """
    rep = bounds.report(k, d)
    upper = rep.best_upper
    if rep.best_lower == upper:
        return Certification(k, d, upper, upper, "certified", upper, "formulas")
    lower = max(rep.best_lower, reference.best_known_lower(k, d) or 0)
    result = max_family(k, d, budget=budget, kernel=kernel)
    if result.status == STATUS_OPTIMAL:
        value = result.best_size
        if value < lower:
            raise InconsistencyError(
                f"search certified {value} below the known lower bound {lower} "
                f"for (k={k}, d={d})"
            )
        return Certification(k, d, value, value, "certified", value, "search", result)
    return Certification(
        k, d, max(lower, result.best_size), upper, "gap", None, None, result
    )
