"""Maximum-family search: warm start plus exact branch and bound.

The solver works on the compatibility graph (cliques = families).  The
warm starts (the caller's family, the product construction, the embedded
witnesses) have sizes known in closed form, so it picks one before
building anything.  When that size meets the formula upper bound the
family is built and is optimal, with no graph at all.  Otherwise the
kernel memory check runs first; then the family, the graph and a
branch-and-bound over orbit representatives of the first vertex:
coordinate permutations and per-coordinate bit swaps act on the graph, so
the first clique vertex can be assumed to be 0^(d-t) *^t for some t, which
cuts the root branching factor from 3^d to d.  Below the root the kernel keeps breaking symmetry
down to ``symmetry_depth``: once a branch is finished, every vertex in its
orbit under the symmetries fixing the current clique leaves the pool.

Results are deterministic for fixed (k, d, budget): vertex order, warm
start and kernel traversal are all fixed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from time import perf_counter
from typing import Optional

from .. import bounds, reference
from ..core import Family, check_memory
from ..errors import DomainError, InconsistencyError
from ..constructions import alon_product
from . import _kernel
from .graph import build_graph, family_of, joker_classes, vertex_of

STATUS_OPTIMAL = "optimal"
STATUS_TIMEOUT = "timeout"
STATUS_LOWER_BOUND_ONLY = "lower_bound_only"

DEFAULT_NODE_LIMIT = 10**8
DEFAULT_MAX_SECONDS = 60.0
# Cliques of up to this many members prune orbits.  3 is the knee in nodes
# on (3,6): 2.1 M to exhaust at 2, 1.05 M at 3, 0.91 M at 4.
SYMMETRY_DEPTH = 3


@dataclass(frozen=True)
class Budget:
    """Search limits; None disables a limit, node_limit=0 skips search entirely.

    A negative node limit and negative or NaN seconds raise DomainError;
    ``max_seconds=inf`` is allowed and never expires.
    """

    node_limit: Optional[int] = DEFAULT_NODE_LIMIT
    max_seconds: Optional[float] = DEFAULT_MAX_SECONDS

    def __post_init__(self):
        if self.node_limit is not None and self.node_limit < 0:
            raise DomainError(f"node limit must be >= 0, got {self.node_limit}")
        if self.max_seconds is not None and not self.max_seconds >= 0:  # NaN too
            raise DomainError(f"time limit must be >= 0 seconds, got {self.max_seconds}")

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


def max_family(
    k: int,
    d: int,
    budget: Optional[Budget] = None,
    incumbent: Optional[Family] = None,
    kernel: str = "auto",
    symmetry_depth: int = SYMMETRY_DEPTH,
) -> SearchResult:
    """Best k-neighborly family the budget allows; exact when it suffices.

    status is ``optimal`` when the branch-and-bound tree was exhausted or
    the incumbent met the formula upper bound, ``timeout`` when a budget
    ran out (the incumbent is preserved), and ``lower_bound_only`` when
    node_limit=0 asked for the warm start alone.  The witness is always a
    validated family of the reported size, and results never contradict
    the embedded exact values or certify below a published lower bound
    (either would raise InconsistencyError).  The memory checks (the kernel's, then the
    warm start builder's) raise ResourceError before any family or graph is built; the
    deadline is checked before the kernel starts and inside it.  ``symmetry_depth`` sets how
    deep the kernel prunes orbits (0: only at the root); it changes the
    node count, never the size or the status of an exhausted search.
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

    starts = []  # (size, builder): sizes are compared before anything is built
    if incumbent is not None:
        if incumbent.d != d:
            raise DomainError(f"incumbent has d={incumbent.d}, search is for d={d}")
        if incumbent.k > k:
            raise DomainError(f"incumbent allows distance {incumbent.k} > k={k}")
        valid = incumbent if incumbent.validated else incumbent.validate()
        starts.append((len(valid), lambda: valid))
    starts.append((rep.entries["alon_lower"], lambda: alon_product(k, d)))
    words = reference.WITNESSES.get((k, d))
    if words is not None:
        starts.append((len(words), lambda: Family.from_strings(d, k, words).validate()))
    # max() keeps the first of equal sizes, so the incumbent wins ties
    best_size, build = max(starts, key=lambda option: option[0])
    n = 3**d
    searching = best_size < target and budget.node_limit != 0
    if searching:
        check_memory(
            f"kernel buffers for (k={k}, d={d})", _kernel.buffer_bytes(n, target, symmetry_depth)
        )
    built = build()
    if len(built) != best_size:
        raise InconsistencyError(
            f"warm start for (k={k}, d={d}) has {len(built)} members, "
            f"its formula gives {best_size}"
        )
    # every warm start is validated at some distance <= k, so it is valid at k too
    warm = replace(built, k=k, validated=True)

    def _finish(status: str, nodes: int, witness: Family) -> SearchResult:
        size = len(witness)
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

    if not searching:
        status = STATUS_OPTIMAL if best_size >= target else STATUS_LOWER_BOUND_ONLY
        return _finish(status, 0, warm)

    adj = build_graph(k, d, kernel).adjacency
    # root subproblems: orbit representatives 0^(d-t) *^t, earlier orbits removed
    classes = joker_classes(d)
    active = (1 << n) - 1
    roots: list[tuple[int, int]] = []
    for t in range(d):
        r = vertex_of("0" * (d - t) + "*" * t)
        roots.append((r, adj[r] & active))
        active &= ~classes[t]
    ranks = warm.ranks
    best_mask = sum(1 << vertex_of(ranks[i:i + d]) for i in range(0, len(ranks), d))

    remaining = None
    if deadline is not None:
        remaining = deadline - perf_counter()
        if remaining <= 0:
            return _finish(STATUS_TIMEOUT, 0, warm)
    size, mask, nodes, completed = impl.solve_root(
        adj, roots, best_mask, target, budget.node_limit, remaining, d, symmetry_depth
    )
    status = STATUS_OPTIMAL if completed else STATUS_TIMEOUT
    return _finish(status, nodes, family_of(k, d, mask))


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
        return Certification(k, d, value, value, "certified", value, "search", result)
    return Certification(
        k, d, max(lower, result.best_size), upper, "gap", None, None, result
    )
