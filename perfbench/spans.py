"""Per-layer tracing of a neighborly CLI pass, installed from outside the package.

``install`` replaces the public functions the CLI reaches with wrappers that
open a span around each call and count the work it did.  A span's self time
is its duration minus the time its child spans cover, so the self times of
one pass add up to the time spent inside ``cli.main``.  Names that a later
version of the package no longer defines are skipped; their metrics read 0.

Span names are the per-layer metric names without the ``_s`` suffix.
"""

from __future__ import annotations

import functools
from collections import Counter
from time import perf_counter

# Exact counts: these repeat exactly for a fixed seed and operation list.
COUNT_NAMES = (
    "search.kernel.nodes",
    "search.kernel.exhausted",
    "search.graph.vertices",
    "search.graph.edges",
    "search.solver.greedy_calls",
    "search.solver.greedy_raised",
    "analysis.audit_calls",
    "analysis.vectors_enumerated",
    "core.check_calls",
    "core.pairs_checked",
    "bounds.report_calls",
)

SPAN_NAMES = (
    "search.kernel.solve_root",
    "search.graph.enumerate",
    "search.kernel.build_adjacency",
    "search.solver.greedy",
    "search.solver.constructions",
    "search.solver.reorder",
    "search.solver.self",
    "analysis.audit",
    "core.check",
    "bounds.report",
    "bounds.table_extra",
    "cli.parse",
    "cli.render",
    "cli.self",
)


class Tracer:
    """In-memory spans (name, start, end, parent index) and exact counters."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def call(self, name: str, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append((name, 0.0, 0.0, parent))
        self._stack.append(index)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent)

    def wrap(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.call(name, fn, args, kwargs)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return wrapper

    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = dict.fromkeys(SPAN_NAMES, 0.0)
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - child[i]
        return out

    def exact_counts(self) -> dict[str, int]:
        return {name: int(self.counts[name]) for name in COUNT_NAMES}


def _patch(tracer: Tracer, owner, attr: str, name: str, after=None) -> None:
    fn = getattr(owner, attr, None)
    if fn is not None:
        setattr(owner, attr, tracer.wrap(name, fn, after))


def install(tracer: Tracer, cli) -> None:
    """Wrap the layers below ``cli`` (the imported ``neighborly.cli`` module)."""
    from neighborly import bounds, core
    from neighborly.search import _kernel, solver

    counts = tracer.counts

    # cli: argument parsing and family-file reading, output rendering
    build_parser = cli.build_parser

    def traced_build_parser():
        parser = tracer.call("cli.parse", build_parser, (), {})
        parser.parse_args = tracer.wrap("cli.parse", parser.parse_args)
        return parser

    cli.build_parser = traced_build_parser
    _patch(tracer, cli, "read_family", "cli.parse")
    for attr in ("write_family", "render_table_csv", "render_table_markdown"):
        _patch(tracer, cli, attr, "cli.render")

    # bounds
    def after_report(result, *args, **kwargs):
        counts["bounds.report_calls"] += 1

    _patch(tracer, bounds, "report", "bounds.report", after_report)
    _patch(tracer, bounds, "best_new_upper", "bounds.table_extra")
    _patch(tracer, bounds, "refined_strictly_best", "bounds.table_extra")

    # analysis
    def after_audit(result, family, *args, **kwargs):
        counts["analysis.audit_calls"] += 1
        counts["analysis.vectors_enumerated"] += 1 << family.d

    _patch(tracer, cli, "audit", "analysis.audit", after_audit)

    # core: the pairwise check stops at the first bad pair in sorted order
    def after_check(result, family):
        counts["core.check_calls"] += 1
        n = len(family)
        if result:
            counts["core.pairs_checked"] += n * (n - 1) // 2
            return
        members = family.sorted_members()
        i, j = members.index(result.pair[0]), members.index(result.pair[1])
        counts["core.pairs_checked"] += i * (2 * n - i - 1) // 2 + (j - i)

    _patch(tracer, core.Family, "check", "core.check", after_check)

    # search: solver, graph, warm start, kernel
    max_family = cli.max_family
    incumbents: list[int] = []  # incumbent size per open max_family call

    def traced_max_family(*args, **kwargs):
        incumbent = kwargs.get("incumbent")
        incumbents.append(0 if incumbent is None else len(incumbent))
        try:
            return tracer.call("search.solver.self", max_family, args, kwargs)
        finally:
            incumbents.pop()

    cli.max_family = traced_max_family

    def raise_incumbent(family, *args, **kwargs):
        if incumbents and len(family) > incumbents[-1]:
            incumbents[-1] = len(family)
            return True
        return False

    def after_greedy(family, *args, **kwargs):
        counts["search.solver.greedy_calls"] += 1
        if raise_incumbent(family):
            counts["search.solver.greedy_raised"] += 1

    _patch(tracer, solver, "greedy_family", "search.solver.greedy", after_greedy)
    for attr in ("alon_product", "b_config_family", "extremal_dminus1_family"):
        _patch(tracer, solver, attr, "search.solver.constructions", raise_incumbent)
    for attr in ("degeneracy_order", "relabel"):
        _patch(tracer, solver, attr, "search.solver.reorder")

    def after_graph(graph, *args, **kwargs):
        counts["search.graph.vertices"] += graph.n
        counts["search.graph.edges"] += sum(row.bit_count() for row in graph.adjacency) // 2

    _patch(tracer, solver, "build_graph", "search.graph.enumerate", after_graph)
    _patch(tracer, _kernel, "build_adjacency", "search.kernel.build_adjacency")

    def after_solve(result, *args, **kwargs):
        counts["search.kernel.nodes"] += result[2]
        counts["search.kernel.exhausted"] += int(bool(result[3]))

    for name in ("python", "compiled"):
        try:
            impl = _kernel.get_kernel(name)
        except RuntimeError:
            continue
        _patch(tracer, impl, "solve_root", "search.kernel.solve_root", after_solve)
