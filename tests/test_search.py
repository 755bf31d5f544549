"""Search stack: graph, kernels, solver, certification."""

import ast
import itertools
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from neighborly import analysis, bounds, constructions, core, reference
from neighborly.analysis import audit
from neighborly.constructions import alon_product, b_config_family, extremal_dminus1_family
from neighborly.core import Family, JokerVector, is_k_neighborly
from neighborly.errors import DomainError, InconsistencyError, ResourceError, ValidationError
from neighborly.search import (
    Budget,
    build_graph,
    certify,
    get_kernel,
    max_family,
)
from neighborly.search import _kernel, _kernel_py, solver
from neighborly.search.graph import family_of, joker_classes, vertex_of, word_of
from neighborly.search.solver import (
    STATUS_LOWER_BOUND_ONLY,
    STATUS_OPTIMAL,
    STATUS_TIMEOUT,
    SYMMETRY_DEPTH,
    search_roots,
)

from conftest import (
    HAVE_CC, fam, jv, naive_distance, pascal_binomial, random_words, requires_cc, slow,
)
from oracles import all_joker_vectors, max_family_bruteforce, pairwise_adjacency

KERNELS = ("python", "compiled") if HAVE_CC else ("python",)


class TestCompatGraph:
    def test_vertex_count_and_isolated_joker(self):
        g = build_graph(1, 2)
        assert g.n == 9
        assert g.adjacency[all_joker_vectors(2).index(jv("**"))].bit_count() == 0

    def test_lexicographic_order(self):
        g = build_graph(1, 2)
        words = [word_of(i, 2) for i in range(g.n)]
        assert words == [str(v) for v in all_joker_vectors(2)]
        assert words == ["00", "01", "0*", "10", "11", "1*", "*0", "*1", "**"]

    def test_symmetric_irreflexive(self):
        for d in range(1, 5):
            for k in range(1, d + 1):
                g = build_graph(k, d)
                for i in range(g.n):
                    assert not g.adjacency[i] >> i & 1
                    row = g.adjacency[i]
                    while row:
                        low = row & -row
                        j = low.bit_length() - 1
                        assert g.adjacency[j] >> i & 1
                        row ^= low

    def test_adjacency_matches_distances(self):
        g = build_graph(2, 3)
        words = [str(v) for v in all_joker_vectors(3)]
        for i, u in enumerate(words):
            for j, v in enumerate(words):
                if i == j:
                    continue
                expected = 1 <= naive_distance(u, v) <= 2
                assert bool(g.adjacency[i] >> j & 1) == expected

    def test_memory_budget(self, monkeypatch):
        monkeypatch.setattr(core, "MEMORY_BUDGET", 1000)
        with pytest.raises(ResourceError):
            build_graph(2, 8)

    def test_refuses_exactly_d_ten_and_up(self, monkeypatch):
        # the rows are not built: only the guard decides
        monkeypatch.setattr(get_kernel(), "adjacency", lambda k, d: [])
        for d in range(1, 13):
            for k in range(1, d + 1):
                if d >= 10:
                    with pytest.raises(ResourceError, match=f"adjacency rows for d={d} need"):
                        build_graph(k, d)
                else:
                    assert build_graph(k, d).adjacency == [], (k, d)

    def test_kernels_build_identical_adjacency(self):
        # the twins row for row to d = 8, and the rows against the pairwise
        # definition to d = 6
        for d in range(1, 9):
            values = [v.bits for v in all_joker_vectors(d)]
            jokers = [v.jokers for v in all_joker_vectors(d)]
            for k in range(1, d + 1):
                g = build_graph(k, d)
                if d <= 6:
                    assert pairwise_adjacency(values, jokers, k) == list(g.adjacency), (k, d)
                for kernel in KERNELS:
                    rows = get_kernel(kernel).adjacency(k, d)
                    assert list(rows) == list(g.adjacency), (kernel, k, d)

    @pytest.mark.parametrize("k,d", [(0, 1), (2, 1), (1, 0), (-1, 3), (1, 20), (20, 20)])
    def test_kernels_refuse_the_same_cells(self, k, d):
        # k = 0 has no rows; 3^20 vertices overflow the C kernel's int
        for kernel in KERNELS:
            message = f"^the adjacency needs 1 <= k <= d <= 19, got k={k} d={d}$"
            with pytest.raises(ValueError, match=message):
                get_kernel(kernel).adjacency(k, d)

    @requires_cc
    def test_compiled_rows_read_as_ints(self):
        rows = get_kernel("compiled").adjacency(1, 2)
        expected = _kernel_py.adjacency(1, 2)
        assert len(rows) == 9 and list(rows) == expected
        assert [rows[i] for i in range(-9, 9)] == expected * 2
        for i in (9, -10):
            with pytest.raises(IndexError):
                rows[i]

    @pytest.mark.parametrize("k,d", [(3, 7), (6, 7), (2, 8), (6, 8)])
    def test_degrees_match_closed_form(self, k, d):
        # t jokers leave d-t free coordinates; a neighbor differs from the
        # vertex on j of them (C(d-t, j) ways), agrees or has '*' on the other
        # d-t-j, and takes any symbol on the t jokers.
        expected = [
            sum(
                pascal_binomial(d - t, j) * 2 ** (d - t - j) * 3**t
                for j in range(1, k + 1)
            )
            for t in range(d + 1)
        ]
        g = build_graph(k, d)
        for v, row in zip(all_joker_vectors(d), g.adjacency):
            assert row.bit_count() == expected[v.jokers.bit_count()], (str(v), k, d)


class TestVertexNumbering:
    @pytest.mark.parametrize("d", range(1, 7))
    def test_conversions_match_the_enumeration(self, d):
        words = all_joker_vectors(d)
        assert [vertex_of(str(v)) for v in words] == list(range(3**d))
        assert [word_of(i, d) for i in range(3**d)] == [str(v) for v in words]
        classes = joker_classes(d)
        assert len(classes) == d + 1
        for t, mask in enumerate(classes):
            assert mask == sum(1 << i for i, v in enumerate(words) if v.jokers.bit_count() == t), t

    def test_family_of_decodes_and_validates(self):
        family = alon_product(2, 4)
        mask = sum(1 << vertex_of(w) for w in family.sorted_words())
        decoded = family_of(2, 4, mask)
        assert decoded.validated and decoded == family
        bad = 1 << vertex_of("00") | 1 << vertex_of("11")  # distance 2 > k
        with pytest.raises(ValidationError):
            family_of(1, 2, bad)

    def test_family_of_matches_family_of_vectors(self):
        # the decoded family is sorted by its words, in vertex order
        rng = random.Random(1213)
        outcomes = set()
        for _ in range(300):
            d = rng.randint(1, 5)
            k = rng.randint(1, d)
            mask = sum(1 << i for i in rng.sample(range(3**d), rng.randint(0, min(6, 3**d))))
            vertices = [i for i in range(3**d) if mask >> i & 1]
            words = [word_of(i, d) for i in vertices]
            try:
                expected = Family.of(d, k, map(jv, words)).validate()
            except ValidationError as exc:
                with pytest.raises(ValidationError) as info:
                    family_of(k, d, mask)
                assert str(info.value) == str(exc)
                outcomes.add("invalid")
                continue
            got = family_of(k, d, mask)
            assert got.validated and got == expected
            assert got.ranks == expected.ranks
            assert [vertex_of(w) for w in got.sorted_words()] == vertices
            outcomes.add("valid")
        assert outcomes == {"valid", "invalid"}


class TestBruteForceOracle:
    def test_solver_matches_bruteforce(self):
        for d in (1, 2):
            for k in range(1, d + 1):
                size, witness = max_family_bruteforce(k, d)
                assert witness.validated and len(witness) == size
                for kernel in KERNELS:
                    res = max_family(k, d, kernel=kernel)
                    assert res.best_size == size, (k, d, kernel)
                    assert res.status == STATUS_OPTIMAL

    def test_bruteforce_rejects_large_d(self):
        with pytest.raises(DomainError):
            max_family_bruteforce(2, 3)


class TestMaxFamily:
    def test_small_exact_values(self):
        expected = {(1, 2): 3, (1, 3): 4, (2, 4): 9, (3, 5): 18, (3, 4): 12}
        for (k, d), size in expected.items():
            res = max_family(k, d)
            assert res.best_size == size
            assert res.status == STATUS_OPTIMAL
            assert res.witness.validated and len(res.witness) == size

    def test_honest_exhaustion_beats_formula_gap(self):
        # upper bound is 5 but the true maximum is 4; tree must be exhausted
        res = max_family(2, 2)
        assert res.best_size == 4
        assert res.status == STATUS_OPTIMAL
        assert res.upper_limit == 5

    def test_search_certifies_2_5(self):
        # bounds leave 12..14 open; the branch-and-bound closes it at 12
        res = max_family(2, 5)
        assert res.best_size == 12
        assert res.status == STATUS_OPTIMAL
        assert res.nodes_explored > 0

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("depth,nodes", [(0, 3_063), (1, 335), (2, 221), (3, 183)])
    def test_2_5_node_counts_by_symmetry_depth(self, monkeypatch, kernel, depth, nodes):
        monkeypatch.setattr(solver, "SYMMETRY_DEPTH", depth)
        res = max_family(2, 5, kernel=kernel)
        assert (res.best_size, res.status, res.nodes_explored) == (12, STATUS_OPTIMAL, nodes)

    @pytest.mark.parametrize("k,d", [(k, d) for d in range(1, 6) for k in range(1, d + 1)])
    def test_orbit_pruning_keeps_every_size(self, monkeypatch, k, d):
        # (2,6) at both depths: TestKernelTwins::test_compiled_certifies_2_6
        monkeypatch.setattr(solver, "SYMMETRY_DEPTH", 0)
        plain = max_family(k, d, Budget.unlimited())
        monkeypatch.setattr(solver, "SYMMETRY_DEPTH", 3)
        pruned = max_family(k, d, Budget.unlimited())
        assert plain.status == pruned.status == STATUS_OPTIMAL
        assert pruned.best_size == plain.best_size, (k, d)
        assert pruned.nodes_explored <= plain.nodes_explored

    def test_soundness_small_grid(self):
        for d in range(1, 5):
            for k in range(1, d + 1):
                res = max_family(k, d)
                rep = bounds.report(k, d)
                assert rep.entries["alon_lower"] <= res.best_size <= rep.best_upper

    def test_deterministic(self):
        a = max_family(2, 4)
        b = max_family(2, 4)
        assert a.best_size == b.best_size
        assert a.nodes_explored == b.nodes_explored
        assert a.witness == b.witness

    def test_budget_zero_nodes_gives_lower_bound_only(self):
        res = max_family(2, 5, budget=Budget(node_limit=0))
        assert res.status == STATUS_LOWER_BOUND_ONLY
        assert res.best_size >= 12

    def test_tiny_budget_times_out_keeping_incumbent(self):
        res = max_family(2, 5, budget=Budget(node_limit=50, max_seconds=30))
        assert res.status == STATUS_TIMEOUT
        assert res.best_size >= 12
        assert res.witness.validated

    def test_incumbent_respected(self):
        seedfam = alon_product(3, 4)
        res = max_family(3, 4, incumbent=seedfam)
        assert res.best_size >= len(seedfam)

    def test_incumbent_dimension_check(self):
        with pytest.raises(DomainError):
            max_family(2, 4, incumbent=alon_product(2, 3))
        with pytest.raises(DomainError):
            max_family(1, 4, incumbent=alon_product(2, 4))

    @staticmethod
    def _forbidden(*args, **kwargs):
        raise AssertionError("a family, the graph or a vertex mask was built")

    @classmethod
    def _forbid_vertex_work(cls, monkeypatch):
        """Make building the graph or any 3^d-bit vertex mask fail the test."""
        for name in ("build_graph", "vertex_of", "family_of"):
            monkeypatch.setattr(solver, name, cls._forbidden)

    def test_warm_start_at_the_bound_builds_no_graph(self, monkeypatch):
        self._forbid_vertex_work(monkeypatch)
        res = max_family(6, 7)
        assert (res.best_size, res.status, res.nodes_explored) == (96, STATUS_OPTIMAL, 0)
        assert res.witness.validated and res.witness.k == 6
        res = max_family(2, 5, budget=Budget(node_limit=0))
        assert (res.best_size, res.status) == (12, STATUS_LOWER_BOUND_ONLY)
        # n(14,15) = 3 * 2^13: closed by the product construction over 3^15 vertices
        res = max_family(14, 15)
        assert (res.best_size, res.status, res.nodes_explored) == (24576, STATUS_OPTIMAL, 0)

    def test_kernel_memory_guard(self, monkeypatch):
        monkeypatch.setattr(core, "MEMORY_BUDGET", 10_000)
        with pytest.raises(ResourceError, match="kernel buffers for"):
            max_family(2, 5)

    @pytest.mark.parametrize(
        "k,d", [pytest.param(2, d, id=str(d)) for d in (10, 20, 25, 40)] + [(14, 28)]
    )
    def test_memory_guard_precedes_vertex_masks(self, monkeypatch, k, d):
        # the warm start does not close (k, d); the guard must fire before a
        # mask of 3^d bits is built (3^25 bits is ~106 GB), and before the
        # warm start family (alon_product(14, 28) has 4.8 M members); at
        # d=10 it fires only because it counts the Python adjacency rows
        self._forbid_vertex_work(monkeypatch)
        monkeypatch.setattr(solver, "alon_product", self._forbidden)
        with pytest.raises(ResourceError, match="kernel buffers for"):
            max_family(k, d)

    def test_only_the_largest_warm_start_is_built(self, monkeypatch):
        # (17,18): the product is the warm start; (4,6): the 37-member
        # witness beats the 36-member product, which is never built
        built = []
        monkeypatch.setattr(
            solver, "alon_product", lambda *args: built.append(args) or alon_product(*args)
        )
        res = max_family(17, 18)
        assert (res.best_size, res.status, res.nodes_explored) == (196608, STATUS_OPTIMAL, 0)
        res = max_family(4, 6, budget=Budget(node_limit=0))
        assert (res.best_size, res.status) == (37, STATUS_OPTIMAL)
        assert built == [(17, 18)]

    def test_the_product_is_the_d_minus_1_family_size(self):
        # why max_family needs no separate k = d-1 warm start: the product
        # already has n(d-1, d) = 3 * 2^(d-2) members
        for d in range(2, 61):
            assert bounds.alon_lower(d - 1, d) == 3 << (d - 2), d

    def test_refused_cells_up_to_d_eleven(self, monkeypatch):
        # every cell the memory check lets through fails at its first build
        self._forbid_vertex_work(monkeypatch)
        monkeypatch.setattr(solver, "alon_product", self._forbidden)
        refused, searched = set(), set()
        for d in range(1, 12):
            for k in range(1, d + 1):
                rep = bounds.report(k, d)
                warm = max(rep.entries["alon_lower"], len(reference.WITNESSES.get((k, d), ())))
                if warm < rep.best_upper:
                    searched.add((k, d))
                try:
                    max_family(k, d)
                except ResourceError:
                    refused.add((k, d))
                except AssertionError:
                    pass
        assert refused == {(9, 9)} | {(k, d) for k, d in searched if d >= 10}
        assert [sum(d == e for _, d in refused) for e in (10, 11)] == [8, 9]

    @pytest.mark.parametrize(
        "k,d,node_limit,refused",
        [
            (17, 18, None, False),  # 196,608 members
            (20, 21, None, False),  # 1,572,864 members
            (21, 22, None, True),  # 3,145,728 members
            (39, 40, None, True),  # 3 * 2^38 members, closed by the formulas
            (17, 30, 0, True),  # 25,509,168 members, the warm start alone
        ],
    )
    def test_warm_start_family_is_checked_before_it_is_built(
        self, monkeypatch, k, d, node_limit, refused
    ):
        # a check that let (k, d) through reaches the word product and stops
        monkeypatch.setattr(constructions, "_products", self._forbidden)
        expected = f"^the {bounds.alon_lower(k, d)} members of" if refused else "was built"
        with pytest.raises(ResourceError if refused else AssertionError, match=expected):
            max_family(k, d, budget=Budget(node_limit=node_limit))

    def test_warm_start_off_its_formula_trips_inconsistency(self, monkeypatch):
        short = Family.of(5, 2, sorted(alon_product(2, 5))[1:], validated=True)
        monkeypatch.setattr(solver, "alon_product", lambda k, d: short)
        with pytest.raises(InconsistencyError, match="formula gives 12"):
            max_family(2, 5, budget=Budget(node_limit=0))

    def test_monotonicity_on_certified_range(self):
        sizes = {}
        for d in range(1, 6):
            for k in range(1, d + 1):
                res = max_family(k, d, budget=Budget(node_limit=500_000, max_seconds=30))
                if res.status == STATUS_OPTIMAL:
                    sizes[(k, d)] = res.best_size
        assert len(sizes) == 15  # everything at d <= 5 certifies fast
        for (k, d), value in sizes.items():
            if (k - 1, d) in sizes:
                assert sizes[(k - 1, d)] <= value
            if (k, d - 1) in sizes:
                assert sizes[(k, d - 1)] <= value

    def test_forged_exact_value_trips_inconsistency(self, monkeypatch):
        from neighborly import reference

        monkeypatch.setitem(reference.EXACT_VALUES, (2, 4), (8, "forged"))
        with pytest.raises(InconsistencyError):
            max_family(2, 4)
        # an exhausted search below the embedded value
        monkeypatch.setitem(reference.EXACT_VALUES, (2, 5), (13, "forged"))
        expected = "^search certified 12 for \\(k=2, d=5\\) but the embedded exact value is 13$"
        with pytest.raises(InconsistencyError, match=expected):
            max_family(2, 5)

    def test_forged_published_lower_bound_trips_inconsistency(self, monkeypatch):
        from neighborly import reference

        monkeypatch.setitem(reference.BEST_KNOWN_LOWER, (2, 5), 13)
        with pytest.raises(InconsistencyError, match="published lower bound is 13"):
            max_family(2, 5)
        with pytest.raises(InconsistencyError, match="published lower bound is 13"):
            certify(2, 5)

    @pytest.mark.parametrize(
        "node_limit,max_seconds",
        [(-1, None), (None, -1.0), (None, -1e-9), (None, float("nan")), (-5, float("nan"))],
    )
    def test_bad_budget_rejected(self, node_limit, max_seconds):
        with pytest.raises(DomainError):
            Budget(node_limit, max_seconds)

    def test_infinite_seconds_allowed(self):
        res = max_family(2, 5, budget=Budget(None, float("inf")))
        assert (res.best_size, res.status) == (12, STATUS_OPTIMAL)
        assert Budget(0, 0.0).node_limit == 0

    def test_expired_deadline_skips_greedy_and_kernel(self, monkeypatch):
        calls = []
        impl = get_kernel("auto")
        monkeypatch.setattr(impl, "solve_root", lambda *a: calls.append(a))
        res = max_family(2, 5, budget=Budget(None, 0))
        assert calls == []
        assert res.status == STATUS_TIMEOUT and res.nodes_explored == 0
        assert res.witness.validated and len(res.witness) == res.best_size == 12

    def test_deadline_leaves_time_for_the_kernel(self):
        # the warm start must not spend the whole second before the kernel runs
        res = max_family(6, 8, budget=Budget(None, 1.0))
        assert res.status == STATUS_TIMEOUT
        assert res.nodes_explored > 0


class TestEmbeddedWitnesses:
    @pytest.mark.parametrize("k,d", sorted(reference.WITNESSES))
    def test_witness_is_exact_and_audits(self, k, d):
        # the size on record: the exact value, else the published lower bound
        words = reference.WITNESSES[(k, d)]
        family = Family.from_strings(d, k, words)
        assert len(family) == len(words)  # no duplicate words
        exact = reference.exact_value(k, d)
        assert len(family) == (reference.best_known_lower(k, d) if exact is None else exact[0])
        assert len(family) > max(len(c) for c in (alon_product(k, d), b_config_family(k, d)))
        rep = audit(family.validate())
        assert rep.passed, rep.failures()

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_witness_certifies_4_6_without_search(self, kernel):
        res = max_family(4, 6, kernel=kernel)
        assert (res.best_size, res.status, res.nodes_explored) == (37, STATUS_OPTIMAL, 0)


class TestKernelTwins:
    @requires_cc
    def test_identical_exhaustive_runs(self):
        # unreachable target forces full exhaustion through both kernels
        for (k, d) in [(1, 2), (2, 2), (2, 3), (3, 3), (2, 4), (3, 4)]:
            g = build_graph(k, d)
            n = g.n
            roots = [(i, g.adjacency[i] & (((1 << n) - 1) << (i + 1))) for i in range(n)]
            args = (g.adjacency, roots, 0, n + 1, None, None, None, 0)
            py = search_roots(get_kernel("python"), *args)
            cc = search_roots(get_kernel("compiled"), *args)
            assert py == cc, (k, d)
            assert py[2] is True

    @requires_cc
    def test_no_memory_raises_memory_error(self, monkeypatch):
        compiled = get_kernel("compiled")
        monkeypatch.setattr(compiled, "_solve", lambda *args: _kernel._NO_MEMORY)
        with pytest.raises(MemoryError, match="^the compiled kernel could not allocate"):
            max_family(2, 5, kernel="compiled")

    @requires_cc
    def test_no_memory_in_the_adjacency_raises_memory_error(self, monkeypatch):
        compiled = get_kernel("compiled")
        monkeypatch.setattr(compiled, "_adjacency", lambda *args: _kernel._NO_MEMORY)
        with pytest.raises(MemoryError, match="^the compiled adjacency could not allocate"):
            max_family(2, 5, kernel="compiled")

    @requires_cc
    def test_memory_estimate_is_the_compiled_block(self):
        # buffer_bytes: the rows twice, plus the one block neighborly_solve
        # lays out, its relabelled frame included
        compiled = get_kernel("compiled")
        for n in (1, 2, 63, 64, 65, 243, 729, 2187, 19683):
            rows = 2 * n * ((n + 63) // 64) * 8
            for target in (0, 1, 5, 21, n, n + 5):
                for depth in (0, 1, 3, 4, n + 10):
                    estimate = _kernel.buffer_bytes(n, target, depth)
                    assert estimate == rows + compiled.solve_bytes(n, target, depth)

    def test_memory_estimate_covers_the_frames(self):
        # beyond the caller's graph (rows twice, and per level a pool row,
        # colour order and colours), one frame of n // 2 vertices at
        # clique size 3: rows, vertex map and per level below it a pool
        # row, colour order and colours, and one row of orbit keys
        for n, target in [(243, 14), (729, 21), (2187, 29), (19683, 100)]:
            words = (n + 63) // 64
            levels = target + 3
            caller = 2 * n * words * 8 + levels * (words * 8 + 2 * n * 4)
            m, m_words = n // 2, (n // 2 + 63) // 64
            frame = m * m_words * 8 + m * 4 + (levels - 2) * (m_words * 8 + 2 * m * 4) + m * 4
            assert _kernel.buffer_bytes(n, target, 3) >= caller + frame

    @requires_cc
    def test_compiled_search_converts_no_adjacency_rows(self, monkeypatch):
        # the rows stay in the buffer the compiled adjacency filled: each
        # root subproblem converts its incumbent and its pool, one row each,
        # and the 500 nodes run out in the first root
        converted = []
        bit_sets = _kernel._bit_sets

        def recording(values, width):
            converted.append(len(values))
            return bit_sets(values, width)

        monkeypatch.setattr(_kernel, "_bit_sets", recording)
        res = max_family(3, 7, Budget(500), kernel="compiled")
        assert converted == [1, 1]
        assert (res.status, res.nodes_explored) == (STATUS_TIMEOUT, 501)

    @requires_cc
    def test_identical_solver_results(self):
        for (k, d) in [(2, 2), (2, 5)]:
            res = {kern: max_family(k, d, kernel=kern) for kern in KERNELS}
            assert res["python"].best_size == res["compiled"].best_size
            assert res["python"].nodes_explored == res["compiled"].nodes_explored
            assert res["python"].witness == res["compiled"].witness

    @requires_cc
    def test_identical_under_budget(self):
        # (2,5) takes 183 nodes with orbit pruning, so 100 runs out
        args = dict(budget=Budget(node_limit=100, max_seconds=30))
        py = max_family(2, 5, kernel="python", **args)
        cc = max_family(2, 5, kernel="compiled", **args)
        assert py.best_size == cc.best_size
        assert py.status == cc.status == STATUS_TIMEOUT

    @requires_cc
    @pytest.mark.parametrize(
        "k,d,node_limit", [(2, 5, None), (2, 6, 50_000), (3, 6, 50_000), (3, 7, 500)]
    )
    def test_identical_on_benchmark_cells(self, monkeypatch, k, d, node_limit):
        # orbit pruning to depth 3, max_family's default, exhausts (2,6) in
        # 13,751 nodes, well inside the benchmark's 50k cap, so (2,5) and
        # (2,6) are exhaustive twin runs
        args = _kernel_inputs(monkeypatch, k, d, node_limit)
        assert args[-1] == SYMMETRY_DEPTH == 3
        assert _twin_search(args)[2] is (node_limit is None or (k, d) == (2, 6))

    @requires_cc
    @pytest.mark.parametrize(
        "k,d,node_limit,depth",
        [(2, 7, 14_000, 3)] + [(k, 6, 5_000, depth) for k in (2, 3) for depth in range(4)],
    )
    def test_identical_where_frames_are_built(self, monkeypatch, k, d, node_limit, depth):
        # the compiled kernel searches a node whose clique has 3 members on
        # a relabelled copy of its pool when the pool holds at most half of
        # the graph; every one of these runs builds such a frame, whatever
        # the depth of orbit pruning: (3,6) one, (2,6) 62 to 73, (2,7) 24.
        # (4,7) and (5,7) are too dense: no pool of theirs falls to half the
        # graph in 50,000 nodes.  The renumbering keeps the vertex order, so
        # both kernels return the same size, mask and node count on each root
        args = _kernel_inputs(monkeypatch, k, d, node_limit)[:-1] + (depth,)
        assert _twin_search(args)[1:] == (node_limit + 1, False)

    @requires_cc
    @pytest.mark.parametrize(
        "k,d,node_limit,nodes,depth",
        [
            pytest.param(2, 5, None, 3_063, 0, id="2-5-None-3063"),
            pytest.param(2, 6, 50_000, 50_001, 0, id="2-6-50000-50001"),
            pytest.param(3, 6, 50_000, 50_001, 0, id="3-6-50000-50001"),
            pytest.param(3, 7, 500, 501, 0, id="3-7-500-501"),
            pytest.param(2, 6, 5_000, 5_001, 1, id="2-6-5000-5001-depth1"),
            pytest.param(2, 6, 5_000, 5_001, 2, id="2-6-5000-5001-depth2"),
            pytest.param(3, 6, 5_000, 5_001, 1, id="3-6-5000-5001-depth1"),
            pytest.param(3, 6, 5_000, 5_001, 2, id="3-6-5000-5001-depth2"),
        ],
    )
    def test_identical_on_benchmark_cells_at_depth_zero(
        self, monkeypatch, k, d, node_limit, nodes, depth
    ):
        # depth 0 is the tree of the kernels without orbit pruning below the
        # root; depths 1 and 2 prune at fewer levels than max_family's 3
        args = _kernel_inputs(monkeypatch, k, d, node_limit)[:-1] + (depth,)
        assert _twin_search(args)[1:] == (nodes, node_limit is None)

    @requires_cc
    @pytest.mark.parametrize(
        "k,d,node_limit,depth,nodes,completed",
        [
            (2, 5, None, 1, 335, True),
            (2, 5, None, 2, 221, True),
            (2, 6, 50_000, 1, 50_001, False),
            (2, 6, 50_000, 2, 17_822, True),
            (3, 6, 50_000, 1, 50_001, False),
            (3, 6, 50_000, 2, 50_001, False),
            (3, 7, 500, 1, 501, False),
            (3, 7, 500, 2, 501, False),
        ],
    )
    def test_identical_on_benchmark_cells_at_depths_one_and_two(
        self, monkeypatch, k, d, node_limit, depth, nodes, completed
    ):
        # with the two tests above, every benchmark cell at depths 0-3
        args = _kernel_inputs(monkeypatch, k, d, node_limit)[:-1] + (depth,)
        assert _twin_search(args)[1:] == (nodes, completed)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_zero_time_limit_stops_at_the_first_node(self, monkeypatch, kernel):
        # both kernels read the clock at every node they charge
        adj, roots, best_mask, target, _, _, d, depth = _kernel_inputs(monkeypatch, 2, 6, None)
        root, pool = roots[0]
        size, mask, nodes, completed = get_kernel(kernel).solve_root(
            adj, root, pool, best_mask, target, None, 0.0, d, depth
        )
        assert (size, mask, nodes, completed) == (16, best_mask, 1, False)

    @pytest.mark.parametrize("depth,nodes", [(0, 50), (3, 42)])
    def test_reaching_the_target_completes_the_search(self, monkeypatch, depth, nodes):
        # the (2,5) root orbits from an empty incumbent stop at the first
        # 12-clique; one that meets the target from the start, or a root
        # with no candidates, costs no node
        adj, roots, _, _, _, _, d, _ = _kernel_inputs(monkeypatch, 2, 5, None)
        results = [
            search_roots(get_kernel(kernel), adj, roots, 0, 12, None, None, d, depth)
            for kernel in KERNELS
        ]
        mask, got, completed = results[0]
        assert (mask.bit_count(), got, completed) == (12, nodes, True)
        assert all(res == results[0] for res in results)
        for kernel in KERNELS:
            impl = get_kernel(kernel)
            again = search_roots(impl, adj, roots, mask, 12, None, None, d, depth)
            assert again == (mask, 0, True)
            root, pool = roots[0]
            assert impl.solve_root(adj, root, pool, mask, 12, None, None, d, depth) == (
                12, mask, 0, True
            )
            edgeless = ([0, 0], [(0, 0), (1, 0)], 0, 1, None, None, None, 0)
            assert search_roots(impl, *edgeless) == (1, 0, True)

    def test_both_kernels_provide_the_interface(self):
        for name in KERNELS:
            impl = get_kernel(name)
            assert impl.KERNEL_NAME == name
            for routine in ("adjacency", "solve_root", "first_bad_pair", "cover_map",
                            "neighbourhood"):
                assert callable(getattr(impl, routine)), (name, routine)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_orbit_pruning_needs_the_word_graph(self, kernel):
        # symbols are read off vertex indices, which only works for n = 3^d
        args = _triangle_plus_edge()
        solve = get_kernel(kernel).solve_root
        with pytest.raises(ValueError, match="3\\^d"):
            solve(*args, 1, 3)
        with pytest.raises(ValueError, match=">= 0"):
            solve(*args, None, -1)
        assert solve(*args, 1, 0)[:2] == (3, 0b0111)

    def test_compiled_rejects_vertices_outside_the_graph(self):
        # C would read past the adjacency, Python raise IndexError or answer;
        # both kernels refuse first, with the same text
        adj, root, pool, *rest = _triangle_plus_edge()
        for kernel in KERNELS:
            solve = get_kernel(kernel).solve_root
            with pytest.raises(ValueError, match="^root 4 or its candidates lie outside 0..3$"):
                solve(adj, len(adj), 0, *rest)
            with pytest.raises(ValueError, match="^root 0 or its candidates lie outside 0..3$"):
                solve(adj, 0, 1 << len(adj), *rest)
            with pytest.raises(ValueError, match="^root 2 or its candidates lie outside 0..2$"):
                solve(adj[:-1], 2, adj[2] >> 3 << 3, *rest)
            with pytest.raises(ValueError, match="^the incumbent mask has vertices outside 0..3$"):
                solve(adj, root, pool, 1 << len(adj), *rest[1:])

    @requires_cc
    @pytest.mark.parametrize("node_limit", [2**64, 2**64 + 1000])
    def test_node_limit_beyond_int64(self, node_limit):
        # the C kernel counts in 64 bits; a larger limit must not wrap around
        res = [max_family(2, 6, Budget(node_limit, None), kernel=kern) for kern in KERNELS]
        got = [(r.best_size, r.status, r.nodes_explored) for r in res]
        assert got == [(16, STATUS_OPTIMAL, 13_751)] * 2

    @requires_cc
    def test_compiled_certifies_2_6(self, monkeypatch):
        # the tree of the lexicographic vertex order, no reordering; orbit
        # pruning to depth 3 cuts it 70-fold
        for depth, nodes in [(0, 966_502), (3, 13_751)]:
            monkeypatch.setattr(solver, "SYMMETRY_DEPTH", depth)
            res = max_family(2, 6, Budget.unlimited(), kernel="compiled")
            assert (res.best_size, res.status) == (16, STATUS_OPTIMAL)
            assert res.nodes_explored == nodes, depth

    @requires_cc
    def test_compiled_certifies_3_6_by_search(self):
        # a second route to the paper's n(3,6) = 27 (max_family raises
        # InconsistencyError if an exhausted search disagrees with it)
        res = max_family(3, 6, Budget.unlimited(), kernel="compiled")
        assert (res.best_size, res.status) == (27, STATUS_OPTIMAL)
        assert res.nodes_explored == 1_047_592
        assert reference.exact_value(3, 6)[0] == 27

    @requires_cc
    @slow
    def test_compiled_certifies_2_7(self):
        # README's search 2 7, about 7 s: the one exhaustive d = 7 tree,
        # where the kernel builds the most relabelled frames
        res = max_family(2, 7, Budget.unlimited(), kernel="compiled")
        assert (res.best_size, res.status, res.nodes_explored) == (21, STATUS_OPTIMAL, 4_108_440)

    def test_python_deadline_stops_inside_the_coloring(self, monkeypatch):
        # a clock that advances one second per read: solve_root reads it
        # once for the deadline, the root's coloring once per color class,
        # so a 2.5 s limit stops the search in its third class, before any
        # node is charged, and counts the refused node as _charge would
        adj, roots, best_mask, target, _, _, d, depth = _kernel_inputs(monkeypatch, 2, 6, None)
        root, pool = roots[0]
        reads = itertools.count()
        monkeypatch.setattr(_kernel_py, "perf_counter", lambda: float(next(reads)))
        assert _kernel_py.solve_root(adj, root, pool, best_mask, target, None, 2.5, d, depth) == (
            16, best_mask, 1, False
        )
        assert next(reads) == 4
        _, colors = _kernel_py._color_sort(pool, adj)
        assert colors[-1] > 3  # so the coloring was cut short

    def test_python_deadline_leaves_node_counts(self, monkeypatch):
        # a deadline that never comes costs clock reads, not nodes
        args = _kernel_inputs(monkeypatch, 2, 5, None)
        adj, roots, best_mask, target, node_limit, _, d, depth = args
        unlimited = search_roots(_kernel_py, *args)
        timed = search_roots(_kernel_py, adj, roots, best_mask, target, node_limit, 1e9, d, depth)
        assert timed == unlimited
        assert unlimited[1:] == (183, True)



def _kernel_inputs(monkeypatch, k, d, node_limit):
    """The arguments after the kernel that max_family passes to search_roots."""

    class Captured(Exception):
        pass

    inputs = []

    def capture(kernel, *args):
        inputs.append(args)
        raise Captured

    with monkeypatch.context() as patch:
        patch.setattr(solver, "search_roots", capture)
        with pytest.raises(Captured):
            max_family(k, d, budget=Budget(node_limit, None), kernel="python")
    return inputs[0]


def _twin_search(args):
    """search_roots(kernel, *args) with both kernels' solve_root on every root
    subproblem it runs, which must return identical 4-tuples: a whole-run
    comparison could hide differences that cancel between roots."""

    class Twins:
        @staticmethod
        def solve_root(*root_args):
            py = _kernel_py.solve_root(*root_args)
            assert get_kernel("compiled").solve_root(*root_args) == py, root_args[1]
            return py

    return search_roots(Twins, *args)


def _triangle_plus_edge():
    """Vertices 0-1-2 form a triangle and 3 hangs off 2: root 0's subproblem
    holds the one maximum clique."""
    adj = [0b0110, 0b0101, 0b1011, 0b0100]
    return (adj, 0, adj[0], 0, 5, None, None)


class TestKernelLoader:
    @requires_cc
    def test_empty_cache_builds_then_loads(self, tmp_path, monkeypatch):
        kernel, reason = _kernel.load_compiled(tmp_path)
        assert reason is None
        built = sorted(p.name for p in tmp_path.iterdir())
        assert len(built) == 1 and built[0].endswith(".so")
        args = _triangle_plus_edge()
        assert kernel.solve_root(*args) == get_kernel("python").solve_root(*args)
        assert kernel.solve_root(*args)[:2] == (3, 0b0111)
        # sorted 00, 01, 11, 1*: (00, 11) at distance 2 is the first bad pair
        ranks = fam(2, 1, "1*", "11", "01", "00").ranks
        assert kernel.first_bad_pair(ranks, 4, 2, 1) == _kernel_py.first_bad_pair(ranks, 4, 2, 1)
        assert kernel.first_bad_pair(ranks, 4, 2, 1) == (0, 2)

        def no_build(*args):
            raise AssertionError("a cached library was built again")

        monkeypatch.setattr(_kernel, "_build", no_build)
        kernel, reason = _kernel.load_compiled(tmp_path)
        assert reason is None and kernel.KERNEL_NAME == "compiled"

    @requires_cc
    def test_a_new_build_prunes_other_libraries(self, tmp_path):
        stale = [tmp_path / "_kernel_c-0123456789abcdef.so", tmp_path / "_kernel_c-old.so"]
        kept = [tmp_path / "unrelated.so", tmp_path / "_kernel_c-notes.txt"]
        for path in stale + kept:
            path.write_bytes(b"")
        kernel, reason = _kernel.load_compiled(tmp_path)
        assert reason is None
        (built,) = set(tmp_path.iterdir()) - set(kept)
        assert built.name.startswith("_kernel_c-") and built.suffix == ".so"
        assert built not in stale and all(path.exists() for path in kept)

    def test_pruning_ignores_what_it_cannot_remove(self, tmp_path):
        library = tmp_path / "_kernel_c-new.so"
        library.write_bytes(b"")
        (tmp_path / "_kernel_c-dir.so").mkdir()  # unlink raises IsADirectoryError
        (tmp_path / "_kernel_c-old.so").write_bytes(b"")
        _kernel._prune(library)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["_kernel_c-dir.so", "_kernel_c-new.so"]

    @requires_cc
    def test_source_compiles_without_warnings(self, tmp_path):
        strict = ("-Wall", "-Wextra", "-pedantic", "-Werror")
        library = tmp_path / "strict.so"
        proc = subprocess.run(
            [*_kernel.default_compiler(), *_kernel.FLAGS, *strict, "-o", str(library),
             str(_kernel.SOURCE)],
            capture_output=True, text=True, timeout=_kernel.BUILD_TIMEOUT_S,
        )
        assert proc.returncode == 0, proc.stderr
        assert library.is_file()

    @requires_cc
    def test_library_runs_clean_under_sanitizers(self, tmp_path, monkeypatch):
        # AddressSanitizer and UBSan stop the child at the first bad access,
        # overflow or misaligned read; the twin checks what it returns
        cc = _kernel.default_compiler()
        runtimes = []
        for name in ("libasan.so", "libubsan.so"):
            proc = subprocess.run(
                [*cc, f"-print-file-name={name}"], capture_output=True, text=True, timeout=60
            )
            if not os.path.isabs(proc.stdout.strip()):
                pytest.skip(f"{cc[0]} has no {name}")
            runtimes.append(proc.stdout.strip())
        # (2,7) builds two frames in 3,000 nodes, copied from rows of 35 words
        solves = [
            _kernel_inputs(monkeypatch, k, d, node_limit)[:-1] + (depth,)
            for k, d, node_limit, depths in [
                (2, 5, None, range(4)), (3, 6, 5_000, range(4)), (2, 7, 3_000, [3])
            ]
            for depth in depths
        ]
        # binary words in rank order: k = 8 holds, k = 7 fails at n = 129
        # (01111111, 10000000), k = 3 fails early; 70 and 129 end mid-word
        words = [format(i, "08b") for i in range(256)]
        pairs = [("".join(words[:n]), n, 8, k) for n in (70, 129) for k in (8, 7, 3)]
        family = Family.from_strings(8, 8, random_words(random.Random(20), 8, 40, 0.4))
        covers = [(family.ranks, len(family), 8)]
        # rows of 1, 1, 4, 12, 12 and 35 words, each ending mid-word (3^d is odd)
        cells = [(1, 1), (1, 2), (2, 5), (3, 6), (6, 6), (4, 7)]
        # sets of part of one word, one word, two words and 64 words, from
        # one vector and from a random set, grown past saturation
        rng = random.Random(21)
        hoods = [
            (s, radius, d)
            for d in (3, 6, 7, 12)
            for s in (1 << rng.randrange(1 << d), rng.getrandbits(1 << d) & rng.getrandbits(1 << d))
            for radius in (0, 1, 2, d)
        ]
        solved = [search_roots(_kernel_py, *args) for args in solves]
        expected = (
            solved,
            [_kernel_py.first_bad_pair(*args) for args in pairs],
            [_kernel_py.cover_map(*args) for args in covers],
            [_kernel_py.adjacency(*cell) for cell in cells],
            solved[0],  # searched again on the compiled rows of (2,5)
            [_kernel_py.neighbourhood(*args) for args in hoods],
        )
        assert expected[1].count(None) == 3 and expected[2][0][2] is not None

        # PYTHONMALLOC=malloc gives every buffer, small ones too, the
        # sanitizer's guard zones, so a write past the last row stops the child
        child = (
            "import os, pickle, sys\n"
            "del os.environ['LD_PRELOAD']  # the compiler runs without the runtimes\n"
            "from neighborly.search import _kernel\n"
            "from neighborly.search.solver import search_roots\n"
            "kernel, reason = _kernel.load_compiled(sys.argv[1], sys.argv[2:])\n"
            "assert reason is None, reason\n"
            "solves, pairs, covers, cells, hoods = pickle.load(sys.stdin.buffer)\n"
            "pickle.dump(([search_roots(kernel, *args) for args in solves],\n"
            "             [kernel.first_bad_pair(*args) for args in pairs],\n"
            "             [kernel.cover_map(*args) for args in covers],\n"
            "             [list(kernel.adjacency(*cell)) for cell in cells],\n"
            "             search_roots(kernel, kernel.adjacency(2, 5), *solves[0][1:]),\n"
            "             [kernel.neighbourhood(*args) for args in hoods]),\n"
            "            sys.stdout.buffer)\n"
        )
        sanitize = ["-fsanitize=address,undefined", "-fno-sanitize-recover=all",
                    "-fno-omit-frame-pointer"]
        blocker = tmp_path / "not-a-directory"  # the import builds no library
        blocker.write_text("")
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(
            os.environ, PYTHONPATH=str(src), XDG_CACHE_HOME=str(blocker),
            LD_PRELOAD=" ".join(runtimes), PYTHONMALLOC="malloc",
            ASAN_OPTIONS="detect_leaks=0",  # the interpreter itself leaks at exit
        )
        proc = subprocess.run(
            [sys.executable, "-c", child, str(tmp_path / "sanitized"), *cc, *sanitize],
            input=pickle.dumps((solves, pairs, covers, cells, hoods)), capture_output=True,
            env=env, timeout=_kernel.BUILD_TIMEOUT_S,
        )
        assert proc.returncode == 0, proc.stderr.decode(errors="replace")[-3000:]
        assert pickle.loads(proc.stdout) == expected

    def test_missing_compiler_falls_back(self, tmp_path):
        kernel, reason = _kernel.load_compiled(tmp_path, ["/nonexistent/cc"])
        assert kernel is None
        assert reason == "no C compiler '/nonexistent/cc'"

    def test_compile_error_falls_back(self, tmp_path):
        failing = [sys.executable, "-c", "import sys; sys.exit('bad source')"]
        kernel, reason = _kernel.load_compiled(tmp_path, failing)
        assert kernel is None
        assert reason.endswith("exited 1: bad source")
        assert list(tmp_path.iterdir()) == []  # the temporary output is removed

    @requires_cc
    def test_unloadable_library_falls_back(self, tmp_path):
        # a library that is loaded must never be rewritten in place, so the
        # broken one goes into a second cache under the name a build would use
        _kernel.load_compiled(tmp_path / "good")
        (library,) = (tmp_path / "good").iterdir()
        (tmp_path / "bad").mkdir()
        (tmp_path / "bad" / library.name).write_bytes(b"not a shared library")
        kernel, reason = _kernel.load_compiled(tmp_path / "bad")
        assert kernel is None and library.name in reason

    def test_unwritable_cache_gives_python_kernel(self, tmp_path):
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("")
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src), XDG_CACHE_HOME=str(blocker))
        probe = (
            "from neighborly.search import _kernel as k; "
            "print(k.HAVE_COMPILED, k.KERNEL_NAME, bool(k.COMPILED_ERROR))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "python", "True"]


class TestKernelLayer:
    @pytest.mark.parametrize("module", ["_kernel", "_kernel_py"])
    def test_kernel_modules_import_no_callers(self, module):
        # core and analysis call the kernels; a kernel module that imported
        # them back would close an import cycle.  _kernel may import _kernel_py.
        path = Path(_kernel.__file__).with_name(f"{module}.py")
        imported = []
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported += [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                # a relative import starts from neighborly.search
                package = ["neighborly", "search"][: 3 - node.level] if node.level else []
                if node.module:
                    imported.append(".".join(package + node.module.split(".")))
                else:
                    imported += [".".join(package + [alias.name]) for alias in node.names]
        allowed = set()
        if module == "_kernel":
            allowed = {"neighborly.search._kernel_py"}
        ours = {name for name in imported if name.split(".")[0] == "neighborly"}
        assert ours <= allowed, ours


class TestCompiledPairCheck:
    """``is_k_neighborly`` on the kernel library's ``neighborly_first_bad_pair``."""

    @staticmethod
    def _no_twin(*args):
        raise AssertionError("the Python twin ran")

    @requires_cc
    def test_validate_takes_the_compiled_path(self, monkeypatch):
        assert get_kernel().KERNEL_NAME == "compiled", _kernel.COMPILED_ERROR
        monkeypatch.setattr(_kernel_py, "first_bad_pair", self._no_twin)
        family = alon_product(3, 8)
        assert Family.of(family.d, family.k, family).validate().validated
        strict = Family.of(family.d, family.k - 1, family)
        with pytest.raises(ValidationError, match="has distance 3, outside 1..2"):
            strict.validate()

    @requires_cc
    def test_no_memory_raises_memory_error(self, monkeypatch):
        monkeypatch.setattr(_kernel_py, "first_bad_pair", self._no_twin)
        compiled = get_kernel("compiled")
        monkeypatch.setattr(_kernel, "_default", compiled)
        monkeypatch.setattr(compiled, "_first_bad_pair", lambda *args: _kernel._NO_MEMORY)
        with pytest.raises(MemoryError, match="^the compiled pair check could not allocate"):
            is_k_neighborly(alon_product(3, 8))

    def test_ranks_must_spell_n_members(self):
        for kernel in KERNELS:
            check = get_kernel(kernel).first_bad_pair
            with pytest.raises(ValueError, match="^ranks must be 2\\*3 symbols 0, 1 or 2$"):
                check("0120", 2, 3, 1)
            with pytest.raises(ValueError, match="^ranks must be 2\\*2 symbols 0, 1 or 2$"):
                check("01*0", 2, 2, 1)
            with pytest.raises(ValueError, match="^ranks must be 1\\*2 symbols 0, 1 or 2$"):
                check("0\u00e9", 1, 2, 1)
            assert check("0110", 2, 2, 1) == (0, 1), kernel  # 01 and 10 at distance 2


def _cover(family: Family, compiled: bool):
    """The cover map of ``family`` on one path, every field in its key order."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(_kernel, "_default", get_kernel("compiled" if compiled else "python"))
        profile = analysis._cover_map(family)
    return (
        list(profile.classes.items()),
        list(profile.mirrored.items()),
        profile.covered,
        profile.collision,
    )


class TestCompiledCoverMap:
    """``analysis._cover_map`` on the kernel library's ``neighborly_cover_map``."""

    @staticmethod
    def _no_twin(*args):
        raise AssertionError("the Python twin ran")

    @requires_cc
    def test_twins_agree_on_the_constructions(self):
        families = [extremal_dminus1_family(d) for d in range(2, 13)]
        for d in range(1, 13):
            for k in range(1, d + 1):
                families += [alon_product(k, d), b_config_family(k, d)]
        for family in families:
            assert _cover(family, True) == _cover(family, False), (family.k, family.d)

    @requires_cc
    def test_twins_agree_on_random_overlapping_families(self):
        rng = random.Random(17)
        collisions = 0
        for _ in range(1000):
            d = rng.randint(1, 8)
            words = ["".join(rng.choice("01*") for _ in range(d)) for _ in range(rng.randint(0, 24))]
            family = Family.from_strings(d, rng.randint(1, d), words, validated=True)
            compiled = _cover(family, True)
            assert compiled == _cover(family, False), (d, words)
            collisions += compiled[3] is not None
        assert collisions > 300  # overlapping members are well represented

    @requires_cc
    def test_audit_takes_the_compiled_path(self, monkeypatch):
        assert get_kernel().KERNEL_NAME == "compiled", _kernel.COMPILED_ERROR
        monkeypatch.setattr(_kernel_py, "cover_map", self._no_twin)
        assert audit(alon_product(3, 8)).passed
        forged = Family.from_strings(3, 2, ["00*", "0**", "111"], validated=True)
        report = audit(forged)
        assert report.checks["unique_cover"].counterexample == "000 covered by 00* and 0**"

    def test_without_the_library_the_twin_runs(self, monkeypatch):
        monkeypatch.setattr(_kernel, "_default", get_kernel("python"))
        calls = []
        twin = _kernel_py.cover_map

        def counted_twin(*args):
            calls.append(args)
            return twin(*args)

        monkeypatch.setattr(_kernel_py, "cover_map", counted_twin)
        assert audit(alon_product(3, 8)).passed
        assert len(calls) == 1

    @requires_cc
    def test_no_memory_raises_memory_error(self, monkeypatch):
        monkeypatch.setattr(_kernel_py, "cover_map", self._no_twin)
        compiled = get_kernel("compiled")
        monkeypatch.setattr(compiled, "_cover_map", lambda *args: _kernel._NO_MEMORY)
        family = Family.from_strings(4, 3, ["00**", "0*0*", "1111"], validated=True)
        with pytest.raises(MemoryError, match="^the compiled cover map could not allocate"):
            _cover(family, True)

    def test_ranks_must_spell_n_members(self):
        for kernel in KERNELS:
            cover_map = get_kernel(kernel).cover_map
            with pytest.raises(ValueError, match="^ranks must be 2\\*3 symbols 0, 1 or 2$"):
                cover_map("0120", 2, 3)
            with pytest.raises(ValueError, match="^ranks must be 2\\*2 symbols 0, 1 or 2$"):
                cover_map("01*0", 2, 2)
            with pytest.raises(ValueError, match="^ranks must be 1\\*2 symbols 0, 1 or 2$"):
                cover_map("0\u00e9", 1, 2)
            with pytest.raises(ValueError, match="^the cover map needs 1 <= d <= 63, got d=64$"):
                cover_map("0" * 64, 1, 64)
            with pytest.raises(ValueError, match="^the cover map needs 1 <= d <= 63, got d=0$"):
                cover_map("", 0, 0)
            # 0* covers 00 and 01, 11 covers 11: vectors 0b00, 0b10 and 0b11
            assert cover_map("0211", 2, 2) == ({1: 0b0101, 0: 0b1000}, 0b1101, None)
            assert cover_map("0200", 2, 2) == ({1: 0b0101, 0: 0}, 0b0101, (1, 0))


class TestNeighbourhoodTwins:
    """The kernel library's ``neighborly_neighbourhood`` against ``_kernel_py.neighbourhood``."""

    @requires_cc
    def test_twins_agree_on_random_sets(self):
        # d <= 5 fills part of one word, d = 6 one word, d >= 7 whole words;
        # sparse sets keep the larger radii from filling the cube at once
        compiled = get_kernel("compiled")
        rng = random.Random(25)
        for d in range(1, 17):
            size = 1 << d
            sets = [
                rng.getrandbits(size),
                sum(1 << v for v in rng.sample(range(size), min(size, 3))),
                1 << (size - 1),  # the all-ones vector
            ]
            for s in sets:
                for radius in range(d + 1):
                    expected = _kernel_py.neighbourhood(s, radius, d)
                    assert compiled.neighbourhood(s, radius, d) == expected, (d, radius, s)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_empty_and_full_sets(self, kernel):
        neighbourhood = get_kernel(kernel).neighbourhood
        for d in (1, 5, 6, 7, 12):
            full = (1 << (1 << d)) - 1
            for radius in (0, 1, d, d + 5):
                assert neighbourhood(0, radius, d) == 0
                assert neighbourhood(full, radius, d) == full

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_radius_grows_a_ball(self, kernel):
        # the neighbourhood of one vector is the Hamming ball around it
        neighbourhood = get_kernel(kernel).neighbourhood
        for d in (4, 6, 9):
            for centre in (0, (1 << d) - 1, 0b1010 % (1 << d)):
                for radius in range(d + 2):
                    ball = sum(1 << v for v in range(1 << d) if (v ^ centre).bit_count() <= radius)
                    assert neighbourhood(1 << centre, radius, d) == ball, (d, centre, radius)

    def test_both_kernels_refuse_the_same_inputs(self):
        cases = [
            ((1, -1, 3), "^the radius must be >= 0, got -1$"),
            ((1, 1, 0), "^the neighbourhood needs 1 <= d <= 32, got d=0$"),
            ((1, 1, 33), "^the neighbourhood needs 1 <= d <= 32, got d=33$"),
            ((1 << 8, 1, 3), "^the set must lie within the 2\\^3 binary vectors of length 3$"),
            ((1 << 64, 0, 6), "^the set must lie within the 2\\^6 binary vectors of length 6$"),
            ((-1, 1, 3), "^the set must lie within the 2\\^3 binary vectors of length 3$"),
        ]
        for kernel in KERNELS:
            neighbourhood = get_kernel(kernel).neighbourhood
            for args, message in cases:
                with pytest.raises(ValueError, match=message):
                    neighbourhood(*args)

    @requires_cc
    def test_no_memory_raises_memory_error(self, monkeypatch):
        compiled = get_kernel("compiled")
        monkeypatch.setattr(compiled, "_neighbourhood", lambda *args: _kernel._NO_MEMORY)
        with pytest.raises(MemoryError, match="^the compiled neighbourhood could not allocate"):
            compiled.neighbourhood(1, 1, 8)

    @requires_cc
    def test_audit_takes_the_compiled_path(self, monkeypatch):
        def no_twin(*args):
            raise AssertionError("the Python twin ran")

        assert get_kernel().KERNEL_NAME == "compiled", _kernel.COMPILED_ERROR
        monkeypatch.setattr(_kernel_py, "neighbourhood", no_twin)
        monkeypatch.setattr(_kernel_py, "_flip_masks", no_twin)
        assert audit(alon_product(3, 8)).passed
        forged = Family.of(3, 1, [jv("011"), jv("110")], validated=True)
        assert audit(forged).checks["prefix_diameter_bound"].counterexample == (
            "110 and 011 are 2 > 1 apart at depth 0"
        )


def apply_symmetry(vec: JokerVector, perm: list[int], flips: int) -> JokerVector:
    """Coordinate permutation then per-coordinate bit swap; jokers stay jokers."""
    old = str(vec)
    out = []
    for i in range(vec.d):
        ch = old[perm[i]]
        if ch != "*" and flips >> i & 1:
            ch = "1" if ch == "0" else "0"
        out.append(ch)
    return JokerVector.from_string("".join(out))


def _relabeled(adjacency: list[int], mapping: list[int]) -> list[int]:
    """Adjacency after sending vertex i to mapping[i]."""
    n = len(adjacency)
    out = [0] * n
    for i in range(n):
        row = adjacency[i]
        new_row = 0
        while row:
            low = row & -row
            new_row |= 1 << mapping[low.bit_length() - 1]
            row ^= low
        out[mapping[i]] = new_row
    return out


class TestSymmetryInvariance:
    def test_coordinate_symmetries_are_automorphisms(self):
        # foundation of the orbit-representative root branching
        rng = random.Random(5)
        for (k, d) in [(1, 3), (2, 3), (2, 4), (3, 4)]:
            g = build_graph(k, d)
            words = all_joker_vectors(d)
            index = {v: i for i, v in enumerate(words)}
            for _ in range(4):
                perm = list(range(d))
                rng.shuffle(perm)
                flips = rng.randrange(1 << d)
                mapping = [index[apply_symmetry(v, perm, flips)] for v in words]
                assert sorted(mapping) == list(range(g.n))
                assert _relabeled(g.adjacency, mapping) == list(g.adjacency), (k, d, perm, flips)

    def test_best_size_invariant_under_relabeling(self):
        rng = random.Random(11)
        for (k, d) in [(2, 3), (2, 4)]:
            g = build_graph(k, d)
            n = g.n
            base = max_family(k, d).best_size
            for _ in range(3):
                mapping = list(range(n))
                rng.shuffle(mapping)
                shuffled = _relabeled(g.adjacency, mapping)
                roots = [
                    (i, shuffled[i] & (((1 << n) - 1) << (i + 1))) for i in range(n)
                ]
                mask, _, done = search_roots(
                    get_kernel("auto"), shuffled, roots, 0, n + 1, None, None, None, 0
                )
                assert done and mask.bit_count() == base, (k, d)


@st.composite
def small_random_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs), max_size=len(pairs)) if pairs else st.just(set()))
    adj = [0] * n
    for a, b in edges:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    return n, adj


def brute_max_clique(n: int, adj: list[int]) -> int:
    best = 0
    for subset in range(1, 1 << n):
        size = subset.bit_count()
        if size <= best:
            continue
        members = [i for i in range(n) if subset >> i & 1]
        if all(adj[a] >> b & 1 for x, a in enumerate(members) for b in members[x + 1 :]):
            best = size
    return best


class TestKernelsOnRandomGraphs:
    @given(small_random_graphs())
    @example((3, [0, 0, 0]))  # edgeless: search_roots's lone-vertex clique
    @settings(max_examples=60, deadline=None)
    def test_kernels_match_each_other_and_bruteforce(self, graph):
        n, adj = graph
        expected = brute_max_clique(n, adj)
        roots = [(i, adj[i] & (((1 << n) - 1) << (i + 1))) for i in range(n)]
        results = [
            search_roots(get_kernel(name), adj, roots, 0, n + 1, None, None, None, 0)
            for name in KERNELS
        ]
        for mask, nodes, completed in results:
            assert completed
            assert mask.bit_count() == expected
        assert all(res == results[0] for res in results)


class TestIndependentCliqueOracle:
    def test_matches_exact_clique_solver(self):
        # the graph comes from the definition, not from build_graph, so a
        # fault in the graph builder shows here too; networkx takes seconds
        # on (2,5), so all ten cells with d <= 4
        nx = pytest.importorskip("networkx")
        for d in range(1, 5):
            words = ["".join(w) for w in itertools.product("01*", repeat=d)]
            for k in range(1, d + 1):
                G = nx.Graph()
                G.add_nodes_from(words)
                G.add_edges_from(
                    (u, v) for u, v in itertools.combinations(words, 2)
                    if 1 <= naive_distance(u, v) <= k
                )
                _, omega = nx.algorithms.clique.max_weight_clique(G, weight=None)
                res = max_family(k, d)
                assert res.best_size == omega and res.status == STATUS_OPTIMAL, (k, d)
                # max_family closes these cells before the kernel searches, so
                # the built graph is searched here, every vertex a root
                adj = build_graph(k, d).adjacency
                roots = [(v, row >> (v + 1) << (v + 1)) for v, row in enumerate(adj)]
                args = (adj, roots, 0, len(adj), None, None, None, 0)
                assert search_roots(get_kernel(), *args)[0].bit_count() == omega


class TestCertify:
    def test_formula_certifications(self):
        cert = certify(3, 5)
        assert cert.status == "certified"
        assert cert.value == 18
        assert cert.evidence == "formulas"
        cert = certify(2, 4)
        assert (cert.value, cert.evidence) == (9, "formulas")

    def test_gap_under_tiny_budget(self):
        cert = certify(3, 6, budget=Budget(node_limit=1_000, max_seconds=10))
        assert cert.status == "gap"
        assert (cert.lower, cert.upper) == (27, 28)
        assert cert.search is not None
        assert cert.search.status == STATUS_TIMEOUT

    def test_search_certification_closes_2_5(self):
        cert = certify(2, 5)
        assert cert.status == "certified"
        assert cert.value == 12
        assert cert.evidence == "search"

    def test_gap_starts_at_published_lower_bound(self):
        # the formulas give 20 <= n(2,7); the published record has 21
        cert = certify(2, 7, budget=Budget(node_limit=10, max_seconds=30))
        assert cert.status == "gap"
        assert (cert.lower, cert.upper) == (21, 29)
        assert str(cert) == "GAP 21 <= n(2,7) <= 29"

    def test_str_forms(self):
        assert "CERTIFIED" in str(certify(2, 4))
        assert "GAP" in str(certify(3, 6, budget=Budget(node_limit=10, max_seconds=5)))
