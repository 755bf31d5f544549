"""Acceptance suite: one test per criterion, each printing a PASS line.

Every expected integer here is frozen from the published record (verified
against the sources before freezing); searches are checked against the
exhaustive oracle where one exists.  Run with ``pytest -s`` to see the
per-criterion lines.
"""

import time


from neighborly import bounds
from neighborly.analysis import audit
from neighborly.bounds import (
    agkp_upper,
    best_new_upper,
    g_function,
    huang_sudakov_upper,
    main2_upper,
    main_upper,
    refined_upper,
    report,
)
from neighborly.cli import table_rows
from neighborly.constructions import alon_product, b_config_family, extremal_dminus1_family

from neighborly.search import Budget, max_family
from neighborly.search.solver import STATUS_OPTIMAL

from oracles import max_family_bruteforce, pairwise_adjacency
from published_table import EXPECTED_ROWS


class Stopwatch:
    def __init__(self, limit: float):
        self.limit = limit

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        return False

    def check(self):
        assert self.elapsed < self.limit, f"ran {self.elapsed:.2f}s, limit {self.limit}s"


def announce(criterion: int, watch: Stopwatch, detail: str):
    print(f"ACCEPTANCE {criterion} PASS ({watch.elapsed:.2f}s < {watch.limit:.0f}s): {detail}")


def test_criterion_1_new_bound_formulas_exact():
    """New weighted-cover bounds reproduce the published integers exactly."""
    with Stopwatch(1.0) as watch:
        main_expected = {
            (2, 4): 9, (3, 5): 18, (3, 6): 28, (4, 6): 37,
            (5, 7): 75, (6, 8): 151, (2, 7): 33,
        }
        for (k, d), value in main_expected.items():
            assert main_upper(k, d) == value, (k, d)
        for d in range(2, 17):
            assert main_upper(d - 1, d) == 3 * 2 ** (d - 2), d
        assert main2_upper(2, 7) == 29
        assert main2_upper(2, 10) == 108
        assert best_new_upper(2, 5) == 14 == main_upper(2, 5)
        best_upper_expected = {5: 14, 6: 21, 7: 29, 8: 45, 9: 70, 10: 95}
        for d, value in best_upper_expected.items():
            assert report(2, d).best_upper == value, d
    watch.check()
    announce(1, watch, "main/main2/refined and best_upper match on all cells")


def test_criterion_2_prior_bound_formulas():
    """Prior upper bounds reproduce their table columns."""
    with Stopwatch(1.0) as watch:
        assert huang_sudakov_upper(5, 7) == 806
        assert huang_sudakov_upper(6, 8) == 2641
        assert huang_sudakov_upper(2, 10) == 101
        assert agkp_upper(5, 7) == 128
        assert agkp_upper(6, 8) == 221
        assert agkp_upper(2, 8) == 101
        assert agkp_upper(2, 4) == 13
    watch.check()
    announce(2, watch, "Huang-Sudakov and AGKP columns match")


def test_criterion_3_table_regeneration():
    """Full 20x20 table regenerates the published rows, stars included."""
    spot = {
        (2, 4): (9, 13, 9, False),
        (2, 10): (36, 101, 95, True),
        (3, 14): (180, 1653, 756, True),
        (4, 19): (1080, 35246, 8459, True),
        (5, 7): (74, 128, 74, False),
        (5, 20): (3125, 125996, 17690, False),
        (6, 8): (150, 221, 150, False),
        (9, 11): (1152, 2048, 1217, False),
        (12, 14): (9216, 14668, 9811, False),
        (15, 17): (73728, 131072, 78702, False),
        (18, 20): (589824, 956198, 632265, False),
    }
    with Stopwatch(10.0) as watch:
        rows = table_rows(20, 20)
        got = {(k, d): (lo, prior, new, star) for k, d, lo, prior, new, star in rows}
        for cell, expected in spot.items():
            assert got[cell] == expected, cell
        for k, d, lower, prior, new, star in rows:
            assert new <= prior, (k, d)
        assert rows == EXPECTED_ROWS
    watch.check()
    announce(3, watch, f"{len(rows)} rows, 11 spot rows and all stars exact")


def test_criterion_4_exact_search_certification():
    """Desk-scale searches certify the small exact values."""
    expected = {
        (1, 2): 3, (1, 3): 4, (1, 4): 5, (1, 5): 6,
        (2, 4): 9, (3, 5): 18, (3, 4): 12,
    }
    details = []
    for (k, d), size in expected.items():
        with Stopwatch(60.0) as watch:
            res = max_family(k, d)
            assert res.status == STATUS_OPTIMAL, (k, d, res.status)
            assert res.best_size == size, (k, d, res.best_size)
            assert res.witness.validated and len(res.witness) == size
        watch.check()
        details.append(f"n({k},{d})={size}")
    with Stopwatch(60.0) as watch:
        for d in (1, 2):
            for k in range(1, d + 1):
                oracle_size, _ = max_family_bruteforce(k, d)
                assert max_family(k, d).best_size == oracle_size, (k, d)
    watch.check()
    announce(4, watch, ", ".join(details) + "; d<=2 matches subset enumeration")


def test_criterion_5_embedded_exact_values_respected():
    """Unreachable exact values are attached as reference and never contradicted."""
    with Stopwatch(120.0) as watch:
        # (a) reports carry the exact values with the published formula gaps
        for (k, d, exact, upper) in [(5, 7, 74, 75), (3, 6, 27, 28), (6, 8, 150, 151)]:
            rep = report(k, d)
            assert rep.exact_known == exact
            assert rep.best_lower == exact
            assert rep.best_upper == upper
            assert rep.has_gap()
        rep = report(4, 6)
        assert rep.exact_known == 37 and rep.best_lower == rep.best_upper == 37

        # (b) budgeted searches never exceed an exact value, never certify below it
        budget = Budget(node_limit=30_000, max_seconds=30)
        for (k, d) in [(3, 6), (4, 6), (5, 7), (6, 8)]:
            res = max_family(k, d, budget=budget)
            exact = report(k, d).exact_known
            assert res.best_size <= exact, (k, d)
            if res.status == STATUS_OPTIMAL:
                assert res.best_size == exact, (k, d)
    watch.check()
    announce(5, watch, "exact values attached; budgeted searches consistent")


def test_criterion_6_cover_audit_suite():
    """The weighted-cover audit passes on every built-in family."""
    with Stopwatch(30.0) as watch:
        audited = 0
        for d in range(2, 13):
            for k in range(1, d):
                rep = audit(alon_product(k, d))
                assert rep.passed, (k, d, rep.failures())
                assert rep.total_weight == rep.family_size
                audited += 1
        for d in range(2, 11):
            rep = audit(extremal_dminus1_family(d))
            assert rep.passed, (d, rep.failures())
            assert rep.total_weight == rep.family_size
            audited += 1
    watch.check()
    announce(6, watch, f"{audited} families audited, exact weight identity throughout")


def test_criterion_7_structural_invariants():
    """Monotonicity, dominance, nesting, and isodiametric tightness."""
    with Stopwatch(10.0) as watch:
        for d in range(2, 21):
            for k in range(1, d):
                gap = d - k
                shells = list(range(0, (gap - 2) // 2 + 1))
                if gap % 2 == 1:
                    shells.append((gap - 1) // 2)
                values = [g_function(k, d, i) for i in shells]
                for earlier, later in zip(values, values[1:]):
                    assert later <= earlier, (k, d)
                assert main_upper(k, d) <= agkp_upper(k, d), (k, d)
                assert refined_upper(k, d) <= main2_upper(k, d), (k, d)

        for d in range(2, 13):
            for k in range(1, d):
                members = b_config_family(k, d).sorted_members()
                assert len(members) == bounds.kleitman_bound(k, d), (k, d)
                values = [v.bits for v in members]
                jokers = [0] * len(members)
                n = len(members)
                full = (1 << n) - 1
                tight = pairwise_adjacency(values, jokers, k)
                for i, row in enumerate(tight):
                    assert row == full ^ (1 << i), (k, d, i)  # diameter <= k
                slack = pairwise_adjacency(values, jokers, k - 1)
                assert any(
                    row != full ^ (1 << i) for i, row in enumerate(slack)
                ), (k, d)  # some pair at distance exactly k
    watch.check()
    announce(7, watch, "g-monotone, dominance, nesting, diameter-tight B_k (d<=12)")
