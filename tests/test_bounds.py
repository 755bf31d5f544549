"""Bound formulas against frozen paper values and independent mini-oracles."""

import math
from fractions import Fraction

import pytest

from neighborly import bounds
from neighborly.bounds import (
    agkp_upper,
    alon_lower,
    alon_upper,
    b_config_size,
    best_new_upper,
    g_function,
    huang_sudakov_upper,
    kleitman_bound,
    main2_upper,
    main_upper,
    refined_upper,
    report,
    stability_bound,
)
from neighborly.errors import DomainError

from conftest import pascal_binomial
from oracles import g_numerator, g_shells, weighted_cover_uppers


class TestBallAndKleitman:
    def test_binomials_against_pascal(self):
        for n in range(0, 22):
            for k in range(0, n + 1):
                assert bounds.binomial(n, k) == pascal_binomial(n, k)

    def test_b_config_size_paper_values(self):
        assert b_config_size(5, 7) == 44
        assert b_config_size(6, 8) == 93
        assert b_config_size(3, 6) == 12

    def test_kleitman_named_alias(self):
        assert kleitman_bound(5, 7) == 44
        assert kleitman_bound(0, 5) == 1
        # enumerate binary vectors of length 4 with at most one 1
        vectors = [b for b in range(16) if bin(b).count("1") <= 1]
        assert kleitman_bound(2, 4) == len(vectors) == 5

    def test_kleitman_domain(self):
        with pytest.raises(DomainError):
            kleitman_bound(4, 4)

    def test_stability_paper_value(self):
        assert stability_bound(6, 8) == 90

    def test_stability_derived_values(self):
        # odd case: 2*sum_{i<=2} C(6,i) - C(3,2) + 1, via the independent binomial
        expect = 2 * sum(pascal_binomial(6, i) for i in range(3)) - pascal_binomial(3, 2) + 1
        assert stability_bound(5, 7) == expect == 42
        # even case: 5 - C(2,1) + 1
        assert stability_bound(2, 4) == 5 - pascal_binomial(2, 1) + 1 == 4

    def test_stability_domain(self):
        with pytest.raises(DomainError):
            stability_bound(3, 4)


class TestClassicBounds:
    def test_alon_lower(self):
        assert alon_lower(3, 6) == 27
        assert alon_lower(2, 4) == 9
        assert alon_lower(1, 5) == 6

    def test_alon_upper(self):
        for d in range(1, 9):
            assert alon_upper(d, d) == 3**d
        assert alon_upper(3, 5) == sum(
            2**i * pascal_binomial(5, i) for i in range(4)
        ) == 131
        assert alon_upper(1, 2) == 1 + 2 * 2 == 5

    def test_huang_sudakov(self):
        assert huang_sudakov_upper(5, 7) == 806
        assert huang_sudakov_upper(2, 10) == 101
        assert huang_sudakov_upper(4, 19) == 35246

    def test_agkp(self):
        assert agkp_upper(5, 7) == 128
        assert agkp_upper(6, 8) == 221
        assert agkp_upper(2, 4) == 13

    def test_agkp_requires_valid_shell(self):
        with pytest.raises(DomainError):
            agkp_upper(4, 4)

    def test_domain_errors(self):
        for fn in (alon_lower, alon_upper, huang_sudakov_upper):
            with pytest.raises(DomainError):
                fn(0, 5)
            with pytest.raises(DomainError):
                fn(6, 5)


class TestWeightedCoverBounds:
    def test_g_at_first_shell(self):
        g = g_function(5, 7, 0)
        assert g == 75
        assert math.floor(g) == 75

    def test_g_terminal_odd_shell(self):
        g = g_function(2, 7, 2)
        assert g == Fraction(531, 16)  # 33.1875
        assert math.floor(g) == 33

    def test_g_monotone_sample(self):
        vals = [g_function(2, 9, i) for i in range(3)]
        assert vals[1] <= vals[0]
        assert vals[2] <= vals[1]

    def test_g_shell_out_of_range(self):
        with pytest.raises(DomainError):
            g_function(5, 7, 1)
        with pytest.raises(DomainError):
            g_function(2, 7, 3)

    def test_shell_depths(self):
        # one schedule for g, refined_upper's h and the audit's depths
        for d in range(2, 60):
            for k in range(1, d):
                depths = bounds.shell_depths(k, d)
                assert list(depths) == g_shells(k, d), (k, d)
                with pytest.raises(DomainError, match=f"shell index i={len(depths)} out of range"):
                    g_function(k, d, len(depths))

    def test_g_is_exact_dyadic(self):
        for (k, d, i) in [(5, 7, 0), (2, 7, 2), (3, 10, 2), (4, 12, 1)]:
            g = g_function(k, d, i)
            assert isinstance(g, Fraction)
            den = g.denominator
            assert den & (den - 1) == 0  # a power of two
            assert den <= 1 << (d - k + 1)

    def test_main_upper_paper_values(self):
        expected = {
            (2, 4): 9, (3, 5): 18, (3, 6): 28, (4, 6): 37,
            (5, 7): 75, (6, 8): 151, (2, 7): 33,
        }
        for (k, d), value in expected.items():
            assert main_upper(k, d) == value

    def test_main_upper_near_diagonal(self):
        for d in range(2, 17):
            assert main_upper(d - 1, d) == 3 * 2 ** (d - 2)

    def test_main2_upper(self):
        assert main2_upper(2, 7) == 29
        assert main2_upper(2, 10) == 108
        assert main2_upper(2, 8) == 45

    def test_refined_upper(self):
        assert refined_upper(2, 10) == 95
        assert refined_upper(3, 14) == 756
        assert refined_upper(4, 19) == 8459

    def test_domain(self):
        for fn in (main_upper, main2_upper, refined_upper):
            with pytest.raises(DomainError):
                fn(5, 5)


class TestIntegerNumeratorOracle:
    """The weighted-cover bounds against ``oracles``, which sums integer
    numerators over 2^d and floors by a right shift."""

    def test_g_exact_at_every_shell(self):
        for d in range(2, 41):
            for k in range(1, d):
                for i in g_shells(k, d):
                    assert g_function(k, d, i) * (1 << d) == g_numerator(k, d, i), (k, d, i)

    def test_floored_bounds(self):
        for d in range(2, 41):
            for k in range(1, d):
                got = (main_upper(k, d), main2_upper(k, d), refined_upper(k, d))
                assert got == weighted_cover_uppers(k, d), (k, d)


class TestReport:
    def test_gap_with_exact(self):
        rep = report(5, 7)
        assert rep.best_lower == 74
        assert rep.best_upper == 75
        assert rep.exact_known == 74
        assert rep.entries["huang_sudakov"] == 806
        assert rep.entries["agkp"] == 128
        assert rep.entries["main"] == 75

    def test_closed_cell(self):
        rep = report(2, 4)
        assert rep.best_lower == rep.best_upper == 9
        assert not rep.has_gap()

    def test_table_one_row(self):
        rep = report(2, 10)
        assert rep.best_upper == 95
        assert rep.best_lower == 36

    def test_exact_rules(self):
        assert report(1, 9).exact_known == 10
        assert report(6, 7).exact_known == 3 * 2**5
        assert report(4, 6).exact_known == 37
        assert report(2, 9).exact_known is None

    def test_k_equals_d(self):
        rep = report(3, 3)
        assert "main" not in rep.entries
        assert rep.best_upper == min(rep.entries["alon_upper"], rep.entries["huang_sudakov"])

    def test_consistency_small_grid(self):
        for d in range(1, 13):
            for k in range(1, d + 1):
                rep = report(k, d)
                assert rep.best_lower <= rep.best_upper, (k, d)
                if rep.exact_known is not None:
                    assert rep.best_lower >= rep.exact_known

    def test_domain(self):
        with pytest.raises(DomainError):
            report(0, 4)
        with pytest.raises(DomainError):
            report(5, 4)


class TestStructuralProperties:
    def test_dominance_over_agkp(self):
        for d in range(2, 16):
            for k in range(1, d):
                assert main_upper(k, d) <= agkp_upper(k, d), (k, d)

    def test_refined_nested_in_main2(self):
        for d in range(2, 16):
            for k in range(1, d):
                assert refined_upper(k, d) <= main2_upper(k, d), (k, d)

    def test_g_monotone_through_terminal(self):
        for d in range(2, 16):
            for k in range(1, d):
                gap = d - k
                shells = list(range(0, (gap - 2) // 2 + 1))
                if gap % 2 == 1:
                    shells.append((gap - 1) // 2)
                vals = [g_function(k, d, i) for i in shells]
                for a, b in zip(vals, vals[1:]):
                    assert b <= a, (k, d)

    def test_best_new_upper_aggregate(self):
        assert best_new_upper(2, 5) == 14
        assert best_new_upper(3, 7) == 43
