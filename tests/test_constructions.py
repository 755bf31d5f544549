"""Constructions: sizes, validity, and diameter properties."""

import pytest

from neighborly.bounds import alon_lower, b_config_size
from neighborly.constructions import (
    MEMBER_BYTES,
    SYMBOL_BYTES,
    _ball_words,
    alon_product,
    b_config_family,
    extremal_dminus1_family,
    staircase_code,
)
from neighborly.core import is_k_neighborly
from neighborly.errors import DimensionError, DomainError, ResourceError
from neighborly.search import _kernel

from conftest import jv, naive_distance
from oracles import (
    alon_product_by_sets,
    b_config_family_by_sets,
    cartesian,
    extremal_dminus1_by_sets,
)


def pairwise_distances(family):
    words = family.sorted_words()
    for i, a in enumerate(words):
        for b in words[i + 1 :]:
            yield naive_distance(a, b)


class TestHammingBall:
    def test_radius_one(self):
        ball = {"0000", "1000", "0100", "0010", "0001"}
        assert set(_ball_words(4, 1)) == ball
        # even k: B_k is the radius-k/2 ball around 0
        assert set(b_config_family(2, 4).sorted_words()) == ball


class TestBConfig:
    def test_sizes_and_diameter(self):
        cfg = b_config_family(5, 7)
        assert len(cfg) == 44
        assert max(pairwise_distances(cfg)) <= 5

    def test_small_cases(self):
        assert len(b_config_family(2, 4)) == 5
        assert max(pairwise_distances(b_config_family(2, 4))) <= 2

    def test_diameter_exactly_k(self):
        for d in range(2, 9):
            for k in range(1, d):
                cfg = b_config_family(k, d)
                assert len(cfg) == b_config_size(k, d)
                assert max(pairwise_distances(cfg)) == k, (k, d)

    def test_domain(self):
        with pytest.raises(DomainError):
            b_config_family(5, 4)


class TestCartesian:
    """The set product of vectors, kept in ``oracles`` to check the word products."""

    def test_size_product(self):
        bit = {jv("0"), jv("1")}
        ball = {jv("000"), jv("100"), jv("010"), jv("001")}
        assert len(cartesian(bit, ball)) == 2 * 4

    def test_matches_published_product(self):
        seed = {jv("11"), jv("10"), jv("0*")}
        cube = {jv("00"), jv("01"), jv("10"), jv("11")}
        prod = cartesian(seed, cube)
        assert len(prod) == 12
        assert all(v.d == 4 for v in prod)

    def test_empty_factor(self):
        assert cartesian({jv("0")}, set()) == set()

    def test_ragged_inputs_rejected(self):
        with pytest.raises(DimensionError):
            cartesian({jv("0"), jv("01")}, {jv("1")})


class TestWordProducts:
    """The constructions are products of words; the set products of vectors must agree."""

    @staticmethod
    def assert_same(family, oracle):
        assert family == oracle
        assert family.validated and (family.d, family.k) == (oracle.d, oracle.k)
        assert family.sorted_words() == oracle.sorted_words()

    @pytest.mark.parametrize("d", range(1, 11))
    def test_alon_product(self, d):
        for k in range(1, d + 1):
            self.assert_same(alon_product(k, d), alon_product_by_sets(k, d))

    def test_extremal_dminus1_family(self):
        for d in range(2, 13):
            self.assert_same(extremal_dminus1_family(d), extremal_dminus1_by_sets(d))

    @pytest.mark.parametrize("d", range(1, 10))
    def test_b_config_family(self, d):
        for k in range(1, d + 1):
            self.assert_same(b_config_family(k, d), b_config_family_by_sets(k, d))


class TestStaircase:
    def test_base_case(self):
        assert staircase_code(1).sorted_words() == ["0", "1"]

    def test_m_two(self):
        code = staircase_code(2)
        assert code.sorted_words() == ["0*", "10", "11"]
        assert all(dist == 1 for dist in pairwise_distances(code))

    def test_sizes_and_unit_distances(self):
        for m in range(1, 8):
            code = staircase_code(m)
            assert (len(code), code.d, code.k) == (m + 1, m, 1)
            assert code.validated and is_k_neighborly(code)
            assert all(dist == 1 for dist in pairwise_distances(code))

    def test_domain(self):
        with pytest.raises(DomainError):
            staircase_code(0)


class TestAlonProduct:
    def test_paper_sizes(self):
        assert len(alon_product(3, 6)) == 27
        assert len(alon_product(2, 4)) == 9

    def test_distance_one_chain(self):
        family = alon_product(1, 4)
        assert len(family) == 5
        assert all(dist == 1 for dist in pairwise_distances(family))

    def test_matches_alon_lower_and_valid(self):
        for d in range(1, 11):
            for k in range(1, d + 1):
                family = alon_product(k, d)
                assert len(family) == alon_lower(k, d), (k, d)
                assert is_k_neighborly(family), (k, d)

    def test_domain(self):
        with pytest.raises(DomainError):
            alon_product(5, 4)


class TestExtremalDMinus1:
    def test_small(self):
        family = extremal_dminus1_family(2)
        assert {str(v) for v in family} == {"11", "10", "0*"}
        assert family.k == 1

    def test_sizes_and_validity(self):
        for d in range(2, 13):
            family = extremal_dminus1_family(d)
            assert len(family) == 3 * 2 ** (d - 2)
            assert family.k == d - 1
            assert is_k_neighborly(family), d

    def test_domain(self):
        with pytest.raises(DomainError):
            extremal_dminus1_family(1)


class TestBConfigFamily:
    def test_valid_family(self):
        family = b_config_family(3, 5)
        assert family.validated
        assert is_k_neighborly(family)
        assert len(family) == b_config_size(3, 5)


class TestMemoryBudget:
    @pytest.mark.parametrize(
        "builder,args,name,size,d",
        [
            (alon_product, (3, 6), "alon_product(3, 6)", 27, 6),
            (extremal_dminus1_family, (5,), "extremal_dminus1_family(5)", 24, 5),
            (b_config_family, (5, 7), "b_config(5, 7)", 44, 7),
            (b_config_family, (4, 7), "b_config(4, 7)", 29, 7),  # even k: one ball
            (staircase_code, (3,), "a staircase block of size 3", 4, 3),
        ],
        ids=["alon_product", "extremal_dminus1_family", "b_config_family", "b_config", "staircase_code"],
    )
    def test_refused_exactly_above_the_budget(self, monkeypatch, builder, args, name, size, d):
        needed = size * (MEMBER_BYTES + SYMBOL_BYTES * d)
        monkeypatch.setattr(_kernel, "MEMORY_BUDGET", needed)
        assert len(builder(*args)) == size
        monkeypatch.setattr(_kernel, "MEMORY_BUDGET", needed - 1)
        message = f"the {size} members of {name} need ~{needed} bytes, budget is {needed - 1}"
        with pytest.raises(ResourceError) as info:
            builder(*args)
        assert str(info.value) == message
