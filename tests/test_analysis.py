"""Cover profiles, weights, and the exhaustive audit."""

import random
import re
from fractions import Fraction

import pytest

from neighborly import analysis
from neighborly.analysis import AUDIT_CHECKS, AUDIT_DIMENSION_CAP, audit, cover_profile
from neighborly.bounds import b_config_size, shell_depths
from neighborly.constructions import (
    alon_product,
    b_config_family,
    extremal_dminus1_family,
    staircase_code,
)
from neighborly.core import Family, JokerVector
from neighborly.errors import DomainError, ResourceError, ValidationError
from neighborly.search import _kernel

from conftest import fam, jv, random_family, requires_cc
from oracles import (
    covered_vectors,
    enumerated_audit,
    pairwise_pair_weight_failure,
    union_mirror_weight_failure,
)


def brute_force_classes(family):
    """Independent cover classes, vector by vector, as 2^d-bit sets.

    Returns (classes, mirrored, covered): V(t), {~v : v in V(t)} and the
    union of the classes, each binary vector v being bit v.
    """
    full = (1 << family.d) - 1
    classes, mirrored, covered = {}, {}, 0
    for u in family:
        t = u.jokers.bit_count()
        for v in covered_vectors(u):
            assert not covered >> v.bits & 1, f"{v} covered twice"
            covered |= 1 << v.bits
            classes[t] = classes.get(t, 0) | 1 << v.bits
            mirrored[t] = mirrored.get(t, 0) | 1 << (v.bits ^ full)
    return classes, mirrored, covered


def assert_matches_enumeration(family):
    profile = cover_profile(family)
    classes, mirrored, covered = brute_force_classes(family)
    assert profile.family is family
    assert profile.classes == classes
    assert profile.mirrored == mirrored
    assert profile.covered == covered
    assert profile.collision is None
    assert profile.total_weight() == len(family)
    return profile


def refuse_vectors(monkeypatch):
    """Make building any ``JokerVector`` an error."""
    def refuse(v):
        raise AssertionError("a JokerVector was built")

    monkeypatch.setattr(JokerVector, "__post_init__", refuse)


def random_validated_families(rng, count):
    """``count`` random validated families with d <= 10."""
    families = []
    while len(families) < count:
        d = rng.randint(2, 10)
        k = rng.randint(max(1, d - 4), d - 1)
        family = random_family(rng, d, k, rng.randint(1, 12), rng.uniform(0.0, 0.6))
        if family.check().ok:
            families.append(family.validate())
    return families


class TestCoverProfile:
    def test_published_family_profile(self):
        family = extremal_dminus1_family(4)
        profile = assert_matches_enumeration(family)
        assert profile.classes[0].bit_count() == 8
        assert profile.classes[1].bit_count() == 8
        assert profile.covered == (1 << 2**4) - 1  # nothing is uncovered

    def test_all_binary_family(self):
        family = b_config_family(2, 4)
        profile = assert_matches_enumeration(family)
        assert profile.classes == {0: sum(1 << u.bits for u in family)}

    def test_weight_sum_equals_size(self):
        family = alon_product(1, 3)
        profile = cover_profile(family)
        assert profile.total_weight() == 4

    def test_mirror_classes_same_size(self):
        for family in (alon_product(2, 5), extremal_dminus1_family(5)):
            profile = assert_matches_enumeration(family)
            assert profile.mirrored.keys() == profile.classes.keys()
            for t, cls in profile.classes.items():
                assert profile.mirrored[t].bit_count() == cls.bit_count()

    @pytest.mark.parametrize("d", range(1, 11))
    def test_mirror_complements_every_vector(self, d):
        rng, full = random.Random(d), (1 << d) - 1
        for s in [0, (1 << (1 << d)) - 1, 1, 1 << full] + [rng.getrandbits(1 << d) for _ in range(20)]:
            expected = sum(1 << (v ^ full) for v in range(1 << d) if s >> v & 1)
            assert analysis._mirror(s, d) == expected

    def test_kleitman_tightness_of_zero_class(self):
        # an all-binary b_config family puts exactly the isodiametric count in V(0)
        for (k, d) in [(2, 4), (3, 5), (5, 7)]:
            profile = assert_matches_enumeration(b_config_family(k, d))
            assert profile.classes[0].bit_count() == b_config_size(k, d)

    def test_weight_identity_up_to_d_twelve(self):
        for d in (11, 12):
            family = extremal_dminus1_family(d)
            profile = cover_profile(family)
            assert profile.total_weight() == len(family)
        family = alon_product(4, 12)
        profile = cover_profile(family)
        assert profile.total_weight() == len(family)

    def test_requires_validated(self):
        family = fam(2, 1, "00", "01")
        with pytest.raises(ValidationError):
            cover_profile(family)

    def test_random_validated_families_match_enumeration(self):
        families = random_validated_families(random.Random(20261019), 300)
        assert any(any(u.jokers for u in family) for family in families)
        for family in families:
            assert_matches_enumeration(family)

    @pytest.mark.parametrize("d", range(2, 13))
    def test_constructions_match_enumeration(self, d):
        families = [extremal_dminus1_family(d), staircase_code(d)]
        for k in range(1, d):
            families += [alon_product(k, d), b_config_family(k, d)]
        for family in families:
            assert_matches_enumeration(family)

    def test_weight_identity_at_d_eighteen(self):
        assert cover_profile(alon_product(6, 18)).total_weight() == 4096

    def test_collision_is_validation_error(self, monkeypatch):
        # 00* covers 000, which is also a member; the words name them
        family = Family.of(3, 2, [jv("000"), jv("00*")], validated=True)
        refuse_vectors(monkeypatch)
        with pytest.raises(ValidationError) as info:
            cover_profile(family)
        assert str(info.value) == "000 covered by both 000 and 00*"
        assert analysis._cover_map(family).collision == ("000", "000", "00*")

    def test_dimension_limit(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("cover_profile built a 2^d-bit set")

        monkeypatch.setattr(analysis, "_prefix_diameter_failure", refuse)
        monkeypatch.setattr(analysis, "_cover_map", refuse)
        for d in (25, 30, 64):
            family = Family.from_strings(d, d - 1, ["0" * d]).validate()
            with pytest.raises(ResourceError, match=f"d={d} exceeds the limit 24"):
                cover_profile(family)


class TestWeight:
    """f(v) read off the cover classes: 1/2^t for v in V(t), 0 when uncovered."""

    @staticmethod
    def weight(word, family):
        v = int(word[::-1], 2)  # character i is bit i
        classes = cover_profile(family).classes
        return next((Fraction(1, 1 << t) for t, cls in classes.items() if cls >> v & 1), 0)

    def test_binary_member(self):
        family = fam(2, 1, "00", "01").validate()
        assert self.weight("00", family) == 1

    def test_one_joker_member(self):
        family = fam(2, 1, "0*", "10").validate()
        assert self.weight("01", family) == Fraction(1, 2)

    def test_uncovered(self):
        family = fam(2, 1, "00", "01").validate()
        assert self.weight("11", family) == 0


class TestAudit:
    def test_published_families_pass(self):
        report = audit(extremal_dminus1_family(4))
        assert report.passed
        assert report.total_weight == 12
        assert list(report.checks) == list(AUDIT_CHECKS)

        report = audit(alon_product(3, 6))
        assert report.passed
        assert report.total_weight == 27

    def test_constructions_always_pass(self):
        for d in range(2, 7):
            for k in range(1, d):
                assert audit(alon_product(k, d)).passed, (k, d)
                assert audit(b_config_family(k, d)).passed, (k, d)
            assert audit(extremal_dminus1_family(d)).passed, d

    def test_zero_distance_family_rejected_before_audit(self):
        family = fam(2, 1, "00", "0*")
        with pytest.raises(ValidationError):
            family.validate()
        with pytest.raises(ValidationError):
            audit(family)  # unvalidated families are refused outright

    def test_requires_gap(self):
        family = b_config_family(2, 2)
        with pytest.raises(DomainError):
            audit(family)

    def test_dimension_cap(self):
        family = alon_product(2, 5)
        with pytest.raises(DomainError):
            audit(family, dimension_cap=4)

    def test_default_dimension_cap(self):
        assert AUDIT_DIMENSION_CAP == 20
        family = Family.from_strings(21, 20, ["0" * 21]).validate()
        with pytest.raises(DomainError):
            audit(family)

    def test_dimension_limit_whatever_the_cap(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the audit built a 2^d-bit set")

        monkeypatch.setattr(analysis, "_prefix_diameter_failure", refuse)
        monkeypatch.setattr(analysis, "_cover_map", refuse)
        for d in (25, 30, 64):
            family = Family.from_strings(d, d - 1, ["0" * d]).validate()
            for cap in (d, 64, 10**6):
                with pytest.raises(ResourceError, match=f"d={d} exceeds the limit 24"):
                    audit(family, dimension_cap=cap)
        assert analysis.AUDIT_DIMENSION_LIMIT == 24

    def test_b_config_at_d_eighteen(self):
        family = b_config_family(8, 18)
        report = audit(family)
        assert report.passed, report.failures()
        assert report.total_weight == len(family) == 4048

    def test_detects_forged_distance_violation(self):
        # 000 and 111 are 3 > k=1 apart; a forged validated flag must not
        # survive the class checks (their mirror classes coincide).
        family = Family.of(3, 1, [jv("000"), jv("111")], validated=True)
        report = audit(family)
        assert not report.passed
        assert not report.checks["disjoint_mirror_classes"].passed
        assert not report.checks["prefix_diameter_bound"].passed

    def test_detects_forged_cover_collision(self, monkeypatch):
        # 00* covers 000, which is also a member: unique cover must fail
        family = Family.of(3, 2, [jv("000"), jv("00*")], validated=True)
        refuse_vectors(monkeypatch)
        report = audit(family)
        assert report.checks["unique_cover"].counterexample == "000 covered by 000 and 00*"
        assert not report.checks["unique_cover"].passed
        assert "000" in report.checks["unique_cover"].counterexample
        assert_names_vector(report, "unique_cover", 3)

    def test_detects_forged_weight_deficit(self):
        # 00* loses 000 to the earlier member 000, so the weights sum to 3/2
        family = Family.of(3, 2, [jv("000"), jv("00*")], validated=True)
        report = audit(family)
        assert not report.checks["weight_identity"].passed
        assert report.total_weight == Fraction(3, 2)
        assert "000" in assert_names_vector(report, "weight_identity", 3)

    @pytest.mark.parametrize(
        "d, k, words, check, text, enumerated_text",
        [
            (3, 1, ["000", "111"], "mirror_weight_cap",
             "mirror of 111 has weight 1 > 1/2^2",
             "mirror of 000 has weight 1 > 1/2^2"),
            (3, 1, ["0*1", "110"], "mirror_weight_cap",
             "mirror of 110 has weight 1/2^1 > 1/2^2",
             "mirror of 110 has weight 1/2^1 > 1/2^2"),
            (5, 1, ["0*1*1", "100*0"], "pair_weight_cap",
             "f(v)+f(~v) = 3/2^2 exceeds the depth-0 cap for v=10000",
             "f(v)+f(~v) = 3/2^2 exceeds the depth-0 cap for v=10000"),
            (3, 2, ["000", "00*"], "weight_identity",
             "sum of weights is 3/2^1, family size is 2; 000 is covered more than once",
             "sum of weights is 3/2^1, family size is 2"),
        ],
        ids=["weight-one", "weight-half", "pair-sum", "total"],
    )
    def test_forged_weight_failure_text(self, d, k, words, check, text, enumerated_text):
        # a weight prints as num/2^e in lowest terms, or as num when it is an integer
        family = Family.of(d, k, map(jv, words), validated=True)
        assert audit(family).checks[check].counterexample == text
        assert enumerated_audit(family).checks[check].counterexample == enumerated_text

    def test_forged_failures_name_vectors(self):
        # one forged family per check, failing at least that check
        cases = {
            "disjoint_mirror_classes": (3, 1, ["000", "111"]),
            "prefix_diameter_bound": (3, 1, ["011", "110"]),
            "mirror_weight_cap": (3, 1, ["0*1", "110"]),
            "pair_weight_cap": (5, 1, ["0*1*1", "100*0"]),
        }
        for check, (d, k, words) in cases.items():
            family = Family.of(d, k, map(jv, words), validated=True)
            report = audit(family)
            assert not report.checks[check].passed, check
            assert_names_vector(report, check, d)
            assert verdicts(report) == verdicts(enumerated_audit(family))


def assert_names_vector(report, check, d):
    """The failed check's counterexample names a binary vector of length d."""
    text = report.checks[check].counterexample
    names = re.findall(rf"(?<![01*])[01]{{{d}}}(?![01*])", text)
    assert names, (check, text)
    return names


def verdicts(report):
    return {n: c.passed for n, c in report.checks.items()}, report.total_weight


# checks whose counterexample both audits pick the same way: the first
# coverer collision, the first far pair in sorted order, the lowest v
SAME_COUNTEREXAMPLE = ("unique_cover", "prefix_diameter_bound", "pair_weight_cap")


class TestAuditAgainstEnumeration:
    """``audit`` against the vector-by-vector audit it replaces."""

    def test_random_forged_families(self):
        rng = random.Random(20261018)
        failures = dict.fromkeys(AUDIT_CHECKS, 0)
        for _ in range(600):
            d = rng.randint(2, 10)
            family = random_family(
                rng, d, rng.randint(1, d - 1), rng.randint(1, 30), rng.uniform(0.0, 0.6),
                validated=True,
            )
            got, expected = audit(family), enumerated_audit(family)
            assert verdicts(got) == verdicts(expected), sorted(map(str, family))
            for name in SAME_COUNTEREXAMPLE:
                assert got.checks[name] == expected.checks[name], sorted(map(str, family))
            for name, result in got.checks.items():
                failures[name] += not result.passed
        assert min(failures.values()) >= 20, failures

    @pytest.mark.parametrize("d", range(2, 13))
    def test_constructions(self, d):
        families = [extremal_dminus1_family(d), staircase_code(d)]
        for k in range(1, d):
            families += [alon_product(k, d), b_config_family(k, d)]
        for family in families:
            report = audit(family)
            assert report.passed, (family.k, d, report.failures())
            assert verdicts(report) == verdicts(enumerated_audit(family)), (family.k, d)


# (d, k, words) of every forged family above that fails some check
FAILING_FIXTURES = [
    (3, 1, ["000", "111"]),
    (3, 2, ["000", "00*"]),
    (3, 1, ["0*1", "110"]),
    (5, 1, ["0*1*1", "100*0"]),
    (3, 1, ["011", "110"]),
]


def audit_on(kernel, family):
    """``audit`` with every kernel routine taken from one kernel."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(_kernel, "_default", _kernel.get_kernel(kernel))
        return audit(family)


@requires_cc
class TestAuditKernelParity:
    """Equal ``AuditReport``s whichever kernel builds the cover map and the
    neighbourhoods of the diameter check."""

    @pytest.mark.parametrize(
        "family",
        [
            extremal_dminus1_family(12),
            alon_product(5, 14),
            alon_product(6, 14),
            b_config_family(6, 14),
            alon_product(6, 20),
        ],
        ids=["corollary35-12", "alon-product-5-14", "alon-product-6-14", "b-config-6-14",
             "alon-product-6-20"],
    )
    def test_constructions(self, family):
        report = audit_on("compiled", family)
        assert report.passed, report.failures()
        assert report == audit_on("python", family)

    def test_failing_fixtures(self):
        for d, k, words in FAILING_FIXTURES:
            family = Family.from_strings(d, k, words, validated=True)
            report = audit_on("compiled", family)
            assert not report.passed and report == audit_on("python", family), words

    def test_random_forged_families(self):
        # the families of TestAuditAgainstEnumeration's random test
        rng = random.Random(20261018)
        diameter_failures = 0
        for _ in range(300):
            d = rng.randint(2, 10)
            family = random_family(
                rng, d, rng.randint(1, d - 1), rng.randint(1, 30), rng.uniform(0.0, 0.6),
                validated=True,
            )
            report = audit_on("compiled", family)
            assert report == audit_on("python", family), sorted(map(str, family))
            diameter_failures += not report.checks["prefix_diameter_bound"].passed
        assert diameter_failures >= 20


class TestPairWeightCap:
    """The pair cap's one pass over the classes per depth against the loop
    over pairs of classes it replaces, and the mirror cap on running unions
    against a fresh union of the heavy classes at each depth."""

    @staticmethod
    def assert_agrees(family):
        d, k = family.d, family.k
        cover = analysis._cover_map(family)
        classes, mirrored, depths = cover.classes, cover.mirrored, shell_depths(k, d)
        upto = analysis._running_unions(classes, d)
        mirror_upto = analysis._running_unions(mirrored, d)
        mirror_cap = analysis._mirror_weight_failure(d, k, mirrored, upto, depths)
        assert mirror_cap == union_mirror_weight_failure(d, k, classes, mirrored, depths), (
            family.sorted_words())
        got = analysis._pair_weight_failure(d, k, classes, upto, mirror_upto, depths)
        assert got == pairwise_pair_weight_failure(d, k, cover, depths), family.sorted_words()
        return got, mirror_cap

    def test_random_valid_and_corrupted_families(self):
        rng = random.Random(20261021)
        failures = mirror_failures = 0
        for _ in range(400):
            d = rng.randint(2, 10)
            k = rng.randint(1, d - 1)
            words = rng.choice((alon_product, b_config_family))(k, d).sorted_words()
            words = rng.sample(words, rng.randint(1, len(words)))  # still k-neighborly
            assert self.assert_agrees(Family.from_strings(d, k, words, validated=True)) == (
                None, None)
            for _ in range(rng.randint(1, 3)):  # a joker or a flipped bit somewhere
                i, j = rng.randrange(len(words)), rng.randrange(d)
                words[i] = words[i][:j] + rng.choice("01*") + words[i][j + 1:]
            corrupted = Family.from_strings(d, k, sorted(set(words)), validated=True)
            forged = random_family(rng, d, k, rng.randint(1, 30), rng.uniform(0.0, 0.6),
                                   validated=True)
            for family in (corrupted, forged):
                pair_cap, mirror_cap = self.assert_agrees(family)
                failures += pair_cap is not None
                mirror_failures += mirror_cap is not None
        assert failures >= 50, failures
        assert mirror_failures >= 50, mirror_failures

