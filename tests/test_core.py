"""Core data model: joker vectors, families and the k-neighborliness check.

Distances are read off the pair check, covers off the audit's cover map and
complements off its mirror: the package computes them nowhere else.
"""

import random
from collections import Counter
from itertools import product

import pytest
from hypothesis import assume, given, strategies as st

from neighborly import core
from neighborly.analysis import _mirror, cover_profile
from neighborly.core import Family, JokerVector, NeighborlyCheck, is_k_neighborly
from neighborly.constructions import alon_product, b_config_family, extremal_dminus1_family
from neighborly.errors import DimensionError, DomainError, NeighborlyError, ValidationError
from neighborly.search import _kernel, _kernel_py

from conftest import HAVE_CC, all_binaries, fam, jv, naive_distance, random_family, random_words
from oracles import all_joker_vectors, covered_vectors, pairwise_is_k_neighborly


def binary_words(d):
    return st.text(alphabet="01", min_size=d, max_size=d)


def joker_words(d):
    return st.text(alphabet="01*", min_size=d, max_size=d)


def pair_distance(u: str, v: str) -> int:
    """The distance of two distinct words as the pair check reports it: at
    k = 1 a pair passes at distance 1 and fails with its distance otherwise."""
    assert u != v
    res = is_k_neighborly(Family.from_strings(len(u), 1, [u, v]))
    return 1 if res else res.distance


def mirrored(word: str) -> str:
    """The complement of a binary word, as ``analysis._mirror`` takes it."""
    d = len(word)
    s = _mirror(1 << int(word[::-1], 2), d)
    assert s & (s - 1) == 0  # one vector
    return format(s.bit_length() - 1, f"0{d}b")[::-1]


class TestJokerVector:
    def test_string_round_trip(self):
        for word in ("0", "01*", "**1101", "1"):
            assert str(jv(word)) == word

    def test_masks(self):
        v = jv("01*1*")
        assert v.bits == 0b01010
        assert v.jokers == 0b10100

    def test_rejects_bad_symbols(self):
        with pytest.raises(DomainError):
            jv("01x")

    def test_from_string_round_trips_every_short_word(self):
        for d in range(1, 6):
            for word in map("".join, product("01*", repeat=d)):
                v = JokerVector.from_string(word)
                assert str(v) == word
                assert v.bits == sum(1 << i for i, ch in enumerate(word) if ch == "1")
                assert v.jokers == sum(1 << i for i, ch in enumerate(word) if ch == "*")

    @pytest.mark.parametrize(
        "word, error, message",
        [
            ("0x1", DomainError, "invalid symbol 'x' in '0x1'"),
            ("2", DomainError, "invalid symbol '2' in '2'"),
            ("", DimensionError, "vector length must be >= 1, got 0"),
            # int() would accept these; the first symbol outside {0, 1, *} is named
            ("0_1", DomainError, "invalid symbol '_' in '0_1'"),
            ("01 ", DomainError, "invalid symbol ' ' in '01 '"),
            ("x0y", DomainError, "invalid symbol 'x' in 'x0y'"),
            ("0\uff11", DomainError, "invalid symbol '\uff11' in '0\uff11'"),
        ],
    )
    def test_from_string_errors(self, word, error, message):
        with pytest.raises(NeighborlyError) as info:
            JokerVector.from_string(word)
        assert type(info.value) is error
        assert str(info.value) == message

    def test_rejects_zero_length(self):
        with pytest.raises(DimensionError):
            JokerVector(0, 0, 0)

    def test_rejects_overlapping_masks(self):
        with pytest.raises(DimensionError):
            JokerVector(2, 0b01, 0b01)

    def test_lengths_beyond_machine_words(self):
        a = jv("01" * 50 + "*" * 20)
        b = jv("10" * 50 + "1" * 20)
        assert a.d == b.d == 120
        assert is_k_neighborly(Family.of(120, 99, [a, b])).distance == 100
        assert str(a) == "01" * 50 + "*" * 20


class TestHammingDistance:
    """The distance that the pair check reports."""

    def test_published_example(self):
        assert pair_distance("11**00", "**10*1") == 1

    def test_identity(self):
        # a word and its copy with one more joker: distance 0
        assert pair_distance("01*0", "01**") == 0

    def test_all_differ(self):
        assert pair_distance("000", "111") == 3

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            Family.of(2, 1, [jv("01"), jv("011")])

    @given(st.integers(1, 6).flatmap(lambda d: st.tuples(joker_words(d), joker_words(d))))
    def test_symmetric_and_bounded(self, pair):
        u, v = pair
        assume(u != v)
        dist = pair_distance(u, v)
        assert dist == pair_distance(v, u)
        assert 0 <= dist <= len(u)
        assert dist == naive_distance(u, v)

    def test_triangle_inequality_exhaustive_small_d(self):
        for d in range(1, 5):
            words = ["".join(w) for w in product("01", repeat=d)]
            dist = {(a, b): 0 if a == b else pair_distance(a, b) for a in words for b in words}
            for a in words:
                for b in words:
                    for c in words:
                        assert dist[a, b] <= dist[a, c] + dist[c, b]


class TestCovers:
    def test_examples(self):
        # vector v is bit v of the covered set: 0* covers 00 (0b00) and 01
        # (0b10), not 10 or 11
        assert cover_profile(fam(2, 1, "0*").validate()).covered == 1 << 0b00 | 1 << 0b10
        assert cover_profile(fam(4, 1, "****").validate()).covered == (1 << 16) - 1

    def test_covered_vectors_enumeration(self):
        u = jv("0**1")
        got = sorted(str(v) for v in covered_vectors(u))
        assert got == ["0001", "0011", "0101", "0111"]
        for v in covered_vectors(u):
            assert v.jokers == 0 and naive_distance(str(u), str(v)) == 0

    def test_cover_distance_compatibility_exhaustive(self):
        # covered vectors stay within joker slack of their coverers
        for d in (2, 3, 4):
            vecs = all_joker_vectors(d)
            covered = [[b.bits for b in covered_vectors(u)] for u in vecs]
            for i, u in enumerate(vecs):
                for j, w in enumerate(vecs):
                    duw = naive_distance(str(u), str(w))
                    slack = duw + u.jokers.bit_count() + w.jokers.bit_count()
                    for a_bits in covered[i]:
                        for b_bits in covered[j]:
                            dab = (a_bits ^ b_bits).bit_count()
                            assert duw <= dab <= slack


class TestComplementJoin:
    """The complement of binary vectors, which the audit takes as a mirror."""

    def test_complement_examples(self):
        assert mirrored("010") == "101"
        assert mirrored("0000") == "1111"

    def test_complement_involution_and_distance(self):
        for d in range(1, 5):
            for word in map("".join, product("01", repeat=d)):
                assert mirrored(mirrored(word)) == word
                assert naive_distance(word, mirrored(word)) == d

    @given(st.integers(1, 8).flatmap(lambda d: st.tuples(binary_words(d), binary_words(d))))
    def test_complement_isometry(self, pair):
        a, b = pair
        assert naive_distance(mirrored(a), mirrored(b)) == naive_distance(a, b)


class TestFamily:
    def test_published_family_is_neighborly(self):
        words = []
        for seed in ("11", "10", "0*"):
            for bits in range(4):
                words.append(seed + format(bits, "02b"))
        family = fam(4, 3, *words)
        assert len(family) == 12
        assert is_k_neighborly(family)

    def test_violating_pair_reported(self):
        res = is_k_neighborly(fam(2, 1, "00", "11"))
        assert not res
        assert res.distance == 2
        assert {str(v) for v in res.pair} == {"00", "11"}

    def test_adjacent_pair_ok(self):
        assert is_k_neighborly(fam(2, 1, "00", "01"))

    def test_small_families_vacuous(self):
        assert is_k_neighborly(fam(3, 1))
        assert is_k_neighborly(fam(3, 1, "0*1"))

    def test_distance_zero_pair_invalid(self):
        family = fam(2, 1, "00", "0*")
        assert not family.check()
        with pytest.raises(ValidationError):
            family.validate()

    def test_validate_marks_family(self):
        family = fam(2, 1, "00", "01").validate()
        assert family.validated

    def test_member_length_mismatch(self):
        with pytest.raises(DimensionError):
            Family.of(3, 1, [jv("01")])

    def test_k_out_of_range(self):
        with pytest.raises(DomainError):
            fam(2, 3, "00")

    def test_sorted_members_rank_zero_one_joker(self):
        rank = {"0": 0, "1": 1, "*": 2}
        rng = random.Random(35)
        for _ in range(200):
            d = rng.randint(1, 9)
            family = random_family(rng, d, d, rng.randint(0, 40), rng.uniform(0.0, 0.6))
            expected = sorted(family, key=lambda v: tuple(rank[c] for c in str(v)))
            assert family.sorted_members() == expected

    def test_unique_cover_on_constructions(self):
        # at most one member of a validated family covers any binary vector
        families = [
            alon_product(2, 3),
            alon_product(2, 4),
            alon_product(3, 4),
            extremal_dminus1_family(3),
            extremal_dminus1_family(4),
            b_config_family(2, 4),
        ]
        for family in families:
            coverers = Counter(v.bits for u in family for v in covered_vectors(u))
            assert max(coverers.values()) == 1


class TestFromStrings:
    """A family read from words is sorted by them; it must equal one built from vectors."""

    def test_matches_family_of_vectors(self):
        # repeated words collapse into one member
        assert len(Family.from_strings(2, 1, ["00", "00"])) == 1
        assert Family.from_strings(2, 1, ["00", "00"]) == Family.of(2, 1, [jv("00")])
        rng = random.Random(1212)
        sizes = set()
        for _ in range(600):
            d = rng.randint(1, 8)
            k = rng.randint(1, d)
            words = random_words(rng, d, rng.choice((0, 1, 2, rng.randint(3, 40))),
                                 rng.uniform(0.0, 0.6))
            from_words = Family.from_strings(d, k, words)
            from_vectors = Family.of(d, k, map(jv, words))
            assert from_words == from_vectors
            assert from_words.ranks == from_vectors.ranks
            assert from_words.sorted_words() == [str(v) for v in from_vectors.sorted_members()]
            assert is_k_neighborly(from_words) == is_k_neighborly(from_vectors)
            sizes.add(min(len(from_words), 2))
        assert sizes == {0, 1, 2}

    @pytest.mark.parametrize(
        "d, k, words, error, message",
        [
            # k is checked before the lengths
            (3, 4, ["01", "0101"], DomainError, "need 1 <= k <= d, got k=4 d=3"),
            (3, 1, ["010", "0101", "01"], DimensionError,
             "member 0101 has length 4, family has d=3"),
        ],
    )
    def test_of_raises_as_from_strings_does(self, d, k, words, error, message):
        for build in (
            lambda: Family.from_strings(d, k, words),
            lambda: Family.of(d, k, map(jv, words)),
        ):
            with pytest.raises(error) as info:
                build()
            assert str(info.value) == message

    def test_renders_no_member(self, monkeypatch):
        def refuse(v):
            raise AssertionError("a member was rendered")

        monkeypatch.setattr(JokerVector, "__str__", refuse)
        family = Family.from_strings(3, 2, ["1*0", "000", "101", "011"])
        assert family.sorted_words() == ["000", "011", "101", "1*0"]
        assert family.validate().validated

    @pytest.mark.parametrize(
        "d, words, error, message",
        [
            (2, ["12", "1*"], DomainError, "invalid symbol '2' in '12'"),
            (2, ["1*", "12"], DomainError, "invalid symbol '2' in '12'"),
            (3, ["010", "01"], DimensionError, "member 01 has length 2, family has d=3"),
            (3, ["0101", "01x"], DomainError, "invalid symbol 'x' in '01x'"),
            (1, ["", "0"], DimensionError, "vector length must be >= 1, got 0"),
        ],
    )
    def test_bad_words_raise_as_vectors_do(self, d, words, error, message):
        # a rank collision ("12" and "1*" both rank 12) must not hide the bad symbol
        for build in (
            lambda: Family.from_strings(d, 1, words),
            lambda: Family.of(d, 1, map(jv, words)),
        ):
            with pytest.raises(error) as info:
                build()
            assert str(info.value) == message


# The pair check's two paths: the Python twin, and the kernel library's
# compiled check wherever a C compiler exists (it must have built there).
PAIR_CHECKS = ("python", "compiled") if HAVE_CC else ("python",)


def _twin_must_not_run(*args):
    raise AssertionError("the Python twin ran on the compiled path")


def check_on(path: str, family: Family) -> NeighborlyCheck:
    """``is_k_neighborly`` pinned to one path of PAIR_CHECKS."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernel, "_default", _kernel.get_kernel(path))
        if path == "compiled":
            mp.setattr(_kernel_py, "first_bad_pair", _twin_must_not_run)
        return is_k_neighborly(family)


def checked(family: Family) -> NeighborlyCheck:
    """``is_k_neighborly`` on every path of PAIR_CHECKS, which must agree."""
    first, *others = (check_on(path, family) for path in PAIR_CHECKS)
    assert all(res == first for res in others), family
    return first


def scrambled(family: Family, rng: random.Random) -> Family:
    """The family under a random coordinate permutation and random 0/1 swaps."""
    d = family.d
    perm = rng.sample(range(d), d)
    swap = [rng.random() < 0.5 for _ in range(d)]
    flip = str.maketrans("01", "10")
    words = [
        "".join(w[perm[c]].translate(flip) if swap[c] else w[perm[c]] for c in range(d))
        for w in family.sorted_words()
    ]
    return fam(d, family.k, *words)


def forged(family: Family, m: JokerVector, kind: str) -> JokerVector:
    """m with its last non-joker made a joker ("close": distance 0 to m), or
    with its last k+1 non-jokers flipped ("far": distance k+1 to m)."""
    free = [c for c in range(family.d) if not m.jokers >> c & 1]
    if kind == "close":
        return JokerVector(family.d, m.bits & ~(1 << free[-1]), m.jokers | 1 << free[-1])
    flip = sum(1 << c for c in free[-(family.k + 1):])
    return JokerVector(family.d, m.bits ^ flip, m.jokers)


class TestBitSlicedCheck:
    """``is_k_neighborly`` on both paths against the nested pair loop it replaces."""

    def test_random_families_match_pair_loop(self):
        # both regimes: with d-k < k most members have at most k+1 difference
        # masks (no count, or their intersection); with d-k >= k most have
        # more and go through the bit planes
        rng = random.Random(20261018)
        outcomes = {
            (mode, outcome): 0
            for mode in ("d-k < k", "d-k >= k")
            for outcome in ("ok", "too close", "too far")
        }
        for _ in range(2000):
            d = rng.randint(1, 9)
            k = rng.randint(1, d)
            if d - k < k:
                family = random_family(rng, d, k, rng.randint(0, 30), rng.uniform(0.0, 0.3))
            else:
                family = random_family(rng, d, k, rng.randint(0, 12), rng.uniform(0.1, 0.7))
            got = checked(family)
            assert got == pairwise_is_k_neighborly(family), family
            if got:
                outcome = "ok"
            else:
                outcome = "too close" if got.distance == 0 else "too far"
            outcomes["d-k < k" if d - k < k else "d-k >= k", outcome] += 1
        assert min(outcomes.values()) >= 100, outcomes

    @pytest.mark.parametrize(
        "family, kind",
        [
            (extremal_dminus1_family(8), "close"),
            (alon_product(8, 10), "close"),
            (b_config_family(7, 9), "close"),
            (alon_product(7, 8), "far"),  # u has k+1 difference masks: their intersection
            (alon_product(8, 10), "far"),  # u has k+2: the bit planes
            (b_config_family(7, 9), "far"),  # u has k+2: the bit planes
        ],
    )
    def test_late_failure_matches_pair_loop(self, family, kind):
        # one forged member beside member 70 of a family of more than 128:
        # the first bad pair starts past the first 64 members
        extra = forged(family, family.sorted_members()[70], kind)
        assert extra not in family.sorted_members()
        bad = Family.of(family.d, family.k, [*family, extra])
        res = checked(bad)
        assert res == pairwise_is_k_neighborly(bad)
        assert bad.sorted_members().index(res.pair[0]) >= 64
        assert res.distance == (0 if kind == "close" else family.k + 1)

    def test_members_with_at_least_d_minus_k_jokers(self):
        # 0*00 and 0*0* have d-k = 1 jokers or more: only distance 0 can fail them
        family = fam(4, 3, "0*00", "0*0*", "1111")
        res = checked(family)
        assert res == pairwise_is_k_neighborly(family)
        assert [str(v) for v in res.pair] == ["0*00", "0*0*"]
        assert res.distance == 0
        family = fam(4, 3, "1***", "01**", "0000", "0010")
        assert checked(family) == pairwise_is_k_neighborly(family)
        assert checked(family)

    def test_k_equal_to_d(self):
        for d in range(1, 6):
            everything = Family.of(d, d, all_binaries(d))
            assert checked(everything)
            with_joker = Family.of(d, d, [*all_binaries(d), jv("*" + "0" * (d - 1))])
            res = checked(with_joker)
            assert res == pairwise_is_k_neighborly(with_joker)
            assert res.distance == 0

    def test_zero_and_one_members(self):
        for d in range(1, 6):
            for k in range(1, d + 1):
                for words in ((), ("*" * d,), ("0" * d,)):
                    family = fam(d, k, *words)
                    assert checked(family) == (True, None, None)

    def test_validated_copy_reuses_sort_state(self, monkeypatch):
        family = alon_product(2, 5)
        family = Family.of(family.d, family.k, family)
        members = family.sorted_members()
        ranks = family.ranks

        def no_sort(*args, **kwargs):
            raise AssertionError("validate() sorted again")

        monkeypatch.setattr(core, "sorted", no_sort, raising=False)
        checked = family.validate()
        assert checked.validated and not family.validated
        assert checked.ranks is ranks
        assert ranks == "".join(str(v).replace("*", "2") for v in members)
        assert checked.sorted_members() == family.sorted_members() == members
        monkeypatch.undo()
        # validated=True is taken as given by both entry points: no pair is checked
        monkeypatch.setattr(core, "is_k_neighborly", _twin_must_not_run)
        bad = ["00", "11"]  # distance 2 > k = 1
        for forged_family in (Family.from_strings(2, 1, bad, validated=True),
                              Family.of(2, 1, map(jv, bad), validated=True)):
            assert forged_family.validated
            assert forged_family.ranks == "0011"

    def test_first_bad_pair_in_sorted_order(self):
        # sorted: 00, 01, 11, 1*; (00, 11) at distance 2 precedes (11, 1*) at 0
        family = fam(2, 1, "1*", "11", "01", "00")
        res = checked(family)
        assert res == pairwise_is_k_neighborly(family)
        assert [str(v) for v in res.pair] == ["00", "11"]
        assert res.distance == 2

    def test_constructions_match_pair_loop(self):
        for d in range(2, 9):
            for k in range(1, d):
                for family in (alon_product(k, d), b_config_family(k, d)):
                    assert checked(family) == pairwise_is_k_neighborly(family)
            family = extremal_dminus1_family(d)
            assert checked(family) == pairwise_is_k_neighborly(family)
            # one coordinate's worth too strict: the first pair at distance k breaks it
            if d >= 3:
                strict = Family.of(d, d - 2, family)
                assert not checked(strict)
                assert checked(strict) == pairwise_is_k_neighborly(strict)

    @pytest.mark.parametrize("k", [7, 11])  # 12 non-jokers: bit planes at 7, intersection at 11
    @pytest.mark.parametrize(
        "n, p, kind, pair",
        [
            (63, 0, "far", (0, 62)),
            (64, 62, "far", (62, 63)),
            (65, 63, "far", (63, 64)),
            (128, 64, "far", (64, 127)),
            (129, 63, "far", (63, 128)),
            (129, 64, "far", (64, 128)),
            (65, 62, "close", (62, 64)),
            (128, 63, "close", (62, 64)),
            (129, 64, "close", (64, 66)),
        ],
    )
    def test_word_boundaries(self, k, n, p, kind, pair):
        # n-1 words 00000xxxxxxx, pairwise at distance 1..7, plus one forged
        # from word p: its last k+1 symbols flipped (distance k+1 to p, at
        # most k to the others, sorted last), or its last symbol made a joker
        # (distance 0 to p and p^1, sorted right after both)
        base = [f"00000{i:07b}" for i in range(n - 1)]
        word = base[p]
        if kind == "far":
            extra = word[:11 - k] + word[11 - k:].translate(str.maketrans("01", "10"))
        else:
            extra = word[:-1] + "*"
        family = fam(12, k, *base, extra)
        res = checked(family)
        assert res == pairwise_is_k_neighborly(family)
        members = family.sorted_members()
        assert (members.index(res.pair[0]), members.index(res.pair[1])) == pair

    def test_no_64_column_limit(self):
        # the product of a 3-neighborly family in 6 coordinates and a
        # 2-neighborly one in 64 (58 constant columns, then alon_product(2, 6)
        # in columns 64..69) is 5-neighborly in 70
        tail = ["0" * 58 + w for w in alon_product(2, 6).sorted_words()]
        family = fam(70, 5, *(u + v for u in alon_product(3, 6).sorted_words() for v in tail))
        assert len(family) == 27 * 16
        assert checked(family) == pairwise_is_k_neighborly(family) == (True, None, None)
        # a member past the first 64 with no joker in column 69, so the
        # forged flips reach past column 63
        m = next(v for v in family.sorted_members()[64:] if not v.jokers >> 69 & 1)
        extra = forged(family, m, "far")
        bad = Family.of(70, 5, [*family, extra])
        res = checked(bad)
        assert not res and res == pairwise_is_k_neighborly(bad)
        assert extra in res.pair

    @pytest.mark.parametrize("kind", ["close", "far"])
    @pytest.mark.parametrize("seed", range(6))
    def test_scrambled_constructions_with_one_forged_member(self, seed, kind):
        rng = random.Random(seed)
        family = rng.choice(
            [alon_product(3, 8), b_config_family(4, 9), extremal_dminus1_family(7)]
        )
        family = scrambled(family, rng)
        assert checked(family) == (True, None, None)
        # every other pair is good, so the first bad pair holds the forged member
        eligible = [m for m in family if family.d - m.jokers.bit_count() > family.k]
        extra = forged(family, rng.choice(sorted(eligible)), kind)
        assert extra not in family.sorted_members()
        bad = Family.of(family.d, family.k, [*family, extra])
        res = checked(bad)
        assert res == pairwise_is_k_neighborly(bad)
        assert extra in res.pair
        if kind == "close":  # one more joker than a member: never too far
            assert res.distance == 0

    def test_random_valid_families_match_pair_loop(self):
        # random subsets of scrambled constructions are valid; one k lower,
        # the pairs at distance k break them
        rng = random.Random(20261019)
        sources = [
            *(alon_product(k, d) for d, k in [(5, 2), (6, 3), (7, 3), (8, 4)]),
            *(b_config_family(k, d) for d, k in [(6, 2), (8, 3), (9, 4)]),
            extremal_dminus1_family(6),
        ]
        outcomes = {"ok": 0, "too far": 0}
        for _ in range(150):
            source = scrambled(rng.choice(sources), rng)
            words = rng.sample(source.sorted_words(), rng.randint(0, min(len(source), 40)))
            family = fam(source.d, source.k, *words)
            assert checked(family) == pairwise_is_k_neighborly(family) == (True, None, None)
            stricter = fam(source.d, source.k - 1, *words)
            res = checked(stricter)
            assert res == pairwise_is_k_neighborly(stricter)
            outcomes["ok" if res else "too far"] += 1
        assert min(outcomes.values()) >= 20, outcomes
