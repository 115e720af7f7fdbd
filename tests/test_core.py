import copy
import math
import pickle
import re
from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from driftppm import core
from driftppm.core import (
    INFINITY,
    MAX_INPUTS,
    ChannelSpec,
    Codebook,
    EmptyDomainError,
    as_ratio,
    enumerate_inputs,
    format_ratio,
    gcd_of,
    parse_drift_ratio,
    parse_ratio,
    rate_bits,
    ratio_vector,
)


def combination_inputs(k, m):
    """Inputs from pulse positions: the runs between k of the bins 1..m."""
    out = []
    for positions in combinations(range(1, m + 1), k):
        out.append(tuple(b - a for a, b in zip((0,) + positions, positions)))
    return out


def brute_force_inputs(k, m):
    """Independent enumeration oracle: nested loops over run values."""
    if k == 0:
        return [()]
    out = []
    for first in range(1, m + 1):
        for rest in brute_force_inputs(k - 1, m - first):
            out.append((first,) + rest)
    return out


class TestEnumerateInputs:
    def test_triples_in_four_bins(self):
        expected = sorted(brute_force_inputs(3, 4))
        assert expected == [(1, 1, 1), (1, 1, 2), (1, 2, 1), (2, 1, 1)]
        assert enumerate_inputs(3, 4) == expected

    def test_single_run(self):
        assert enumerate_inputs(1, 5) == [(1,), (2,), (3,), (4,), (5,)]

    def test_count_is_binomial_65_2(self):
        assert len(enumerate_inputs(2, 65)) == 2080 == math.comb(65, 2)

    @pytest.mark.parametrize("m", range(1, 21))
    def test_counts_match_binomial(self, m):
        for k in range(1, m + 1):
            assert len(enumerate_inputs(k, m)) == math.comb(m, k)

    def test_matches_brute_force(self):
        for k in range(1, 5):
            for m in range(k, 9):
                assert enumerate_inputs(k, m) == sorted(brute_force_inputs(k, m))

    @given(st.integers(1, 4), st.integers(0, 10))
    def test_matches_pulse_positions(self, k, extra):
        assert enumerate_inputs(k, k + extra) == combination_inputs(k, k + extra)

    def test_lexicographic_order(self):
        inputs = enumerate_inputs(3, 9)
        assert inputs == sorted(inputs)

    def test_empty_domain(self):
        with pytest.raises(EmptyDomainError):
            enumerate_inputs(3, 2)

    def test_bad_k(self):
        with pytest.raises(ValueError):
            enumerate_inputs(0, 5)


class TestInputSizeGuard:
    @pytest.fixture(autouse=True)
    def no_enumeration(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the enumeration started")

        monkeypatch.setattr(core, "_run_vectors", refuse)

    def test_limit_admits_the_largest_builds(self):
        assert math.comb(1024, 2) == 523_776 <= MAX_INPUTS

    @pytest.mark.parametrize(
        "k, m, count",
        [
            (2, 100_000, "= 4999950000"),
            # C(M, 1) and C(60, 5) = 5 461 512: lower bounds, computed no further
            (2, 99_999_999_999, ">= 99999999999"),
            (50, 60, ">= 5461512"),
            (500_000, 1_000_000, ">= 499999500000"),
        ],
    )
    def test_refused_before_enumerating(self, k, m, count):
        text = f"k={k}, M={m} has C(M, k) {count} inputs, more than the {MAX_INPUTS}"
        with pytest.raises(ValueError, match=f"^{re.escape(text)}"):
            enumerate_inputs(k, m)

    def test_limit_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(core, "MAX_INPUTS", math.comb(10, 3))
        with pytest.raises(AssertionError, match="enumeration started"):
            enumerate_inputs(3, 10)
        monkeypatch.setattr(core, "MAX_INPUTS", math.comb(10, 3) - 1)
        with pytest.raises(ValueError, match=r"C\(M, k\) = 120 inputs"):
            enumerate_inputs(3, 10)


class TestGcd:
    @pytest.mark.parametrize(
        "runs,expected", [((2, 4), 2), ((3, 5), 1), ((6, 9, 12), 3)]
    )
    def test_examples(self, runs, expected):
        assert gcd_of(runs) == expected

    @given(
        st.lists(st.integers(1, 50), min_size=1, max_size=5),
        st.integers(1, 20),
    )
    def test_scaling(self, runs, d):
        scaled = tuple(d * r for r in runs)
        assert gcd_of(scaled) == d * gcd_of(runs)


class TestRatioVector:
    @pytest.mark.parametrize(
        "runs,expected",
        [
            ((2, 4), (F(2),)),
            ((3, 6, 9), (F(2), F(3))),
            ((4, 6), (F(3, 2),)),
        ],
    )
    def test_examples(self, runs, expected):
        assert ratio_vector(runs) == expected

    def test_single_run_undefined(self):
        with pytest.raises(ValueError):
            ratio_vector((3,))

    @given(
        st.lists(st.integers(1, 40), min_size=2, max_size=4),
        st.integers(1, 25),
    )
    def test_scaling_invariance(self, runs, d):
        assert ratio_vector(tuple(d * r for r in runs)) == ratio_vector(runs)


class TestRates:
    def test_perfect_sync_rate(self):
        cb = Codebook(1, 2080, ChannelSpec(1, 1), "custom", tuple((i,) for i in range(1, 2081)))
        assert rate_bits(cb) == pytest.approx(11.0224, abs=1e-4)

    def test_singleton_rate_zero(self):
        cb = Codebook(2, 4, ChannelSpec(1, 1), "custom", ((1, 1),))
        assert rate_bits(cb) == 0

    def test_64_words_is_6_bits(self):
        cb = Codebook(1, 64, ChannelSpec(1, 1), "custom", tuple((i,) for i in range(1, 65)))
        assert rate_bits(cb) == 6


class TestRatios:
    @pytest.mark.parametrize(
        "text,expected",
        [("7/4", F(7, 4)), ("1.03", F(103, 100)), ("3", F(3)), ("1.75", F(7, 4))],
    )
    def test_parse(self, text, expected):
        assert parse_ratio(text) == expected

    def test_parse_inf(self):
        assert parse_drift_ratio("inf") == INFINITY
        with pytest.raises(ValueError):
            parse_ratio("inf")

    def test_parse_garbage(self):
        for bad in ("", "x", "1/0", "nan"):
            with pytest.raises(ValueError):
                parse_ratio(bad)

    def test_format(self):
        assert format_ratio(F(7, 4)) == "7/4"
        assert format_ratio(F(3)) == "3"
        assert format_ratio(INFINITY) == "inf"

    @given(st.fractions(min_value=0, max_value=1000, max_denominator=10**6))
    def test_round_trip(self, value):
        assert parse_ratio(format_ratio(value)) == value
        assert parse_drift_ratio(format_ratio(value)) == value

    def test_round_trip_inf(self):
        assert parse_drift_ratio(format_ratio(INFINITY)) == INFINITY

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            as_ratio(1.03)

    @given(
        st.fractions(min_value=0, max_value=100, max_denominator=1000),
        st.fractions(min_value=0, max_value=100, max_denominator=1000),
        st.fractions(min_value=0, max_value=100, max_denominator=1000),
    )
    def test_ordering_total_and_transitive(self, x, y, z):
        assert x < INFINITY and INFINITY > x
        # totality: exactly one of <, ==, > holds
        assert (x < y) + (x == y) + (x > y) == 1
        ordered = sorted([x, y, z])
        assert ordered[0] <= ordered[1] <= ordered[2]
        if x <= y <= z:
            assert x <= z


_xi = st.fractions(min_value=1, max_value=8, max_denominator=40)
_gamma = st.one_of(st.just(INFINITY), _xi)


class TestChannelSpec:
    def test_validation(self):
        ChannelSpec(1, 1)
        ChannelSpec("21/20", INFINITY)
        with pytest.raises(ValueError):
            ChannelSpec(F(1, 2), 1)
        with pytest.raises(ValueError):
            ChannelSpec(1, F(9, 10))

    def test_stricter(self):
        assert ChannelSpec(1, 2).is_stricter_or_equal(ChannelSpec(2, INFINITY))
        assert not ChannelSpec(2, 1).is_stricter_or_equal(ChannelSpec(1, 1))

    def test_float_gamma_refused(self):
        with pytest.raises(TypeError, match="^gamma must be exact"):
            ChannelSpec(1, 1.75)
        assert ChannelSpec(1, math.inf).gamma == INFINITY
        assert ChannelSpec(1, " inf").gamma == INFINITY

    @given(
        st.fractions(min_value=0, max_value=16, max_denominator=64).filter(lambda r: r > 0),
        st.sampled_from([F(1), F(21, 20), F(3, 2), F(2)]),
        st.sampled_from([F(1), F(3, 2), F(7, 4), F(4), INFINITY]),
    )
    def test_ints_decide_drift_tests_exactly(self, r, xi, gamma):
        # h = 0 stands for unbounded drift: both cross-multiplied tests hold
        p, q, g, h = ChannelSpec(xi, gamma).ints
        assert F(p, q) == xi
        assert (r <= gamma) == (r.numerator * h <= r.denominator * g)
        assert (r * gamma >= 1) == (r.numerator * g >= r.denominator * h)

    @given(st.tuples(_xi, _gamma), st.tuples(_xi, _gamma))
    def test_stricter_matches_ratio_order(self, mine, other):
        # the cross-multiplied test against Fraction and inf comparisons
        spec, bound = ChannelSpec(*mine), ChannelSpec(*other)
        expected = spec.xi <= bound.xi and spec.gamma <= bound.gamma
        assert spec.is_stricter_or_equal(bound) == expected
        assert spec.unbounded_drift == (spec.gamma == INFINITY)

    @given(_xi, _gamma)
    def test_cached_ints_leave_identity_alone(self, xi, gamma):
        fresh, spec = ChannelSpec(xi, gamma), ChannelSpec(xi, gamma)
        before = (hash(spec), str(spec), repr(spec))
        ints = spec.ints
        assert spec.ints is ints
        assert spec == fresh and fresh == spec
        assert (hash(spec), str(spec), repr(spec)) == before == (
            hash(fresh), str(fresh), repr(fresh)
        )
        for clone in (copy.copy(spec), pickle.loads(pickle.dumps(spec))):
            assert clone == spec and hash(clone) == hash(spec)
            assert str(clone) == str(spec) and clone.ints == ints
        assert pickle.loads(pickle.dumps(fresh)).ints == ints


class TestCodebook:
    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            Codebook(2, 5, ChannelSpec(1, 1), "custom", ((1, 2), (1, 1)))

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            Codebook(2, 5, ChannelSpec(1, 1), "custom", ((1, 1), (1, 1)))

    def test_rejects_mixed_k(self):
        with pytest.raises(ValueError):
            Codebook(2, 5, ChannelSpec(1, 1), "custom", ((1, 1), (1, 1, 1)))

    def test_rejects_overflowing_frame(self):
        with pytest.raises(ValueError):
            Codebook(2, 3, ChannelSpec(1, 1), "custom", ((2, 2),))

    def test_rejects_unknown_regime(self):
        with pytest.raises(ValueError):
            Codebook(2, 5, ChannelSpec(1, 1), "optimal", ((1, 1),))

    def test_build_sorts_and_dedupes(self):
        cb = Codebook.build(2, 5, ChannelSpec(1, 1), "custom", [(2, 1), (1, 1), (2, 1)])
        assert cb.codewords == ((1, 1), (2, 1))
        assert (2, 1) in cb and (1, 2) not in cb
        assert [2, 1] in cb and [1, 2] not in cb and [] not in cb
        assert (1,) not in cb and (1, 1, 1) not in cb and (2, 1, 0) not in cb
