import functools
import math
import re
import time
from bisect import bisect_right
from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from driftppm import constructions, core
from driftppm.core import (
    INFINITY,
    ChannelSpec,
    EmptyDomainError,
    UnsupportedRegimeError,
    enumerate_inputs,
    rate_bits,
)
from driftppm.constructions import (
    _primitive_counts,
    code_bounded_drift,
    code_gcd,
    code_jitter,
    code_jitter_bounded_drift,
    code_jitter_unbounded_drift,
    construct,
    count_code,
    geometric_multipliers,
    naive_rate,
    perfect_sync_code,
    ratio_set,
)
from driftppm.distinguish import indistinguishable
from driftppm.oracle import optimal_code_bruteforce, verify_zero_error
from reference_constructions import best_achievable_rate, gcd_of, multiples_chain


def totient(n):
    """Euler phi via trial-division factorization (test-local oracle)."""
    result = n
    p = 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            result -= result // p
        p += 1
    if n > 1:
        result -= result // n
    return result


def fraction_multipliers(step, limit):
    """The greedy chain by exact Fraction arithmetic: d -> floor(step * d) + 1."""
    out = [1] if limit >= 1 else []
    while out and math.floor(step * out[-1]) + 1 <= limit:
        out.append(math.floor(step * out[-1]) + 1)
    return out


# Ratios x2/x1 of the coprime pairs with x1 + x2 <= 400.  The float key
# only orders them; the exact pass below checks that order.
RATIOS_400 = sorted(
    (F(b, a) for a in range(1, 400) for b in range(1, 401 - a) if math.gcd(a, b) == 1),
    key=float,
)
assert all(u < v for u, v in zip(RATIOS_400, RATIOS_400[1:]))


def sorted_ratio_set(m):
    """Ratios x2/x1 of the gcd-1 pairs with x1 + x2 <= m <= 400, sorted."""
    return [u for u in RATIOS_400 if u.numerator + u.denominator <= m]


def ratio_ascent(m, xi):
    """Greedy ratio ascent by bisection over the sorted ratio set."""
    ratios = sorted_ratio_set(m)
    if xi == 1:  # each ratio clears the one before it
        return [(u.denominator, u.numerator) for u in ratios]
    words, idx = [], 0
    while idx < len(ratios):
        u = ratios[idx]
        words.append((u.denominator, u.numerator))
        idx = bisect_right(ratios, xi * xi * u)
    return words


def chain_union(bases, step, m):
    """Sorted union of the drift chains of every base."""
    return sorted({w for base in bases for w in multiples_chain(base, step, m)})


CHAIN_RATIOS = [F(1), F(21, 20), F(3, 2), F(7, 4), F(4), INFINITY]


class TestCodeGcd:
    def test_size_is_totient_sum(self):
        # coprime pairs summing to s are counted by phi(s)
        for m in (6, 20, 65):
            assert len(code_gcd(2, m)) == sum(totient(s) for s in range(2, m + 1))

    def test_headline_rate(self):
        cb = code_gcd(2, 65)
        assert len(cb) == 1307
        assert rate_bits(cb) == pytest.approx(10.3520, abs=1e-3)

    def test_small_frame_membership(self):
        assert code_gcd(2, 4).codewords == ((1, 1), (1, 2), (1, 3), (2, 1), (3, 1))

    def test_two_bins(self):
        assert code_gcd(2, 2).codewords == ((1, 1),)

    def test_k1_unsupported(self):
        with pytest.raises(UnsupportedRegimeError):
            code_gcd(1, 10)

    def test_k_larger_than_m(self):
        with pytest.raises(EmptyDomainError):
            code_gcd(3, 2)

    def test_matches_filter(self):
        for k, m in ((2, 12), (3, 9)):
            expected = [x for x in enumerate_inputs(k, m) if gcd_of(x) == 1]
            assert list(code_gcd(k, m).codewords) == expected


class TestChains:
    def test_drift_chain_of_ones(self):
        chain = multiples_chain((1, 1), F(7, 4), 65)
        assert [c[0] for c in chain] == [1, 2, 4, 8, 15, 27]

    def test_drift_chain_one_two(self):
        chain = multiples_chain((1, 2), 2, 65)
        assert [c[0] for c in chain] == [1, 3, 7, 15]

    def test_unit_step_chain(self):
        chain = multiples_chain((1, 1), 1, 6)
        assert [c[0] for c in chain] == [1, 2, 3]

    def test_requires_primitive_base(self):
        with pytest.raises(ValueError):
            multiples_chain((2, 4), 2, 65)

    def test_jitter_chain_examples(self):
        # the jitter chain of code_jitter: run values up to m, ratios > xi
        assert geometric_multipliers(2, 65) == [1, 3, 7, 15, 31, 63]
        assert geometric_multipliers(1, 65) == list(range(1, 66))
        assert geometric_multipliers(3, 5) == [1, 4]

    def test_integer_product_edge_case(self):
        # when step*d is an integer the next multiplier is step*d + 1
        assert geometric_multipliers(2, 20) == [1, 3, 7, 15]
        assert geometric_multipliers(F(51, 50), 60) == list(range(1, 51)) + [52, 54, 56, 58, 60]

    @pytest.mark.parametrize("step", [F(1), F(51, 50), F(3, 2), F(7, 4), F(2), F(7, 2)])
    @pytest.mark.parametrize("limit", [1, 2, 17, 64, 65])
    def test_gap_and_maximality(self, step, limit):
        chain = geometric_multipliers(step, limit)
        assert chain[0] == 1
        assert chain[-1] <= limit
        for lo, hi in zip(chain, chain[1:]):
            assert F(hi, lo) > step
        # no integer can be inserted anywhere without breaking the gap
        for lo, hi in zip(chain, chain[1:]):
            for mid in range(lo + 1, hi):
                assert F(mid, lo) <= step or F(hi, mid) <= step
        # and nothing fits after the last element
        nxt = math.floor(step * chain[-1]) + 1
        assert nxt > limit

    def test_infinite_step(self):
        assert geometric_multipliers(INFINITY, 100) == [1]
        assert geometric_multipliers("inf", 100) == [1]

    def test_step_refusals(self):
        with pytest.raises(TypeError, match="^step ratio must be exact"):
            geometric_multipliers(1.5, 100)
        with pytest.raises(ValueError, match="^step ratio must be >= 1"):
            geometric_multipliers(F(1, 2), 100)

    @given(st.integers(1, 12), st.integers(0, 40), st.integers(0, 3000))
    @example(2, 2, 100)  # step 2: every step * d is an integer
    @example(2, 1, 100)  # step 3/2: every other one is
    @settings(max_examples=200)
    def test_matches_fraction_recurrence(self, q, extra, limit):
        step = F(q + extra, q)
        assert geometric_multipliers(step, limit) == fraction_multipliers(step, limit)


class TestCodeBoundedDrift:
    def test_headline_rate(self):
        cb = code_bounded_drift(2, 65, F(7, 4))
        assert len(cb) == 1736
        assert rate_bits(cb) == pytest.approx(10.7616, abs=5e-4)

    def test_no_drift_recovers_every_input(self):
        cb = code_bounded_drift(2, 65, 1)
        assert len(cb) == 2080
        assert cb.codewords == perfect_sync_code(2, 65).codewords

    def test_large_gamma_adds_nothing(self):
        assert code_bounded_drift(2, 65, 64).codewords == code_gcd(2, 65).codewords

    @given(st.sampled_from(CHAIN_RATIOS), st.integers(2, 3), st.integers(0, 30))
    @settings(max_examples=60, deadline=None)
    def test_matches_chain_union(self, gamma, k, extra):
        m = k + extra
        bases = [x for x in enumerate_inputs(k, m) if gcd_of(x) == 1]
        expected = chain_union(bases, gamma, m)
        assert list(code_bounded_drift(k, m, gamma).codewords) == expected

    @pytest.mark.parametrize("gamma", [1, F(3, 2), F(7, 4), 4])
    @pytest.mark.parametrize("m", [5, 12, 40])
    def test_one_pulse_is_optimal(self, gamma, m):
        # one run: the code is the chain itself, and no larger code exists
        cb = code_bounded_drift(1, m, gamma)
        assert cb.codewords == tuple((d,) for d in geometric_multipliers(gamma, m))
        best = optimal_code_bruteforce(1, m, ChannelSpec(1, gamma))
        assert best.exact and len(best.codebook) == len(cb)

    def test_contains_gcd_code(self):
        for gamma in (F(3, 2), F(7, 4), 4):
            sup = set(code_bounded_drift(2, 20, gamma).codewords)
            assert set(code_gcd(2, 20).codewords) <= sup


class TestCodeJitter:
    def test_pairs_from_chain(self):
        assert len(code_jitter(2, 65, 2)) == 27

    def test_no_jitter_recovers_every_input(self):
        cb = code_jitter(2, 65, 1)
        assert len(cb) == 2080
        assert rate_bits(cb) == pytest.approx(11.0224, abs=1e-4)

    def test_two_percent_jitter(self):
        assert rate_bits(code_jitter(2, 65, F(51, 50))) == pytest.approx(10.9425, abs=1e-3)

    def test_runs_all_from_chain(self):
        alphabet = set(geometric_multipliers(F(3, 2), 30))
        for cw in code_jitter(3, 30, F(3, 2)).codewords:
            assert set(cw) <= alphabet

    @given(st.sampled_from(CHAIN_RATIOS[:-1]), st.integers(1, 4), st.integers(0, 16))
    @settings(max_examples=60, deadline=None)
    def test_matches_filtered_inputs(self, xi, k, extra):
        m = k + extra
        alphabet = set(geometric_multipliers(xi, m))
        expected = [x for x in enumerate_inputs(k, m) if set(x) <= alphabet]
        assert list(code_jitter(k, m, xi).codewords) == expected


class TestRatioSet:
    def test_three_bins(self):
        assert ratio_set(3) == [F(1, 2), F(1), F(2)]

    def test_five_bins(self):
        assert ratio_set(5) == [
            F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(1), F(3, 2), F(2), F(3), F(4),
        ]

    def test_bijection_with_gcd_code(self):
        ratios = ratio_set(65)
        assert len(ratios) == len(code_gcd(2, 65)) == 1307
        assert ratios == sorted(set(ratios))

    def test_too_small(self):
        with pytest.raises(EmptyDomainError):
            ratio_set(1)

    @given(st.integers(2, 80))
    @settings(max_examples=40)
    def test_matches_sorted_gcd_code(self, m):
        assert ratio_set(m) == sorted_ratio_set(m)


def test_next_pair_is_the_least_ratio_above():
    for m in range(1, 41):
        ratios = sorted_ratio_set(m)
        probes = [
            F(0),
            *ratios,
            *((u + v) / 2 for u, v in zip(ratios, ratios[1:])),
            F(m - 1), F(2 * m - 1, 2), F(m), F(10**12),  # nothing fits above
        ]
        for r in probes:
            i = bisect_right(ratios, r)
            expected = (ratios[i].denominator, ratios[i].numerator) if i < len(ratios) else None
            if r >= m - 1:
                assert expected is None
            # the ascent asks with thresholds that are not in lowest terms
            for scale in (1, 6):
                got = constructions._next_pair(scale * r.numerator, scale * r.denominator, m)
                assert got == expected, (m, r, scale)


class TestCodeJitterUnboundedDrift:
    def test_worked_example(self):
        cb = code_jitter_unbounded_drift(5, F(3, 2))
        assert set(cb.codewords) == {(4, 1), (3, 2), (1, 2)}

    def test_no_jitter_gives_gcd_code(self):
        cb = code_jitter_unbounded_drift(65, 1)
        assert cb.codewords == code_gcd(2, 65).codewords

    def test_three_percent_jitter_exactly_128(self):
        cb = code_jitter_unbounded_drift(65, F(103, 100))
        assert len(cb) == 128
        assert rate_bits(cb) == pytest.approx(7.0, abs=1e-9)

    def test_subset_of_gcd_code(self):
        for xi in (F(21, 20), F(3, 2), 2):
            assert set(code_jitter_unbounded_drift(30, xi).codewords) <= set(
                code_gcd(2, 30).codewords
            )

    @given(
        st.sampled_from([*CHAIN_RATIOS[:-1], F(103, 100), F(1001, 1000)]),
        st.integers(2, 400),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_bisection_ascent(self, xi, m):
        cb = code_jitter_unbounded_drift(m, xi)
        assert list(cb.codewords) == sorted(ratio_ascent(m, xi))

    def test_large_frames(self):
        assert len(code_jitter_unbounded_drift(10**6, F(21, 20))) == 284
        assert len(code_jitter_unbounded_drift(10**10, F(21, 20))) == 472

    def test_ratio_gaps_exceed_xi_squared(self):
        xi = F(3, 2)
        cb = code_jitter_unbounded_drift(20, xi)
        ratios = sorted(F(b, a) for a, b in cb.codewords)
        for lo, hi in zip(ratios, ratios[1:]):
            assert hi > xi * xi * lo


class TestCodeJitterBoundedDrift:
    def test_no_jitter_gives_drift_code(self):
        cb = code_jitter_bounded_drift(65, 1, F(7, 4))
        assert cb.codewords == code_bounded_drift(2, 65, F(7, 4)).codewords
        assert rate_bits(cb) == pytest.approx(10.76155, abs=5e-4)

    @given(
        st.sampled_from(CHAIN_RATIOS[:-1]),
        st.sampled_from(CHAIN_RATIOS),
        st.integers(2, 80),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_chain_union(self, xi, gamma, m):
        # independent oracle: one pass over every input, keeping x iff gcd(x)
        # is on the chain of gamma*xi and x/gcd(x) is a base
        step = INFINITY if gamma == INFINITY else gamma * xi
        bases = set(ratio_ascent(m, xi))
        chain = set(geometric_multipliers(step, m))
        expected = [
            x for x in enumerate_inputs(2, m)
            if (g := gcd_of(x)) in chain and (x[0] // g, x[1] // g) in bases
        ]
        assert list(code_jitter_bounded_drift(m, xi, gamma).codewords) == expected
        assert chain_union(bases, step, m) == expected

    def test_tight_frame_blocks_multiples(self):
        cb = code_jitter_bounded_drift(5, F(3, 2), 1)
        assert set(cb.codewords) == {(4, 1), (3, 2), (1, 2)}

    def test_unbounded_drift_with_xi_past_floats(self):
        cb = code_jitter_bounded_drift(12, "1e309", math.inf)
        assert cb.codewords == code_jitter_unbounded_drift(12, "1e309").codewords
        assert cb.codewords == ((11, 1),)

    def test_large_frame_is_zero_error(self):
        cb = code_jitter_bounded_drift(10**6, F(21, 20), F(7, 4))
        assert len(cb) == 476
        assert verify_zero_error(cb).ok

    def test_zero_error_by_general_predicate(self):
        cb = code_jitter_bounded_drift(65, 2, 1)
        spec = ChannelSpec(2, 1)
        for x, y in combinations(cb.codewords, 2):
            assert not indistinguishable(x, y, spec)


class TestSizeGuard:
    """The builders that do not go through enumerate_inputs count first."""

    @pytest.mark.parametrize(
        "build, what",
        [
            (lambda: enumerate_inputs(3, 10), "k=3, M=10 has C(M, k) >= 10 inputs"),
            (lambda: enumerate_inputs(6, 6), "k=6, M=6 has 6 runs per input"),
            # chain 1, 3, 7: three values fit, eight pairs of them
            (lambda: code_jitter(2, 10, 2), "k=2, M=10 has = 8 inputs over 3 run values"),
            (lambda: code_jitter(1, 10, 1), "k=1, M=10 has >= 6 inputs"),
            (lambda: code_jitter_unbounded_drift(65, F(21, 20)), "k=2, M=65 has >= 6 codewords"),
            # five bases, whose chains hold seven words
            (lambda: code_jitter_bounded_drift(30, 2, 1), "k=2, M=30 has 7 codewords"),
        ],
        ids=["binomial", "runs", "levels", "jitter-chain", "ascent", "drift-chains"],
    )
    def test_one_patch_moves_every_limit(self, monkeypatch, build, what):
        build()
        monkeypatch.setattr(core, "MAX_INPUTS", 5)
        text = f"{what}, more than the 5 that can be enumerated"
        with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
            build()

    def test_constructions_binds_no_limit(self):
        assert not hasattr(constructions, "MAX_INPUTS")

    def test_word_limits_are_inclusive(self, monkeypatch):
        # at xi = 21/20 the ascent picks 82 bases, whose chains hold 110 words
        unbounded = functools.partial(code_jitter_unbounded_drift, 65, F(21, 20))
        bounded = functools.partial(code_jitter_bounded_drift, 65, F(21, 20), F(7, 4))
        monkeypatch.setattr(core, "MAX_INPUTS", 110)
        assert len(bounded()) == 110
        monkeypatch.setattr(core, "MAX_INPUTS", 109)
        with pytest.raises(ValueError, match="^k=2, M=65 has 110 codewords, more than the 109 "):
            bounded()
        monkeypatch.setattr(core, "MAX_INPUTS", 82)
        assert len(unbounded()) == 82
        monkeypatch.setattr(core, "MAX_INPUTS", 81)
        for build in (unbounded, bounded):
            with pytest.raises(ValueError, match="^k=2, M=65 has >= 82 codewords, more than the 81 "):
                build()

    def test_coprime_pair_bound_is_inclusive(self, monkeypatch):
        # at xi = 1 the M - 1 pairs (1, j) alone are refused before the
        # ascent; within that bound the ascent counts its words as it lists them
        coprime = len(code_gcd(2, 65))
        monkeypatch.setattr(core, "MAX_INPUTS", coprime)
        assert len(code_jitter_unbounded_drift(65, 1)) == coprime
        monkeypatch.setattr(core, "MAX_INPUTS", 64)
        with pytest.raises(ValueError, match="^k=2, M=65 has >= 65 codewords, more than the 64 "):
            code_jitter_unbounded_drift(65, 1)

        def no_pair(a, b, m):
            raise AssertionError("the ascent ran")

        monkeypatch.setattr(core, "MAX_INPUTS", 63)
        monkeypatch.setattr(constructions, "_next_pair", no_pair)
        with pytest.raises(ValueError, match="^k=2, M=65 has >= 64 codewords, more than the 63 "):
            code_jitter_unbounded_drift(65, 1)

    @pytest.mark.parametrize("k, size", [(2, 1044), (3, 22403)])
    def test_run_vector_limit_is_inclusive(self, monkeypatch, k, size):
        monkeypatch.setattr(core, "MAX_INPUTS", size)
        assert len(code_jitter(k, 65, F(21, 20))) == size
        monkeypatch.setattr(core, "MAX_INPUTS", size - 1)
        text = f"k={k}, M=65 has = {size} inputs over 38 run values, more than the {size - 1}"
        with pytest.raises(ValueError, match=f"^{text}"):
            code_jitter(k, 65, F(21, 20))

    def test_jitter_pulse_limit_is_inclusive(self, monkeypatch):
        # one chain value fits M - k + 1 = 1, but each input holds k runs
        monkeypatch.setattr(core, "MAX_INPUTS", 5)
        assert code_jitter(5, 5, 2).codewords == ((1,) * 5,)
        with pytest.raises(ValueError, match="^k=6, M=6 has 6 runs per input, more than the 5"):
            code_jitter(6, 6, 2)

    def test_drift_chain_refused_before_its_multipliers(self, monkeypatch):
        # at gamma = 1 the chain holds every multiplier up to M
        def refuse(*args):
            raise AssertionError("the chain was built")

        monkeypatch.setattr(constructions, "geometric_multipliers", refuse)
        with pytest.raises(ValueError, match=r"^k=2, M=10000000000 has C\(M, k\)"):
            code_bounded_drift(2, 10**10, 1)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_jitter_chain_limit_is_inclusive(self, monkeypatch, k):
        # at xi = 1 the chain's values up to M - k + 1 are 1 .. M - k + 1; at
        # that many they pass, and k > 1 pulses are refused by their level
        # counts, over all 30 values even where the 30th was not yet drawn
        monkeypatch.setattr(core, "MAX_INPUTS", 30 - k + 1)
        if k == 1:
            assert code_jitter(k, 30, 1).codewords == tuple(enumerate_inputs(k, 30))
        else:
            count = {2: "= 435", 3: ">= 406"}[k]
            text = f"k={k}, M=30 has {count} inputs over 30 run values, more than the {31 - k} "
            with pytest.raises(ValueError, match=f"^{text}"):
                code_jitter(k, 30, 1)
        monkeypatch.setattr(core, "MAX_INPUTS", 30 - k)
        text = f"k={k}, M=30 has >= {31 - k} inputs, more than the {30 - k} that can be enumerated"
        with pytest.raises(ValueError, match=f"^{text}$"):
            code_jitter(k, 30, 1)

    def test_jitter_chain_refused_before_it_is_built(self, monkeypatch):
        # 10^8 chain values at xi = 1: no more than MAX_INPUTS + 1 are drawn
        drawn = []

        def counted(step, limit):
            for value in multipliers(step, limit):
                drawn.append(value)
                yield value

        multipliers = constructions._multipliers
        monkeypatch.setattr(constructions, "_multipliers", counted)
        monkeypatch.setattr(core, "MAX_INPUTS", 1000)
        text = "k=1, M=100000000 has >= 1001 inputs, more than the 1000 that can be enumerated"
        with pytest.raises(ValueError, match=f"^{text}$"):
            code_jitter(1, 10**8, 1)
        assert drawn == list(range(1, 1002))
        with pytest.raises(ValueError, match="k must be >= 1"):
            code_jitter(0, 10**8, 1)
        assert len(drawn) == 1001

    def test_run_vectors_counted_before_a_prefix_is_built(self):
        # exactly MAX_INPUTS chain values lie up to M - k + 1, so the chain
        # guard passes; the second level is counted from the bins the 2 * 10^6
        # one-run prefixes leave, before any of them is built
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"^k=2, M=2000001 has = 2000001000000 inputs over"):
            code_jitter(2, 2_000_001, 1)
        assert time.perf_counter() - start < 1

    def test_run_vectors_refused_level_by_level(self):
        # at xi = 1 every run is on the chain: the first level alone has
        # 99 998 prefixes, whose completions are counted, never built
        with pytest.raises(ValueError, match=r"^k=3, M=100000 has >= 4999850001 inputs"):
            code_jitter(3, 100_000, 1)


class TestBestAchievableRate:
    def test_singleton_grid_is_the_code_rate(self):
        rate = best_achievable_rate(65, 1, F(7, 4), [1])
        assert rate == pytest.approx(10.76155, abs=5e-4)
        assert rate == rate_bits(code_jitter_bounded_drift(65, 1, F(7, 4)))

    def test_grid_max(self):
        grid = [F(3, 2), F(2)]
        expected = max(
            rate_bits(code_jitter_bounded_drift(20, g, F(7, 4))) for g in grid
        )
        assert best_achievable_rate(20, F(3, 2), F(7, 4), grid) == expected

    def test_empty_grid(self):
        with pytest.raises(ValueError):
            best_achievable_rate(65, 1, F(7, 4), [])

    def test_grid_below_xi(self):
        with pytest.raises(ValueError):
            best_achievable_rate(65, 2, F(7, 4), [F(3, 2)])


class TestBaselines:
    def test_perfect_sync_sizes(self):
        assert len(perfect_sync_code(2, 65)) == 2080
        assert rate_bits(perfect_sync_code(3, 8)) == pytest.approx(5.8074, abs=1e-3)
        assert len(perfect_sync_code(1, 1)) == 1

    def test_naive_rates(self):
        assert naive_rate(2, 65) == 6
        assert naive_rate(3, 16) == pytest.approx(6.7142, abs=1e-3)
        assert naive_rate(1, 30) == 0
        with pytest.raises(ValueError, match="need 1 <= k <= m, got k=3 m=2"):
            naive_rate(3, 2)


class TestMonotonicity:
    def test_drift_code_shrinks_with_gamma(self):
        sizes = [len(code_bounded_drift(2, 30, g)) for g in (1, F(3, 2), F(7, 4), 4)]
        assert sizes == sorted(sizes, reverse=True)

    def test_jitter_code_shrinks_with_xi(self):
        sizes = [len(code_jitter(2, 30, x)) for x in (1, F(21, 20), F(3, 2), 2)]
        assert sizes == sorted(sizes, reverse=True)

    def test_ratio_ascent_code_shrinks_with_xi(self):
        sizes = [
            len(code_jitter_unbounded_drift(30, x)) for x in (1, F(21, 20), F(3, 2), 2)
        ]
        assert sizes == sorted(sizes, reverse=True)


class TestConstructDispatch:
    @pytest.mark.parametrize(
        "xi,gamma,regime",
        [
            (1, INFINITY, "gcd"),
            (1, F(7, 4), "bounded-drift"),
            (1, 1, "bounded-drift"),
            (2, 1, "jitter"),
            (2, INFINITY, "jitter-unbounded-drift"),
            (2, F(7, 4), "jitter-bounded-drift"),
        ],
    )
    def test_auto_selection(self, xi, gamma, regime):
        assert construct(2, 12, xi, gamma).regime == regime

    def test_one_pulse_without_drift_is_perfect_sync(self):
        cb = construct(1, 12, 1, 1)
        assert cb.regime == "perfect-sync"
        assert cb.codewords == perfect_sync_code(1, 12).codewords

    def test_explicit_regime(self):
        assert construct(2, 12, 1, 1, "perfect-sync").regime == "perfect-sync"

    def test_k3_jitter_drift_unsupported(self):
        with pytest.raises(UnsupportedRegimeError):
            construct(3, 12, 2, INFINITY)
        with pytest.raises(UnsupportedRegimeError):
            construct(3, 12, 2, F(7, 4))

    def test_k1_drift_unsupported(self):
        with pytest.raises(UnsupportedRegimeError, match="unbounded"):
            construct(1, 12, 1, INFINITY)

    def test_k1_finite_drift_is_a_chain(self):
        cb = construct(1, 65, 1, F(7, 4))
        assert cb.regime == "bounded-drift"
        assert cb.codewords == ((1,), (2,), (4,), (8,), (15,), (27,), (48,))


XIS = (F(1), F(21, 20), F(3, 2), F(2), INFINITY)
GAMMAS = (F(1), F(3, 2), F(7, 4), F(4), INFINITY)
REGIME_TAGS = (constructions.AUTO_REGIME, *core.REGIMES, "optimal")


def _size_or_refusal(build, *args):
    """The size a call returns, or the type and message of what it raises."""
    try:
        result = build(*args)
    except Exception as exc:  # every refusal is compared, whatever its type
        return type(exc), str(exc)
    return len(result) if isinstance(result, core.Codebook) else result


@pytest.fixture
def cached_builders(monkeypatch):
    """construct's builders, each remembering its books: on a grid of specs
    most points rebuild the same book.  count_code calls none of them."""
    for name in ("code_gcd", "code_bounded_drift", "code_jitter",
                 "code_jitter_unbounded_drift", "code_jitter_bounded_drift",
                 "perfect_sync_code"):
        monkeypatch.setattr(constructions, name, functools.cache(getattr(constructions, name)))


class TestCountCode:
    """count_code is len(construct(...)), and refuses what construct refuses."""

    @pytest.mark.parametrize("k", range(5))
    def test_same_answer_as_construct_on_the_grid(self, cached_builders, k):
        mismatches = []
        for m in (0, 1, 2, 3, 4, 5, 7, 12, 30, 10**11):
            for xi in XIS:
                for gamma in GAMMAS:
                    for regime in REGIME_TAGS:
                        if (m, xi, regime) == (10**11, 1, "jitter") and gamma != 1:
                            # the chain ignores gamma, and each call draws
                            # MAX_INPUTS + 1 run values before it refuses
                            continue
                        args = (k, m, xi, gamma, regime)
                        built = _size_or_refusal(construct, *args)
                        counted = _size_or_refusal(count_code, *args)
                        if built != counted:
                            mismatches.append((args, built, counted))
        assert mismatches == []

    @pytest.mark.parametrize("k", range(5))
    @pytest.mark.parametrize("m", [2000, 2001])
    def test_same_answer_at_the_size_limit(self, k, m):
        # C(2000, 2) = 1 999 000 inputs pass the limit and C(2001, 2) does not;
        # listing one k = 2 book at M = 2000 takes about a second, so one spec
        for regime in REGIME_TAGS:
            args = (k, m, F(21, 20), F(7, 4), regime)
            assert _size_or_refusal(count_code, *args) == _size_or_refusal(construct, *args)

    @settings(max_examples=150, deadline=None)
    @given(
        k=st.integers(0, 4),
        m=st.integers(0, 60) | st.just(10**11),
        xi=st.sampled_from(XIS) | st.fractions(1, 3, max_denominator=40),
        gamma=st.sampled_from(GAMMAS) | st.fractions(1, 5, max_denominator=40),
        regime=st.sampled_from(REGIME_TAGS),
    )
    def test_same_answer_as_construct(self, k, m, xi, gamma, regime):
        args = (k, m, xi, gamma, regime)
        assert _size_or_refusal(count_code, *args) == _size_or_refusal(construct, *args)

    @pytest.mark.parametrize("k, m", [(2, 1024), (3, 65)])
    def test_large_books(self, k, m):
        for xi, gamma in ((1, F(7, 4)), (1, INFINITY), (F(21, 20), 1)):
            assert count_code(k, m, xi, gamma) == len(construct(k, m, xi, gamma))

    def test_one_patch_moves_every_limit(self, monkeypatch):
        # the limits of TestSizeGuard, read by the counts too
        monkeypatch.setattr(core, "MAX_INPUTS", 5)
        for args in ((3, 10, 1, INFINITY), (6, 6, 1, 1), (2, 10, 2, 1), (1, 10, 1, 1, "jitter"),
                     (2, 65, F(21, 20), INFINITY), (2, 30, 2, 1, "jitter-bounded-drift")):
            counted = _size_or_refusal(count_code, *args)
            assert counted == _size_or_refusal(construct, *args)
            assert counted[1].endswith("more than the 5 that can be enumerated")

    @pytest.mark.parametrize("regime", ["custom", "optimal"])
    def test_unknown_regime_refused(self, regime):
        # one check serves both, so the comparisons above cannot see it go
        for build in (construct, count_code):
            with pytest.raises(ValueError, match=f"^unknown regime '{regime}'$"):
                build(2, 12, 1, 1, regime)

    def test_counts_without_listing(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a word was listed")

        monkeypatch.setattr(core.Codebook, "__post_init__", refuse)
        monkeypatch.setattr(constructions, "_run_vectors", refuse)
        monkeypatch.setattr(constructions, "enumerate_inputs", refuse)
        assert count_code(2, 65, 1, F(7, 4)) == 1736
        assert count_code(2, 65, 1, INFINITY) == 1307
        assert count_code(2, 65, 1, 1, "perfect-sync") == 2080
        assert count_code(3, 30, F(21, 20), 1) == 3850


def _brute_primitive(k, n):
    """Vectors of k positive runs summing to <= n with gcd 1, one by one."""
    if n < k:
        return 0
    return sum(1 for runs in enumerate_inputs(k, n) if math.gcd(*runs) == 1)


class TestPrimitiveCounts:
    @pytest.mark.parametrize("k", [2, 3])
    def test_equal_to_a_gcd_count(self, k):
        for n in range(1, 41):
            table = _primitive_counts(k, n)
            assert set(table) == {n // d for d in range(1, n + 1)}
            assert table == {q: _brute_primitive(k, q) for q in table}

    def test_coprime_share_tends_to_six_over_pi_squared(self):
        n = 10**6
        share = _primitive_counts(2, n)[n] / math.comb(n, 2)
        assert abs(share - 6 / math.pi**2) < 1e-3
