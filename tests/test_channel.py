import itertools
import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from driftppm.core import INFINITY, ChannelSpec
from driftppm.channel import (
    DEFAULT_T_CAP,
    ChannelRealization,
    ObservedSignal,
    _corner_rows,
    _uniform_trials,
    counter_draws,
    derive_trial_seed,
    endpoint_realizations,
    grid_ints,
    run_key,
    sample_realization,
    transmit,
)

from reference_draws import splitmix64, trial_draws, uniform_trial


class TestTransmit:
    def test_drift_only(self):
        out = transmit((1, 2), ChannelRealization(F(3, 2), (1, 1)))
        assert out.values == (F(3, 2), F(3))

    def test_identity(self):
        out = transmit((1, 2), ChannelRealization(1, (1, 1)))
        assert out.values == (1, 2)
        assert out.exact

    def test_drift_and_jitter(self):
        out = transmit((4, 1), ChannelRealization(2, (1, F(6, 5))))
        assert out.values == (8, F(12, 5))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            transmit((1, 2, 3), ChannelRealization(1, (1, 1)))

    @given(
        st.lists(st.integers(1, 20), min_size=1, max_size=4),
        st.integers(1, 9),
    )
    def test_scaling_consistency(self, runs, d):
        r = ChannelRealization(F(7, 5), tuple(F(6, 5) for _ in runs))
        plain = transmit(runs, r).values
        scaled = transmit([d * x for x in runs], r).values
        assert scaled == tuple(d * v for v in plain)


class TestRealizationValidation:
    def test_rejects_small_factors(self):
        with pytest.raises(ValueError):
            ChannelRealization(F(1, 2), (1,))
        with pytest.raises(ValueError):
            ChannelRealization(1, (F(9, 10),))


class TestObservedSignal:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ObservedSignal.from_exact([1, 0])
        with pytest.raises(ValueError):
            ObservedSignal.from_floats([1.0, -2.0])

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite(self, bad):
        # decode would otherwise fail on it with an error that is no DecodeError
        with pytest.raises(ValueError, match="finite"):
            ObservedSignal.from_floats([bad, 1.0])
        with pytest.raises(ValueError, match="finite"):
            ObservedSignal((1.0, bad), False)

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="^empty signal$"):
            ObservedSignal((), True)
        with pytest.raises(ValueError, match="^empty signal$"):
            ObservedSignal.from_floats([])

    def test_float_conversion(self):
        sig = ObservedSignal.from_exact([F(3, 2), 2]).as_floats()
        assert not sig.exact
        assert sig.values == (1.5, 2.0)


class TestEndpoints:
    def test_first_and_last_corner(self):
        spec = ChannelSpec(2, F(7, 4))
        corners = list(endpoint_realizations(spec, 2))
        first = corners[0]
        assert first.t == 1 and first.z == (1, 1)
        last = corners[7]
        assert last.t == F(7, 4) and last.z == (2, 2)

    def test_all_corners_distinct(self):
        spec = ChannelSpec(2, F(7, 4))
        corners = list(endpoint_realizations(spec, 3))
        assert len(corners) == 16 == len(set(corners))

    def test_zero_runs_refused(self):
        spec = ChannelSpec(2, F(7, 4))
        with pytest.raises(ValueError, match="^k must be >= 1, got 0$"):
            list(endpoint_realizations(spec, 0))
        with pytest.raises(ValueError, match="^k must be >= 1, got 0$"):
            _corner_rows(0, 2)

    def test_unbounded_drift_corners_default_to_the_round_trip_cap(self):
        # the corners the endpoint round trips use, with no cap given
        unbounded = (ChannelSpec(1, INFINITY), ChannelSpec(2, INFINITY))
        for spec, k in itertools.product(unbounded, (1, 2, 3)):
            corners = list(endpoint_realizations(spec, k))
            assert corners == list(endpoint_realizations(spec, k, t_cap=DEFAULT_T_CAP))
            d, _, factors = grid_ints(spec, 0, DEFAULT_T_CAP)
            table = factors(_corner_rows(k, 2 << k)).tolist()
            assert [[r.t * z for z in r.z] for r in corners] == [
                [F(c, d) for c in row] for row in table
            ]
            assert corners[1].t == DEFAULT_T_CAP
        r = list(endpoint_realizations(ChannelSpec(1, INFINITY), 2, t_cap=5))[1]
        assert r.t == 5


class TestUniform:
    def test_degenerate_spec_is_identity(self):
        r = sample_realization(ChannelSpec(1, 1), 3, seed=1234)
        assert r.t == 1 and r.z == (1, 1, 1)

    def test_within_bounds(self):
        spec = ChannelSpec(2, F(7, 4))
        for seed in range(25):
            r = sample_realization(spec, 2, seed)
            assert 1 <= r.t <= F(7, 4)
            assert all(1 <= z <= 2 for z in r.z)

    def test_reproducible(self):
        spec = ChannelSpec(2, F(7, 4))
        assert sample_realization(spec, 2, 99) == sample_realization(spec, 2, 99)
        assert sample_realization(spec, 2, 99) != sample_realization(spec, 2, 100)

    def test_zero_runs_refused(self):
        with pytest.raises(ValueError, match="^k must be >= 1, got 0$"):
            sample_realization(ChannelSpec(2, F(7, 4)), 0, 1)

    def test_unbounded_drift_rejected_without_cap(self):
        with pytest.raises(ValueError, match="endpoints"):
            sample_realization(ChannelSpec(1, INFINITY), 2, 1)

    def test_unbounded_drift_with_cap(self):
        r = sample_realization(ChannelSpec(1, INFINITY), 2, 1, t_cap=3)
        assert 1 <= r.t <= 3


class TestSeedDerivation:
    def test_stable_and_distinct(self):
        assert derive_trial_seed(1, 0) == derive_trial_seed(1, 0)
        seen = {derive_trial_seed(1, t) for t in range(1000)}
        assert len(seen) == 1000
        assert derive_trial_seed(1, 5) != derive_trial_seed(2, 5)


class TestCounterDraws:
    # signed, past 2^64, and each side of a batch of 1 024 trials
    SEEDS = (0, -1, 2**64 - 1, 2**64, 2**200)
    TRIALS = (0, 1023, 1024, 1025, 99_999)

    def test_reference_matches_published_outputs(self):
        # SplitMix64 seeded with 1234567: its first five outputs
        assert [splitmix64(1234567, i) for i in range(5)] == [
            6457827717110365317, 3203168211198807973, 9817491932198370423,
            4593380528125082431, 16408922859458223821,
        ]

    def test_run_keys_are_distinct(self):
        keys = [run_key(seed) for seed in self.SEEDS]
        assert len(set(keys)) == len(keys) and all(0 <= key < 2**64 for key in keys)

    @given(
        seed=st.sampled_from(SEEDS) | st.integers(-(2**70), 2**70),
        trial=st.sampled_from(TRIALS) | st.integers(0, 10**6),
        count=st.integers(1, 3),
        k=st.integers(1, 4),
    )
    @settings(max_examples=80, deadline=None)
    def test_batch_matches_scalar_reference(self, seed, trial, count, k):
        # the batch starts at or just before trial and ends just past it
        first = max(0, trial - count + 1)
        x = counter_draws(run_key(seed), first, count + 1, k + 2)
        assert x.dtype == np.uint64 and x.shape == (count + 1, k + 2)
        assert x.tolist() == [trial_draws(seed, t, k) for t in range(first, first + count + 1)]

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_unbounded_drift_realizations(self, seed, k):
        # gamma = inf: T on the grid of [1, t_cap]
        spec, t_cap = ChannelSpec(F(3, 2), INFINITY), F(13, 2)
        d, top, factors = grid_ints(spec, 53, t_cap)
        for trial in self.TRIALS:
            _, rows = _uniform_trials(run_key(seed), trial, 1, k)
            (row,) = factors(rows).tolist()
            _, (u_t, *u_z) = uniform_trial(seed, trial, 1, k)
            t = 1 + (t_cap - 1) * F(u_t, 1 << 53)
            z = [1 + (spec.xi - 1) * F(u, 1 << 53) for u in u_z]
            assert [F(c, d) for c in row] == [t * zi for zi in z]
            assert max(row) <= top

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("n", [1, 7, 2**40 + 3, 2**63 - 1])
    def test_word_pick_matches_reference(self, seed, n):
        # trials 1 020 .. 1 029 straddle the round trips' batch of 1 024
        k, first = 2, 1020
        words, rows = _uniform_trials(run_key(seed), first, 10, k, n)
        assert words.dtype == np.intp
        reference = [uniform_trial(seed, t, n, k) for t in range(first, first + 10)]
        assert [(int(w), row) for w, row in zip(words, rows.tolist())] == reference
        assert _uniform_trials(run_key(seed), first, 10, k)[0] is None


class TestIntegerRealizations:
    @given(
        seed=st.integers(0, 2**64),
        k=st.integers(1, 4),
        xi=st.fractions(1, 3, max_denominator=20),
        gamma=st.one_of(st.fractions(1, 4, max_denominator=20), st.just(INFINITY)),
    )
    @settings(max_examples=60, deadline=None)
    def test_uniform_grid_matches_fraction_formula(self, seed, k, xi, gamma):
        spec = ChannelSpec(xi, gamma)
        t_cap = F(13, 2)
        hi_t = t_cap if gamma == INFINITY else gamma
        # sample_realization is trial 0 of the uniform round trips of seed
        words = [tuple(range(j + 1, j + k + 1)) for j in range(5)]
        pick, u = uniform_trial(seed, 0, len(words), k)
        d, top, factors = grid_ints(spec, 53, t_cap)
        (c,) = factors(np.array([u], dtype=np.uint64)).tolist()
        assert max(c) <= top
        t, *z = [1 + (hi - 1) * F(ui, 1 << 53) for hi, ui in zip((hi_t,) + (xi,) * k, u)]
        assert [F(ci, d) for ci in c] == [t * zi for zi in z]
        r = sample_realization(spec, k, seed, t_cap=t_cap)
        assert (r.t, r.z) == (t, tuple(z))
        # trial 0 observes factors[0] * word / d
        word = words[pick]
        assert transmit(word, r).values == tuple(F(ci * x, d) for ci, x in zip(c, word))

    def test_corners_are_the_zero_bit_grid(self):
        for spec, t_cap in (
            (ChannelSpec(F(3, 2), F(7, 4)), None),
            (ChannelSpec(2, INFINITY), 5),
            (ChannelSpec(F(21, 20), INFINITY), F(17, 3)),
        ):
            hi_t = spec.gamma if t_cap is None else F(t_cap)
            for k in (1, 2, 3):
                realizations = list(endpoint_realizations(spec, k, t_cap))
                rows = _corner_rows(k, 2 << k)
                # bit 0 of the corner's index is T high, bit i is Z_i high
                assert rows.tolist() == [[j >> i & 1 for i in range(k + 1)] for j in range(2 << k)]
                assert [(r.t, r.z) for r in realizations] == [
                    ((1, hi_t)[u_t], tuple((1, spec.xi)[u] for u in u_z))
                    for u_t, *u_z in rows.tolist()
                ]
                d, top, factors = grid_ints(spec, 0, t_cap)
                corners = [[r.t * z for z in r.z] for r in realizations]
                table = factors(rows).tolist()
                assert corners == [[F(ci, d) for ci in c] for c in table]
                assert d == hi_t.denominator * spec.xi.denominator
                assert top == max(map(max, table))
