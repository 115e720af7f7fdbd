import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from driftppm.core import INFINITY, ChannelSpec
from driftppm.channel import (
    ChannelRealization,
    ObservedSignal,
    derive_trial_seed,
    endpoint_ints,
    endpoint_realizations,
    sample_realization,
    transmit,
    uniform_sampler,
)


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

    def test_unbounded_drift_needs_cap(self):
        spec = ChannelSpec(1, INFINITY)
        with pytest.raises(ValueError):
            list(endpoint_realizations(spec, 2))
        r = list(endpoint_realizations(spec, 2, t_cap=5))[1]
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


def _fraction_draws(rng, hi_t, xi, k):
    """T, Z_1..Z_k by the per-draw Fraction formula on the 2^-53 grid."""
    return [1 + (hi - 1) * F(rng.getrandbits(53), 1 << 53) for hi in (hi_t,) + (xi,) * k]


class TestIntegerRealizations:
    @given(
        seed=st.integers(0, 2**64),
        k=st.integers(1, 4),
        xi=st.fractions(1, 3, max_denominator=20),
        gamma=st.one_of(st.fractions(1, 4, max_denominator=20), st.just(INFINITY)),
    )
    @settings(max_examples=60, deadline=None)
    def test_uniform_sampler_matches_fraction_formula(self, seed, k, xi, gamma):
        spec = ChannelSpec(xi, gamma)
        t_cap = F(13, 2)
        ints_rng = random.Random(seed)
        d, top, draw = uniform_sampler(spec, k, t_cap)
        c = draw(ints_rng)
        assert max(c) <= top
        fraction_rng = random.Random(seed)
        t, *z = _fraction_draws(fraction_rng, F(13, 2) if gamma == INFINITY else gamma, xi, k)
        assert [F(ci, d) for ci in c] == [t * zi for zi in z]
        # same generator calls: both streams continue in step
        assert ints_rng.getrandbits(64) == fraction_rng.getrandbits(64)
        r = sample_realization(spec, k, seed, t_cap=t_cap)
        assert (r.t, r.z) == (t, tuple(z))

    def test_endpoint_ints_match_realizations(self):
        for spec, t_cap in (
            (ChannelSpec(F(3, 2), F(7, 4)), None),
            (ChannelSpec(2, INFINITY), 5),
            (ChannelSpec(F(21, 20), INFINITY), F(17, 3)),
        ):
            for k in (1, 2, 3):
                corners = [
                    [r.t * z for z in r.z] for r in endpoint_realizations(spec, k, t_cap)
                ]
                d, factors = endpoint_ints(spec, k, t_cap)
                assert corners == [[F(ci, d) for ci in c] for c in factors]
