from fractions import Fraction as F

import pytest

from driftppm.core import INFINITY, REGIMES, ChannelSpec, Codebook
from driftppm.constructions import (
    code_bounded_drift,
    code_gcd,
    code_jitter,
    code_jitter_unbounded_drift,
)
from driftppm.simulate import _FAST_REGIMES, run_endpoint_roundtrips, run_uniform_roundtrips


class TestEndpointRoundtrips:
    def test_full_coverage_count(self):
        cb = code_bounded_drift(2, 12, F(7, 4))
        report = run_endpoint_roundtrips(cb)
        assert report.trials == len(cb) * 8
        assert report.ok

    def test_k3_coverage(self):
        cb = code_gcd(3, 10)
        report = run_endpoint_roundtrips(cb)
        assert report.trials == len(cb) * 16
        assert report.ok

    def test_trial_cap_round_robin(self):
        cb = code_jitter(2, 20, 2)
        report = run_endpoint_roundtrips(cb, trials=17)
        assert report.trials == 17
        assert report.ok

    def test_corrupted_codebook_detected(self):
        bad = Codebook(2, 65, ChannelSpec(1, INFINITY), "gcd", ((1, 1), (2, 2)))
        report = run_endpoint_roundtrips(bad)
        assert report.failures > 0
        assert report.examples

    def test_wrong_spec_detected(self):
        # a no-drift code exercised under unbounded drift must fail
        cb = code_jitter(2, 12, 2)
        report = run_endpoint_roundtrips(cb, spec=ChannelSpec(2, INFINITY), t_cap=4)
        assert report.failures > 0


class TestUniformRoundtrips:
    def test_clean(self):
        cb = code_bounded_drift(2, 30, F(7, 4))
        report = run_uniform_roundtrips(cb, 300, seed=3)
        assert report.trials == 300 and report.ok

    def test_reproducible(self):
        cb = code_jitter(2, 20, F(3, 2))
        first = run_uniform_roundtrips(cb, 100, seed=11)
        second = run_uniform_roundtrips(cb, 100, seed=11)
        assert (first.trials, first.failures) == (second.trials, second.failures)

    def test_unbounded_drift_with_cap(self):
        cb = code_jitter_unbounded_drift(20, F(3, 2))
        report = run_uniform_roundtrips(cb, 200, seed=5, t_cap=10)
        assert report.ok

    def test_unbounded_drift_needs_cap(self):
        cb = code_gcd(2, 10)
        with pytest.raises(ValueError):
            run_uniform_roundtrips(cb, 10, seed=1)


def test_every_construction_regime_is_cross_checked():
    assert set(_FAST_REGIMES) == set(REGIMES) - {"custom"}
