import copy
import gc
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from driftppm.core import INFINITY, ChannelSpec, Codebook
from driftppm.channel import ChannelRealization, ObservedSignal, endpoint_realizations, transmit
from driftppm.constructions import (
    code_bounded_drift,
    code_gcd,
    code_jitter,
    code_jitter_bounded_drift,
    code_jitter_unbounded_drift,
    perfect_sync_code,
)
from driftppm.decode import (
    DEFAULT_FLOAT_TOLERANCE,
    AmbiguityError,
    DecodeError,
    Decoder,
    NoCodewordError,
    consistent_codewords,
    decode,
    decode_fast,
    get_decoder,
    _DECODER_CACHE,
    _normalize_signal,
)


def exact(*values):
    return ObservedSignal.from_exact(values)


GCD65 = code_gcd(2, 65)
BD65 = code_bounded_drift(2, 65, F(7, 4))


class TestConsistentCodewords:
    def test_unique_ratio(self):
        assert consistent_codewords(exact(3, 6), GCD65) == [(1, 2)]

    def test_drift_window_selects_multiplier(self):
        # T = 5/4 explains (2,2); d=1 would need T = 5/2 > 7/4, d=4 needs T = 5/8 < 1
        assert consistent_codewords(exact(F(5, 2), F(5, 2)), BD65) == [(2, 2)]

    def test_smallest_input(self):
        assert consistent_codewords(exact(1, 1), GCD65) == [(1, 1)]

    def test_transmitted_word_is_always_consistent(self):
        spec = ChannelSpec(F(3, 2), F(7, 4))
        cb = code_jitter_bounded_drift(20, F(3, 2), F(7, 4))
        for word in cb.codewords:
            for r in endpoint_realizations(spec, 2):
                assert word in consistent_codewords(transmit(word, r), cb, spec)

    def test_mismatched_length(self):
        with pytest.raises(ValueError):
            consistent_codewords(exact(1, 2, 3), GCD65)


class TestDecode:
    def test_ratio_decoding(self):
        cb = code_jitter_unbounded_drift(5, F(3, 2))
        got = decode(transmit((3, 2), ChannelRealization(1, (1, 1))), cb)
        assert got == (3, 2)

    def test_scale_absorbed_by_drift(self):
        assert decode(exact(100, 100), GCD65) == (1, 1)

    def test_out_of_range_ratio(self):
        with pytest.raises(NoCodewordError):
            decode(exact(1, 10**6), GCD65)

    def test_below_drift_floor(self):
        # drift factors are normalized to T >= 1, so an observation smaller
        # than every codeword is out of model
        with pytest.raises(NoCodewordError):
            decode(exact(F(1, 2), F(1, 2)), GCD65)

    def test_ambiguity_raises(self):
        bad = Codebook(2, 65, ChannelSpec(1, INFINITY), "custom", ((1, 1), (2, 2)))
        with pytest.raises(AmbiguityError) as err:
            decode(exact(4, 4), bad)
        assert set(err.value.candidates) == {(1, 1), (2, 2)}

    @given(st.fractions(min_value=1, max_value=100, max_denominator=50))
    @settings(max_examples=40, deadline=None)
    def test_scale_invariance_upward(self, lam):
        y = exact(F(21, 5), 7)  # (3,5) seen through T = 7/5
        scaled = ObservedSignal.from_exact([lam * v for v in y.values])
        assert decode(y, GCD65) == decode(scaled, GCD65) == (3, 5)


class TestDecodeFast:
    def test_multiplier_lookup(self):
        got = decode_fast(transmit((2, 2), ChannelRealization(F(5, 4), (1, 1))), BD65)
        assert got == (2, 2)

    def test_per_run_windows(self):
        cb = code_jitter(2, 65, 2)
        y = transmit((3, 3), ChannelRealization(1, (1, 2)))
        assert y.values == (3, 6)
        assert decode_fast(y, cb) == (3, 3) == decode(y, cb)

    def test_ratio_interval_lookup(self):
        cb = code_jitter_unbounded_drift(65, F(3, 2))
        for word in cb.codewords:
            y = transmit(word, ChannelRealization(7, (F(3, 2), 1)))
            assert decode_fast(y, cb) == word == decode(y, cb)

    def test_agrees_with_general_on_corners(self):
        cases = [
            (GCD65, None),
            (BD65, None),
            (code_jitter(2, 30, F(3, 2)), None),
            (code_jitter_bounded_drift(30, F(3, 2), F(7, 4)), None),
        ]
        for cb, spec in cases:
            spec = spec or cb.spec
            for word in cb.codewords[:40]:
                for r in endpoint_realizations(spec, cb.k, t_cap=F(13, 2)):
                    y = transmit(word, r)
                    assert decode_fast(y, cb, spec) == decode(y, cb, spec) == word

    def test_custom_regime_rejected(self):
        cb = Codebook(2, 10, ChannelSpec(1, INFINITY), "custom", ((1, 2),))
        with pytest.raises(ValueError):
            decode_fast(exact(1, 2), cb)

    def test_looser_spec_rejected(self):
        with pytest.raises(ValueError):
            decode_fast(exact(3, 6), BD65, ChannelSpec(1, 2))

    def test_stricter_spec_allowed(self):
        assert decode_fast(exact(3, 6), GCD65, ChannelSpec(1, 50)) == (1, 2)

    def test_gcd_regime_rejects_scaled_down_signal(self):
        with pytest.raises(NoCodewordError):
            decode_fast(exact(F(1, 2), F(1, 2)), GCD65)

    def test_corrupted_chain_codebook_is_ambiguous(self):
        bad = Codebook(2, 65, ChannelSpec(1, INFINITY), "gcd", ((1, 1), (2, 2)))
        with pytest.raises(AmbiguityError):
            decode_fast(exact(4, 4), bad)


class TestFloatMode:
    def test_round_trip_through_floats(self):
        for word in ((1, 2), (15, 30), (7, 11)):
            assert word in BD65
            y = transmit(word, ChannelRealization(F(5, 4), (1, 1))).as_floats()
            assert decode(y, BD65) == word
            assert decode_fast(y, BD65) == word

    def test_tolerates_relative_noise(self):
        y = transmit((3, 5), ChannelRealization(F(3, 2), (1, 1)))
        noisy = ObservedSignal.from_floats(
            [float(v) * (1 + eps) for v, eps in zip(y.values, (1e-12, -1e-12))]
        )
        assert decode(noisy, BD65) == (3, 5)
        assert decode_fast(noisy, BD65) == (3, 5)

    def test_exact_mode_rejects_what_float_mode_accepts(self):
        y = ObservedSignal.from_exact([F(3) * (1 + F(1, 10**12)), F(6)])
        with pytest.raises(NoCodewordError):
            decode(y, GCD65)
        assert decode(y.as_floats(), GCD65) == (1, 2)

    def test_custom_tolerance(self):
        y = ObservedSignal.from_floats([3 * (1 + 2e-7), 6.0])
        with pytest.raises(NoCodewordError):
            decode(y, GCD65, tol=F(1, 10**9))
        assert decode(y, GCD65, tol=F(1, 10**6)) == (1, 2)


class TestDecoderCache:
    def test_collected_codebook_leaves_the_cache(self):
        book = copy.copy(GCD65)
        key = id(book)
        decoder = get_decoder(book)
        assert decoder.codebook is book and get_decoder(book) is decoder
        del book
        gc.collect()
        assert key not in _DECODER_CACHE
        assert decoder.codebook is None


def _exact_ints(values):
    a, b, d = _normalize_signal(ObservedSignal.from_exact(values), None)
    assert a == b
    return a, d


def _multiples_of(data, k):
    """Custom codebook of small bases and several multiples of each."""
    run = st.integers(1, 5)
    bases = data.draw(st.lists(st.tuples(*[run] * k), min_size=1, max_size=6))
    mults = st.sets(st.integers(1, 4), min_size=1, max_size=3)
    words = {tuple(mult * r for r in base) for base in bases for mult in data.draw(mults)}
    m = max(sum(w) for w in words)
    return Codebook.build(k, m, ChannelSpec(1, INFINITY), "custom", words)


class TestJitterlessLookup:
    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_feasibility_scan(self, data):
        # several candidates per primitive vector, T inside and outside
        # [1, gamma], jittered and float observations, and observations
        # proportional to no codeword: the shared candidate groups drop
        # nothing the brute-force scan keeps
        k = data.draw(st.integers(1, 3))
        book = _multiples_of(data, k)
        word = data.draw(st.sampled_from(book.codewords))
        lam = data.draw(st.fractions(F(1, 4), 6, max_denominator=12))
        xi = data.draw(st.sampled_from([F(1), F(21, 20), F(3, 2)]))
        unit = st.fractions(0, 1, max_denominator=8)
        values = [lam * (1 + (xi - 1) * data.draw(unit)) * r for r in word]
        if data.draw(st.integers(0, 3)) == 0:
            values[data.draw(st.integers(0, k - 1))] += data.draw(
                st.fractions(F(1, 8), 2, max_denominator=8)
            )
        signal = exact(*values)
        if data.draw(st.booleans()):
            signal = signal.as_floats()
        gamma = data.draw(st.sampled_from([F(1), F(7, 4), F(4), INFINITY]))
        p, q, g, h = spec_ints = ChannelSpec(xi, gamma).ints
        a, b, d = _normalize_signal(signal, None)
        decoder = Decoder(book)
        scan = [
            w for w in book.codewords
            if decoder._feasible(w, a, b, d, p, q, g * p * d, h * q)
        ]
        assert decoder.consistent_ints(a, b, d, *spec_ints) == scan

    def test_all_multiples_in_window(self):
        book = Codebook(2, 20, ChannelSpec(1, INFINITY), "custom", ((1, 2), (2, 4), (3, 6), (4, 7)))
        assert consistent_codewords(exact(6, 12), book) == [(1, 2), (2, 4), (3, 6)]
        spec = ChannelSpec(1, F(5, 2))
        assert consistent_codewords(exact(6, 12), book, spec) == [(3, 6)]


CONSTRUCTED = [
    code_gcd(2, 30),
    code_gcd(3, 12),
    code_bounded_drift(2, 30, F(7, 4)),
    code_bounded_drift(3, 16, F(7, 4)),
    perfect_sync_code(3, 12),
    code_jitter(2, 30, F(3, 2)),
    code_jitter_unbounded_drift(30, F(3, 2)),
    code_jitter_bounded_drift(30, F(3, 2), F(7, 4)),
    code_jitter(1, 30, F(3, 2)),
    perfect_sync_code(1, 12),
    code_bounded_drift(1, 65, F(7, 4)),
]


class TestFastMatchesGeneral:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_exact_observations(self, data):
        book = data.draw(st.sampled_from(CONSTRUCTED))
        word = data.draw(st.sampled_from(book.codewords))
        spec = book.spec
        unit = st.fractions(0, 1, max_denominator=8)
        if spec.xi == 1:
            # without jitter the decoders agree on any scaling, in spec or not
            values = [data.draw(st.fractions(F(1, 4), 4, max_denominator=12)) * r for r in word]
            if data.draw(st.booleans()):
                values[0] += 1
        else:
            hi_t = F(6) if spec.unbounded_drift else spec.gamma
            t = 1 + (hi_t - 1) * data.draw(unit)
            values = [t * (1 + (spec.xi - 1) * data.draw(unit)) * r for r in word]
        a, d = _exact_ints(values)
        decoder = Decoder(book)
        spec_ints = spec.ints
        general = decoder.consistent_ints(a, a, d, *spec_ints)
        assert decoder.fast_ints(a, a, d, *spec_ints) == general
        if spec.xi > 1:
            assert general == [word]


class TestFloatTolerance:
    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_near_the_tolerance(self, data):
        # endpoint and interior realizations seen as floats with relative
        # noise around the tolerance: never a wrong word; below half the
        # tolerance the sent word always stays consistent
        book = data.draw(st.sampled_from(CONSTRUCTED))
        word = data.draw(st.sampled_from(book.codewords))
        spec = book.spec
        hi_t = F(6) if spec.unbounded_drift else spec.gamma
        corner = st.sampled_from([F(0), F(1)])
        factor = st.one_of(corner, st.fractions(0, 1, max_denominator=64))
        t = 1 + (hi_t - 1) * data.draw(factor)
        z = [1 + (spec.xi - 1) * data.draw(factor) for _ in word]
        y = transmit(word, ChannelRealization(t, z))
        tol = DEFAULT_FLOAT_TOLERANCE
        near = data.draw(st.booleans())
        noisy = []
        for v in y.values:
            u = F(data.draw(st.integers(0, 1000)), 1000)
            eps = tol / 2 + 3 * tol / 2 * u if near else tol / 2 * u * F(999, 1000)
            noisy.append(float(v * (1 + data.draw(st.sampled_from([-1, 1])) * eps)))
        signal = ObservedSignal.from_floats(noisy)
        for decode_fn in (decode, decode_fast):
            try:
                assert decode_fn(signal, book) == word
            except NoCodewordError:
                assert near
            except DecodeError:
                pass
