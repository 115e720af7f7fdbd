import copy
import functools
import gc
import math
from bisect import bisect_left
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from driftppm.core import INFINITY, REGIMES, ChannelSpec, Codebook, enumerate_inputs
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
from driftppm.distinguish import _MARGIN


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

    def test_alphabet_runs_off_the_book(self):
        # each run is an alphabet value, but the word they form is no codeword
        cb = code_jitter(2, 30, F(3, 2))
        top = max(map(max, cb.codewords))
        assert (top, top) not in cb
        with pytest.raises(NoCodewordError):
            decode_fast(exact(top, top), cb)
        general, structured, _ = get_decoder(cb).decode_points(
            np.array([[top, top]]), 1, *cb.spec.ints
        )
        assert (general.tolist(), structured.tolist()) == ([-1], [-1])

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

    @pytest.mark.parametrize(
        "tol", [1, 2, "1", 1.0, math.inf, F(-1, 10**9), -1e-9, "-0.5", -math.inf]
    )
    def test_meaningless_tolerance_refused(self, tol):
        # tol >= 1 drops the lower bounds to zero or below, and tol < 0
        # inverts every interval
        y = ObservedSignal.from_floats([3.0, 5.0])
        for decode_fn in (decode, decode_fast, consistent_codewords):
            with pytest.raises(ValueError, match="^tolerance must lie in"):
                decode_fn(y, BD65, tol=tol)
        with pytest.raises(ValueError, match="^tolerance must lie in"):
            _normalize_signal(exact(3, 5), tol)

    @pytest.mark.parametrize(
        "decode_fn, expected",
        [(decode, (3, 5)), (decode_fast, (3, 5)), (consistent_codewords, [(3, 5)])],
    )
    def test_exact_signal_holding_floats(self, decode_fn, expected):
        # an exact signal is read at its values' exact binary values
        assert decode_fn(ObservedSignal((3.0, 5.0), True), BD65) == expected

    def test_nan_tolerance_refused(self):
        with pytest.raises(ValueError):
            decode(ObservedSignal.from_floats([3.0, 5.0]), BD65, tol=math.nan)

    @pytest.mark.parametrize("tol", [0, 0.0, "0", F(999_999, 10**6), 1 - 2**-53])
    def test_tolerance_range_ends_accepted(self, tol):
        y = ObservedSignal.from_floats([3.0, 5.0])
        assert (3, 5) in consistent_codewords(y, BD65, tol=tol)
        assert _normalize_signal(y, tol)[2] > 0


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


def _fraction_bounds(signal, tol):
    """The normalization in Fraction arithmetic: bounds value*(1 -+ tol) over
    the lcm of their reduced denominators.  Oracle for _normalize_signal."""
    if signal.exact:
        lo = hi = signal.values
    else:
        eps = DEFAULT_FLOAT_TOLERANCE if tol is None else F(tol)
        values = [F(v) for v in signal.values]
        lo = [v * (1 - eps) for v in values]
        hi = [v * (1 + eps) for v in values]
    d = math.lcm(*(v.denominator for v in [*lo, *hi]))
    return [int(v * d) for v in lo], [int(v * d) for v in hi], d


_TOLERANCES = st.one_of(
    st.none(),
    st.just(0),
    st.fractions(0, 1, max_denominator=10**12).filter(lambda t: t < 1),
    st.sampled_from(["1/1000", "0.000001", "1e-9", "0"]),
    st.floats(0, 1, exclude_max=True),
)


class TestNormalizeSignal:
    @given(
        st.lists(
            st.one_of(
                st.floats(5e-324, 1e300),
                st.integers(1, 2**60).map(float),
            ),
            min_size=1,
            max_size=5,
        ),
        _TOLERANCES,
    )
    # the smallest subnormal beside a huge value: a denominator of 2^1074
    @example([5e-324, 1e300, 1.0], None)
    @example([2.0**60, 0.1], 0)
    @settings(max_examples=500, deadline=None)
    def test_float_signal_matches_fraction_formula(self, values, tol):
        signal = ObservedSignal.from_floats(values)
        assert _normalize_signal(signal, tol) == _fraction_bounds(signal, tol)

    @given(
        st.lists(
            st.one_of(
                st.integers(1, 2**60),
                st.fractions(0, 2**60, max_denominator=10**6).filter(lambda v: v > 0),
            ),
            min_size=1,
            max_size=5,
        ),
        _TOLERANCES,
    )
    @settings(max_examples=300, deadline=None)
    def test_exact_signal_matches_fraction_formula(self, values, tol):
        signal = ObservedSignal.from_exact(values)
        assert _normalize_signal(signal, tol) == _fraction_bounds(signal, tol)


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


def _outcome(decode_fn, signal, book):
    try:
        return decode_fn(signal, book)
    except DecodeError as exc:
        return type(exc)


def _expected(matches):
    if len(matches) == 1:
        return matches[0]
    return AmbiguityError if matches else NoCodewordError


def assert_matches_feasibility_scan(book, signal):
    """consistent_ints equals the _feasible scan of every word, fast_ints
    equals itself with every word a candidate, and decode and decode_fast
    answer by them: the one word, NoCodewordError or AmbiguityError."""
    spec_ints = book.spec.ints
    p, q, g, h = spec_ints
    a, b, d = _normalize_signal(signal, None)
    decoder = Decoder(book)
    scan = [w for w in book.codewords if decoder._feasible(w, a, b, d, p, q, g * p * d, h * q)]
    assert decoder.consistent_ints(a, b, d, *spec_ints) == scan
    every = Decoder(book)
    every._candidates = lambda *args: book.codewords
    fast = every.fast_ints(a, b, d, *spec_ints)
    assert decoder.fast_ints(a, b, d, *spec_ints) == fast
    assert _outcome(decode, signal, book) == _expected(scan)
    assert _outcome(decode_fast, signal, book) == _expected(fast)


def _edge_book(k, words, xi=1, regime="gcd"):
    m = max((sum(w) for w in words), default=k)
    return Codebook(k, m, ChannelSpec(xi, INFINITY), regime, tuple(sorted(words)))


_HUGE = 10**400
# first ratios 1 + 2^-52 and 1 + 1/(2^52 + 1): distinct, one float
_CLOSE = ((2**52, 2**52 + 1), (2**52 + 1, 2**52 + 2))
_EXTREME_FLOATS = [ObservedSignal.from_floats(v) for v in ((5e-324, 1e300), (1e300, 5e-324))]
EDGE_INPUTS = [
    ("empty", _edge_book(2, ()), [exact(3, 5), exact(3, 5).as_floats(), *_EXTREME_FLOATS]),
    ("empty-k1", _edge_book(1, (), regime="bounded-drift"), [exact(3), exact(_HUGE)]),
    ("extreme-floats", GCD65, _EXTREME_FLOATS),
    ("extreme-floats-jitter", code_jitter_unbounded_drift(65, F(3, 2)), _EXTREME_FLOATS),
    (
        "huge-exact",
        GCD65,
        [exact(_HUGE, 2 * _HUGE), exact(1, _HUGE), exact(_HUGE, 1), exact(F(1, _HUGE), 1)],
    ),
    (
        "huge-exact-jitter",
        code_jitter_bounded_drift(30, F(3, 2), F(7, 4)),
        [exact(_HUGE, 2 * _HUGE), exact(1, _HUGE), exact(_HUGE, 1), exact(_HUGE, _HUGE)],
    ),
    (
        "one-float-key",
        _edge_book(2, _CLOSE),
        [exact(*w) for w in _CLOSE]
        + [exact(*(3 * r for r in w)) for w in _CLOSE]
        + [exact(*w).as_floats() for w in _CLOSE]
        + [exact(2**52, 2**52 + F(3, 2))],
    ),
    (
        "one-float-key-jitter",
        _edge_book(2, _CLOSE, xi=F(21, 20), regime="jitter-unbounded-drift"),
        [exact(*w) for w in _CLOSE] + [exact(*w).as_floats() for w in _CLOSE],
    ),
    (
        "runs-past-2^53",
        _edge_book(2, ((1, 2), (2**53, 2**53 + 1), (2**53 + 1, 2**53 + 2), (3, 2**60))),
        [exact(2**53, 2**53 + 1), exact(2, 4), exact(1, 2**57), exact(2**53, 2**53 + 1).as_floats()],
    ),
    (
        "xi-past-2^53",
        _edge_book(2, ((1, 2), (1, 2**60), (7, 3)), xi=2**53, regime="jitter-unbounded-drift"),
        [exact(1, 2), exact(5, 1), exact(1, 2**70), exact(1, 2**70).as_floats()],
    ),
    (
        "xi-past-2^53-k3",
        _edge_book(3, ((1, 2, 3), (5, 1, 1)), xi=_HUGE, regime="jitter-unbounded-drift"),
        [exact(1, 2, 3), exact(_HUGE, 1, 1), exact(1, 1, 1).as_floats()],
    ),
]


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

    @pytest.mark.parametrize(
        "book, signals", [c[1:] for c in EDGE_INPUTS], ids=[c[0] for c in EDGE_INPUTS]
    )
    def test_edge_inputs_match_feasibility_scan(self, book, signals):
        for signal in signals:
            assert_matches_feasibility_scan(book, signal)

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


def _general_scan(decoder, a, b, d, spec_ints):
    """The words the general predicate accepts, testing every word."""
    p, q, g, h = spec_ints
    return [w for w in decoder.words if decoder._feasible(w, a, b, d, p, q, g * p * d, h * q)]


def _structured_scan(book, a, b, d, spec_ints):
    """fast_ints with every word a candidate; None where it raises."""
    every = Decoder(book)
    every._candidates = lambda *args: book.codewords
    try:
        return every.fast_ints(a, b, d, *spec_ints)
    except AmbiguityError:
        return None


@functools.lru_cache(maxsize=None)
def _window_book(kind, m, xi):
    if kind == "jitter":
        return code_jitter(3, m, xi)
    if kind == "jitter-k4":
        return code_jitter(4, m, xi)
    return code_bounded_drift(3, m, F(7, 4))


@st.composite
def _two_key_books(draw):
    kind = draw(st.sampled_from(["jitter", "jitter-k4", "bounded-drift", "custom"]))
    xi = draw(st.sampled_from([F(21, 20), F(3, 2), F(2)]))
    if kind == "custom":
        m = draw(st.integers(6, 18))
        words = draw(st.lists(st.sampled_from(enumerate_inputs(3, m)), min_size=1, max_size=60))
        return Codebook.build(3, m, ChannelSpec(F(3, 2), F(7, 4)), "custom", words)
    return _window_book(kind, draw(st.integers(4, 13 if kind == "jitter-k4" else 18)), xi)


class TestTwoKeyWindow:
    """At k >= 3 the ratio index reads cells of first ratios, each sorted by
    x_3/x_1; every decoder that reads it returns what a scan of every word
    returns, under specs stricter than, equal to and looser than the book's."""

    @given(st.data())
    @settings(max_examples=120, deadline=None)
    def test_matches_every_word_scan(self, data):
        book = data.draw(_two_key_books())
        own = book.spec.xi
        xi = data.draw(st.sampled_from([F(1), (1 + own) / 2, own, 2 * own + 1]))
        gamma = data.draw(st.sampled_from([F(1), F(7, 4), F(4), INFINITY]))
        spec = data.draw(st.sampled_from([book.spec, ChannelSpec(xi, gamma)]))
        spec_ints = spec.ints
        decoder = Decoder(book)
        starts = set(decoder._ratio_keys[0].tolist())
        at_starts = [w for w in book.codewords if w[1] / w[0] in starts]
        t_hi = F(6) if spec.unbounded_drift else spec.gamma
        unit = st.fractions(0, 1, max_denominator=16)
        observations = []
        for _ in range(data.draw(st.integers(1, 5))):
            kind = data.draw(st.sampled_from(["corner", "interior", "edge", "random"]))
            if kind == "random":
                value = st.fractions(F(1, 4), 40, max_denominator=12)
                observations.append([data.draw(value) for _ in range(book.k)])
                continue
            word = data.draw(st.sampled_from(at_starts if kind == "edge" else book.codewords))
            if kind == "interior":
                t = 1 + (t_hi - 1) * data.draw(unit)
                z = [1 + (spec.xi - 1) * data.draw(unit) for _ in word]
            else:
                # every factor at an end of its range: the word's ratios sit
                # on its own window's ends; at a cell start, nudged across them
                t = data.draw(st.sampled_from([F(1), t_hi]))
                z = [data.draw(st.sampled_from([F(1), spec.xi])) for _ in word]
                if kind == "edge":
                    nudge = F(data.draw(st.integers(-1, 1)), 10**9)
                    z[data.draw(st.integers(0, book.k - 1))] *= 1 + nudge
            observations.append([t * zi * x for zi, x in zip(z, word)])

        d = math.lcm(*(v.denominator for values in observations for v in values))
        rows = [[int(v * d) for v in values] for values in observations]
        scans = [_general_scan(decoder, a, a, d, spec_ints) for a in rows]
        dtype = decoder.point_dtype(max(map(max, rows)), d, *spec_ints)
        if data.draw(st.booleans()):
            dtype = object
        obs = np.array(rows, dtype=dtype)
        general, structured, candidates = decoder.decode_points(obs, d, *spec_ints)
        index = {w: i for i, w in enumerate(book.codewords)}
        assert general.tolist() == [index[s[0]] if len(s) == 1 else -1 for s in scans]
        assert candidates >= sum(map(len, scans))
        if structured is not None:
            fast = [_structured_scan(book, a, a, d, spec_ints) for a in rows]
            assert structured.tolist() == [index[f[0]] if f and len(f) == 1 else -1 for f in fast]

        for values, scan in zip(observations, scans):
            signal = exact(*values)
            assert consistent_codewords(signal, book, spec) == scan
            floats = signal.as_floats()
            a, b, fd = _normalize_signal(floats, None)
            float_scan = _general_scan(decoder, a, b, fd, spec_ints)
            assert consistent_codewords(floats, book, spec) == float_scan
            if REGIMES[book.regime] == "chain":
                fast = _structured_scan(book, a, b, fd, spec_ints)
                assert decoder.fast_ints(a, b, fd, *spec_ints) == fast

    def test_cells_are_one_window_wide(self):
        # each cell starts at the least first ratio at least a window past
        # the start before it, so a window of the book's own xi reads at most
        # two cells, and a looser xi reads more, every one of them
        book = code_jitter(3, 16, F(21, 20))
        decoder = Decoder(book)
        starts, thirds, keys, order = decoder._ratio_keys
        width = (21 / 20 * _MARGIN) ** 2
        first = sorted(w[1] / w[0] for w in book.codewords)
        assert starts[0] == first[0] and len(starts) > 10
        for lo, hi in zip(starts, starts[1:]):
            assert hi == first[bisect_left(first, lo * width)]
        assert np.all(np.diff(keys) >= 0)
        assert sorted(order.tolist()) == list(range(len(book)))
        for xi, most in ((F(21, 20), 2), (F(2), None)):
            spec_ints = ChannelSpec(xi, 1).ints
            p, q = spec_ints[:2]
            corners = [
                [x * (p if c >> i & 1 else q) for i, x in enumerate(w)]
                for w in book.codewords[::4] for c in range(8)
            ]
            # the ranges each observation reads, one per cell
            _, row, _, _ = decoder._point_windows(np.array(corners).T, p, q)
            cells = np.bincount(row, minlength=len(corners))
            if most:
                assert cells.max() <= most
            else:
                assert cells.max() > 2
            general, _, _ = decoder.decode_points(np.array(corners), q, *spec_ints)
            expected = [
                s[0] if len(s) == 1 else None
                for s in (_general_scan(decoder, a, a, q, spec_ints) for a in corners)
            ]
            assert [book.codewords[i] if i >= 0 else None for i in general.tolist()] == expected
