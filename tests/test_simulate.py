import importlib
import math
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from driftppm import channel as channel_module, simulate as simulate_module
from driftppm.core import INFINITY, REGIMES, ChannelSpec, Codebook, enumerate_inputs
from driftppm.channel import endpoint_realizations
from driftppm.constructions import (
    code_bounded_drift,
    code_gcd,
    code_jitter,
    code_jitter_unbounded_drift,
    construct,
)
from driftppm.decode import Decoder
from driftppm.oracle import verify_zero_error
from driftppm.simulate import (
    DEFAULT_T_CAP,
    TrialReport,
    run_endpoint_roundtrips,
    run_uniform_roundtrips,
)
from reference_draws import uniform_trial

# the package re-exports the function decode under the module's name
decode_module = importlib.import_module("driftppm.decode")

XIS = (F(1), F(21, 20), F(3, 2), F(2))
GAMMAS = (F(1), F(3, 2), F(7, 4), F(4), INFINITY)


def trial_details(decoder, word, factors, spec):
    """Failure details of one trial that observes factors[i] * word[i]
    exactly, by consistent_ints and, where the tag has one, fast_ints."""
    d = math.lcm(*(f.denominator for f in factors))
    a = [int(f * d) * x for f, x in zip(factors, word)]
    details = []
    got = decoder.consistent_ints(a, a, d, *spec.ints)
    if got != [word]:
        details.append(f"general decode gave {got}")
    if REGIMES[decoder.regime] is not None:
        fast = decoder.fast_ints(a, a, d, *spec.ints)
        if fast != [word]:
            details.append(f"structured decode gave {fast}")
    return details


def oracle_report(codebook, spec=None, t_cap=None, trials=None):
    """(trials, failures, examples, corner_failures) of the endpoint round
    trips, one trial at a time through consistent_ints and fast_ints of a
    fresh Decoder, each corner taken exactly from endpoint_realizations.
    corner_failures has one count per corner the trials reach."""
    spec = codebook.spec if spec is None else spec
    decoder = Decoder(codebook)
    corners = [
        [r.t * z for z in r.z] for r in endpoint_realizations(spec, codebook.k, t_cap)
    ]
    words = codebook.codewords
    n = len(words)
    total = n * len(corners) if trials is None else trials
    corner_failures = [0] * min(len(corners), -(-total // n))
    examples = []
    for t in range(total):
        word, corner = words[t % n], t // n % len(corners)
        details = trial_details(decoder, word, corners[corner], spec)
        corner_failures[corner] += len(details)
        examples += [(word, detail) for detail in details]
    return total, sum(corner_failures), examples[:10], corner_failures


def uniform_oracle(codebook, trials, seed, spec=None, t_cap=None):
    """(trials, failures, examples, corner_failures, kernel) of the uniform
    round trips, one trial at a time: each trial's word and grid indices
    from the scalar SplitMix64 reference, T and the Z_i as Fractions on the
    2^-53 grid, through consistent_ints and fast_ints of a fresh Decoder."""
    spec = codebook.spec if spec is None else spec
    hi_t = F(t_cap) if spec.unbounded_drift else spec.gamma
    decoder = Decoder(codebook)
    words = codebook.codewords
    examples = []
    failures = 0
    for t in range(trials):
        pick, grid = uniform_trial(seed, t, len(words), codebook.k)
        drift, *jitter = [
            1 + (hi - 1) * F(u, 1 << 53)
            for hi, u in zip((hi_t,) + (spec.xi,) * codebook.k, grid)
        ]
        details = trial_details(decoder, words[pick], [drift * z for z in jitter], spec)
        failures += len(details)
        examples += [(words[pick], detail) for detail in details]
    # the grid puts 2^106 into every observation's denominator, past int64
    return trials, failures, examples[:10], [], "scalar"


def assert_matches_oracle(codebook, **kwargs):
    report = run_endpoint_roundtrips(codebook, **kwargs)
    got = (report.trials, report.failures, report.examples, report.corner_failures)
    assert got == oracle_report(codebook, **kwargs)
    return report


def assert_uniform_matches_oracle(codebook, trials, seed, **kwargs):
    report = run_uniform_roundtrips(codebook, trials, seed, **kwargs)
    got = (report.trials, report.failures, report.examples, report.corner_failures)
    assert (*got, report.kernel) == uniform_oracle(codebook, trials, seed, **kwargs)
    return report


def constructed(k, m):
    """Every construction for k pulses in m bins over the XIS x GAMMAS grid."""
    books = []
    for xi in XIS:
        for gamma in GAMMAS:
            for regime in REGIMES:
                try:
                    books.append(construct(k, m, xi, gamma, regime))
                except ValueError:  # the regime is undefined here
                    pass
    return books


@st.composite
def planted_codebooks(draw):
    """Random words plus words confusable exactly at a decoder's edge,
    under any regime tag."""
    k = draw(st.integers(1, 3))
    spec = ChannelSpec(draw(st.sampled_from(XIS)), draw(st.sampled_from(GAMMAS)))
    p, q = spec.xi.numerator, spec.xi.denominator
    run = st.integers(1, 12)
    words = draw(st.lists(st.tuples(*[run] * k), max_size=12))
    base = draw(st.tuples(*[run] * k))
    # several multiples of one primitive vector
    multipliers = draw(st.lists(st.integers(1, 4), min_size=2, max_size=4))
    words += [tuple(c * r for r in base) for c in multipliers]
    if k >= 2:
        a, b = draw(run), draw(run)
        rest = draw(st.tuples(*[run] * (k - 2)))
        # first ratios whose ratio is exactly xi^2
        words += [(q * a, p * b, *rest), (p * a, q * b, *rest)]
    if not spec.unbounded_drift:
        g, h = spec.gamma.numerator, spec.gamma.denominator
        # every run ratio, so m_hi, exactly gamma*xi
        words += [tuple(g * p * r for r in base), tuple(h * q * r for r in base)]
    words = sorted(set(words))
    regime = draw(st.sampled_from(list(REGIMES)))
    return Codebook(k, max(map(sum, words)), spec, regime, tuple(words))


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

    def test_one_default_cap_for_the_corners(self):
        # the round trips and channel.endpoint_realizations share one cap
        assert DEFAULT_T_CAP is channel_module.DEFAULT_T_CAP

    def test_several_alphabet_values_in_one_run_window(self):
        # (2, 1) is (1, 1) under Z = (2, 1); run 1's window [1, 2] holds the
        # run values 1 and 2, but only (1, 1) fits both windows
        book = Codebook(2, 10, ChannelSpec(2, 1), "jitter", ((1, 1), (2, 3)))
        assert verify_zero_error(book).ok
        report = assert_matches_oracle(book)
        assert (report.trials, report.failures) == (16, 0)
        report = assert_uniform_matches_oracle(book, 200, seed=1)
        assert (report.trials, report.failures) == (200, 0)

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


class TestBatchedEndpoints:
    """The batched endpoint driver against a per-trial oracle."""

    @pytest.mark.parametrize("k, m", [(1, 16), (2, 11), (3, 7)])
    def test_constructed_codebooks(self, k, m):
        for book in constructed(k, m):
            report = assert_matches_oracle(book)
            assert report.ok and report.kernel == "int64"
            # a looser spec confuses words; both counts and examples match
            xi, gamma = book.spec.xi * F(3, 2), book.spec.gamma * 2
            assert_matches_oracle(book, spec=ChannelSpec(xi, gamma))

    @settings(max_examples=80, deadline=None)
    @given(planted_codebooks(), st.data())
    def test_planted_codebooks(self, book, data):
        full = len(book) << (book.k + 1)
        trials = data.draw(st.none() | st.integers(0, 2 * full + 3))
        report = assert_matches_oracle(book, trials=trials)
        assert report.kernel == "int64"

    def test_looser_specs_and_caps(self):
        book = code_jitter_unbounded_drift(14, F(3, 2))
        for t_cap in (1, F(7, 2), 8, 10**6):
            assert_matches_oracle(book, t_cap=t_cap)
            assert_matches_oracle(book, spec=ChannelSpec(2, INFINITY), t_cap=t_cap)
        book = code_bounded_drift(3, 9, F(3, 2))
        for gamma in (F(7, 4), 4, INFINITY):
            assert_matches_oracle(book, spec=ChannelSpec(1, gamma), t_cap=5)

    def test_round_robin_trial_counts(self):
        book = code_jitter(2, 12, F(3, 2))
        spec = ChannelSpec(2, INFINITY)  # looser: some trials fail
        n = len(book)
        for trials in (0, 1, n - 1, n + 1, 3 * n + 5, 8 * n, 8 * n + 7, 20 * n + 3):
            report = assert_matches_oracle(book, spec=spec, trials=trials, t_cap=4)
            assert report.trials == trials

    def test_scalar_fallback(self, monkeypatch):
        book = code_jitter(2, 12, 2)
        spec = ChannelSpec(2, INFINITY)
        batched = assert_matches_oracle(book, spec=spec, t_cap=4)
        monkeypatch.setattr(decode_module, "_INT64_GUARD", 0)
        scalar = assert_matches_oracle(book, spec=spec, t_cap=4)
        assert (batched.kernel, scalar.kernel) == ("int64", "scalar")
        assert scalar == TrialReport(**{**vars(batched), "kernel": "scalar"})
        assert scalar.failures > 0

    def test_huge_cap_runs_scalar(self):
        # 2^55: observations past exact floats, while code_gcd's products
        # stay below the int64 guard; 10^30: products past it
        for book in (code_gcd(2, 8), code_jitter_unbounded_drift(14, F(3, 2))):
            for t_cap in (2**55, 10**30):
                report = assert_matches_oracle(book, t_cap=t_cap)
                assert report.kernel == "scalar" and report.ok
                assert assert_uniform_matches_oracle(book, 60, seed=5, t_cap=t_cap).ok

    def test_corner_failures(self):
        report = run_endpoint_roundtrips(
            code_jitter(2, 12, 2), spec=ChannelSpec(2, INFINITY), t_cap=4
        )
        assert len(report.corner_failures) == 8
        assert sum(report.corner_failures) == report.failures > 0
        uniform = run_uniform_roundtrips(code_jitter(2, 12, 2), 20, seed=1)
        assert (uniform.kernel, uniform.corner_failures) == ("scalar", [])


class TestBatchedUniform:
    """The batched uniform driver against a per-trial oracle."""

    @pytest.mark.parametrize("k, m", [(1, 16), (2, 11), (3, 7)])
    def test_constructed_codebooks(self, k, m):
        for book in constructed(k, m):
            report = assert_uniform_matches_oracle(book, 40, seed=k, t_cap=8)
            assert report.ok
            # a looser spec confuses words; both counts and examples match
            loose = ChannelSpec(book.spec.xi * F(3, 2), book.spec.gamma * 2)
            assert_uniform_matches_oracle(book, 40, seed=m, spec=loose, t_cap=8)

    @settings(max_examples=60, deadline=None)
    @given(planted_codebooks(), st.integers(0, 60), st.integers(0, 2**32))
    def test_planted_codebooks(self, book, trials, seed):
        assert_uniform_matches_oracle(book, trials, seed, t_cap=F(7, 2))

    def test_looser_specs_and_caps(self):
        book = code_jitter_unbounded_drift(14, F(3, 2))
        for t_cap in (1, F(7, 2), 8, 10**6):
            assert_uniform_matches_oracle(book, 50, seed=1, t_cap=t_cap)
            assert_uniform_matches_oracle(
                book, 50, seed=2, spec=ChannelSpec(2, INFINITY), t_cap=t_cap
            )
        book = code_bounded_drift(3, 9, F(3, 2))
        for gamma in (F(7, 4), 4, INFINITY):
            assert_uniform_matches_oracle(
                book, 50, seed=3, spec=ChannelSpec(1, gamma), t_cap=5
            )

    def test_batches_keep_trial_order(self):
        # more trials than one batch holds; the examples are the first ones
        book = code_jitter(2, 12, F(3, 2))
        report = assert_uniform_matches_oracle(
            book, 1500, seed=4, spec=ChannelSpec(2, INFINITY), t_cap=4
        )
        assert report.failures > 0

    def test_trials_do_not_depend_on_the_batch_split(self, monkeypatch):
        # a looser spec than the book's: some trials fail
        book = code_jitter(2, 20, F(3, 2))
        loose = dict(spec=ChannelSpec(F(9, 4), INFINITY), t_cap=4)
        long = run_uniform_roundtrips(book, 2500, seed=9, **loose)
        short = run_uniform_roundtrips(book, 1025, seed=9, **loose)
        # the first ten failures fall in the first 1 025 trials, in both runs
        assert len(short.examples) == 10 and 0 < short.failures < long.failures
        assert long.examples == short.examples
        for rows in (1, 7, 1000):
            monkeypatch.setattr(simulate_module, "_ROWS", rows)
            assert run_uniform_roundtrips(book, 2500, seed=9, **loose) == long

    def test_no_generator_per_trial(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a per-trial generator was made")

        assert not hasattr(channel_module, "random")
        monkeypatch.setattr(channel_module, "derive_trial_seed", refuse)
        assert_uniform_matches_oracle(code_gcd(2, 10), 50, seed=3, t_cap=2)
        channel_module.sample_realization(ChannelSpec(2, INFINITY), 2, 3, t_cap=2)

    def test_grid_is_one_constant(self, monkeypatch):
        # a 2^-20 grid puts the headline book's products in int64
        monkeypatch.setattr(channel_module, "_GRID_BITS", 20)
        spec = ChannelSpec(1, F(7, 4))
        report = run_uniform_roundtrips(code_bounded_drift(2, 65, spec.gamma), 2000, seed=6)
        assert report.failures == 0 and report.kernel == "int64"
        for seed in range(20):
            u = (channel_module.sample_realization(spec, 2, seed).t - 1) / (spec.gamma - 1) * 2**20
            assert u.denominator == 1 and 0 <= u < 2**20


# Past a float (xi) and past int64 (runs); TestBatchedEndpoints covers a
# huge drift cap in both modes.
HUGE_XI = ChannelSpec(F(10**400), F(7, 4))
HUGE_RUNS = ((1, 2), (3, 1), (2**63, 2**64 + 1), (2**63 + 1, 2**64), (2**64, 2**65 + 2))


class TestEdgeInputs:
    """Inputs outside the int64 and float ranges, in both modes."""

    @staticmethod
    def check_both_modes(book, t_cap=None):
        endpoints = assert_matches_oracle(book, t_cap=t_cap)
        uniform = assert_uniform_matches_oracle(book, 60, seed=5, t_cap=t_cap or 8)
        return endpoints, uniform

    @pytest.mark.parametrize("regime", ["custom", "gcd", "jitter"])
    def test_xi_beyond_float_range(self, regime):
        # no float window: every word is a candidate, and every pair of
        # words is confusable
        book = Codebook.build(2, 6, HUGE_XI, regime, enumerate_inputs(2, 4))
        endpoints, uniform = self.check_both_modes(book)
        assert endpoints.kernel == "scalar"
        assert endpoints.failures > 0 and uniform.failures > 0

    @pytest.mark.parametrize("regime", ["custom", "gcd", "jitter"])
    @pytest.mark.parametrize("xi", [1, F(21, 20)])
    def test_runs_beyond_int64(self, regime, xi):
        # word columns, primitive keys and alphabet keys all past int64
        book = Codebook.build(2, 2**66, ChannelSpec(xi, 2), regime, HUGE_RUNS)
        endpoints, uniform = self.check_both_modes(book)
        assert endpoints.kernel == "scalar"
        assert endpoints.failures > 0
        wide = Codebook.build(
            3, 2**67, ChannelSpec(1, INFINITY), regime,
            [(1, 2, 3), (2**63, 2**64, 3 * 2**63), (5, 2**64 + 7, 1)],
        )
        self.check_both_modes(wide, t_cap=10**30)
        # first ratios past the float range
        far = Codebook.build(
            2, 2**1101, ChannelSpec(xi, 2), regime, [(1, 2), (3, 1), (1, 2**1100), (2**1100, 1)]
        )
        self.check_both_modes(far)

    @pytest.mark.parametrize("regime", ["custom", "gcd", "perfect-sync"])
    @pytest.mark.parametrize(
        "spec", [ChannelSpec(F(3, 2), 2), ChannelSpec(1, 1), ChannelSpec(2, INFINITY)], ids=str
    )
    def test_single_run(self, regime, spec):
        book = Codebook.build(1, 9, spec, regime, [(1,), (2,), (5,), (9,)])
        endpoints, _ = self.check_both_modes(book, t_cap=4)
        assert endpoints.kernel == "int64"


class TestTrialCounts:
    def test_negative_endpoint_trials(self):
        with pytest.raises(ValueError, match="non-negative"):
            run_endpoint_roundtrips(code_gcd(2, 10), trials=-3)

    def test_negative_uniform_trials(self):
        with pytest.raises(ValueError, match="non-negative"):
            run_uniform_roundtrips(code_gcd(2, 10), -3, seed=1, t_cap=2)

    @pytest.mark.parametrize(
        "trials", [True, False, 2.5, "3", F(3)], ids=["True", "False", "float", "str", "Fraction"]
    )
    def test_non_int_trials_refused(self, trials):
        book = code_gcd(2, 10)
        with pytest.raises(TypeError, match="^trials must be an int, got "):
            run_endpoint_roundtrips(book, trials=trials)
        with pytest.raises(TypeError, match="^trials must be an int, got "):
            run_uniform_roundtrips(book, trials, seed=1, t_cap=2)

    @pytest.mark.parametrize(
        "seed", [True, 1.0, "1", None, F(1)], ids=["True", "float", "str", "None", "Fraction"]
    )
    def test_non_int_seeds_refused(self, seed):
        # the stream key hashes the seed's text: "1" would replay seed 1
        with pytest.raises(TypeError, match="^seed must be an int, got "):
            run_uniform_roundtrips(code_gcd(2, 10), 5, seed=seed, t_cap=2)
        with pytest.raises(TypeError, match="^seed must be an int, got "):
            channel_module.sample_realization(ChannelSpec(2, F(7, 4)), 2, seed)

    @pytest.mark.parametrize("k", [40, 62])
    def test_few_trials_reach_few_corners(self, k):
        # 2^(k+1) corners: only the ten that ten trials of one word reach
        # are built, and at k = 62 their count is past int64
        spec = ChannelSpec(F(3, 2), F(7, 4))
        word = tuple(range(1, k + 1))
        book = Codebook.build(k, sum(word), spec, "custom", [word])
        start = time.perf_counter()
        report = run_endpoint_roundtrips(book, trials=10)
        assert time.perf_counter() - start < 1
        assert (report.trials, report.failures) == (10, 0)
        assert report.corner_failures == [0] * 10

    def test_none_trials(self):
        # endpoint mode reads None as every (codeword, corner) pair; uniform
        # mode has no such default
        book = code_gcd(2, 10)
        assert run_endpoint_roundtrips(book, trials=None).trials == len(book) << book.k + 1
        with pytest.raises(TypeError, match="^trials must be an int, got None$"):
            run_uniform_roundtrips(book, None, seed=1, t_cap=2)


def test_jitter_k3_candidates_per_trial():
    # the acceptance grid's k=3 jitter books: the two-key ratio index sends
    # a few words per trial to the exact tests, not every word whose first
    # ratio is near (about 60 a trial with the first ratio alone)
    trials = candidates = 0
    for xi in (F(21, 20), F(3, 2), F(2)):
        for m in range(4, 31):
            report = run_endpoint_roundtrips(code_jitter(3, m, xi))
            assert report.ok
            trials += report.trials
            candidates += report.candidates
    assert candidates <= 5 * trials


def test_every_construction_regime_is_cross_checked():
    # the round trips run the structured decoder on every tag that has one
    fast = {regime for regime, structure in REGIMES.items() if structure is not None}
    assert fast == set(REGIMES) - {"custom"}
