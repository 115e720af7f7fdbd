from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import assume, given, settings, strategies as st

from driftppm.constructions import construct
from driftppm.core import INFINITY, REGIMES, ChannelSpec, enumerate_inputs, ratio_vector
from driftppm import distinguish
from driftppm.distinguish import (
    confusion_graph,
    indistinguishable,
    scan_pairs,
)

UNBOUNDED = ChannelSpec(1, INFINITY)


# Closed-form oracles for the three solved special cases.  These exist only
# here, as executable statements of the lemmas; production code always runs
# the general interval predicate.

def equal_ratio_oracle(x, y):
    """No jitter, unbounded drift: confusable iff the ratio vectors match."""
    return ratio_vector(x) == ratio_vector(y)


def per_run_oracle(x, y, xi):
    """No drift: confusable iff every run pair is within a jitter factor."""
    return all(F(a, b) <= xi and F(b, a) <= xi for a, b in zip(x, y))


def ratio_gap_oracle(x, y, xi):
    """Two pulses, unbounded drift: confusable iff the run ratios are
    within a factor xi^2 of each other."""
    u, v = F(x[1], x[0]), F(y[1], y[0])
    return u <= xi * xi * v and v <= xi * xi * u


def brute_force_pairs(vertices, spec):
    """Every indistinguishable pair (i, j), i < j, by the scalar predicate."""
    return [
        (i, j)
        for i, j in combinations(range(len(vertices)), 2)
        if indistinguishable(vertices[i], vertices[j], spec)
    ]


class TestExamples:
    def test_jitter_confuses_unequal_runs(self):
        assert indistinguishable((1, 1), (1, 2), ChannelSpec(2, 1))

    def test_drift_alone_does_not(self):
        assert not indistinguishable((1, 1), (1, 2), ChannelSpec(1, 2))

    def test_drift_confuses_multiples(self):
        assert indistinguishable((1, 1), (2, 2), ChannelSpec(1, 2))

    def test_identity_always_confusable(self):
        for spec in (UNBOUNDED, ChannelSpec(1, 1), ChannelSpec(2, F(7, 4))):
            assert indistinguishable((3, 5), (3, 5), spec)

    def test_mismatched_k(self):
        with pytest.raises(ValueError):
            indistinguishable((1, 1), (1, 1, 1), UNBOUNDED)


class TestLemmaEquivalence:
    # exhaustive cross-checks on small frames; the acceptance suite repeats
    # them at the full M=12 scale

    def test_equal_ratio_form(self):
        for k in (2, 3):
            inputs = enumerate_inputs(k, 8)
            for x, y in combinations(inputs, 2):
                assert indistinguishable(x, y, UNBOUNDED) == equal_ratio_oracle(x, y)

    @pytest.mark.parametrize("xi", [F(3, 2), F(2)])
    def test_per_run_form(self, xi):
        spec = ChannelSpec(xi, 1)
        for k in (2, 3):
            inputs = enumerate_inputs(k, 8)
            for x, y in combinations(inputs, 2):
                assert indistinguishable(x, y, spec) == per_run_oracle(x, y, xi)

    @pytest.mark.parametrize("xi", [F(3, 2), F(2)])
    def test_ratio_gap_form(self, xi):
        spec = ChannelSpec(xi, INFINITY)
        inputs = enumerate_inputs(2, 8)
        for x, y in combinations(inputs, 2):
            assert indistinguishable(x, y, spec) == ratio_gap_oracle(x, y, xi)


runs = st.lists(st.integers(1, 30), min_size=2, max_size=4)
specs = st.sampled_from(
    [
        ChannelSpec(1, 1),
        ChannelSpec(1, 2),
        ChannelSpec(1, INFINITY),
        ChannelSpec(F(3, 2), 1),
        ChannelSpec(F(3, 2), F(7, 4)),
        ChannelSpec(2, INFINITY),
    ]
)


class TestProperties:
    @given(runs, runs, specs)
    def test_symmetry(self, x, y, spec):
        x, y = x[: len(y)], y[: len(x)]
        assert indistinguishable(x, y, spec) == indistinguishable(y, x, spec)

    @given(runs, runs)
    def test_monotone_in_parameters(self, x, y):
        x, y = x[: len(y)], y[: len(x)]
        ordered = [
            ChannelSpec(1, 1),
            ChannelSpec(1, 2),
            ChannelSpec(F(3, 2), 2),
            ChannelSpec(F(3, 2), INFINITY),
            ChannelSpec(2, INFINITY),
        ]
        results = [indistinguishable(x, y, spec) for spec in ordered]
        # once confusable under a weaker spec, stays confusable under looser ones
        assert results == sorted(results)


class TestConfusionGraph:
    def test_unbounded_drift_three_inputs_edgeless(self):
        graph = confusion_graph(enumerate_inputs(2, 3), UNBOUNDED)
        assert graph.edge_count == 0

    def test_jitter_three_inputs_complete(self):
        graph = confusion_graph(enumerate_inputs(2, 3), ChannelSpec(2, 1))
        assert graph.edge_count == 3
        assert sorted(graph.edges()) == [(0, 1), (0, 2), (1, 2)]

    def test_single_vertex(self):
        graph = confusion_graph([(1, 2)], UNBOUNDED)
        assert graph.n == 1 and graph.edge_count == 0

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            confusion_graph([(1, 1), (1, 1)], UNBOUNDED)

    def test_rejects_mixed_k(self):
        with pytest.raises(ValueError):
            confusion_graph([(1, 1), (1, 1, 1)], UNBOUNDED)

    @pytest.mark.parametrize(
        "spec",
        [
            UNBOUNDED,
            ChannelSpec(1, 2),
            ChannelSpec(F(3, 2), 1),
            ChannelSpec(F(3, 2), F(7, 4)),
            ChannelSpec(2, INFINITY),
        ],
    )
    @pytest.mark.parametrize("k", [2, 3])
    def test_vectorized_kernel_matches_scalar_predicate(self, spec, k):
        inputs = enumerate_inputs(k, 7)
        graph = confusion_graph(inputs, spec)
        for i, x in enumerate(inputs):
            for j, y in enumerate(inputs):
                expected = i != j and indistinguishable(x, y, spec)
                assert graph.has_edge(i, j) == expected

    @pytest.mark.parametrize("k, m", [(2, 12), (3, 9)])
    def test_scalar_fallback_matches_int64_kernel(self, k, m, monkeypatch):
        words = enumerate_inputs(k, m)
        # xi = 1 + 2^-e, gamma = 3/2: runs this short give no ratio within
        # 2^-15 of another ratio or of a bound, so both specs confuse the
        # same pairs.  xi's numerator squared times the largest run squared
        # lies below the int64 guard for the first spec and above it for the second.
        below = ChannelSpec(F(2**27 + 1, 2**27), F(3, 2))
        above = ChannelSpec(F(2**31 + 1, 2**31), F(3, 2))
        calls = []

        def counted(x, y, spec):
            calls.append(spec)
            return indistinguishable(x, y, spec)

        monkeypatch.setattr(distinguish, "indistinguishable", counted)
        int64_scan = scan_pairs(words, below)
        assert int64_scan.kernel == "int64"
        assert calls == []
        scalar_scan = scan_pairs(words, above)
        assert scalar_scan.kernel == "scalar"
        # both paths run the one vectorized kernel, never the scalar predicate
        assert calls == [] and scalar_scan.candidates > 0
        expected = brute_force_pairs(words, above)
        assert scalar_scan.pairs() == expected
        assert scalar_scan.pairs() == int64_scan.pairs()
        assert expected  # some edges besides i == i

    def test_no_self_loops(self):
        graph = confusion_graph(enumerate_inputs(2, 6), ChannelSpec(2, 1))
        for i in range(graph.n):
            assert not graph.has_edge(i, i)


XIS = (F(1), F(21, 20), F(3, 2), F(2))
GAMMAS = (F(1), F(3, 2), F(7, 4), F(4), INFINITY)
grid_specs = st.builds(ChannelSpec, st.sampled_from(XIS), st.sampled_from(GAMMAS))
# largest frame per pulse count that keeps the brute-force scan quick
MAX_FRAME = {1: 60, 2: 20, 3: 12, 4: 10}


@st.composite
def constructed_codebooks(draw):
    k = draw(st.integers(1, 4))
    m = draw(st.integers(k, MAX_FRAME[k]))
    spec = draw(grid_specs)
    regime = draw(st.sampled_from([r for r in REGIMES if r != "custom"]))
    try:
        return construct(k, m, spec.xi, spec.gamma, regime).codewords
    except ValueError:  # the regime is undefined for these parameters
        assume(False)


@st.composite
def planted_codebooks(draw):
    """Random words plus pairs confusable exactly at a window's edge."""
    k = draw(st.integers(1, 4))
    spec = draw(grid_specs)
    p, q = spec.xi.numerator, spec.xi.denominator
    run = st.integers(1, 12)
    words = draw(st.lists(st.tuples(*[run] * k), max_size=25))
    planted = []
    if k >= 2:
        a, b, t = draw(run), draw(run), draw(st.integers(2, 5))
        rest = draw(st.tuples(*[run] * (k - 2)))
        # equal first ratios, confusable or not
        words += [(a, b, *rest), (t * a, t * b, *draw(st.tuples(*[run] * (k - 2))))]
        # first ratios a factor xi^2 apart, with m_hi / m_lo = xi^2
        planted.append(((q * a, p * b, *rest), (p * a, q * b, *rest)))
    if not spec.unbounded_drift:
        g, h = spec.gamma.numerator, spec.gamma.denominator
        base = draw(st.tuples(*[run] * k))
        # every run ratio, so m_hi, exactly gamma*xi
        planted.append(
            (tuple(g * p * c for c in base), tuple(h * q * c for c in base))
        )
    for x, y in planted:
        assert indistinguishable(x, y, spec)
        words += [x, y]
    order = draw(st.permutations(list(dict.fromkeys(words))))
    return order, spec


def assert_scan_matches_brute_force(words, spec):
    expected = brute_force_pairs(words, spec)
    int64_scan = scan_pairs(words, spec)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(distinguish, "_INT64_GUARD", 0)
        scalar_scan = scan_pairs(words, spec)
    assert (int64_scan.kernel, scalar_scan.kernel) == ("int64", "scalar")
    assert int64_scan.pairs() == expected
    assert scalar_scan.pairs() == expected
    assert int64_scan.candidates == scalar_scan.candidates
    assert len(expected) <= int64_scan.candidates <= len(words) * (len(words) - 1) // 2


class TestCandidateWindow:
    """The windowed pair scan against a brute-force scan of every pair."""

    @settings(max_examples=60, deadline=None)
    @given(constructed_codebooks(), grid_specs)
    def test_constructed_codebooks(self, words, spec):
        assert_scan_matches_brute_force(words, spec)

    @settings(max_examples=150, deadline=None)
    @given(planted_codebooks())
    def test_planted_violations(self, case):
        words, spec = case
        assert_scan_matches_brute_force(words, spec)

    @pytest.mark.parametrize("spec", [UNBOUNDED, ChannelSpec(2, 2), ChannelSpec(F(10**400), 2)])
    @pytest.mark.parametrize("words", [[], [(3, 4)], [(5,)]])
    def test_empty_and_single_word(self, words, spec):
        scan = scan_pairs(words, spec)
        assert scan.pairs() == []
        assert scan.candidates == 0
        graph = confusion_graph(words, spec)
        assert graph.neighbors == (0,) * len(words)

    def test_xi_beyond_float_range(self):
        # the window cannot be located in floats; every pair is confusable
        words = enumerate_inputs(2, 5)
        scan = scan_pairs(words, ChannelSpec(F(10**400), F(7, 4)))
        assert scan.kernel == "scalar"
        assert scan.pairs() == list(combinations(range(len(words)), 2))

    def test_runs_beyond_int64(self):
        words = [(1, 2), (2**70, 2**71 + 1), (2**70, 2**71), (3, 1), (2**71, 2**72)]
        assert scan_pairs(words, ChannelSpec(1, 2)).pairs() == [(2, 4)]
        assert scan_pairs(words, UNBOUNDED).pairs() == [(0, 2), (0, 4), (2, 4)]

    def test_window_skips_distant_ratios(self):
        # the gcd code has one word per ratio vector: at xi = 1 only words
        # sharing a first ratio are candidates
        words = construct(2, 65, 1, INFINITY).codewords
        scan = scan_pairs(words, UNBOUNDED)
        assert scan.pairs() == []
        assert scan.candidates == 0
