from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from driftppm.core import INFINITY, ChannelSpec, enumerate_inputs, ratio_vector
from driftppm import distinguish
from driftppm.distinguish import _pairwise_rows, confusion_graph, indistinguishable

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
        int64_rows = [row.tolist() for _, row in _pairwise_rows(words, below)]
        assert calls == []
        scalar_rows = [row.tolist() for _, row in _pairwise_rows(words, above)]
        assert len(calls) == len(words) ** 2
        expected = [[indistinguishable(x, y, above) for y in words] for x in words]
        assert scalar_rows == expected
        assert scalar_rows == int64_rows
        assert sum(map(sum, expected)) > len(words)  # some edges besides i == i

    def test_no_self_loops(self):
        graph = confusion_graph(enumerate_inputs(2, 6), ChannelSpec(2, 1))
        for i in range(graph.n):
            assert not graph.has_edge(i, i)
