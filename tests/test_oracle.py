import importlib
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from driftppm.core import INFINITY, ChannelSpec, Codebook, enumerate_inputs
from driftppm.constructions import (
    code_bounded_drift,
    code_gcd,
    code_jitter,
    code_jitter_bounded_drift,
    code_jitter_unbounded_drift,
)
from driftppm.distinguish import ConfusionGraph, confusion_graph
from driftppm.oracle import (
    BUDGET_EXCEEDED,
    EXACT,
    max_independent_set,
    optimal_code_bruteforce,
    ZeroErrorReport,
    verify_zero_error,
)
import reference_oracle

UNBOUNDED = ChannelSpec(1, INFINITY)
BENCH = Path(__file__).resolve().parent.parent / "bench"


def graph_from_edges(n, edges):
    masks = [0] * n
    for i, j in edges:
        masks[i] |= 1 << j
        masks[j] |= 1 << i
    vertices = tuple((v + 1,) for v in range(n))
    return ConfusionGraph(vertices, UNBOUNDED, tuple(masks))


def assert_independent(graph, indices):
    chosen = sum(1 << i for i in indices)
    assert len(set(indices)) == len(indices)
    for i in indices:
        assert not graph.neighbors[i] & chosen


def brute_force_mis_size(graph):
    """Largest independent subset, by trying every subset."""
    best = 0
    for mask in range(1 << graph.n):
        if mask.bit_count() > best and all(
            not graph.neighbors[v] & mask for v in range(graph.n) if mask >> v & 1
        ):
            best = mask.bit_count()
    return best


@st.composite
def small_graphs(draw, max_n=14):
    n = draw(st.integers(0, max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return graph_from_edges(n, [p for p, k in zip(pairs, keep) if k])


@st.composite
def split_graphs(draw, max_n=18):
    """Random graphs cut into up to three parts, some vertices isolated."""
    n = draw(st.integers(0, max_n))
    part = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    # part 3 holds the isolated vertices
    pairs = [
        (i, j) for i in range(n) for j in range(i + 1, n) if part[i] == part[j] < 3
    ]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return graph_from_edges(n, [p for p, k in zip(pairs, keep) if k])


def as_reference(res):
    return res.indices, res.status, res.nodes


@pytest.fixture
def oracle_instances(monkeypatch):
    """The benchmark's oracle instances: (k, m, xi, gamma, optimum size)."""
    monkeypatch.syspath_prepend(str(BENCH))
    yield importlib.import_module("workloads").ORACLE_INSTANCES
    sys.modules.pop("workloads", None)


class TestMaxIndependentSet:
    def test_edgeless(self):
        res = max_independent_set(graph_from_edges(7, []))
        assert res.indices == tuple(range(7))
        assert res.status == EXACT

    def test_complete(self):
        edges = [(i, j) for i in range(5) for j in range(i + 1, 5)]
        res = max_independent_set(graph_from_edges(5, edges))
        assert res.size == 1

    def test_path(self):
        res = max_independent_set(graph_from_edges(3, [(0, 1), (1, 2)]))
        assert res.indices == (0, 2)

    def test_cycle_five(self):
        edges = [(i, (i + 1) % 5) for i in range(5)]
        assert max_independent_set(graph_from_edges(5, edges)).size == 2

    def test_two_components(self):
        edges = [(0, 1), (2, 3), (3, 4)]
        res = max_independent_set(graph_from_edges(5, edges))
        assert res.size == 3

    def test_deterministic(self):
        edges = [(0, 1), (1, 2), (2, 3), (3, 0), (1, 4), (4, 5)]
        g = graph_from_edges(6, edges)
        assert max_independent_set(g) == max_independent_set(g)

    def test_budget_exhaustion_reports_lower_bound(self):
        edges = [(i, j) for i in range(8) for j in range(i + 1, 8) if (i + j) % 3]
        g = graph_from_edges(8, edges)
        res = max_independent_set(g, node_budget=0)
        assert res.status == BUDGET_EXCEEDED
        assert res.size >= 1  # the greedy incumbent still gives a lower bound
        # the returned set is independent even when truncated
        assert_independent(g, res.indices)
        # with room to search, the same graph is solved exactly
        assert max_independent_set(g).status == EXACT

    @given(small_graphs())
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force(self, g):
        res = max_independent_set(g)
        assert res.status == EXACT
        assert res.size == brute_force_mis_size(g)
        assert_independent(g, res.indices)
        # exactly the nodes it reports are enough to solve it again
        assert max_independent_set(g, node_budget=res.nodes) == res
        if res.nodes:
            short = max_independent_set(g, node_budget=res.nodes - 1)
            assert short.status == BUDGET_EXCEEDED

    @given(small_graphs(), st.integers(0, 12))
    @settings(max_examples=150, deadline=None)
    def test_small_budget(self, g, budget):
        res = max_independent_set(g, node_budget=budget)
        assert_independent(g, res.indices)
        assert res.nodes <= budget
        if res.status == EXACT:
            assert res.size == brute_force_mis_size(g)
        else:
            assert res.status == BUDGET_EXCEEDED
        assert max_independent_set(g, node_budget=budget) == res
        # the nodes it expanded reproduce it, whichever the status
        assert max_independent_set(g, node_budget=res.nodes) == res

    @pytest.mark.parametrize(
        "k, m, xi, gamma, budget, nodes, size",
        [
            # the node budget runs out at 384 of the 19 735 nodes
            (2, 22, F(3, 2), F(7, 4), {"node_budget": 384}, 384, 13),
            # the time budget is read before the 1024th of 2 689 nodes
            (2, 24, F(2), F(3, 2), {"time_budget": 0}, 1023, 9),
        ],
        ids=["node-budget", "time-budget"],
    )
    def test_budgeted_result_is_reproduced(self, k, m, xi, gamma, budget, nodes, size):
        g = confusion_graph(enumerate_inputs(k, m), ChannelSpec(xi, gamma))
        res = max_independent_set(g, **budget)
        assert (res.status, res.nodes, res.size) == (BUDGET_EXCEEDED, nodes, size)
        assert max_independent_set(g, node_budget=res.nodes) == res
        # one node more lets the search go further
        assert max_independent_set(g, node_budget=res.nodes + 1).nodes == nodes + 1

    @pytest.mark.parametrize(
        "n, edges, size",
        [
            (3000, [(i, i + 1) for i in range(2999)], 1500),
            (3001, [(i, (i + 1) % 3001) for i in range(3001)], 1500),
            # the same kind of path with vertex i at position 3i mod n: the
            # first dive of the search is 1051 vertices deep
            (2101, [(3 * i % 2101, 3 * (i + 1) % 2101) for i in range(2100)], 1051),
        ],
        ids=["path", "cycle", "relabelled-path"],
    )
    def test_long_paths_need_no_recursion(self, n, edges, size):
        g = graph_from_edges(n, edges)
        res = max_independent_set(g)
        assert (res.size, res.status) == (size, EXACT)
        assert_independent(g, res.indices)


class TestSameTreeAsReference:
    """The search against its form before the cover skipped dead cliques
    and lone vertices skipped the search: the same nodes, the same set."""

    @given(split_graphs())
    @settings(max_examples=100, deadline=None)
    def test_random_graphs_at_every_budget(self, g):
        expected = reference_oracle.max_independent_set(g)
        assert as_reference(max_independent_set(g)) == expected
        for budget in range(expected[2] + 2):
            res = max_independent_set(g, node_budget=budget)
            assert as_reference(res) == reference_oracle.max_independent_set(
                g, node_budget=budget
            )

    def test_benchmark_instances(self, oracle_instances):
        assert len(oracle_instances) == 38
        for k, m, xi, gamma, size in oracle_instances:
            spec = ChannelSpec(xi, gamma)
            inputs = enumerate_inputs(k, m)
            g = confusion_graph(inputs, spec)
            assert g.neighbors == reference_oracle.confusion_graph(inputs, spec).neighbors
            res = max_independent_set(g)
            assert (res.size, res.status) == (size, EXACT)
            assert as_reference(res) == reference_oracle.max_independent_set(g)


class TestRootBound:
    @given(small_graphs(max_n=12), st.one_of(st.none(), st.integers(0, 12)))
    @settings(max_examples=150, deadline=None)
    def test_bound_caps_the_optimum(self, g, budget):
        res = max_independent_set(g, node_budget=budget)
        assert res.size <= brute_force_mis_size(g) <= res.bound <= g.n

    def test_refused_roots_count_their_cover(self):
        # a triangle, an edge and a lone vertex: one clique each, whether or
        # not the budget expands a root
        g = graph_from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4)])
        for budget in (0, 1, 2, 3, None):
            assert max_independent_set(g, node_budget=budget).bound == 3

    def test_headline_bound_under_a_budget(self):
        # 198 words found in ten nodes; the root covers cap the optimum at 237
        g = confusion_graph(enumerate_inputs(2, 65), ChannelSpec(F(21, 20), F(7, 4)))
        res = max_independent_set(g, node_budget=10)
        assert (res.status, res.nodes, res.size, res.bound) == (BUDGET_EXCEEDED, 10, 198, 237)

    @pytest.mark.parametrize(
        "m, nodes, size, bound", [(18, 856, 13, 14), (22, 19_735, 14, 16)]
    )
    def test_pinned_bounds(self, m, nodes, size, bound):
        g = confusion_graph(enumerate_inputs(2, m), ChannelSpec(F(3, 2), F(7, 4)))
        res = max_independent_set(g)
        assert (res.nodes, res.size, res.bound) == (nodes, size, bound)
        # the bound is read at the root, so any budget that expands it agrees
        assert max_independent_set(g, node_budget=1).bound == bound


class TestOptimalCodeBruteforce:
    def test_matches_totient_count(self):
        res = optimal_code_bruteforce(2, 6, UNBOUNDED)
        assert len(res.codebook) == 11
        assert res.status == EXACT
        assert res.codebook.regime == "custom"

    def test_matches_ratio_ascent_code(self):
        res = optimal_code_bruteforce(2, 10, ChannelSpec(2, INFINITY))
        assert len(res.codebook) == len(code_jitter_unbounded_drift(10, 2))

    def test_at_least_the_chained_construction(self):
        res = optimal_code_bruteforce(2, 10, ChannelSpec(2, 2))
        assert len(res.codebook) >= len(code_jitter_bounded_drift(10, 2, 2))

    def test_output_is_zero_error(self):
        spec = ChannelSpec(F(3, 2), F(7, 4))
        res = optimal_code_bruteforce(2, 9, spec)
        assert verify_zero_error(res.codebook, spec).ok


class TestVerifyZeroError:
    def test_gcd_code_clean(self):
        report = verify_zero_error(code_gcd(2, 65))
        assert report.ok
        assert report.pairs_checked == 1307 * 1306 // 2

    def test_reports_candidates_and_kernel(self):
        # int64 kernel: only words sharing a first ratio reach the exact test
        report = verify_zero_error(code_bounded_drift(2, 65, F(7, 4)))
        assert (report.pairs_checked, report.candidates, report.kernel) == (
            1736 * 1735 // 2, 569, "int64",
        )
        # a spec this fine pushes the products past the int64 guard
        codebook = code_jitter_bounded_drift(65, F(21, 20), F(7, 4))
        strict = ChannelSpec(F("1.049999999999999"), F("1.749999999999999"))
        report = verify_zero_error(codebook, strict)
        assert (report.pairs_checked, report.candidates, report.kernel) == (
            110 * 109 // 2, 33, "scalar",
        )
        assert report.ok

    def test_report_fields_default(self):
        report = ZeroErrorReport(ChannelSpec(1, 2), 3, ())
        assert (report.candidates, report.kernel) == (0, "int64")
        assert str(report) == f"3 pairs checked under {report.spec}: zero-error"

    def test_multiple_pair_violates_under_drift(self):
        cb = Codebook(2, 65, ChannelSpec(1, 2), "custom", ((1, 1), (2, 2)))
        report = verify_zero_error(cb)
        assert report.violations == (((1, 1), (2, 2)),)

    def test_singleton_clean(self):
        cb = Codebook(2, 5, ChannelSpec(2, INFINITY), "custom", ((1, 2),))
        assert verify_zero_error(cb).ok

    def test_spec_override(self):
        cb = code_jitter(2, 12, 2)  # built for xi=2, gamma=1
        assert verify_zero_error(cb).ok
        # the same words are not zero-error once drift is allowed
        assert not verify_zero_error(cb, ChannelSpec(2, INFINITY)).ok

    @pytest.mark.parametrize(
        "codebook",
        [
            code_gcd(3, 15),
            code_bounded_drift(2, 15, F(7, 4)),
            code_jitter(3, 15, F(3, 2)),
            code_jitter_unbounded_drift(15, F(3, 2)),
            code_jitter_bounded_drift(15, F(3, 2), F(3, 2)),
        ],
        ids=lambda cb: cb.regime,
    )
    def test_constructions_clean(self, codebook):
        assert verify_zero_error(codebook).ok


@pytest.mark.slow
@pytest.mark.parametrize("m, size", [(256, 26_684), (1024, 425_837)])
def test_large_frames_zero_error(m, size):
    codebook = code_bounded_drift(2, m, F(7, 4))
    assert len(codebook) == size
    report = verify_zero_error(codebook)
    assert report.pairs_checked == size * (size - 1) // 2
    assert report.ok
