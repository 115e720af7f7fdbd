"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they pass;
failures always show them.  Reference rates are the published sweep values
for this channel family; sizes are pinned wherever a count is stated, and
every derived count is recomputed here by an independent route (totient
sums, nested-loop enumerations) before being compared.
"""

import math
from fractions import Fraction as F
from itertools import combinations

import pytest

from driftppm.core import INFINITY, ChannelSpec, enumerate_inputs, rate_bits, ratio_vector
from driftppm.constructions import (
    best_achievable_rate,
    code_bounded_drift,
    code_gcd,
    code_jitter,
    code_jitter_bounded_drift,
    code_jitter_unbounded_drift,
    naive_rate,
    perfect_sync_code,
)
from driftppm.distinguish import confusion_graph, indistinguishable
from driftppm.oracle import EXACT, max_independent_set, verify_zero_error
from driftppm.simulate import run_endpoint_roundtrips, run_uniform_roundtrips

XIS = (F(1), F(21, 20), F(3, 2), F(2))
GAMMAS = (F(1), F(3, 2), F(7, 4), F(4))
FRAMES = range(4, 31)


def report(number, name, failures):
    status = "FAIL" if failures else "PASS"
    print(f"ACCEPTANCE {number} ({name}): {status}")
    assert not failures, f"criterion {number}: " + "; ".join(map(str, failures[:10]))


def grid_codebooks():
    """Every constructed codebook on the acceptance grid, valid regimes only."""
    books = []
    for m in FRAMES:
        for k in (2, 3):
            books.append(code_gcd(k, m))
            for gamma in GAMMAS:
                books.append(code_bounded_drift(k, m, gamma))
            for xi in XIS:
                books.append(code_jitter(k, m, xi))
            books.append(perfect_sync_code(k, m))
        for xi in XIS:
            books.append(code_jitter_unbounded_drift(m, xi))
            for gamma in GAMMAS:
                books.append(code_jitter_bounded_drift(m, xi, gamma))
    return books


@pytest.fixture(scope="module")
def grid():
    return grid_codebooks()


def test_criterion_1_headline_rates():
    failures = []
    checks = [
        ("gcd rate", rate_bits(code_gcd(2, 65)), 10.3520434257954, 1e-3),
        ("drift-chain rate", rate_bits(code_bounded_drift(2, 65, F(7, 4))), 10.7616, 5e-4),
        ("perfect-sync rate", rate_bits(perfect_sync_code(2, 65)), 11.0224, 1e-4),
    ]
    for name, got, want, tol in checks:
        if abs(got - want) > tol:
            failures.append(f"{name}: {got} != {want} +/- {tol}")
    if len(perfect_sync_code(2, 65)) != 2080:
        failures.append("perfect-sync size != 2080")
    if naive_rate(2, 65) != 6:
        failures.append("naive rate != 6 exactly")
    report(1, "headline rates", failures)


# Published sweep values: (frame sizes, then one rate list per curve).
FRAME_SWEEP_K2 = {
    "m": (4, 8, 16, 32, 64, 128),
    "no-drift": (2.58496250072116, 4.8073549220576, 6.90689059560852,
                 8.95419631038687, 10.9772799234999, 12.9886846867722),
    "unbounded-drift": (2.32192809488736, 4.39231742277876, 6.3037807481771,
                        8.33539035469392, 10.298062567719, 12.2937590096679),
    "naive": (1.58496250072116, 2.8073549220576, 3.90689059560852,
              4.95419631038687, 5.97727992349992, 6.98868468677217),
}
FRAME_SWEEP_K3 = {
    "m": (4, 8, 16, 32, 64, 128),
    "no-drift": (2.0, 5.8073549220576, 9.12928301694497,
                 12.2761244052742, 15.3465137331656, 18.3810021095509),
    "unbounded-drift": (2.0, 5.70043971814109, 8.94544383637791,
                        12.0590063952011, 15.1034107601364, 18.1282561805259),
    "naive": (1.58496250072116, 4.39231742277876, 6.71424551766612,
              8.86108690599539, 10.9314762338868, 12.9659646102721),
}


def totient(n):
    result, p = n, 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            result -= result // p
        p += 1
    if n > 1:
        result -= result // n
    return result


def count_coprime_triples(m):
    """Independent oracle: direct nested-loop gcd filter."""
    count = 0
    for x1 in range(1, m - 1):
        for x2 in range(1, m - x1):
            g = math.gcd(x1, x2)
            for x3 in range(1, m - x1 - x2 + 1):
                if math.gcd(g, x3) == 1:
                    count += 1
    return count


def test_criterion_2_figure_points():
    failures = []

    def check(name, got, want, tol=1e-3):
        if abs(got - want) > tol:
            failures.append(f"{name}: {got} != {want} +/- {tol}")

    # drift sweep point
    check("gamma=8", rate_bits(code_bounded_drift(2, 65, 8)), 10.3706874068072)

    # jitter sweep points
    check("no-drift xi=1.02", rate_bits(code_jitter(2, 65, F(51, 50))), 10.9425145053392)
    check("unbounded xi=1.02", rate_bits(code_jitter_unbounded_drift(65, F(51, 50))), 7.52356195605701)
    cb = code_jitter_unbounded_drift(65, F(103, 100))
    check("unbounded xi=1.03", rate_bits(cb), 7.0)
    if len(cb) != 128:
        failures.append(f"unbounded xi=1.03 size {len(cb)} != 128")

    # best achievable over the 0.001-step jitter grid with gamma = 7/4
    full_grid = []
    value = F(1)
    while value <= F(11, 10):
        full_grid.append(value)
        value += F(1, 1000)
    check("best-rate xi=1", best_achievable_rate(65, 1, F(7, 4), full_grid), 10.7615512324445)
    tail = [v for v in full_grid if v >= F(101, 100)]
    check("best-rate xi=1.01", best_achievable_rate(65, F(101, 100), F(7, 4), tail), 9.1006623390052)

    # frame-size sweeps, two pulses
    for m, no_drift, unbounded, naive in zip(
        FRAME_SWEEP_K2["m"], FRAME_SWEEP_K2["no-drift"],
        FRAME_SWEEP_K2["unbounded-drift"], FRAME_SWEEP_K2["naive"],
    ):
        check(f"k2 m={m} no-drift", rate_bits(perfect_sync_code(2, m)), no_drift)
        cb = code_gcd(2, m)
        check(f"k2 m={m} unbounded", rate_bits(cb), unbounded)
        if len(cb) != sum(totient(s) for s in range(2, m + 1)):
            failures.append(f"k2 m={m} gcd size disagrees with totient sum")
        check(f"k2 m={m} naive", naive_rate(2, m), naive)

    # frame-size sweeps, three pulses
    for m, no_drift, unbounded, naive in zip(
        FRAME_SWEEP_K3["m"], FRAME_SWEEP_K3["no-drift"],
        FRAME_SWEEP_K3["unbounded-drift"], FRAME_SWEEP_K3["naive"],
    ):
        check(f"k3 m={m} no-drift", rate_bits(perfect_sync_code(3, m)), no_drift)
        cb = code_gcd(3, m)
        check(f"k3 m={m} unbounded", rate_bits(cb), unbounded)
        if len(cb) != count_coprime_triples(m):
            failures.append(f"k3 m={m} gcd size disagrees with enumeration")
        check(f"k3 m={m} naive", naive_rate(3, m), naive)
    if len(code_gcd(3, 8)) != 52:
        failures.append("k3 m=8 gcd size != 52")

    report(2, "figure points", failures)


def test_criterion_3_zero_error_everywhere(grid):
    failures = []
    seen = set()
    for cb in grid:
        key = (cb.codewords, cb.spec)
        if key in seen:
            continue
        seen.add(key)
        rep = verify_zero_error(cb)
        if not rep.ok:
            failures.append(
                f"{cb.regime} k={cb.k} m={cb.m} {cb.spec}: "
                f"{len(rep.violations)} violations"
            )
    report(3, "zero-error property", failures)


def test_criterion_4_oracle_optimality():
    failures = []
    gap_lines = []

    def mis_size(k, m, spec, label):
        graph = confusion_graph(enumerate_inputs(k, m), spec)
        res = max_independent_set(graph, time_budget=60.0)
        if res.status != EXACT:
            failures.append(f"{label}: oracle hit budget")
        return res.size

    for k in (2, 3):
        for m in range(4, 21):
            spec = ChannelSpec(1, INFINITY)
            if mis_size(k, m, spec, f"gcd k={k} m={m}") != len(code_gcd(k, m)):
                failures.append(f"gcd k={k} m={m}: oracle size differs")
            for gamma in GAMMAS:
                spec = ChannelSpec(1, gamma)
                got = mis_size(k, m, spec, f"drift-chain k={k} m={m} g={gamma}")
                if got != len(code_bounded_drift(k, m, gamma)):
                    failures.append(f"drift-chain k={k} m={m} gamma={gamma}: oracle size differs")

    for xi in (F(3, 2), F(2)):
        for m in range(4, 15):
            got = mis_size(2, m, ChannelSpec(xi, 1), f"jitter m={m}")
            if got != len(code_jitter(2, m, xi)):
                failures.append(f"jitter m={m} xi={xi}: oracle size differs")
            got = mis_size(2, m, ChannelSpec(xi, INFINITY), f"ratio-ascent m={m}")
            if got != len(code_jitter_unbounded_drift(m, xi)):
                failures.append(f"ratio-ascent m={m} xi={xi}: oracle size differs")

    # the chained jitter+drift construction is achievable, not optimal:
    # require oracle >= construction and log the gap, never assert zero
    for xi in (F(3, 2), F(2)):
        for gamma in (F(3, 2), F(7, 4), F(4)):
            for m in range(4, 13):
                built = len(code_jitter_bounded_drift(m, xi, gamma))
                opt = mis_size(2, m, ChannelSpec(xi, gamma), f"chained m={m}")
                if opt < built:
                    failures.append(
                        f"chained m={m} xi={xi} gamma={gamma}: oracle {opt} < built {built}"
                    )
                elif opt > built:
                    gap_lines.append(
                        f"  gap m={m} xi={xi} gamma={gamma}: built {built}, optimal {opt}"
                    )
    if gap_lines:
        print("chained-construction optimality gaps (informational):")
        print("\n".join(gap_lines))
    report(4, "oracle optimality", failures)


def test_criterion_5_round_trip_decoding(grid):
    failures = []
    for cb in grid:
        rep = run_endpoint_roundtrips(cb)
        if not rep.ok:
            failures.append(
                f"{cb.regime} k={cb.k} m={cb.m} {cb.spec}: "
                f"{rep.failures}/{rep.trials} endpoint failures, "
                f"first={rep.examples[:1]}"
            )
    big = run_uniform_roundtrips(code_bounded_drift(2, 65, F(7, 4)), 100_000, seed=1)
    if not big.ok:
        failures.append(f"uniform trials: {big.failures} failures")
    report(5, "round-trip decoding", failures)


def test_criterion_6_lemma_equivalence():
    failures = []

    def check_all(k, spec, oracle, label):
        inputs = enumerate_inputs(k, 12)
        for x, y in combinations(inputs, 2):
            if indistinguishable(x, y, spec) != oracle(x, y):
                failures.append(f"{label}: mismatch at {x} vs {y}")
                return

    for k in (2, 3):
        check_all(
            k,
            ChannelSpec(1, INFINITY),
            lambda x, y: ratio_vector(x) == ratio_vector(y),
            f"equal-ratio form k={k}",
        )
    for xi in (F(3, 2), F(2)):
        for k in (2, 3):
            check_all(
                k,
                ChannelSpec(xi, 1),
                lambda x, y: all(
                    F(a, b) <= xi and F(b, a) <= xi for a, b in zip(x, y)
                ),
                f"per-run form k={k} xi={xi}",
            )
        check_all(
            2,
            ChannelSpec(xi, INFINITY),
            lambda x, y: F(x[1], x[0]) <= xi * xi * F(y[1], y[0])
            and F(y[1], y[0]) <= xi * xi * F(x[1], x[0]),
            f"ratio-gap form xi={xi}",
        )
    report(6, "lemma equivalence", failures)


def test_criterion_7_reduction_identities():
    failures = []
    for m in range(4, 21):
        for k in (2, 3):
            ps = perfect_sync_code(k, m).codewords
            if code_bounded_drift(k, m, 1).codewords != ps:
                failures.append(f"drift-chain gamma=1 k={k} m={m} != full input set")
            if code_jitter(k, m, 1).codewords != ps:
                failures.append(f"jitter xi=1 k={k} m={m} != full input set")
        if code_jitter_unbounded_drift(m, 1).codewords != code_gcd(2, m).codewords:
            failures.append(f"ratio-ascent xi=1 m={m} != gcd code")
        for gamma in GAMMAS:
            if (
                code_jitter_bounded_drift(m, 1, gamma).codewords
                != code_bounded_drift(2, m, gamma).codewords
            ):
                failures.append(f"chained xi=1 m={m} gamma={gamma} != drift-chain code")
    report(7, "reduction identities", failures)
