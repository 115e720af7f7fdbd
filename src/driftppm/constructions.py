"""Zero-error codebook constructions and rate baselines.

Five constructions cover the (xi, gamma) regimes:

* ``code_gcd``                  -- no jitter, unbounded drift; optimal.
* ``code_bounded_drift``        -- no jitter, finite drift ratio; optimal.
* ``code_jitter``               -- jitter only, no drift; optimal.
* ``code_jitter_unbounded_drift`` -- jitter plus unbounded drift, two pulses;
                                  optimal.
* ``code_jitter_bounded_drift`` -- jitter plus finite drift, two pulses;
                                  zero-error but not necessarily optimal.

The chained constructions share one greedy recurrence: starting from 1, each
multiplier is the smallest integer exceeding the previous one by strictly more
than a given step ratio, i.e. floor(step * d) + 1.  Every input x is gcd(x)
times its primitive vector, so a chain code over every primitive vector keeps
x iff gcd(x) is on the chain: one pass over the inputs, in lexicographic
order.  Over a few bases, the code is the union of their chains.  Every
builder takes its ratios through ChannelSpec.  All arithmetic is exact.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .core import (
    INFINITY,
    ChannelSpec,
    Codebook,
    DriftRatio,
    EmptyDomainError,
    RatioLike,
    Runs,
    UnsupportedRegimeError,
    _run_vectors,
    as_ratio,
    enumerate_inputs,
    gcd_of,
    rate_bits,
)

__all__ = [
    "geometric_multipliers",
    "multiples_chain",
    "code_gcd",
    "code_bounded_drift",
    "code_jitter",
    "ratio_set",
    "code_jitter_unbounded_drift",
    "code_jitter_bounded_drift",
    "best_achievable_rate",
    "perfect_sync_code",
    "naive_rate",
    "construct",
    "AUTO_REGIME",
]

_K1_DRIFT_REASON = (
    "k=1 cannot signal under unbounded clock drift: a single run can be "
    "stretched onto any other, so all inputs collide"
)
_K2_ONLY_REASON = (
    "the jitter-with-drift constructions are defined for exactly two pulses; "
    "use the brute-force oracle for other k"
)


def _as_step(value) -> DriftRatio:
    if isinstance(value, float) and value == INFINITY:
        return INFINITY
    step = as_ratio(value)
    if step < 1:
        raise ValueError(f"step ratio must be >= 1, got {step}")
    return step


def geometric_multipliers(step, limit: int) -> list[int]:
    """Integers 1 = d_1 < d_2 < ... <= limit with each ratio d_i/d_{i-1} > step.

    Greedy and maximal: d_i = floor(step * d_{i-1}) + 1, the smallest integer
    strictly beyond the gap (when step * d is itself an integer, the next
    multiplier is step * d + 1).  An infinite step yields just [1].
    """
    step = _as_step(step)
    if limit < 1:
        return []
    if step == INFINITY:
        return [1]
    num, den = step.numerator, step.denominator
    out = [1]
    while (nxt := num * out[-1] // den + 1) <= limit:
        out.append(nxt)
    return out


def multiples_chain(runs: Sequence[int], gamma, m: int) -> list[Runs]:
    """Scaled copies d * runs that remain pairwise distinguishable under drift.

    Requires gcd(runs) = 1 and sum(runs) <= m.  Consecutive multipliers differ
    by a factor strictly greater than gamma, so no two copies can be mapped
    onto each other by admissible drift factors.
    """
    runs = tuple(runs)
    if gcd_of(runs) != 1:
        raise ValueError(f"chain base must have gcd 1, got {runs}")
    total = sum(runs)
    if total > m:
        raise ValueError(f"base {runs} does not fit in frame of {m}")
    return [tuple(d * r for r in runs) for d in geometric_multipliers(gamma, m // total)]


def _by_gcd(k: int, m: int, step) -> tuple[Runs, ...]:
    """Inputs, in order, whose gcd is on the chain of step."""
    if k == 1 and step == INFINITY:
        raise UnsupportedRegimeError(_K1_DRIFT_REASON)
    chain = set(geometric_multipliers(step, m))
    return tuple(x for x in enumerate_inputs(k, m) if math.gcd(*x) in chain)


def code_gcd(k: int, m: int) -> Codebook:
    """All inputs whose runs have gcd 1; optimal for unbounded drift, no jitter.

    Distinct codewords have distinct run-ratio vectors, which survive any
    drift factor.  Built by exhaustive filtering of the full input set.
    """
    return Codebook(k, m, ChannelSpec(1, INFINITY), "gcd", _by_gcd(k, m, INFINITY))


def code_bounded_drift(k: int, m: int, gamma) -> Codebook:
    """Union of drift chains over the gcd-1 inputs; optimal for ratio gamma.

    The chain of base p uses geometric_multipliers(gamma, m // sum(p)), and the
    recurrence never looks at its limit, so that is a prefix of one list up to
    m: x is a codeword iff gcd(x) is on it.  With gamma = 1 every multiple
    qualifies and the code is the full input set (perfect synchronization).
    """
    spec = ChannelSpec(1, gamma)
    return Codebook(k, m, spec, "bounded-drift", _by_gcd(k, m, spec.gamma))


def code_jitter(k: int, m: int, xi) -> Codebook:
    """All inputs whose every run comes from the jitter chain; optimal for no drift.

    The jitter chain is geometric_multipliers(xi, m): run values whose
    consecutive ratios exceed xi.  Jitter perturbs runs independently, so two
    codewords are distinguishable as soon as one coordinate differs -- and
    chain values differ by more than the jitter can bridge.
    """
    spec = ChannelSpec(xi, 1)
    words = _run_vectors(k, m, geometric_multipliers(spec.xi, m))
    return Codebook(k, m, spec, "jitter", tuple(words))


def _coprime_pairs(m: int):
    """Coprime pairs (x1, x2) with x1 + x2 <= m, by increasing ratio x2/x1.

    x2/x1 -> x2/(x1 + x2) is increasing and onto the interior of the Farey
    sequence of order m, so walking that sequence visits the ratios in order.
    """
    if m < 2:
        raise EmptyDomainError(f"no two-pulse inputs in {m} bins")
    a, b, c, d = 0, 1, 1, m
    while c < d:
        yield d - c, c
        q = (m + b) // d
        a, b, c, d = c, d, q * c - a, q * d - b


def ratio_set(m: int) -> list[Fraction]:
    """Sorted ratios x2/x1 over the two-pulse gcd-1 code; one per codeword.

    Coprime pairs map one-to-one onto lowest-terms fractions, so the set is
    in bijection with code_gcd(2, m).
    """
    return [Fraction(x2, x1) for x1, x2 in _coprime_pairs(m)]


def code_jitter_unbounded_drift(m: int, xi) -> Codebook:
    """Greedy ratio ascent; optimal for two pulses under jitter and unbounded drift.

    Only the run ratio survives unbounded drift, and jitter can move an
    observed ratio by a factor of xi in each direction, so codeword ratios
    must be separated by strictly more than xi^2.  Starting from the smallest
    ratio 1/(m-1), repeatedly pick the smallest admissible ratio; each chosen
    fraction's lowest-terms form is the codeword (denominator, numerator).
    """
    spec = ChannelSpec(xi, INFINITY)
    p, q = spec.xi.numerator**2, spec.xi.denominator**2
    words = []
    y1, y2 = 1, 0  # the last pick; ratio 0 admits the first pair
    for x1, x2 in _coprime_pairs(m):
        if q * x2 * y1 > p * y2 * x1:  # x2/x1 > xi^2 * y2/y1
            words.append((x1, x2))
            y1, y2 = x1, x2
    return Codebook.build(2, m, spec, "jitter-unbounded-drift", words)


def code_jitter_bounded_drift(m: int, xi, gamma) -> Codebook:
    """Drift chains with step gamma*xi over the unbounded-drift code (two pulses).

    The sorted union of multiples_chain(base, gamma*xi, m) over the bases,
    the codewords of the unbounded-drift code.  Zero-error for jitter xi and
    drift gamma, though not necessarily optimal: a single observed run can
    move by a factor of gamma*xi, so multiples of a base codeword must be
    separated by more than that.
    """
    spec = ChannelSpec(xi, gamma)
    step = spec.gamma * spec.xi  # a float inf when gamma is: bases only
    bases = code_jitter_unbounded_drift(m, spec.xi).codewords
    words = (w for base in bases for w in multiples_chain(base, step, m))
    return Codebook.build(2, m, spec, "jitter-bounded-drift", words)


def best_achievable_rate(m: int, xi, gamma, xi_grid: Sequence[RatioLike]) -> float:
    """Best rate over codes built for jitter >= xi; all remain zero-error at xi.

    The chained construction is not monotone in xi, so sweeping a grid of
    larger jitter parameters and keeping the largest codebook tightens the
    achievable rate.
    """
    xi = as_ratio(xi)
    grid = [as_ratio(value) for value in xi_grid]
    if not grid:
        raise ValueError("empty xi grid")
    below = [g for g in grid if g < xi]
    if below:
        raise ValueError(f"grid values below xi={xi}: {below}")
    return max(rate_bits(code_jitter_bounded_drift(m, g, gamma)) for g in grid)


def perfect_sync_code(k: int, m: int) -> Codebook:
    """Every input vector; the rate ceiling log2 C(m, k) with a shared clock."""
    return Codebook(
        k, m, ChannelSpec(1, 1), "perfect-sync", tuple(enumerate_inputs(k, m))
    )


def naive_rate(k: int, m: int) -> float:
    """Rate of spending the first pulse on clock recovery: log2 C(m-1, k-1).

    After the reference pulse fixes the clock, the remaining k-1 pulses are
    placed freely in the remaining m-1 bins.
    """
    if k < 1 or m < k:
        raise ValueError(f"need 1 <= k <= m, got k={k} m={m}")
    return math.log2(math.comb(m - 1, k - 1))


AUTO_REGIME = "auto"


def construct(k: int, m: int, xi, gamma, regime: str = AUTO_REGIME) -> Codebook:
    """Build a codebook, picking the construction that matches (xi, gamma).

    Auto selection: no jitter -> gcd code (unbounded drift) or drift chains
    (finite drift), except that one pulse with neither jitter nor drift gets
    the perfect-sync code; no drift -> jitter chain code; otherwise the
    two-pulse jitter constructions.
    """
    spec = ChannelSpec(xi, gamma)
    xi, gamma = spec.xi, spec.gamma
    if regime == AUTO_REGIME:
        if xi == 1 and gamma == 1 and k == 1:
            regime = "perfect-sync"
        elif xi == 1:
            regime = "gcd" if spec.unbounded_drift else "bounded-drift"
        elif gamma == 1:
            regime = "jitter"
        elif spec.unbounded_drift:
            regime = "jitter-unbounded-drift"
        else:
            regime = "jitter-bounded-drift"
    if regime == "gcd":
        return code_gcd(k, m)
    if regime == "bounded-drift":
        if gamma == INFINITY:
            raise UnsupportedRegimeError("drift chains need a finite gamma")
        return code_bounded_drift(k, m, gamma)
    if regime == "jitter":
        return code_jitter(k, m, xi)
    if regime == "jitter-unbounded-drift":
        if k != 2:
            raise UnsupportedRegimeError(_K2_ONLY_REASON)
        return code_jitter_unbounded_drift(m, xi)
    if regime == "jitter-bounded-drift":
        if k != 2:
            raise UnsupportedRegimeError(_K2_ONLY_REASON)
        if gamma == INFINITY:
            raise UnsupportedRegimeError("drift chains need a finite gamma")
        return code_jitter_bounded_drift(m, xi, gamma)
    if regime == "perfect-sync":
        return perfect_sync_code(k, m)
    raise ValueError(f"unknown regime {regime!r}")
