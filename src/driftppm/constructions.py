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
order.  Over a few bases, the code is the union of their chains.  The
two-pulse bases are a greedy ratio ascent, one Stern-Brocot successor search
per word, so they cost O(words * log M) at any frame size.  Every builder
takes its ratios through ChannelSpec and refuses a code too large to list
through core's one size guard.  All arithmetic is exact.

count_code gives the size construct would build, with the same refusals,
without listing a word: a chain code over the primitive vectors sums their
counts over the chain, and every other code is counted by its builder's own
steps before they list anything.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction
from itertools import compress, starmap
from typing import Iterator

from .core import (
    INFINITY,
    REGIMES,
    ChannelSpec,
    Codebook,
    EmptyDomainError,
    Runs,
    UnsupportedRegimeError,
    _as_drift_ratio,
    _check_size,
    _count_inputs,
    _run_levels,
    _run_vectors,
    enumerate_inputs,
)

__all__ = [
    "geometric_multipliers",
    "code_gcd",
    "code_bounded_drift",
    "code_jitter",
    "ratio_set",
    "code_jitter_unbounded_drift",
    "code_jitter_bounded_drift",
    "perfect_sync_code",
    "naive_rate",
    "construct",
    "count_code",
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


def geometric_multipliers(step, limit: int) -> list[int]:
    """Integers 1 = d_1 < d_2 < ... <= limit with each ratio d_i/d_{i-1} > step.

    Greedy and maximal: d_i = floor(step * d_{i-1}) + 1, the smallest integer
    strictly beyond the gap (when step * d is itself an integer, the next
    multiplier is step * d + 1).  An infinite step (math.inf or "inf") yields
    just [1].
    """
    return list(_multipliers(_as_drift_ratio(step, "step ratio"), limit))


def _multipliers(step, limit: int, d: int = 1) -> Iterator[int]:
    """geometric_multipliers of a parsed step, one at a time, from the
    chain value d on."""
    if limit < d:
        return
    yield d
    if step == INFINITY:
        return
    num, den = step.numerator, step.denominator
    while (d := num * d // den + 1) <= limit:
        yield d


def _jitter_chain(xi: Fraction, m: int) -> tuple[range, Iterator[int]]:
    """The run values of code_jitter, ascending.  For xi = num/den the chain
    steps by 1 while (num - den)*d < den, so it holds every integer up to
    D = ceil(den/(num - den)), and every one up to m at xi = 1: those are a
    range, and _multipliers draws the rest one at a time."""
    num, den = xi.as_integer_ratio()
    top = max(1, m if num == den else min(-(-den // (num - den)), m))
    return range(1, top), _multipliers(xi, m, top)


def _by_gcd(k: int, m: int, step) -> tuple[Runs, ...]:
    """Inputs, in order, whose gcd is on the chain of step."""
    if k == 1 and step == INFINITY:
        raise UnsupportedRegimeError(_K1_DRIFT_REASON)
    inputs = enumerate_inputs(k, m)  # refuses an oversized frame first
    chain = set(geometric_multipliers(step, m))
    return tuple(compress(inputs, map(chain.__contains__, starmap(math.gcd, inputs))))


def _count_by_gcd(k: int, m: int, step) -> int:
    """len(_by_gcd(k, m, step)), with its refusals: the inputs with gcd c are
    c times the primitive vectors summing to <= m // c."""
    if k == 1 and step == INFINITY:
        raise UnsupportedRegimeError(_K1_DRIFT_REASON)
    _count_inputs(k, m)
    primitive = _primitive_counts(k, m)
    return sum(primitive[m // c] for c in _multipliers(step, m))


def _primitive_counts(k: int, n: int) -> dict[int, int]:
    """P_k(q), the vectors of k positive runs with gcd 1 summing to <= q, for
    every quotient q = n // d.

    Every input is its gcd d times a primitive vector, so C(q, k) is the sum
    over d >= 1 of P_k(q // d).  Each q // d is again a quotient of n, and
    smaller than q when d >= 2, so one ascending pass fills the table; the d
    that share a quotient are taken together, O(n^(3/4)) integer steps.
    """
    quotients, d = [], 1
    while d <= n:
        quotients.append(n // d)
        d = n // quotients[-1] + 1
    table = {}
    for q in reversed(quotients):
        count, d = math.comb(q, k), 2
        while d <= q:
            r = q // d
            last = q // r
            count -= (last - d + 1) * table[r]
            d = last + 1
        table[q] = count
    return table


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
    words = _run_vectors(k, m, *_jitter_chain(spec.xi, m))
    return Codebook(k, m, spec, "jitter", tuple(words))


def _next_pair(a: int, b: int, m: int) -> tuple[int, int] | None:
    """The pair (x1, x2) with the least ratio x2/x1 > a/b and x1 + x2 <= m.

    None when no pair fits.  A Stern-Brocot descent towards a/b keeps
    neighbours lo <= a/b < hi; every fraction strictly between them sums to at
    least their sums together, so once that passes m the answer is hi.  Each
    step moves one end as far as it can go, lo to the last mediant at or below
    a/b, hi to the last one above it that fits m: O(log m) steps, in integers.
    """
    lp, lq, hp, hq = 0, 1, 1, 0  # lo = lp/lq, hi = hp/hq
    below, above = a, b  # a*lq - b*lp and b*hp - a*hq, both kept >= 0
    while lp + lq + hp + hq <= m:
        if above <= below:  # the mediant is at or below a/b
            j = below // above
            lp, lq, below = lp + j * hp, lq + j * hq, below - j * above
        else:
            j = (m - hp - hq) // (lp + lq)
            if below:
                j = min(j, (above - 1) // below)
            hp, hq, above = hp + j * lp, hq + j * lq, above - j * below
    return (hq, hp) if hq else None


def ratio_set(m: int) -> list[Fraction]:
    """Sorted ratios x2/x1 over the two-pulse gcd-1 code; one per codeword.

    Coprime pairs map one-to-one onto lowest-terms fractions, so the set is
    in bijection with code_gcd(2, m).
    """
    return sorted(Fraction(x2, x1) for x1, x2 in code_gcd(2, m).codewords)


def code_jitter_unbounded_drift(m: int, xi) -> Codebook:
    """Greedy ratio ascent; optimal for two pulses under jitter and unbounded drift.

    Only the run ratio survives unbounded drift, and jitter can move an
    observed ratio by a factor of xi in each direction, so codeword ratios
    must be separated by strictly more than xi^2.  Starting from ratio 0,
    each pick is the pair with the smallest ratio above xi^2 times the last
    (_next_pair); its lowest-terms form is the codeword (denominator,
    numerator).  Refused once the code passes MAX_INPUTS words.
    """
    spec = ChannelSpec(xi, INFINITY)
    words = _ratio_ascent(m, spec.xi)
    return Codebook.build(2, m, spec, "jitter-unbounded-drift", words)


def _ratio_ascent(m: int, xi: Fraction) -> list[tuple[int, int]]:
    """The unbounded-drift code's words (x1, x2) in ascending ratio order."""
    if m < 2:
        raise EmptyDomainError(f"no two-pulse inputs in {m} bins")
    p, q = xi.numerator**2, xi.denominator**2
    if p == q:
        # at xi = 1 every coprime pair is a word, the m - 1 pairs (1, j) among
        # them: refuse before listing any
        _check_size(m - 1, 2, m, ">= {} codewords")
    words, a, b = [], 0, 1  # ratio 0 admits the first pair
    while pair := _next_pair(a, b, m):
        _check_size(len(words) + 1, 2, m, ">= {} codewords")
        words.append(pair)
        a, b = p * pair[1], q * pair[0]  # xi^2 * x2/x1
    return words


def code_jitter_bounded_drift(m: int, xi, gamma) -> Codebook:
    """Drift chains with step gamma*xi over the unbounded-drift code (two pulses).

    The sorted union of d * base, d on geometric_multipliers(gamma*xi,
    m // sum(base)), over the bases, the codewords of the unbounded-drift
    code.  Zero-error for jitter xi and drift gamma, though not necessarily
    optimal: a single observed run can move by a factor of gamma*xi, so
    multiples of a base codeword must be separated by more than that.  The
    chain never looks at its limit, so each base takes the prefix of one
    chain up to m // 2 that fits the frame, counted before any word is built.
    """
    spec = ChannelSpec(xi, gamma)
    bases, chain, sizes = _chain_prefixes(m, spec)
    words = ((c * x1, c * x2) for (x1, x2), n in zip(bases, sizes) for c in chain[:n])
    return Codebook.build(2, m, spec, "jitter-bounded-drift", words)


def _chain_prefixes(m: int, spec: ChannelSpec):
    """The bases of code_jitter_bounded_drift, its chain, and how many of the
    chain's values each base takes; refuses more than MAX_INPUTS words."""
    bases = _ratio_ascent(m, spec.xi)
    step = INFINITY if spec.unbounded_drift else spec.gamma * spec.xi
    chain = geometric_multipliers(step, m // 2)
    sizes = [bisect_right(chain, m // (x1 + x2)) for x1, x2 in bases]
    _check_size(sum(sizes), 2, m, "{} codewords")
    return bases, chain, sizes


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

#: every tag a construction builds: all but "custom", which is any other book
_CONSTRUCTED = tuple(r for r in REGIMES if r != "custom")


def construct(k: int, m: int, xi, gamma, regime: str = AUTO_REGIME) -> Codebook:
    """Build a codebook, picking the construction that matches (xi, gamma).

    Auto selection: no jitter -> gcd code (unbounded drift) or drift chains
    (finite drift), except that one pulse with neither jitter nor drift gets
    the perfect-sync code; no drift -> jitter chain code; otherwise the
    two-pulse jitter constructions.
    """
    spec = ChannelSpec(xi, gamma)
    regime = _resolve_regime(k, spec, regime)
    if regime == "gcd":
        return code_gcd(k, m)
    if regime == "bounded-drift":
        return code_bounded_drift(k, m, spec.gamma)
    if regime == "jitter":
        return code_jitter(k, m, spec.xi)
    if regime == "jitter-unbounded-drift":
        return code_jitter_unbounded_drift(m, spec.xi)
    if regime == "jitter-bounded-drift":
        return code_jitter_bounded_drift(m, spec.xi, spec.gamma)
    return perfect_sync_code(k, m)


def count_code(k: int, m: int, xi, gamma, regime: str = AUTO_REGIME) -> int:
    """len(construct(k, m, xi, gamma, regime)) in exact integers, listing no word.

    Refuses what construct refuses, with the same exception and message, the
    size guard included.  Chain codes over the primitive vectors (gcd,
    bounded-drift) sum the primitive counts over their chain; perfect-sync is
    C(m, k); jitter takes _run_vectors' last level count; the two-pulse
    jitter codes count their bases and chain prefixes.
    """
    spec = ChannelSpec(xi, gamma)
    regime = _resolve_regime(k, spec, regime)
    if regime == "gcd":
        return _count_by_gcd(k, m, INFINITY)
    if regime == "bounded-drift":
        return _count_by_gcd(k, m, spec.gamma)
    if regime == "jitter":
        return sum(_run_levels(k, m, *_jitter_chain(spec.xi, m))[1][-1])
    if regime == "jitter-unbounded-drift":
        return len(_ratio_ascent(m, spec.xi))
    if regime == "jitter-bounded-drift":
        return sum(_chain_prefixes(m, spec)[2])
    return _count_inputs(k, m)


def _resolve_regime(k: int, spec: ChannelSpec, regime: str) -> str:
    """The construction for a regime tag or AUTO_REGIME, refusing a pulse
    count or drift bound it is not defined for and an unknown tag."""
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
    if regime in ("jitter-unbounded-drift", "jitter-bounded-drift") and k != 2:
        raise UnsupportedRegimeError(_K2_ONLY_REASON)
    if regime in ("bounded-drift", "jitter-bounded-drift") and spec.unbounded_drift:
        raise UnsupportedRegimeError("drift chains need a finite gamma")
    if regime not in _CONSTRUCTED:
        raise ValueError(f"unknown regime {regime!r}")
    return regime
