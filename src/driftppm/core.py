"""Exact-arithmetic domain types for run-length codes over imperfect clocks.

A transmit signal with k pulses in a frame of M clock bins is represented
differentially by its *runs*: k positive integers, the bin counts between
consecutive pulses, summing to at most M.  The channel scales all runs by an
unknown drift factor T (constant over a frame, T in [1, gamma]) and each run
independently by a jitter factor Z_i in [1, xi].  Only the ratios gamma and xi
matter, so both are stored as exact rationals; gamma may be infinite.

Everything here is immutable and exact: no floating point enters code
construction or pairwise checks.  Every builder lists its inputs or words,
and refuses past MAX_INPUTS of them through the one size guard here; the
counts that guard reads are taken before any tuple is built, so a code can
be counted, with the same refusals, without being listed.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, islice
from typing import Iterable, Sequence, Union

import numpy as np

__all__ = [
    "INFINITY",
    "REGIMES",
    "Runs",
    "DriftRatio",
    "RatioLike",
    "EmptyDomainError",
    "UnsupportedRegimeError",
    "as_ratio",
    "parse_ratio",
    "parse_drift_ratio",
    "format_ratio",
    "ChannelSpec",
    "Codebook",
    "check_run_vector",
    "format_run_vector",
    "enumerate_inputs",
    "MAX_INPUTS",
    "rate_bits",
]

#: Unbounded clock drift.  Fractions compare exactly against this value.
INFINITY = math.inf

#: Construction tags a Codebook may carry, each mapped to the structured
#: decoder that serves it: "chain" (primitive groups, each a chain of
#: multiples), "alphabet" (every run decoded on its own), or None when only
#: the general decoder applies.
REGIMES = {
    "gcd": "chain",
    "bounded-drift": "chain",
    "jitter": "alphabet",
    "jitter-unbounded-drift": "chain",
    "jitter-bounded-drift": "chain",
    "perfect-sync": "alphabet",
    "custom": None,
}

#: Most inputs, runs per input or words any builder lists, read by the one
#: guard at each call.  The M=1024 builds need C(1024, 2) = 523 776;
#: C(100000, 2) would take minutes and gigabytes.
MAX_INPUTS = 2_000_000

# Integers below this fit an int64 with room to spare: the run values of
# _run_vectors, and the products of the pair kernel and the decoders, which
# past it run on Python ints.
_INT64_GUARD = 1 << 62

Runs = tuple[int, ...]
DriftRatio = Union[Fraction, float]
RatioLike = Union[Fraction, int, str]


class EmptyDomainError(ValueError):
    """The requested parameter combination admits no input vectors."""


class UnsupportedRegimeError(ValueError):
    """The requested construction is undefined for these parameters."""


def as_ratio(value: RatioLike) -> Fraction:
    """Coerce an int, Fraction, or exact string ("7/4", "1.03") to a Fraction.

    Floats are rejected: a float literal like 1.03 is a binary approximation,
    and silently treating it as exact would corrupt every strict comparison
    downstream.  Pass a string instead.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("ratio must be a Fraction, int, or string")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_ratio(value)
    raise TypeError(
        f"ratio must be a Fraction, int, or string, not {type(value).__name__}; "
        "floats are inexact, pass '1.03' instead of 1.03"
    )


def parse_ratio(text: str) -> Fraction:
    """Parse "p/q", a decimal string like "1.03" (-> 103/100), or an integer."""
    try:
        value = Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not an exact ratio: {text!r}") from exc
    return value


def parse_drift_ratio(text: str) -> DriftRatio:
    """Like parse_ratio, plus the spelling "inf" for unbounded drift."""
    if text.strip() == "inf":
        return INFINITY
    return parse_ratio(text)


def format_ratio(value: DriftRatio) -> str:
    """Canonical text form: "p/q", "p" when integral, "inf" when unbounded."""
    if value == INFINITY:
        return "inf"
    return str(value)


def _as_drift_ratio(value, name: str) -> DriftRatio:
    """An exact ratio >= 1, or INFINITY (math.inf or the string "inf")."""
    if isinstance(value, float):
        if value == INFINITY:
            return INFINITY
        raise TypeError(f"{name} must be exact (Fraction/int/str) or math.inf")
    if isinstance(value, str) and value.strip() == "inf":
        return INFINITY
    ratio = as_ratio(value)
    if ratio < 1:
        raise ValueError(f"{name} must be >= 1, got {ratio}")
    return ratio


@dataclass(frozen=True)
class ChannelSpec:
    """Channel parameters: jitter ratio xi >= 1 and drift ratio gamma >= 1.

    Absolute bounds are normalized away: T ranges over [1, gamma] (or [1, inf)
    when gamma is infinite) and each Z_i over [1, xi].  This loses nothing
    because indistinguishability depends only on the ratios.
    """

    xi: Fraction
    gamma: DriftRatio

    def __post_init__(self):
        object.__setattr__(self, "xi", as_ratio(self.xi))
        if self.xi < 1:
            raise ValueError(f"xi must be >= 1, got {self.xi}")
        object.__setattr__(self, "gamma", _as_drift_ratio(self.gamma, "gamma"))

    @property
    def unbounded_drift(self) -> bool:
        return self.ints[3] == 0

    @cached_property
    def ints(self) -> tuple[int, int, int, int]:
        """(p, q, g, h) with xi = p/q and gamma = g/h, h = 0 when unbounded.

        Integer drift tests read r/s <= gamma as r*h <= s*g and r/s >= 1/gamma
        as r*g >= s*h; with h = 0 both hold for every positive r/s.
        """
        g, h = (1, 0) if self.gamma == INFINITY else self.gamma.as_integer_ratio()
        return (*self.xi.as_integer_ratio(), g, h)

    def is_stricter_or_equal(self, other: "ChannelSpec") -> bool:
        """True if every realization admissible here is admissible under other."""
        p, q, g, h = self.ints
        p2, q2, g2, h2 = other.ints
        # xi <= xi' and gamma <= gamma'; h = 0 makes an infinite gamma the
        # largest with no branch
        return p * q2 <= p2 * q and g * h2 <= g2 * h

    def __str__(self) -> str:
        return f"xi={format_ratio(self.xi)} gamma={format_ratio(self.gamma)}"


def check_run_vector(runs: Sequence[int], m: int) -> Runs:
    """Validate runs against a frame of m bins and return them as a tuple."""
    runs = tuple(runs)
    if not runs:
        raise ValueError("a run vector needs at least one run")
    for r in runs:
        if not isinstance(r, int) or isinstance(r, bool):
            raise TypeError(f"runs must be ints, got {r!r}")
        if r < 1:
            raise ValueError(f"runs must be positive, got {r}")
    if sum(runs) > m:
        raise ValueError(f"runs {runs} sum to {sum(runs)} > frame size {m}")
    return runs


def format_run_vector(runs: Sequence[int]) -> str:
    return " ".join(map(str, runs))


@dataclass(frozen=True)
class Codebook:
    """An ordered set of codewords sharing pulse count k and frame size m.

    Codewords are stored in strictly increasing lexicographic order, which
    both rules out duplicates and makes files and diffs deterministic.
    """

    k: int
    m: int
    spec: ChannelSpec
    regime: str
    codewords: tuple[Runs, ...]

    def __post_init__(self):
        if self.regime not in REGIMES:
            raise ValueError(f"unknown regime {self.regime!r}")
        if self.k < 1 or self.m < self.k:
            raise ValueError(f"need 1 <= k <= m, got k={self.k} m={self.m}")
        words = tuple(map(tuple, self.codewords))
        object.__setattr__(self, "codewords", words)
        # one pass at C level over valid books; plain ints only (type, not
        # isinstance, so bools and int subclasses take the loop below), and
        # chained iterators, not a list of every run
        runs = chain.from_iterable
        if (
            set(map(len, words)) <= {self.k}
            and set(map(type, runs(words))) <= {int}
            and min(runs(words), default=1) >= 1
            and max(map(sum, words), default=0) <= self.m
            and all(map(operator.lt, words, islice(words, 1, None)))
        ):
            return
        # the per-word checks, which word the error
        previous = None
        for cw in words:
            if len(cw) != self.k:
                raise ValueError(f"codeword {cw} does not have k={self.k} runs")
            check_run_vector(cw, self.m)
            if previous is not None and cw <= previous:
                raise ValueError(
                    f"codewords must be strictly increasing, saw {previous} then {cw}"
                )
            previous = cw

    @classmethod
    def build(cls, k, m, spec, regime, codewords: Iterable[Sequence[int]]) -> "Codebook":
        """Construct from codewords in any order; sorts and deduplicates."""
        return cls(k, m, spec, regime, tuple(sorted(set(map(tuple, codewords)))))

    def __len__(self) -> int:
        return len(self.codewords)

    def __contains__(self, runs) -> bool:
        runs = tuple(runs)
        i = bisect_left(self.codewords, runs)
        return i < len(self.codewords) and self.codewords[i] == runs


def _check_size(count: int, k: int, m: int, what: str, *fields) -> None:
    """The one size guard: refuse a count past MAX_INPUTS, read at each call.
    what, formatted with count and fields, says what was counted; the text
    is built only on refusal, as some builders check once per word."""
    if count > MAX_INPUTS:
        raise ValueError(
            f"k={k}, M={m} has {what.format(count, *fields)}, more than the "
            f"{MAX_INPUTS} that can be enumerated"
        )


def enumerate_inputs(k: int, m: int) -> list[Runs]:
    """All vectors of k positive runs summing to <= m, lexicographically sorted.

    There are exactly C(m, k) of them: a run vector is equivalent to a choice
    of k pulse positions among m bins, and position order maps to run order.
    Raises ValueError past MAX_INPUTS, counted before anything is built.
    """
    _count_inputs(k, m)
    return _run_vectors(k, m, range(1, m + 1))


def _count_inputs(k: int, m: int) -> int:
    """C(m, k), the size of enumerate_inputs(k, m), with the same refusals.

    _run_vectors over every run value refuses nothing once C(m, k) passes:
    no level outnumbers the vectors, and more than MAX_INPUTS values up to
    m - k + 1 would make C(m, 1) = m pass the limit first.
    """
    # C(m, i) for i up to min(k, m - k), stopping past the limit: the full
    # C(m, k) of a huge frame would take longer to compute than to refuse
    last, count = min(k, m - k), 1
    for i in range(1, last + 1):
        count = count * (m - i + 1) // i
        _check_size(count, k, m, "C(M, k) {1} {0} inputs", "=" if i == last else ">=")
    _check_domain(k, m)
    return count


def _check_domain(k: int, m: int) -> None:
    """Refuse k < 1, m < k (no inputs) and more than MAX_INPUTS runs per input."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if m < k:
        raise EmptyDomainError(f"no inputs with {k} pulses in {m} bins")
    _check_size(k, k, m, "{} runs per input")


def _run_vectors(k: int, m: int, head: range, tail: Iterable[int] = ()) -> list[Runs]:
    """Vectors of k runs from ascending run values up to m, the integers of
    head and then those tail draws, holding 1, summing to <= m, in
    lexicographic order, with the refusals of _run_levels."""
    # the array stays alive through the build: freed before it, it raised
    # the oracle benchmark's peak RSS by about 0.07 MB
    values, levels = _run_levels(k, m, head, tail)
    drawn = values.tolist()
    vectors = [()]
    for ends in levels:
        vectors = [v + (r,) for v, end in zip(vectors, ends) for r in drawn[:end]]
    return vectors


def _run_levels(
    k: int, m: int, head: range, tail: Iterable[int] = ()
) -> tuple[np.ndarray, list[list[int]]]:
    """The run values, as an array, and for each level of _run_vectors how
    many of them extend each prefix, so that sum(levels[-1]) vectors are
    listed.  Refuses what _check_domain refuses, then values up to
    m - k + 1 (after MAX_INPUTS + 1 are drawn) or vectors (each level is
    counted before any vector is built).  The run values are the integers
    of head, a range that is sliced, not drawn, so MAX_INPUTS + 1 values
    within it are refused before any is drawn, then the values tail draws."""
    _check_domain(k, m)
    head, rest = head[:MAX_INPUTS + 1], chain(head[MAX_INPUTS + 1:], tail)
    if len(head) <= MAX_INPUTS:
        head = [*head, *islice(rest, MAX_INPUTS + 1 - len(head))]
    if head[-1] <= m - k + 1:
        # the vectors (1, ..., 1, r) alone number as many as these values
        _check_size(len(head), k, m, ">= {} inputs")
    # any values left are past m - k + 1: fewer than k, and in no vector
    drawn = [*head, *rest]
    # each prefix extends, in order, by every run that leaves a bin for each
    # run still to come, and has a completion (all later runs 1), so no level
    # outnumbers the vectors; the counts need only the bins each prefix
    # leaves, so every level is counted from those before a tuple exists
    values = np.fromiter(drawn, np.int64 if m < _INT64_GUARD else object, len(drawn))
    left = np.array([m], dtype=values.dtype)
    levels = []
    for later in range(k - 1, -1, -1):
        ends = np.searchsorted(values, left - later, side="right")
        _check_size(
            int(ends.sum()), k, m, "{1} {0} inputs over {2} run values",
            ">=" if later else "=", len(drawn),
        )
        levels.append(ends.tolist())
        if later:
            # the bins each prefix of the next level leaves
            left = np.repeat(left, ends) - values[_block_offsets(ends)]
    return values, levels


def _block_offsets(sizes):
    """0, 1, ..., size - 1 for each of the sizes in turn, as one array."""
    return np.arange(int(np.sum(sizes))) - np.repeat(np.cumsum(sizes) - sizes, sizes)


def rate_bits(codebook: Codebook) -> float:
    """Code rate in bits per frame: log2 of the codebook size."""
    return _size_bits(len(codebook.codewords))


def _size_bits(size: int) -> float:
    """log2 of a code size, which must be positive."""
    if size == 0:
        raise ValueError("empty codebook has no rate")
    return math.log2(size)
