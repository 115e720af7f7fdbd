"""Exact-arithmetic domain types for run-length codes over imperfect clocks.

A transmit signal with k pulses in a frame of M clock bins is represented
differentially by its *runs*: k positive integers, the bin counts between
consecutive pulses, summing to at most M.  The channel scales all runs by an
unknown drift factor T (constant over a frame, T in [1, gamma]) and each run
independently by a jitter factor Z_i in [1, xi].  Only the ratios gamma and xi
matter, so both are stored as exact rationals; gamma may be infinite.

Everything here is immutable and exact: no floating point enters code
construction or pairwise checks.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence, Union

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
    "gcd_of",
    "ratio_vector",
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

#: Most input vectors enumerate_inputs builds.  The M=1024 builds need
#: C(1024, 2) = 523 776; C(100000, 2) would take minutes and gigabytes.
MAX_INPUTS = 2_000_000

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
    return " ".join(str(r) for r in runs)


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
        object.__setattr__(self, "codewords", tuple(tuple(cw) for cw in self.codewords))
        previous = None
        for cw in self.codewords:
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


def enumerate_inputs(k: int, m: int) -> list[Runs]:
    """All vectors of k positive runs summing to <= m, lexicographically sorted.

    There are exactly C(m, k) of them: a run vector is equivalent to a choice
    of k pulse positions among m bins, and position order maps to run order.
    Raises ValueError past MAX_INPUTS, counted before anything is built.
    """
    # C(m, i) for i up to min(k, m - k), stopping past the limit: the full
    # C(m, k) of a huge frame would take longer to compute than to refuse
    last, count = min(k, m - k), 1
    for i in range(1, last + 1):
        count = count * (m - i + 1) // i
        if count > MAX_INPUTS:
            raise ValueError(
                f"k={k}, M={m} has C(M, k) {'=' if i == last else '>='} {count} "
                f"inputs, more than the {MAX_INPUTS} that can be enumerated"
            )
    return _run_vectors(k, m, range(1, m + 1))


def _run_vectors(k: int, m: int, alphabet: Sequence[int]) -> list[Runs]:
    """Vectors of k runs from a sorted alphabet holding 1, summing to <= m,
    in lexicographic order."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if m < k:
        raise EmptyDomainError(f"no inputs with {k} pulses in {m} bins")
    # extend every prefix, in order, by each run that leaves a bin for each
    # run still to come; each prefix carries the bins it has left
    prefixes = [((), m)]
    for later in range(k - 1, 0, -1):
        prefixes = [
            (prefix + (r,), left - r)
            for prefix, left in prefixes
            for r in alphabet[: bisect_right(alphabet, left - later)]
        ]
    return [
        prefix + (r,)
        for prefix, left in prefixes
        for r in alphabet[: bisect_right(alphabet, left)]
    ]


def gcd_of(runs: Sequence[int]) -> int:
    """Largest integer dividing every run."""
    if not runs:
        raise ValueError("empty run vector")
    return math.gcd(*runs)


def ratio_vector(runs: Sequence[int]) -> tuple[Fraction, ...]:
    """Runs divided by the first run: (x_2/x_1, ..., x_k/x_1), each in lowest terms.

    Invariant under integer scaling of the whole vector, hence under clock
    drift; undefined for a single run.
    """
    if len(runs) < 2:
        raise ValueError("ratio vector needs at least two runs")
    first = runs[0]
    return tuple(Fraction(r, first) for r in runs[1:])


def rate_bits(codebook: Codebook) -> float:
    """Code rate in bits per frame: log2 of the codebook size."""
    n = len(codebook.codewords)
    if n == 0:
        raise ValueError("empty codebook has no rate")
    return math.log2(n)
