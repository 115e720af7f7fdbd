"""Round-trip trials: pick a codeword, run it through the channel, decode.

A trial fails when the general decoder errors or returns a different
codeword, or when the structured decoder (for every tag that has one in
core.REGIMES) disagrees with the general one.
For a zero-error codebook and in-spec realizations the failure count is
zero by definition; these drivers make that executable.

Endpoint mode walks all corner realizations (each of T and the Z_i at its
lower or upper bound) round-robin over the codewords; uniform mode samples
interior realizations reproducibly from a seed.  Its draws come from a
counter-based generator, so trial t's word and realization depend only on
(seed, t): a whole batch of trials is drawn in one array pass, and no split
of the trials into batches or runs changes them.

Both modes read their observations from channel.grid_ints, the corners on
its 0-bit grid, and decode them in batches through Decoder.decode_points, as
int64 arrays where every product fits and as arrays of Python ints
otherwise.  consistent_ints and fast_ints run again only on the first failed
trials, to word the report's examples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .core import REGIMES, ChannelSpec, Codebook
from . import channel
from .decode import AmbiguityError, get_decoder

__all__ = ["TrialReport", "DEFAULT_T_CAP", "run_endpoint_roundtrips", "run_uniform_roundtrips"]

#: Drift corner used for unbounded-drift codebooks unless a cap is given.
DEFAULT_T_CAP = Fraction(8)


@dataclass
class TrialReport:
    """Outcome of a round-trip run.

    ``failures`` counts a wrong general and a wrong structured decode of
    one trial separately; ``examples`` holds the first few.  ``kernel`` is
    the dtype the batched trials were decoded in: "int64", or "scalar"
    (Python ints, where an int64 product could overflow; uniform trials
    always).  In endpoint mode ``corner_failures[i]`` counts the failures
    under corner i, for each corner the trials reach: all 2^(k+1) with full
    coverage, the first min(2^(k+1), ceil(trials/|C|)) under an explicit
    trial count.  ``candidates`` counts the (trial, codeword) pairs the
    batched decoder sent to its exact tests.
    """

    trials: int = 0
    failures: int = 0
    examples: list = field(default_factory=list)
    kernel: str = "scalar"
    corner_failures: list = field(default_factory=list)
    candidates: int = 0

    _MAX_EXAMPLES = 10

    @property
    def ok(self) -> bool:
        return self.failures == 0

    def add_example(self, codeword, detail):
        if len(self.examples) < self._MAX_EXAMPLES:
            self.examples.append((codeword, detail))


# Trials decoded per batch, which bounds the batch's memory.
_ROWS = 1 << 10


def _check_trials(trials):
    if isinstance(trials, bool) or not isinstance(trials, int):
        raise TypeError(f"trials must be an int, got {trials!r}")
    if trials < 0:
        raise ValueError(f"trials must be non-negative, got {trials}")


def _trial_decoder(codebook, spec):
    """(spec, decoder) for round trips of codebook, by default under its own spec."""
    if not codebook.codewords:
        raise ValueError("codebook has no codewords to transmit")
    return (codebook.spec if spec is None else spec), get_decoder(codebook)


def _run_batches(decoder, spec, trials, d, scale, batches, n_corners=0):
    """Decode the trials that batches(dtype) yields, in trial order, as
    (word indices, factor rows, corners or None): trial r sends
    words[word[r]] and observes factors[r] * word / d, every factor at most
    scale.  The failures are counted per corner when corners are given;
    the first failed trials are decoded again one at a time by
    consistent_ints and fast_ints, which word the report's examples."""
    ints = spec.ints
    dtype = decoder.point_dtype(scale, d, *ints)
    report = TrialReport(trials, kernel="int64" if dtype is np.int64 else "scalar")
    runs = np.array(decoder.words, dtype=dtype)
    per_corner = np.zeros(n_corners, dtype=np.int64)
    failed = []  # (word, factor row) of the first failed trials
    for word, factors, corner in batches(dtype):
        general, structured, candidates = decoder.decode_points(runs[word] * factors, d, *ints)
        report.candidates += candidates
        missed = (general != word).astype(np.int64)
        if structured is not None:
            missed += structured != word
        report.failures += int(missed.sum())
        if corner is not None:
            np.add.at(per_corner, corner, missed)
        for r in np.flatnonzero(missed)[: TrialReport._MAX_EXAMPLES - len(failed)]:
            failed.append((decoder.words[word[r]], factors[r].tolist()))
    report.corner_failures = per_corner.tolist()
    structured = REGIMES[decoder.regime] is not None
    for x, c in failed:
        a = [xi * ci for xi, ci in zip(x, c)]
        matches = decoder.consistent_ints(a, a, d, *ints)
        if matches != [x]:
            report.add_example(x, f"general decode gave {matches}")
        if structured:
            try:
                fast = decoder.fast_ints(a, a, d, *ints)
            except AmbiguityError:
                fast = None
            if fast != [x]:
                report.add_example(x, f"structured decode gave {fast}")
    return report


def run_endpoint_roundtrips(
    codebook: Codebook,
    spec: Optional[ChannelSpec] = None,
    t_cap=None,
    trials: Optional[int] = None,
) -> TrialReport:
    """Transmit codewords through corner realizations and decode them back.

    With trials=None every (codeword, corner) pair is exercised once;
    otherwise trial t uses codeword t mod |C| and advances the corner after
    each full pass over the codebook.
    """
    if trials is not None:
        _check_trials(trials)
    spec, decoder = _trial_decoder(codebook, spec)
    d, top, factors = channel.grid_ints(spec, 0, DEFAULT_T_CAP if t_cap is None else t_cap)
    n, corners = len(decoder.words), 2 << codebook.k
    total = n * corners if trials is None else trials
    # only the corners the trials reach: every trial t < total has
    # (t div n) mod corners == (t div n) mod reached
    reached = min(corners, -(-total // n))

    def batches(dtype):
        table = factors(channel._corner_rows(codebook.k, reached)).astype(dtype)
        for first in range(0, total, _ROWS):
            # trial t sends word t mod n through corner (t div n) mod 2^(k+1)
            t = np.arange(first, min(first + _ROWS, total))
            corner = t // n % reached
            yield t % n, table[corner], corner

    return _run_batches(decoder, spec, total, d, top, batches, reached)


def run_uniform_roundtrips(
    codebook: Codebook,
    trials: int,
    seed: int,
    spec: Optional[ChannelSpec] = None,
    t_cap=None,
) -> TrialReport:
    """Seeded uniform trials: random codeword, random interior realization.

    With unbounded drift, T is drawn from [1, t_cap] and t_cap is required.
    The channel module's docstring gives the draws of trial t.
    """
    _check_trials(trials)
    spec, decoder = _trial_decoder(codebook, spec)
    d, top, factors = channel.grid_ints(spec, channel._GRID_BITS, t_cap)
    key, n, k = channel.run_key(seed), len(decoder.words), codebook.k

    def batches(dtype):
        for first in range(0, trials, _ROWS):
            word, rows = channel._uniform_trials(key, first, min(_ROWS, trials - first), k, n)
            yield word, factors(rows).astype(dtype, copy=False), None

    return _run_batches(decoder, spec, trials, d, top, batches)
