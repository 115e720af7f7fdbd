"""Round-trip trials: pick a codeword, run it through the channel, decode.

A trial fails when the general decoder errors or returns a different
codeword, or when the structured decoder (for every tag that has one in
core.REGIMES) disagrees with the general one.
For a zero-error codebook and in-spec realizations the failure count is
zero by definition; these drivers make that executable.

Endpoint mode walks all corner realizations (each of T and the Z_i at its
lower or upper bound) round-robin over the codewords; uniform mode samples
interior realizations reproducibly from a seed, with each trial's generator
derived independently so runs parallelize without changing results.

Both modes decode their trials in batches through Decoder.decode_points, as
int64 arrays where every product fits and as arrays of Python ints
otherwise.  consistent_ints and fast_ints run again only on the first failed
trials, to word the report's examples.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .core import REGIMES, ChannelSpec, Codebook
from .channel import derive_trial_seed, endpoint_ints, uniform_sampler
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
    under corner i.
    """

    trials: int = 0
    failures: int = 0
    examples: list = field(default_factory=list)
    kernel: str = "scalar"
    corner_failures: list = field(default_factory=list)

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
        general, structured = decoder.decode_points(runs[word] * factors, d, *ints)
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
    corners = endpoint_ints(spec, codebook.k, DEFAULT_T_CAP if t_cap is None else t_cap)
    factors = [c for _, c in corners]
    n, n_corners = len(decoder.words), len(corners)
    total = n * n_corners if trials is None else trials

    def batches(dtype):
        table = np.array(factors, dtype=dtype)
        for first in range(0, total, _ROWS):
            # trial t sends word t mod n through corner (t div n) mod n_corners
            t = np.arange(first, min(first + _ROWS, total))
            corner = t // n % n_corners
            yield t % n, table[corner], corner

    scale = max(map(max, factors))
    return _run_batches(decoder, spec, total, corners[0][0], scale, batches, n_corners)


def run_uniform_roundtrips(
    codebook: Codebook,
    trials: int,
    seed: int,
    spec: Optional[ChannelSpec] = None,
    t_cap=None,
) -> TrialReport:
    """Seeded uniform trials: random codeword, random interior realization.

    With unbounded drift, T is drawn from [1, t_cap] and t_cap is required.
    """
    _check_trials(trials)
    spec, decoder = _trial_decoder(codebook, spec)
    d, scale, draw = uniform_sampler(spec, codebook.k, t_cap)
    n = len(decoder.words)

    def batches(dtype):
        for first in range(0, trials, _ROWS):
            word, factors = [], []
            for t in range(first, min(first + _ROWS, trials)):
                rng = random.Random(derive_trial_seed(seed, t))
                word.append(rng.randrange(n))
                factors.append(draw(rng))
            yield np.array(word), np.array(factors, dtype=dtype), None

    return _run_batches(decoder, spec, trials, d, scale, batches)
