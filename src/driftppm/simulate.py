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
    how the trials were decoded: "int64" (batched) or "scalar" (one trial
    at a time).  In endpoint mode ``corner_failures[i]`` counts the
    failures under corner i.
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

    def record_failure(self, codeword, detail):
        self.failures += 1
        self.add_example(codeword, detail)

    def add_example(self, codeword, detail):
        if len(self.examples) < self._MAX_EXAMPLES:
            self.examples.append((codeword, detail))


# Trials decoded per batch in endpoint mode, which bounds the batch's memory.
_ROWS = 1 << 10


def _check_trials(trials):
    if trials < 0:
        raise ValueError(f"trials must be non-negative, got {trials}")


def _trial_runner(codebook, spec):
    """(spec, decoder, check): check(word, (d, c)) decodes the observation
    c*word/d and returns one failure detail per decoder that missed."""
    if not codebook.codewords:
        raise ValueError("codebook has no codewords to transmit")
    spec = codebook.spec if spec is None else spec
    structured = REGIMES[codebook.regime] is not None
    decoder = get_decoder(codebook)
    spec_ints = spec.ints

    def check(codeword, realization):
        d, coeffs = realization
        a = [x * c for x, c in zip(codeword, coeffs)]
        details = []
        matches = decoder.consistent_ints(a, a, d, *spec_ints)
        if matches != [codeword]:
            details.append(f"general decode gave {matches}")
        if structured:
            try:
                fast = decoder.fast_ints(a, a, d, *spec_ints)
            except AmbiguityError:
                fast = None
            if fast != [codeword]:
                details.append(f"structured decode gave {fast}")
        return details

    return spec, decoder, check


def run_endpoint_roundtrips(
    codebook: Codebook,
    spec: Optional[ChannelSpec] = None,
    t_cap=None,
    trials: Optional[int] = None,
) -> TrialReport:
    """Transmit codewords through corner realizations and decode them back.

    With trials=None every (codeword, corner) pair is exercised once;
    otherwise trial t uses codeword t mod |C| and advances the corner after
    each full pass over the codebook.  Trials are decoded in int64 batches
    (Decoder.decode_points) when every product fits, else one at a time.
    """
    if trials is not None:
        _check_trials(trials)
    spec, decoder, check = _trial_runner(codebook, spec)
    corners = endpoint_ints(spec, codebook.k, DEFAULT_T_CAP if t_cap is None else t_cap)
    words = codebook.codewords
    n, n_corners = len(words), len(corners)
    total = n * n_corners if trials is None else trials
    report = TrialReport(trials=total, corner_failures=[0] * n_corners)

    def run(t):
        # trial t sends word t mod n through corner (t div n) mod n_corners
        word, corner = words[t % n], t // n % n_corners
        return word, corner, check(word, corners[corner])

    scale = max(max(c) for _, c in corners)
    if decoder.points_fit_int64(scale, corners[0][0], *spec.ints):
        report.kernel = "int64"
        report.corner_failures, failed = _endpoint_batches(decoder, corners, total, spec)
        report.failures = sum(report.corner_failures)
        # the first failed trials are decoded again one at a time for the
        # examples' wording
        for t in failed:
            word, _, details = run(t)
            for detail in details:
                report.add_example(word, detail)
    else:
        for t in range(total):
            word, corner, details = run(t)
            report.failures += len(details)
            report.corner_failures[corner] += len(details)
            for detail in details:
                report.add_example(word, detail)
    return report


def _endpoint_batches(decoder, corners, total, spec):
    """Decode endpoint trials 0..total-1 in batches.  Returns the failures
    per corner and the first failed trials, enough for a report's examples."""
    n, n_corners = len(decoder.words), len(corners)
    word_runs = np.array(decoder.words, dtype=np.int64)
    factors = np.array([c for _, c in corners], dtype=np.int64)
    d = corners[0][0]
    corner_failures = np.zeros(n_corners)
    failed = []
    for first in range(0, total, _ROWS):
        t = np.arange(first, min(first + _ROWS, total))
        word, corner = t % n, t // n % n_corners
        general, structured = decoder.decode_points(
            word_runs[word] * factors[corner], d, *spec.ints
        )
        missed = (general != word).astype(np.int64)
        if structured is not None:
            missed += structured != word
        corner_failures += np.bincount(corner, weights=missed, minlength=n_corners)
        if len(failed) < TrialReport._MAX_EXAMPLES:
            failed += t[missed > 0][: TrialReport._MAX_EXAMPLES].tolist()
    return [int(f) for f in corner_failures], failed


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
    spec, _, check = _trial_runner(codebook, spec)
    draw = uniform_sampler(spec, codebook.k, t_cap)
    words = codebook.codewords
    n = len(words)
    report = TrialReport(trials=trials)
    for t in range(trials):
        rng = random.Random(derive_trial_seed(seed, t))
        word = words[rng.randrange(n)]
        for detail in check(word, draw(rng)):
            report.record_failure(word, detail)
    return report
