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

from .core import REGIMES, ChannelSpec, Codebook
from .channel import derive_trial_seed, endpoint_ints, uniform_sampler
from .decode import AmbiguityError, get_decoder, _spec_ints

__all__ = ["TrialReport", "DEFAULT_T_CAP", "run_endpoint_roundtrips", "run_uniform_roundtrips"]

#: Drift corner used for unbounded-drift codebooks unless a cap is given.
DEFAULT_T_CAP = Fraction(8)


@dataclass
class TrialReport:
    trials: int = 0
    failures: int = 0
    examples: list = field(default_factory=list)

    _MAX_EXAMPLES = 10

    @property
    def ok(self) -> bool:
        return self.failures == 0

    def record_failure(self, codeword, detail):
        self.failures += 1
        if len(self.examples) < self._MAX_EXAMPLES:
            self.examples.append((codeword, detail))


def _trial_runner(codebook, spec):
    """(spec, report, run): run(word, (d, c)) decodes the observation c*word/d."""
    if not codebook.codewords:
        raise ValueError("codebook has no codewords to transmit")
    spec = codebook.spec if spec is None else spec
    structured = REGIMES[codebook.regime] is not None
    decoder = get_decoder(codebook)
    spec_ints = _spec_ints(spec)
    report = TrialReport()

    def run(codeword, realization):
        d, coeffs = realization
        a = [x * c for x, c in zip(codeword, coeffs)]
        matches = decoder.consistent_ints(a, a, d, *spec_ints)
        if matches != [codeword]:
            report.record_failure(codeword, f"general decode gave {matches}")
        if structured:
            try:
                fast = decoder.fast_ints(a, a, d, *spec_ints)
            except AmbiguityError:
                fast = None
            if fast != [codeword]:
                report.record_failure(codeword, f"structured decode gave {fast}")
        report.trials += 1

    return spec, report, run


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
    spec, report, run = _trial_runner(codebook, spec)
    corners = endpoint_ints(spec, codebook.k, DEFAULT_T_CAP if t_cap is None else t_cap)
    words = codebook.codewords
    n = len(words)
    if trials is None:
        for corner in corners:
            for word in words:
                run(word, corner)
    else:
        for t in range(trials):
            run(words[t % n], corners[(t // n) % len(corners)])
    return report


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
    spec, report, run = _trial_runner(codebook, spec)
    draw = uniform_sampler(spec, codebook.k, t_cap)
    words = codebook.codewords
    n = len(words)
    for t in range(trials):
        rng = random.Random(derive_trial_seed(seed, t))
        word = words[rng.randrange(n)]
        run(word, draw(rng))
    return report
