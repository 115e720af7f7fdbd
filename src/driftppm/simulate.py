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

Corners whose factor rows are equal, as exact integers, are one realization:
without jitter only T's bit moves a corner, without drift only the Z bits,
and at xi = gamma T high with every Z low is T low with every Z high.
Endpoint mode decodes each (codeword, realization) pair that some trial
reaches once and counts its result once for every trial it stands for, so
its report is the one a decode per trial would give.  Uniform trials are
decoded one row each: their 2^-53 grid draws all but never coincide.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import REGIMES, ChannelSpec, Codebook, _block_offsets
from . import channel
from .channel import DEFAULT_T_CAP
from .decode import get_decoder

__all__ = ["TrialReport", "DEFAULT_T_CAP", "run_endpoint_roundtrips", "run_uniform_roundtrips"]


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


def _row_decoder(decoder, spec, d, scale):
    """(kernel, dtype, decode) of batched trials whose factors are at most
    scale.  decode(word, factors) decodes the rows in which words[word[r]]
    is observed as factors[r] * word / d, factors of dtype, and returns per
    row the count of wrong general and wrong structured decodes, and the
    words the decoders tested."""
    ints = spec.ints
    dtype = decoder.point_dtype(scale, d, *ints)
    runs = decoder._word_columns.T.astype(dtype)

    def decode(word, factors):
        general, structured, candidates = decoder.decode_points(runs[word] * factors, d, *ints)
        missed = (general != word).astype(np.int64)
        if structured is not None:
            missed += structured != word
        return missed, candidates

    return ("int64" if dtype is np.int64 else "scalar"), dtype, decode


def _add_examples(report, decoder, spec, d, failed):
    """Word the report's examples: the failed trials (word index, factor
    row), in trial order, decoded again one at a time by consistent_ints
    and fast_ints."""
    ints = spec.ints
    structured = REGIMES[decoder.regime] is not None
    for word, c in failed:
        x = decoder.words[word]
        a = [xi * ci for xi, ci in zip(x, c)]
        matches = decoder.consistent_ints(a, a, d, *ints)
        if matches != [x]:
            report.add_example(x, f"general decode gave {matches}")
        if structured:
            fast = decoder.fast_ints(a, a, d, *ints)
            if fast != [x]:
                report.add_example(x, f"structured decode gave {fast}")


def run_endpoint_roundtrips(
    codebook: Codebook,
    spec: Optional[ChannelSpec] = None,
    t_cap=None,
    trials: Optional[int] = None,
) -> TrialReport:
    """Transmit codewords through corner realizations and decode them back.

    With trials=None every (codeword, corner) pair is exercised once;
    otherwise trial t uses codeword t mod |C| and advances the corner after
    each full pass over the codebook.  Corners with one factor row are one
    realization: each (codeword, realization) pair a trial reaches is
    decoded once, and counts once for every trial it stands for.
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
    # trial t sends word t mod n through corner (t div n) mod reached: full
    # passes over the codebook, then one pass of the first rem words.  Corner
    # c takes cycles + (c < extra) full passes, and corner extra the last one
    full, rem = divmod(total, n)
    cycles, extra = divmod(full, reached) if reached else (0, 0)
    table = factors(channel._corner_rows(codebook.k, reached))
    # realization group[c] of corner c; first[g] is realization g's first corner
    ids, group, first = {}, [], []
    for c, row in enumerate(map(tuple, table.tolist())):
        if row not in ids:
            ids[row] = len(first)
            first.append(c)
        group.append(ids[row])
    first = np.array(first, dtype=np.intp)
    # a realization only the last pass reaches sends its first rem words
    sizes = np.where((first < extra) | (cycles > 0), n, rem)
    starts = np.cumsum(sizes) - sizes
    kernel, dtype, decode = _row_decoder(decoder, spec, d, top)
    report = TrialReport(total, kernel=kernel)
    # pair i sends word words[i] through realization real[i]; the pairs of
    # realization g are starts[g] .. starts[g] + sizes[g] - 1
    real, words = np.repeat(np.arange(len(first)), sizes), _block_offsets(sizes)
    rows = table[first].astype(dtype)
    missed = np.empty(len(words), dtype=np.int64)
    tested = np.empty(len(words), dtype=np.int64)
    for i in range(0, len(words), _ROWS):
        batch = slice(i, i + _ROWS)
        missed[batch], tested[batch] = decode(words[batch], rows[real[batch]])

    def tally(per_pair):
        # per corner, its trials' sum of per_pair
        whole = np.add.reduceat(per_pair, starts).tolist()
        out = [(cycles + (c < extra)) * whole[g] for c, g in enumerate(group)]
        if rem:
            g = group[extra]
            out[extra] += int(per_pair[starts[g]:starts[g] + rem].sum())
        return out

    report.corner_failures = tally(missed)
    report.failures = sum(report.corner_failures)
    report.candidates = sum(tally(tested))
    # the first failed trials, in trial order: pass j sends its words through
    # corner j mod reached, all n of them but in a last pass of rem
    failed, passes, j0 = [], full + (rem > 0), 0
    bad = [c for c, count in enumerate(report.corner_failures) if count]
    while bad and j0 < passes and len(failed) < TrialReport._MAX_EXAMPLES:
        for c in (c for c in bad if j0 + c < passes):
            g = group[c]
            sent = n if j0 + c < full else rem
            hits = np.flatnonzero(missed[starts[g]:starts[g] + sent])
            hits = hits[:TrialReport._MAX_EXAMPLES - len(failed)].tolist()
            failed += [(w, table[c].tolist()) for w in hits]
        j0 += reached
    _add_examples(report, decoder, spec, d, failed)
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
    The channel module's docstring gives the draws of trial t.
    """
    _check_trials(trials)
    spec, decoder = _trial_decoder(codebook, spec)
    d, top, factors = channel.grid_ints(spec, channel._GRID_BITS, t_cap)
    key, n, k = channel.run_key(seed), len(decoder.words), codebook.k

    kernel, dtype, decode = _row_decoder(decoder, spec, d, top)
    report = TrialReport(trials, kernel=kernel)
    failed = []  # (word index, factor row) of the first failed trials
    for first in range(0, trials, _ROWS):
        word, rows = channel._uniform_trials(key, first, min(_ROWS, trials - first), k, n)
        rows = factors(rows).astype(dtype, copy=False)
        missed, tested = decode(word, rows)
        report.failures += int(missed.sum())
        report.candidates += int(tested.sum())
        hits = np.flatnonzero(missed)[: TrialReport._MAX_EXAMPLES - len(failed)]
        failed += [(word[r], rows[r].tolist()) for r in hits]
    _add_examples(report, decoder, spec, d, failed)
    return report
