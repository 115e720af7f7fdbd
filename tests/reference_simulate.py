"""Reference form of the endpoint round trips: one decoded row per trial.

`driftppm.simulate.run_endpoint_roundtrips` decodes each (codeword,
realization) pair once, however many corners share the realization, and
credits every trial with its pair's result.  This is the earlier driver,
which decodes every trial's row, kept as it was but for one line:
`Decoder.decode_points` now counts its candidates per row, and the reference
sums them.  The tests check that both give the same `TrialReport`, field for
field, and that the new driver decodes no more rows.
"""

import numpy as np

from driftppm import channel
from driftppm.core import REGIMES
from driftppm.channel import DEFAULT_T_CAP
from driftppm.simulate import _ROWS, TrialReport, _check_trials, _trial_decoder


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
        report.candidates += int(candidates.sum())
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
            fast = decoder.fast_ints(a, a, d, *ints)
            if fast != [x]:
                report.add_example(x, f"structured decode gave {fast}")
    return report


def run_endpoint_roundtrips(codebook, spec=None, t_cap=None, trials=None):
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
