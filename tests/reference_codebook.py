"""Reference form of Codebook validation: the per-word loop.

`driftppm.core.Codebook` accepts a valid book in one bulk pass and words its
errors with this loop.  The tests check that the two accept the same books,
store the same codewords, and refuse the rest with the same exception and
message.
"""

from driftppm.core import check_run_vector


def validate_codewords(k, m, codewords):
    """The codewords as a tuple of tuples, each checked word by word."""
    codewords = tuple(tuple(cw) for cw in codewords)
    previous = None
    for cw in codewords:
        if len(cw) != k:
            raise ValueError(f"codeword {cw} does not have k={k} runs")
        check_run_vector(cw, m)
        if previous is not None and cw <= previous:
            raise ValueError(
                f"codewords must be strictly increasing, saw {previous} then {cw}"
            )
        previous = cw
    return codewords
