"""Reference forms of Codebook validation and of the codebook file body.

`driftppm.core.Codebook` accepts a valid book in one bulk pass and words its
errors with the per-word loop `validate_codewords` keeps.  The tests check
that the two accept the same books, store the same codewords, and refuse the
rest with the same exception and message.

`driftppm.codebook_io` writes every codeword with one format string and
parses a body in int passes over chunks of lines.  `format_run_vector`,
`dumps_codebook` and `loads_codebook` here are the per-word join and the
per-line parse they replaced, kept verbatim so the tests can compare bytes,
codewords and error texts.
"""

from driftppm.core import (
    ChannelSpec,
    Codebook,
    check_run_vector,
    format_ratio,
    parse_drift_ratio,
    parse_ratio,
)

_HEADER_FIELDS = ("k", "M", "xi", "gamma", "regime")


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


def format_run_vector(runs):
    return " ".join(map(str, runs))


def dumps_codebook(codebook: Codebook) -> str:
    header = (
        f"k={codebook.k} M={codebook.m} "
        f"xi={format_ratio(codebook.spec.xi)} "
        f"gamma={format_ratio(codebook.spec.gamma)} "
        f"regime={codebook.regime}"
    )
    lines = [header]
    lines.extend(format_run_vector(cw) for cw in codebook.codewords)
    return "\n".join(lines) + "\n"


def loads_codebook(text: str) -> Codebook:
    lines = text.splitlines()
    if not lines:
        raise ValueError("empty codebook file")
    fields = {}
    for token in lines[0].split():
        key, sep, value = token.partition("=")
        if not sep or key not in _HEADER_FIELDS:
            raise ValueError(f"bad header token {token!r}")
        if key in fields:
            raise ValueError(f"duplicate header field {key!r}")
        fields[key] = value
    missing = [f for f in _HEADER_FIELDS if f not in fields]
    if missing:
        raise ValueError(f"header missing fields: {missing}")
    k = int(fields["k"])
    m = int(fields["M"])
    spec = ChannelSpec(parse_ratio(fields["xi"]), parse_drift_ratio(fields["gamma"]))
    codewords = []
    for line in lines[1:]:
        if line.strip():
            try:
                codewords.append(tuple(map(int, line.split())))
            except ValueError as exc:
                raise ValueError(f"bad run vector line: {line!r}") from exc
    # accept any order on input; the Codebook checks every run and refuses
    # duplicates, which sort next to each other
    return Codebook(k, m, spec, fields["regime"], tuple(sorted(codewords)))
