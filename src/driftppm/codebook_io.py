"""Plain-text codebook files.

Line 1 is a header ``k=<int> M=<int> xi=<ratio> gamma=<ratio|inf> regime=<tag>``;
every following line is one codeword, runs space-separated, in lexicographic
order.  The format is bit-exact across platforms: canonical ratio strings,
"\\n" endings, no trailing whitespace.
"""

from __future__ import annotations

import os
from itertools import chain, islice
from typing import Union

from .core import (
    ChannelSpec,
    Codebook,
    format_ratio,
    parse_drift_ratio,
    parse_ratio,
)

__all__ = ["dumps_codebook", "dump_codebook", "loads_codebook", "load_codebook"]

_HEADER_FIELDS = ("k", "M", "xi", "gamma", "regime")

#: Body lines parsed in one int pass: a bound on the token lists held at
#: once, which all the lines of a book would add to the peak memory of a load
_CHUNK = 64


def dumps_codebook(codebook: Codebook) -> str:
    header = (
        f"k={codebook.k} M={codebook.m} "
        f"xi={format_ratio(codebook.spec.xi)} "
        f"gamma={format_ratio(codebook.spec.gamma)} "
        f"regime={codebook.regime}"
    )
    # one format of k "%d" fields, applied at C level; %d writes an int
    # subclass by its value, as str writes a plain int
    row = " ".join(["%d"] * codebook.k)
    return "\n".join([header, *map(row.__mod__, codebook.codewords)]) + "\n"


def dump_codebook(codebook: Codebook, path: Union[str, os.PathLike]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dumps_codebook(codebook))


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
    codewords = _bulk_codewords(lines[1:], k)
    if codewords is None:
        # the per-line parse, which words a bad token line; a line of
        # another length is left for the Codebook to refuse
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


def _bulk_codewords(lines, k: int):
    """The codewords of the body lines if every non-blank one holds k int
    tokens, else None.  Lines are split once and read _CHUNK at a time, each
    chunk's tokens in one int pass regrouped k at a time, so the token lists
    held at once stay small; a chunk's lengths are checked first, which
    also bounds k by a line's length before [tokens] * k is built."""
    codewords = []
    rows = filter(None, map(str.split, lines))
    while chunk := list(islice(rows, _CHUNK)):
        if set(map(len, chunk)) != {k}:
            return None
        try:
            codewords += zip(*[map(int, chain.from_iterable(chunk))] * k)
        except ValueError:
            return None
    return codewords


def load_codebook(path: Union[str, os.PathLike]) -> Codebook:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_codebook(fh.read())
