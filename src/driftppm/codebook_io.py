"""Plain-text codebook files.

Line 1 is a header ``k=<int> M=<int> xi=<ratio> gamma=<ratio|inf> regime=<tag>``;
every following line is one codeword, runs space-separated, in lexicographic
order.  The format is bit-exact across platforms: canonical ratio strings,
"\\n" endings, no trailing whitespace.
"""

from __future__ import annotations

import os
from typing import Union

from .core import (
    ChannelSpec,
    Codebook,
    format_ratio,
    format_run_vector,
    parse_drift_ratio,
    parse_ratio,
)

__all__ = ["dumps_codebook", "dump_codebook", "loads_codebook", "load_codebook"]

_HEADER_FIELDS = ("k", "M", "xi", "gamma", "regime")


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


def load_codebook(path: Union[str, os.PathLike]) -> Codebook:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_codebook(fh.read())
