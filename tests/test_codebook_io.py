from fractions import Fraction as F

import pytest

from driftppm.core import INFINITY, ChannelSpec, Codebook
from driftppm.codebook_io import (
    dump_codebook,
    dumps_codebook,
    load_codebook,
    loads_codebook,
)
from driftppm.constructions import code_bounded_drift, code_gcd


def test_header_and_rows():
    cb = Codebook(2, 5, ChannelSpec(1, F(7, 4)), "bounded-drift", ((1, 1), (2, 2)))
    assert dumps_codebook(cb) == (
        "k=2 M=5 xi=1 gamma=7/4 regime=bounded-drift\n1 1\n2 2\n"
    )


def test_infinite_gamma_spelling():
    cb = Codebook(2, 4, ChannelSpec(2, INFINITY), "custom", ((1, 2),))
    text = dumps_codebook(cb)
    assert "gamma=inf" in text
    assert loads_codebook(text).spec.gamma == INFINITY


def test_round_trip_bytes(tmp_path):
    cb = code_bounded_drift(2, 30, F(7, 4))
    path = tmp_path / "book.code"
    dump_codebook(cb, path)
    loaded = load_codebook(path)
    assert loaded == cb
    # and the re-serialization is byte-identical
    assert dumps_codebook(loaded) == path.read_text(encoding="utf-8")


def test_round_trip_gcd_code(tmp_path):
    cb = code_gcd(3, 12)
    path = tmp_path / "book.code"
    dump_codebook(cb, path)
    assert load_codebook(path).codewords == cb.codewords


def test_load_accepts_any_row_order():
    text = "k=2 M=5 xi=1 gamma=1 regime=custom\n2 1\n1 1\n"
    assert loads_codebook(text).codewords == ((1, 1), (2, 1))


def test_load_rejects_duplicates():
    with pytest.raises(ValueError):
        loads_codebook("k=2 M=5 xi=1 gamma=1 regime=custom\n1 1\n1 1\n")


def test_load_rejects_wrong_k():
    with pytest.raises(ValueError):
        loads_codebook("k=2 M=5 xi=1 gamma=1 regime=custom\n1 1 1\n")


def test_load_rejects_non_integer_token():
    with pytest.raises(ValueError, match="bad run vector line"):
        loads_codebook("k=2 M=5 xi=1 gamma=1 regime=custom\n1 x\n")
    with pytest.raises(ValueError, match="bad run vector line"):
        loads_codebook("k=2 M=5 xi=1 gamma=1 regime=custom\n1 1.5\n")


def test_load_rejects_non_positive_run():
    with pytest.raises(ValueError, match="positive"):
        loads_codebook("k=2 M=5 xi=1 gamma=1 regime=custom\n1 0\n")
    with pytest.raises(ValueError, match="positive"):
        loads_codebook("k=2 M=5 xi=1 gamma=1 regime=custom\n-1 3\n")


def test_load_rejects_frame_overflow():
    with pytest.raises(ValueError):
        loads_codebook("k=2 M=5 xi=1 gamma=1 regime=custom\n3 3\n")


def test_load_rejects_missing_header_field():
    with pytest.raises(ValueError):
        loads_codebook("k=2 M=5 xi=1 regime=custom\n1 1\n")


def test_load_rejects_repeated_header_field():
    with pytest.raises(ValueError, match="^duplicate header field 'k'$"):
        loads_codebook("k=3 M=5 xi=1 gamma=inf regime=gcd k=2\n1 2\n")
    with pytest.raises(ValueError, match="^duplicate header field 'M'$"):
        loads_codebook("k=2 M=5 xi=1 gamma=1 regime=custom M=6\n1 1\n")


def test_load_rejects_empty():
    with pytest.raises(ValueError):
        loads_codebook("")


def test_decimal_ratio_in_header():
    text = "k=2 M=10 xi=1.03 gamma=1.75 regime=custom\n1 1\n"
    spec = loads_codebook(text).spec
    assert spec.xi == F(103, 100)
    assert spec.gamma == F(7, 4)
