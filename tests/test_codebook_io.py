import random
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftppm import codebook_io, core
from driftppm.core import INFINITY, ChannelSpec, Codebook
from driftppm.codebook_io import (
    dump_codebook,
    dumps_codebook,
    load_codebook,
    loads_codebook,
)
from driftppm.constructions import code_bounded_drift, code_gcd, code_jitter

import reference_codebook


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


def test_valid_books_skip_the_per_word_checks(monkeypatch):
    # built and loaded books are validated in one bulk pass; the per-word
    # check only words the error of a book that fails it
    def per_word(runs, m):
        raise AssertionError("per-word check on a valid book")

    monkeypatch.setattr(core, "check_run_vector", per_word)
    for book in (code_bounded_drift(2, 65, F(7, 4)), code_jitter(3, 30, F(21, 20))):
        assert loads_codebook(dumps_codebook(book)) == book


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


@pytest.mark.parametrize("token", ["k2", "N=5", "=2"])
def test_load_rejects_bad_header_token(token):
    with pytest.raises(ValueError, match=f"^bad header token '{token}'$"):
        loads_codebook(f"k=2 M=5 xi=1 gamma=1 regime=custom {token}\n1 1\n")


def test_load_rejects_empty():
    with pytest.raises(ValueError):
        loads_codebook("")


def test_decimal_ratio_in_header():
    text = "k=2 M=10 xi=1.03 gamma=1.75 regime=custom\n1 1\n"
    spec = loads_codebook(text).spec
    assert spec.xi == F(103, 100)
    assert spec.gamma == F(7, 4)


class Run(int):
    """An int subclass, which Codebook admits through its per-word check."""


class NamedRun(int):
    """An int subclass whose str is not its value."""

    def __str__(self):
        return f"run{int(self)}"


def random_book(rng, k, runs):
    """A custom book of up to 40 words at k, some runs past 2**63 when huge."""
    m = 2**70
    words = set()
    for _ in range(rng.randint(0, 40)):
        top = rng.choice((9, 2**40, 2**66))
        words.add(tuple(runs(rng.randint(1, top)) for _ in range(k)))
    return Codebook(k, m, ChannelSpec(F(21, 20), F(7, 4)), "custom", tuple(sorted(words)))


def outcome(load, text):
    """The codewords a load gives, or its exception type and message."""
    try:
        book = load(text)
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)
    assert all(type(r) is int for cw in book.codewords for r in cw)
    return book


class TestAgainstReference:
    """dumps_codebook and loads_codebook against the per-word join and the
    per-line parse they replaced (tests/reference_codebook.py)."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("runs", [int, Run], ids=["int", "subclass"])
    def test_dumps_byte_for_byte(self, k, runs):
        rng = random.Random(k)
        for _ in range(50):
            book = random_book(rng, k, runs)
            text = dumps_codebook(book)
            assert text == reference_codebook.dumps_codebook(book)
            assert loads_codebook(text) == book

    def test_runs_past_int64(self):
        book = Codebook(2, 2**80, ChannelSpec(1, INFINITY), "custom",
                        ((1, 2**63), (2**63 + 1, 2**64 - 1), (2**70, 5)))
        text = dumps_codebook(book)
        assert text == reference_codebook.dumps_codebook(book)
        assert text.endswith("\n1180591620717411303424 5\n")

    @pytest.mark.parametrize(
        "book",
        [code_bounded_drift(2, 65, F(7, 4)), code_gcd(3, 20), code_jitter(1, 30, F(3, 2)),
         code_jitter(4, 16, F(21, 20))],
        ids=["headline", "gcd3", "jitter1", "jitter4"],
    )
    def test_built_books(self, book):
        text = dumps_codebook(book)
        assert text == reference_codebook.dumps_codebook(book)
        assert loads_codebook(text) == reference_codebook.loads_codebook(text) == book

    def test_subclass_is_written_by_value(self):
        # the per-word join wrote str(run), which no load could read back
        book = Codebook(2, 9, ChannelSpec(1, 1), "custom", ((NamedRun(1), NamedRun(3)),))
        assert reference_codebook.dumps_codebook(book).endswith("\nrun1 run3\n")
        text = dumps_codebook(book)
        assert text == "k=2 M=9 xi=1 gamma=1 regime=custom\n1 3\n"
        assert loads_codebook(text).codewords == ((1, 3),)

    HEADER = "k=2 M=9 xi=1 gamma=inf regime=custom\n"

    @pytest.mark.parametrize(
        "body",
        [
            "1 2\n2 x\n",              # a bad token line
            "1 2\n2 1.5\n3 y\n",       # the first bad line is worded
            "1 2\n2 x 1\n",            # a bad token on a line of another length
            "1 2 3\n2 x\n",            # a bad token after a line of another length
            "1 2 3\n",                  # one run too many
            "1 2\n3\n",                # one run too few
            "1 2\n4 1 1\n1 1 1\n",     # the least wrong-length word is worded
            "\n1 2\n\n  \n\t\n3 4\n\n",  # blank lines
            "1 2\r\n3 4\r\n",           # CRLF endings
            "1 2\r3 4\r",               # CR endings
            "3 4\n1 2\n2 2\n",          # unsorted
            "1 2\n1 2\n",               # duplicates
            "3 4\n1 2\n3 4\n",          # duplicates, unsorted
            " 1   2 \n+3 0_4\n",        # spacing and int() spellings
            "1 0\n",                    # a run below 1
            "5 5\n",                    # past the frame
            "",                          # no body
            "\n \n",                    # blank body
        ],
    )
    def test_loads_same_codewords_and_errors(self, body):
        text = self.HEADER + body
        assert outcome(loads_codebook, text) == outcome(reference_codebook.loads_codebook, text)

    @pytest.mark.parametrize(
        "header",
        [
            "k=0 M=9 xi=1 gamma=inf regime=custom\n",
            "k=-1 M=9 xi=1 gamma=inf regime=custom\n",
            "k=3 M=2 xi=1 gamma=inf regime=custom\n",
            "k=2 M=9 xi=1 gamma=inf regime=none\n",
            "k=100000000000 M=100000000000 xi=1 gamma=inf regime=custom\n",
        ],
    )
    @pytest.mark.parametrize("body", ["", "1 2\n", "1 x\n", "1\n"])
    def test_loads_same_header_refusals(self, header, body):
        text = header + body
        assert outcome(loads_codebook, text) == outcome(reference_codebook.loads_codebook, text)

    @pytest.mark.parametrize(
        "fault",
        [
            None,
            "bad token",
            "wrong length",
            "bad token after a wrong length",
            "blank lines",
        ],
    )
    @pytest.mark.parametrize("at", [0, 63, 64, 65, 200, 299])
    def test_loads_across_chunks(self, fault, at):
        # bodies longer than one chunk, each fault at a chunk's edge or inside
        lines = [f"{i} {j}" for i in range(1, 21) for j in range(1, 16)]
        if fault == "bad token":
            lines[at] = "7 x"
        elif fault == "wrong length":
            lines[at] = "7 7 7"
        elif fault == "bad token after a wrong length":
            lines[0] = "1 1 1"
            lines[at] = "x 7"
        elif fault == "blank lines":
            lines[at:at] = ["", "  "] * 40
        text = "k=2 M=40 xi=1 gamma=inf regime=custom\n" + "\n".join(lines) + "\n"
        assert outcome(loads_codebook, text) == outcome(reference_codebook.loads_codebook, text)

    @settings(max_examples=300, deadline=None)
    @given(
        chunk=st.integers(1, 4),
        k=st.integers(1, 3),
        lines=st.lists(
            st.sampled_from(
                ["1", "2", "1 2", "2 1", "1 1", "1 2 3", "3 2 1", "1 1 1", "a b",
                 "1 a", "1 -1", "1 0", "9 9", "", " ", "\t1 1\t", "1\r"]
            ),
            max_size=8,
        ),
        ending=st.sampled_from(["\n", "\r\n"]),
    )
    def test_loads_matches_on_any_body(self, chunk, k, lines, ending):
        # small chunks put every fault near a chunk's edge
        text = f"k={k} M=9 xi=1 gamma=inf regime=custom" + ending + ending.join(lines)
        with mock.patch.object(codebook_io, "_CHUNK", chunk):
            got = outcome(loads_codebook, text)
        assert got == outcome(reference_codebook.loads_codebook, text)
