"""Byte identity of the program's outputs, pinned as SHA-256 digests.

Each group hashes one family of outputs, so a failure names what changed:

* ``constructions`` -- ``dumps_codebook(construct(...))``, or the refusal's
  type and message, over k = 1..3, small frames (plus M = 65 for k <= 2),
  a grid of xi and gamma values and every regime including auto;
* ``cli`` -- stdout, file output and exit code of ``construct``, ``verify``
  and ``simulate`` (both modes) at the headline and three grid points;
* ``sweeps`` -- the CSVs of the ascending sweeps in demos/rate_sweeps.py;
* ``decoders`` -- the word, or the error's type and message, that ``decode``
  and ``decode_fast`` give on seeded exact in-spec, off-spec, jitterless
  multiple and near-tolerance float signals over the constructed books of
  test_decode.py plus a k = 3 jitter book.

A change that moves a digest on purpose records the new one here and says
why in CHANGES.md.
"""

import hashlib
import math
import random
from fractions import Fraction as F

import pytest

from driftppm.cli import main
from driftppm.codebook_io import dumps_codebook
from driftppm.channel import ObservedSignal
from driftppm.constructions import AUTO_REGIME, code_jitter, construct
from driftppm.core import REGIMES
from driftppm.decode import DEFAULT_FLOAT_TOLERANCE, decode, decode_fast

from test_decode import CONSTRUCTED

XI_GRID = (F(1), F(21, 20), F(3, 2), F(2))
GAMMA_GRID = (F(1), F(3, 2), F(7, 4), F(4), math.inf)
REGIME_TAGS = (AUTO_REGIME, *(r for r in REGIMES if r != "custom"))

# (k, M, xi, gamma) for the CLI pipeline: the headline, then grid points
CLI_POINTS = (
    ("2", "65", "1", "7/4"),
    ("2", "65", "21/20", "7/4"),
    ("2", "40", "3/2", "inf"),
    ("3", "12", "1", "inf"),
)

SWEEPS = (
    ("gamma", "1,5/4,3/2,7/4,2,4,8,16,32,64,inf", "--M", "65", "--xi", "1"),
    ("xi", "1:1.1:0.005", "--M", "65", "--gamma", "1"),
    ("xi", "1:1.1:0.005", "--M", "65", "--gamma", "7/4"),
    ("xi", "1:1.1:0.005", "--M", "65", "--gamma", "inf"),
    ("M", "4,8,16,32,64,128", "--k", "2", "--xi", "1", "--gamma", "inf"),
    ("M", "4,8,16,32,64,128", "--k", "3", "--xi", "1", "--gamma", "inf"),
    ("M", "65,128,256,512,1024", "--k", "2", "--gamma", "7/4"),
)

PINNED = {
    "constructions": "1938cde9fa26b3ab8d1807e6fef4645e60611378fcc1f4180c3c03db7cfdcb0b",
    "cli": "74c68a82dfcc800014111dabf9133b8b621f6081b29c8d7f3c92e9061ac7f20e",
    "sweeps": "0390e9d74ee9f2f1dd836ae946ea20a8f61e9ba2b713f4851f8da0f4a2aa11bb",
    "decoders": "1fde7d4609c872baf7e80ff6a7765d6162508d82412f5aa814680d28abda5ab6",
}


def _constructions(tmp_path, capsys):
    for k in (1, 2, 3):
        frames = [*range(1, 13), *([65] if k < 3 else [])]
        for m in frames:
            for xi in XI_GRID:
                for gamma in GAMMA_GRID:
                    for regime in REGIME_TAGS:
                        try:
                            yield dumps_codebook(construct(k, m, xi, gamma, regime))
                        except Exception as exc:
                            yield f"{type(exc).__name__}: {exc}\n"


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return f"{' '.join(argv)}\nexit={code}\n{captured.out}{captured.err}"


def _cli(tmp_path, capsys):
    for n, (k, m, xi, gamma) in enumerate(CLI_POINTS):
        path = str(tmp_path / f"{n}.code")
        yield _run(capsys, "construct", "--k", k, "--M", m, "--xi", xi,
                   "--gamma", gamma, "--out", path).replace(path, "CODE")
        with open(path, encoding="utf-8") as fh:
            yield fh.read()
        cap = ("--t-cap", "8") if gamma == "inf" else ()
        for argv in (
            ("verify", "--code", path),
            ("verify", "--code", path, "--xi", "11/10"),
            ("simulate", "--code", path),
            ("simulate", "--code", path, "--mode", "uniform", "--trials", "300",
             "--seed", "7", *cap),
        ):
            yield _run(capsys, *argv).replace(path, "CODE")


def _sweeps(tmp_path, capsys):
    for param, values, *rest in SWEEPS:
        if "--k" not in rest:
            rest = ["--k", "2", *rest]
        yield _run(capsys, "sweep", "--param", param, "--values", values, *rest)


def _signals(book, rng):
    """Seeded signals for one book: in spec, off spec, jitterless multiples
    of a word, and floats with noise around the tolerance."""
    spec = book.spec
    hi_t = F(6) if spec.unbounded_drift else spec.gamma

    def unit():
        return F(rng.choice((0, 1, rng.randrange(1, 64))), 64) if rng.random() < 0.8 else F(rng.random())

    for kind in ("in", "off", "multiple", "float"):
        for _ in range(60):
            word = rng.choice(book.codewords)
            t = 1 + (hi_t - 1) * unit()
            values = [t * (1 + (spec.xi - 1) * unit()) * r for r in word]
            if kind == "off":
                c = rng.randrange(book.k)
                values[c] *= F(rng.randrange(1, 97), rng.randrange(1, 97))
                scale = rng.choice((1, 1, F(rng.randrange(1, 32), 32), F(rng.randrange(33, 80), 32)))
                values = [v * scale for v in values]
            elif kind == "multiple":
                lam = F(rng.randrange(1, 97), rng.randrange(1, 25))
                values = [lam * r for r in word]
            if kind != "float":
                yield ObservedSignal.from_exact(values)
                continue
            tol = DEFAULT_FLOAT_TOLERANCE
            eps = [tol * F(rng.randrange(0, 2001), 1000) * rng.choice((-1, 1)) for _ in values]
            yield ObservedSignal.from_floats([float(v * (1 + e)) for v, e in zip(values, eps)])


def _decoders(tmp_path, capsys):
    rng = random.Random(12)
    for book in (*CONSTRUCTED, code_jitter(3, 20, F(21, 20))):
        for signal in _signals(book, rng):
            for decode_fn in (decode, decode_fast):
                try:
                    yield repr(decode_fn(signal, book))
                except Exception as exc:
                    yield f"{type(exc).__name__}: {exc}"


GROUPS = {
    "constructions": _constructions,
    "cli": _cli,
    "sweeps": _sweeps,
    "decoders": _decoders,
}


def digest(group, tmp_path, capsys) -> str:
    h = hashlib.sha256()
    for text in GROUPS[group](tmp_path, capsys):
        h.update(text.encode())
        h.update(b"\0")
    return h.hexdigest()


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_outputs_match_pinned_digest(group, tmp_path, capsys):
    assert digest(group, tmp_path, capsys) == PINNED[group]
