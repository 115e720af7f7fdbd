"""Byte identity of the program's outputs, pinned as SHA-256 digests.

Each group hashes one family of outputs, so a failure names what changed:

* ``constructions`` -- ``dumps_codebook(construct(...))``, or the refusal's
  type and message, over k = 1..3, small frames (plus M = 65 for k <= 2),
  a grid of xi and gamma values and every regime including auto;
* ``cli`` -- stdout, file output and exit code of ``construct``, ``verify``
  and ``simulate`` (both modes) at the headline and three grid points;
* ``sweeps`` -- the CSVs of the ascending sweeps in demos/rate_sweeps.py.

A change that moves a digest on purpose records the new one here and says
why in CHANGES.md.
"""

import hashlib
import math
from fractions import Fraction as F

import pytest

from driftppm.cli import main
from driftppm.codebook_io import dumps_codebook
from driftppm.constructions import AUTO_REGIME, construct
from driftppm.core import REGIMES

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


GROUPS = {"constructions": _constructions, "cli": _cli, "sweeps": _sweeps}


def digest(group, tmp_path, capsys) -> str:
    h = hashlib.sha256()
    for text in GROUPS[group](tmp_path, capsys):
        h.update(text.encode())
        h.update(b"\0")
    return h.hexdigest()


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_outputs_match_pinned_digest(group, tmp_path, capsys):
    assert digest(group, tmp_path, capsys) == PINNED[group]
