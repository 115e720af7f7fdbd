"""Seeded fuzz of the command line: every argument list ends in a documented
exit code, and only a usage error (exit 1) writes to stderr, one line."""

import random

import pytest

from driftppm.cli import main

LISTS = 400

# values that break parsers and bounds, beside a few valid ones
RATIOS = ["0", "-1", "-3/2", "inf", "nan", "1/0", "1e309", "100000000000",
          "1", "1/2", "3/2", "7/4", "21/20", "2", "1.03", "x", ""]
PULSES = ["-1", "0", "1", "2", "3", "65", "100000000000", "3/2", "inf", "nan", "x"]
FRAMES = ["-1", "0", "1", "2", "5", "12", "30", "65", "100000000000",
          "3/2", "1e309", "nan", "x"]
TRIALS = ["-1", "0", "1", "10", "1000", "10000", "1/2", "inf", "nan", "x"]
SEEDS = ["-1", "0", "7", "100000000000", "1/2", "x"]
BAD_GRIDS = ["1:2", "1:2:0", "1:2:-1", "2:1:1/10", "1:inf:1", "0:65:13", "1:1e309:1",
             "1:2:1/1000000000", "3/2,1/0", "8,16,3/2", "1,,2", ",", "", "nan,1",
             "100000000000", "1e309"]

# codebook files: valid ones, and damaged or degenerate ones
BOOKS = {
    "gcd.code": "k=2 M=12 xi=1 gamma=inf regime=gcd\n1 1\n1 2\n2 1\n",
    "jitter.code": "k=2 M=14 xi=3/2 gamma=7/4 regime=jitter-bounded-drift\n1 1\n1 3\n3 1\n",
    "single.code": "k=1 M=10 xi=1 gamma=1 regime=perfect-sync\n1\n2\n3\n",
    "triple.code": "k=3 M=9 xi=1 gamma=inf regime=gcd\n1 1 1\n1 1 2\n1 2 1\n2 1 1\n",
    "huge-xi.code": "k=2 M=12 xi=1e400 gamma=inf regime=custom\n1 1\n1 5\n",
}
CORRUPT = {
    "empty-book.code": "k=2 M=12 xi=1 gamma=inf regime=custom\n",
    "empty.code": "",
    "truncated.code": "k=2 M=12 xi=1 gamma=in",
    "no-regime.code": "k=2 M=12 xi=1 gamma=inf\n1 1\n",
    "bad-token.code": "k=2 M=12 xi=1 gamma=inf regime=gcd depth\n1 1\n",
    "bad-ratio.code": "k=2 M=12 xi=1/0 gamma=nan regime=gcd\n1 1\n",
    "bad-k.code": "k=two M=12 xi=1 gamma=inf regime=gcd\n1 1\n",
    "zero-k.code": "k=0 M=12 xi=1 gamma=inf regime=gcd\n",
    "duplicate.code": "k=2 M=12 xi=1 gamma=inf regime=gcd\n1 2\n1 2\n",
    "negative-run.code": "k=2 M=12 xi=1 gamma=inf regime=gcd\n1 -2\n",
    "wrong-k.code": "k=2 M=12 xi=1 gamma=inf regime=gcd\n1 1 1\n",
    "overflow.code": "k=2 M=3 xi=1 gamma=inf regime=gcd\n2 2\n",
    "float-run.code": "k=2 M=12 xi=1 gamma=inf regime=gcd\n1 2.5\n",
    "unknown-regime.code": "k=2 M=12 xi=1 gamma=inf regime=optimal\n1 1\n",
}
BINARY = {"binary.code": b"\xff\xfe\x00k=2\n"}
BAD_PATHS = [*CORRUPT, *BINARY, "missing.code", "."]
OUTS = ["out.code", "out.csv"]
BAD_OUTS = [".", "missing/out.code"]
# valid grids of each swept parameter
GRIDS = {
    "gamma": ["1,7/4,inf", "1:2:1/4", "8,16"],
    "xi": ["1:2:1/4", "21/20,1,3/2", "1,2"],
    "M": ["5:30:5", "8,16,65", "1,2"],
}

# each command's options, required ones first: valid values, then values
# that must be refused (or reach a failure exit)
OPTIONS = {
    "construct": {
        "--k": (["1", "2", "3", "65"], PULSES),
        "--M": (["12", "30", "65"], FRAMES),
        "--xi": (["1", "3/2", "21/20"], RATIOS),
        "--gamma": (["1", "7/4", "inf"], RATIOS),
        "--regime": (["auto", "gcd", "jitter", "perfect-sync", "bounded-drift",
                      "jitter-bounded-drift"], ["custom", "x", ""]),
        "--out": (OUTS, BAD_OUTS),
    },
    "sweep": {
        "--param": (list(GRIDS), ["k", "x"]),
        "--values": (None, BAD_GRIDS),
        "--k": (["1", "2", "3"], PULSES),
        "--M": (["12", "30", "65"], FRAMES),
        "--xi": (["1", "3/2"], RATIOS),
        "--gamma": (["1", "7/4", "inf"], RATIOS),
        "--csv": (OUTS, BAD_OUTS),
    },
    "simulate": {
        "--code": (list(BOOKS), BAD_PATHS),
        "--trials": (["0", "10", "1000", "10000"], TRIALS),
        "--seed": (["0", "7"], SEEDS),
        "--mode": (["endpoints", "uniform"], ["corners", ""]),
        "--t-cap": (["1", "3/2", "4"], RATIOS),
    },
    "verify": {
        "--code": (list(BOOKS), BAD_PATHS),
        "--xi": (["1", "3/2", "2"], RATIOS),
        "--gamma": (["1", "7/4", "inf"], RATIOS),
    },
    # small frames, and a node budget past M = 8: the exact search grows
    # exponentially with the frame
    "oracle": {
        "--k": (["1", "2", "3"], ["-1", "0", "100000000000", "x"]),
        "--M": (["2", "5", "8", "12"], ["-1", "0", "3/2", "100000000000", "x"]),
        "--xi": (["1", "3/2", "21/20"], RATIOS),
        "--gamma": (["1", "7/4", "inf"], RATIOS),
        "--budget-seconds": (["0", "inf", "1e309"], ["-1", "nan", "1/2", "x"]),
        "--budget-nodes": (["0", "1", "50"], ["-1", "nan", "1e309", "x"]),
        "--out": (OUTS, BAD_OUTS),
    },
}
REQUIRED = {"construct": 2, "sweep": 4, "simulate": 1, "verify": 1, "oracle": 2}


def _argv(rng):
    """One argument list: the required options and about half the others,
    with up to two values drawn from the refused ones."""
    command = rng.choice(list(OPTIONS))
    options = OPTIONS[command]
    corrupt = set(rng.sample(list(options), rng.choice([0, 0, 1, 1, 2])))
    argv = [command]
    for i, (flag, (valid, invalid)) in enumerate(options.items()):
        if flag in corrupt:
            argv += [flag, rng.choice(invalid)]
        elif i < REQUIRED[command] or rng.random() < 0.5:
            if flag == "--values":
                valid = GRIDS.get(argv[argv.index("--param") + 1], invalid)
            argv += [flag, rng.choice(valid)]
    if command == "oracle" and "--budget-nodes" not in argv:
        m = argv[argv.index("--M") + 1]
        if m not in ("2", "5", "8"):
            argv += ["--budget-nodes", "50"]
    if rng.random() < 0.05:
        # a dropped required option, or a stray argument
        if rng.random() < 0.5:
            del argv[1:3]
        else:
            argv.insert(rng.randrange(len(argv) + 1), rng.choice(["--bogus", "extra", "--k"]))
    return argv


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    for name, text in {**BOOKS, **CORRUPT}.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    for name, data in BINARY.items():
        (tmp_path / name).write_bytes(data)
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_every_list_exits_as_documented(capsys, workdir):
    rng = random.Random(20181121)
    bad = []
    codes = set()
    for _ in range(LISTS):
        argv = _argv(rng)
        try:
            code = main(argv)
        except (Exception, SystemExit) as exc:
            bad.append((argv, f"raised {exc!r}"))
            capsys.readouterr()
            continue
        err = capsys.readouterr().err
        codes.add(code)
        if code not in (0, 1, 2, 3):
            bad.append((argv, f"exit {code}"))
        elif code == 1 and not (err.startswith("error: ") and err.count("\n") == 1
                                and err.endswith("\n")):
            bad.append((argv, f"stderr {err!r}"))
        elif code != 1 and err:
            bad.append((argv, f"exit {code} with stderr {err!r}"))
    assert not bad, bad[:5]
    # the lists reach success, usage errors, failed checks and the budget
    assert codes == {0, 1, 2, 3}
