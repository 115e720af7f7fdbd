"""The four benchmark workloads and the checks on their outputs.

Each workload is a closed loop with one caller: ``setup(seed)`` builds the
inputs and the workload's fixed list of ``operations``; a pass runs each
operation once.  An operation is a call returning ``(attempted, failed)``; it
fails when the program raises, exits non-zero, or returns anything other than
the pinned or known answer.  The runner times set-up, every operation and
every pass; ``run.py`` explains the metrics.

Every call into the package goes through a module attribute looked up at call
time (``simulate.run_endpoint_roundtrips``, not a name bound at import), so
the traced run can wrap it from outside.
"""

from __future__ import annotations

import contextlib
import copy
import functools
import hashlib
import importlib
import io
import random
import shutil
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from driftppm import channel, cli, constructions, core, oracle, simulate

# the package re-exports the function decode under the module's name
decode = importlib.import_module("driftppm.decode")

F = Fraction

# -- roundtrip ---------------------------------------------------------------

# The acceptance grid (tests/test_acceptance.py: grid_codebooks), one frame.
GRID_XIS = (F(1), F(21, 20), F(3, 2), F(2))
GRID_GAMMAS = (F(1), F(3, 2), F(7, 4), F(4))


def grid_codebooks(m):
    """Every constructed codebook of the acceptance grid at frame size m."""
    books = []
    for k in (2, 3):
        books.append(constructions.code_gcd(k, m))
        for gamma in GRID_GAMMAS:
            books.append(constructions.code_bounded_drift(k, m, gamma))
        for xi in GRID_XIS:
            books.append(constructions.code_jitter(k, m, xi))
        books.append(constructions.perfect_sync_code(k, m))
    for xi in GRID_XIS:
        books.append(constructions.code_jitter_unbounded_drift(m, xi))
        for gamma in GRID_GAMMAS:
            books.append(constructions.code_jitter_bounded_drift(m, xi, gamma))
    return books


def _failed_trials(report):
    # TrialReport counts a wrong general and a wrong structured decode of the
    # same trial separately; cap so the error rate stays a share of trials
    return min(report.failures, report.trials)


class Workload:
    name = ""
    unit = ""
    #: filled by setup(): calls returning (attempted, failed)
    operations = ()

    def run_pass(self):
        attempted = failed = 0
        for operation in self.operations:
            a, f = operation()
            attempted += a
            failed += f
        return attempted, failed

    def report(self):
        """Extra end-to-end lines: {name: (value, unit, samples)}."""
        return {}


UNIFORM_CHUNKS = 5


class Roundtrip(Workload):
    """Endpoint round trips over the acceptance grid plus seeded uniform trials.

    Acceptance criterion 5 scaled down to one frame size, m=16, so that a
    pass takes a few seconds and every operation runs several times a run.
    Each pass decodes through fresh Codebook objects, so every pass pays for
    the decoder indexes the way a newly loaded codebook does.  The uniform
    trials run in chunks on one fresh codebook per pass, so no operation is
    long.
    """

    name = "roundtrip"
    unit = "trials"

    def __init__(self, frame=16, uniform_trials=5_000):
        self.frame = frame
        self.chunk_trials = uniform_trials // UNIFORM_CHUNKS

    def setup(self, seed):
        self.seed = seed
        self.grid = grid_codebooks(self.frame)
        self.headline = constructions.code_bounded_drift(2, 65, F(7, 4))
        self.operations = [functools.partial(self._endpoints, book) for book in self.grid]
        self.operations += [
            functools.partial(self._uniform, chunk) for chunk in range(UNIFORM_CHUNKS)
        ]

    def _endpoints(self, book):
        report = simulate.run_endpoint_roundtrips(copy.copy(book))
        # every (codeword, corner) pair exactly once
        missing = report.trials != len(book) << (book.k + 1)
        return report.trials, _failed_trials(report) + missing

    def _uniform(self, chunk):
        if chunk == 0:
            self.fresh_headline = copy.copy(self.headline)
        report = simulate.run_uniform_roundtrips(
            self.fresh_headline, self.chunk_trials, seed=self.seed * UNIFORM_CHUNKS + chunk
        )
        missing = report.trials != self.chunk_trials
        return report.trials, _failed_trials(report) + missing


# -- receiver ----------------------------------------------------------------

RECEIVER_XI = F(21, 20)
RECEIVER_GAMMA = F(7, 4)
# drift bound stand-in for sampling realizations when gamma is infinite;
# the same default the simulator uses
RECEIVER_T_CAP = simulate.DEFAULT_T_CAP


def receiver_codebooks():
    """k=2 M=65 in every regime at xi=21/20, gamma=7/4, plus one k=3 code."""
    xi, gamma = RECEIVER_XI, RECEIVER_GAMMA
    return [
        constructions.code_gcd(2, 65),
        constructions.code_bounded_drift(2, 65, gamma),
        constructions.code_jitter(2, 65, xi),
        constructions.code_jitter_unbounded_drift(65, xi),
        constructions.code_jitter_bounded_drift(65, xi, gamma),
        constructions.perfect_sync_code(2, 65),
        constructions.code_bounded_drift(3, 30, gamma),
    ]


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list, q in (0, 100]."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


class Receiver(Workload):
    """Float observations of seeded interior realizations, decoded one by one.

    Each signal goes through the public ``decode`` and ``decode_fast``, so
    signal normalization runs on every call.  Decoder indexes are warmed in
    set-up; a pass decodes the same signals again.
    """

    name = "receiver"
    unit = "signals"

    def __init__(self, signals_per_codebook=200):
        self.signals_per_codebook = signals_per_codebook

    def setup(self, seed):
        self.signals = []
        for index, book in enumerate(receiver_codebooks()):
            rng = random.Random(f"receiver:{seed}:{index}")
            t_cap = RECEIVER_T_CAP if book.spec.unbounded_drift else None
            for _ in range(self.signals_per_codebook):
                word = book.codewords[rng.randrange(len(book))]
                realization = channel.sample_realization(
                    book.spec, book.k, seed=rng.getrandbits(64), t_cap=t_cap
                )
                observed = channel.transmit(word, realization)
                signal = channel.ObservedSignal.from_floats(
                    [float(v) for v in observed.values]
                )
                self.signals.append((book, word, signal))
        for book, _, signal in self.signals[:: self.signals_per_codebook]:
            _try_decode(decode.decode, signal, book)
            _try_decode(decode.decode_fast, signal, book)
        self.decode_s = []
        self.decode_fast_s = []
        self.operations = [functools.partial(self._decode, *entry) for entry in self.signals]

    def _decode(self, book, word, signal):
        t0 = perf_counter()
        got = _try_decode(decode.decode, signal, book)
        t1 = perf_counter()
        got_fast = _try_decode(decode.decode_fast, signal, book)
        t2 = perf_counter()
        self.decode_s.append(t1 - t0)
        self.decode_fast_s.append(t2 - t1)
        return 1, got != word or got_fast != word

    def report(self):
        out = {}
        for label, samples in (("decode", self.decode_s), ("decode_fast", self.decode_fast_s)):
            ordered = sorted(samples)
            for q in (50, 99):
                out[f"{label}_us_p{q}"] = (percentile(ordered, q) * 1e6, "us", len(ordered))
        return out


def _try_decode(fn, signal, book):
    try:
        return fn(signal, book)
    except decode.DecodeError:
        return None


# -- design ------------------------------------------------------------------

HEADLINE = ["--k", "2", "--M", "65", "--gamma", "7/4"]

# (argv, expected stdout or "sha256:<digest of stdout>", file whose digest is
# pinned or None).  "{work}" is the work directory.  Pinned at the commit
# that added the benchmark; the headline values are the paper's.  Frames
# stop at M=256 for k=2 and M=40 for k=3, so that no step runs for much
# more than 0.2 s and a run holds many passes.
DESIGN_STEPS = (
    (
        ["construct", *HEADLINE, "--out", "{work}/headline.code"],
        "size=1736 rate=10.7616\n",
        ("headline.code", "771b713ff4b8e27c11349e9c2a0f5e59059974605ac7e584b27e5f36762d3641"),
    ),
    (["verify", "--code", "{work}/headline.code"], "pairs=1505980 violations=0\n", None),
    # two of the eight corners: every codeword, in a fifth of the full time
    (["simulate", "--code", "{work}/headline.code", "--trials", "3472"], "trials=3472 failures=0\n", None),
    (
        ["construct", "--k", "3", "--M", "20", "--out", "{work}/gcd3.code"],
        "size=997 rate=9.9614\n",
        None,
    ),
    (["verify", "--code", "{work}/gcd3.code"], "pairs=496506 violations=0\n", None),
    (
        ["construct", *HEADLINE, "--xi", "21/20", "--out", "{work}/jbd.code"],
        "size=110 rate=6.7814\n",
        None,
    ),
    (["verify", "--code", "{work}/jbd.code"], "pairs=5995 violations=0\n", None),
    # a stricter spec than the code's own, with numerators large enough to
    # push the pairwise kernel off int64 onto the exact scalar fallback
    (
        [
            "verify", "--code", "{work}/jbd.code",
            "--xi", "1.049999999999999", "--gamma", "1.749999999999999",
        ],
        "pairs=5995 violations=0\n",
        None,
    ),
    # 9 526 words: construct only
    (["construct", "--k", "3", "--M", "40", "--gamma", "7/4"], "size=9526 rate=13.2177\n", None),
    (
        ["sweep", "--param", "M", "--values", "65,128,256", "--k", "2", "--gamma", "7/4"],
        "sha256:f88cae9eee8ddaebaa39cbdd0db73e3c9a8ef68cf109066b96b22ad5a02fb15d",
        None,
    ),
    # 21 points that all rebuild the same ratio set
    (
        ["sweep", "--param", "xi", "--values", "1:11/10:1/200", *HEADLINE],
        "sha256:544dbc658d6b70d080d1848888e7b241fdf64687ae4d4f15a0737fa3b05f1aea",
        None,
    ),
)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Design(Workload):
    """The code designer's CLI pipeline, through ``cli.main`` in-process.

    Deterministic: takes no seed.  Files go to a work directory inside the
    benchmark's own output directory.
    """

    name = "design"
    unit = "steps"

    def __init__(self, steps=DESIGN_STEPS, work_dir=None):
        self.steps = steps
        self.work_dir = Path(work_dir) if work_dir else Path(__file__).parent / "out" / "work"

    def setup(self, seed):
        shutil.rmtree(self.work_dir, ignore_errors=True)
        self.work_dir.mkdir(parents=True)
        work = str(self.work_dir)
        self.operations = [
            functools.partial(
                self._step, [arg.replace("{work}", work) for arg in argv], expected, pinned_file
            )
            for argv, expected, pinned_file in self.steps
        ]

    def _step(self, argv, expected, pinned_file):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        text = out.getvalue()
        if expected.startswith("sha256:"):
            ok = _sha256(text.encode()) == expected[len("sha256:"):]
        else:
            ok = text == expected
        if pinned_file is not None:
            name, digest = pinned_file
            ok = ok and _sha256((self.work_dir / name).read_bytes()) == digest
        return 1, code != 0 or not ok


# -- oracle ------------------------------------------------------------------

INF = core.INFINITY


def _oracle_instances():
    # (k, m, xi, gamma, pinned maximum independent set size).  m=20 at
    # xi=3/2, gamma in {3/2, 7/4} is left out: each takes over a second,
    # and together they would about double the pass
    sizes = {
        (F(3, 2), F(3, 2)): (8, 10, 11, 13, 14),
        (F(3, 2), F(7, 4)): (8, 9, 11, 11, 13),
        (F(3, 2), F(4)): (5, 7, 8, 8, 9, 9),
        (F(2), F(3, 2)): (4, 6, 7, 7, 8, 9),
        (F(2), F(7, 4)): (4, 6, 6, 7, 7, 8),
        (F(2), F(4)): (3, 4, 5, 5, 5, 6),
    }
    out = []
    for (xi, gamma), mis in sizes.items():
        for m, size in zip(range(10, 21, 2), mis):
            out.append((2, m, xi, gamma, size))
    for m, size in ((14, 4), (18, 4), (22, 5)):
        out.append((2, m, F(2), INF, size))
    # sparse: building the graph dominates
    out.append((3, 16, F(1), F(4), 494))
    return tuple(out)


ORACLE_INSTANCES = _oracle_instances()


class Oracle(Workload):
    """Exact optimum by maximum independent set, with no node or time budget.

    ``optimal_code_bruteforce`` is ``confusion_graph(enumerate_inputs(k, m),
    spec)`` then ``max_independent_set``.  Deterministic: takes no seed.
    """

    name = "oracle"
    unit = "instances"

    def __init__(self, instances=ORACLE_INSTANCES):
        self.instances = instances

    def setup(self, seed):
        self.operations = [
            functools.partial(self._solve, k, m, core.ChannelSpec(xi, gamma), size)
            for k, m, xi, gamma, size in self.instances
        ]

    def _solve(self, k, m, spec, size):
        result = oracle.optimal_code_bruteforce(k, m, spec)
        return 1, result.status != oracle.EXACT or len(result.codebook) != size


WORKLOADS = {w.name: w for w in (Roundtrip, Receiver, Design, Oracle)}
