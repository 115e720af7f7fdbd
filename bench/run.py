"""driftppm benchmark: four single-process workloads, timed and checked.

Usage, from the repository root:

    python3 bench/run.py --workload roundtrip|receiver|design|oracle|all \\
        [--seed N] [--seconds S] [--trace 0|1]

The package is imported from ``src/`` next to this directory; nothing needs
installing.  One run builds the workload's inputs (set-up), then repeats
passes over the workload's fixed list of operations until ``--seconds`` have
elapsed, checking every output.  ``--workload all`` runs each workload in its
own process, one after another.

End-to-end metrics (``--trace 0``; tracing off).  The first three are the
ones BENCHMARK.json gates:

    setup_s       median, over SETUP_REPEATS fresh interpreters, of the time
                  to import the package plus the workload's set-up (input
                  generation, codebook construction), each rescaled by the
                  reference loop run right after it
    wall_s        the median pass over the workload's operations, each pass
                  rescaled by the reference loop run interleaved with it
    peak_rss_mb   peak resident set size of the process, through its one
                  set-up and the first pass
    error_rate    failed / attempted operations; carried by the result's
                  ``failed`` and ``attempted``
    trials_per_s  checked operations per second over the whole timed phase:
                  round trips (roundtrip), signals decoded by both decoders
                  (receiver), CLI steps (design), oracle instances (oracle)
    decode_us_p50, decode_us_p99, decode_fast_us_p50, decode_fast_us_p99
                  per-call latency of the public decoders (receiver only)

Rescaled means: measured seconds / the mean time of the reference loop run
alongside them * ``reference.REFERENCE_S``, that loop's time on an
uncontended core.  Other tenants of a small shared host take a share of its
CPU that changes from minute to minute; the work and the interleaved
reference loop lose the same share, so the rescaled figure estimates the
time on an uncontended core and stays steady while wall-clock time moves
(see ``reference.py`` and README.md).  The wall-clock figures are printed
too, as ``setup_s_raw`` and ``wall_s_raw``, with ``reference_load``, the
reference loop's mean time over its uncontended time.  Only setup_s, wall_s
and peak_rss_mb are gated; the rest are printed.

Per-layer metrics (``--trace 1``) come from a separate traced run: see
``tracing.py`` and README.md.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from reference import REFERENCE_S, Reference

# The package does no linear algebra, but importing numpy starts one OpenBLAS
# thread per core; on a small shared host those threads made the import time
# jump between two levels.  Every workload is single-threaded, so pin it.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

WORKLOAD_NAMES = ("roundtrip", "receiver", "design", "oracle")
SETUP_REPEATS = 9
#: Reference-loop time interleaved with the timed phase, as a share of the
#: time spent in operations; and run after each set-up, as a share of it.
REFERENCE_SHARE = 0.05
SETUP_REFERENCE_SHARE = 0.5

#: Reported by every untraced run; the ones BENCHMARK.json gates.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}

#: Reported by every traced run: per-layer metrics defined on all four
#: workloads (counts, and times of layers every workload reaches).  The
#: traced run prints and writes many more; see README.md.
PER_LAYER = (
    "cli.main.calls",
    "codebook_io.dumps_codebook.calls",
    "codebook_io.loads_codebook.calls",
    "channel.derive_trial_seed.calls",
    "channel.sample_realization.calls",
    "channel.transmit.calls",
    "constructions.code_bounded_drift.calls",
    "constructions.code_gcd.calls",
    "constructions.code_jitter.calls",
    "constructions.code_jitter_bounded_drift.calls",
    "constructions.code_jitter_unbounded_drift.calls",
    "constructions.geometric_multipliers.calls",
    "constructions.perfect_sync_code.calls",
    "constructions.ratio_set.calls",
    "core.Codebook.calls",
    "core.Codebook.self_s",
    "core.check_run_vector.calls",
    "core.enumerate_inputs.calls",
    "core.enumerate_inputs.self_s",
    "decode.consistent_ints.calls",
    "decode.decode.calls",
    "decode.decode_fast.calls",
    "decode.fast_ints.calls",
    "distinguish.confusion_graph.calls",
    "distinguish.indistinguishable.calls",
    "distinguish.pairs.int64",
    "distinguish.pairs.scalar",
    "oracle.graph_edges",
    "oracle.graph_n",
    "oracle.max_independent_set.calls",
    "oracle.mis_size",
    "oracle.verify_zero_error.calls",
    "simulate.run_endpoint_roundtrips.calls",
    "simulate.run_uniform_roundtrips.calls",
    "simulate.trials",
    "trace.overhead_s",
    "trace.pass_s",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_program():
    """Import the package from this checkout's src/, or raise ImportError."""
    sys.path.insert(0, str(SRC))
    import driftppm

    if not Path(driftppm.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"driftppm was imported from {driftppm.__file__}, not {SRC}")
    import workloads

    return workloads


class Timing:
    """What the timed phase measured, pass by pass."""

    def __init__(self):
        #: per pass: (seconds spent in operations, its Reference)
        self.passes = []
        self.attempted = 0
        self.failed = 0
        self.elapsed = 0.0
        self.rss_mb = 0.0

    @property
    def wall_s(self):
        """The median pass, each pass rescaled by its own reference runs."""
        return statistics.median(ref.corrected(busy) for busy, ref in self.passes)

    @property
    def raw_pass_s(self):
        """The median pass in plain wall-clock seconds."""
        return statistics.median(busy for busy, _ in self.passes)

    @property
    def reference_s(self):
        """The median over passes of the mean reference-loop time."""
        return statistics.median(ref.mean_s for _, ref in self.passes)


def timed_passes(operations, seconds):
    """Run passes over `operations` until `seconds` have elapsed; at least one.

    Every operation is timed on its own; after each one the reference loop
    runs for REFERENCE_SHARE of the operation's time, so that each pass
    carries its own gauge of how much of the CPU the host gave it.
    """
    timing = Timing()
    begin = perf_counter()
    while True:
        busy = 0.0
        ref = Reference()
        for operation in operations:
            t0 = perf_counter()
            a, f = operation()
            t = perf_counter() - t0
            busy += t
            ref.keep_pace(t, REFERENCE_SHARE)
            timing.attempted += a
            timing.failed += f
        timing.passes.append((busy, ref))
        if len(timing.passes) == 1:
            # read here, not at exit: the decoder cache keeps every decoded
            # Codebook alive, so later passes of roundtrip would make the
            # figure depend on how many passes fit in the run
            timing.rss_mb = peak_rss_mb()
        end = perf_counter()
        if end - begin >= seconds:
            timing.elapsed = end - begin
            return timing


def peak_rss_mb():
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def line(name, value, unit, note):
    print(f"{name:<22} {value:>16.6f} {unit:<5} {note}")


def setup_seconds(name, seed):
    """Time one set-up in a fresh interpreter, as a user's process pays it.

    Returns (import, set-up, reference) seconds: importing the package (the
    CLI included), then the workload's set-up, then the mean time of the
    reference loop run right after them for SETUP_REFERENCE_SHARE of their
    time.  Set-ups run in child processes so that the measuring process holds
    only its own one, and its peak RSS counts one workload's memory.
    """
    code = (
        "import sys, time; sys.path[:0] = sys.argv[1:3]; import reference; "
        "t0 = time.perf_counter(); import driftppm.cli; t1 = time.perf_counter(); "
        "import workloads; w = workloads.WORKLOADS[sys.argv[3]](); "
        "t2 = time.perf_counter(); w.setup(int(sys.argv[4])); t3 = time.perf_counter(); "
        "ref = reference.Reference(); ref.keep_pace(t3 - t0, float(sys.argv[5])); "
        "print(t1 - t0, t3 - t2, ref.mean_s)"
    )
    proc = subprocess.run(
        [
            sys.executable, "-c", code, str(SRC), str(BENCH), name, str(seed),
            str(SETUP_REFERENCE_SHARE),
        ],
        capture_output=True, text=True, check=True, timeout=120,
    )
    import_s, setup_s, reference_s = map(float, proc.stdout.split())
    return import_s, setup_s, reference_s


def run_plain(workload, args):
    children = [setup_seconds(workload.name, args.seed) for _ in range(SETUP_REPEATS)]
    workload.setup(args.seed)
    timing = timed_passes(workload.operations, args.seconds)
    attempted, failed = timing.attempted, timing.failed
    passes = len(timing.passes)
    metrics = {
        "setup_s": statistics.median((i + s) / r * REFERENCE_S for i, s, r in children),
        "wall_s": timing.wall_s,
        "peak_rss_mb": timing.rss_mb,
    }
    line("setup_s", metrics["setup_s"], "s",
         f"n={SETUP_REPEATS} set-ups in fresh interpreters, each rescaled by its "
         f"reference runs (median)")
    line("setup_s_raw", statistics.median(i + s for i, s, _ in children), "s",
         f"n={SETUP_REPEATS} (median import "
         f"{statistics.median(i for i, _, _ in children):.4f} s, median set-up "
         f"{statistics.median(s for _, s, _ in children):.4f} s, wall clock)")
    ops = len(workload.operations)
    line("wall_s", metrics["wall_s"], "s",
         f"n={passes} passes x {ops} operations (median pass, each rescaled by its "
         f"reference runs)")
    line("wall_s_raw", timing.raw_pass_s, "s", f"n={passes} passes (median pass, wall clock)")
    line("reference_load", timing.reference_s / REFERENCE_S, "x",
         f"n={sum(len(ref.samples) for _, ref in timing.passes)} reference-loop runs "
         f"(median pass's mean over the uncontended {REFERENCE_S * 1e3:.2f} ms)")
    line("peak_rss_mb", metrics["peak_rss_mb"], "MB", "n=1 (after set-up and the first pass)")
    unit = workload.unit
    line("error_rate", failed / attempted, "", f"n={attempted} {unit} ({failed} failed)")
    line("trials_per_s", attempted / timing.elapsed, "1/s",
         f"n={attempted} {unit} over {timing.elapsed:.3f} s")
    extra = workload.report()
    for name in ("decode_us_p50", "decode_us_p99", "decode_fast_us_p50", "decode_fast_us_p99"):
        if name in extra:
            value, unit_, n = extra[name]
            line(name, value, unit_, f"n={n} calls")
        else:
            print(f"{name:<22} {'n/a':>16} {'us':<5} (receiver only)")
    return attempted, failed, {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}


def run_traced(workload, args):
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    with tracer.span("bench.setup"):
        workload.setup(args.seed)
    tracer.uninstall()
    mark = tracer.mark()

    # alternate untraced and traced passes, so the overhead compares passes
    # run under the same conditions
    untraced, traced = [], []
    attempted = failed = 0
    begin = perf_counter()
    while True:
        trace_this = len(untraced) > len(traced)
        if trace_this:
            tracer.install()
            with tracer.span("bench.pass"):
                t0 = perf_counter()
                a, f = workload.run_pass()
                traced.append(perf_counter() - t0)
            tracer.uninstall()
        else:
            t0 = perf_counter()
            a, f = workload.run_pass()
            untraced.append(perf_counter() - t0)
        attempted += a
        failed += f
        if traced and perf_counter() - begin >= args.seconds:
            break

    metrics = tracer.per_layer(mark, len(traced))
    metrics["trace.pass_s"] = (statistics.median(traced), "s")
    metrics["trace.untraced_pass_s"] = (statistics.median(untraced), "s")
    metrics["trace.overhead_s"] = (
        statistics.median(traced) - statistics.median(untraced), "s"
    )
    metrics["trace.spans"] = (len(tracer.span_start), "count")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name:<52} {value:>18.9g} {unit}")
    print(f"traced passes={len(traced)} untraced passes={len(untraced)}; "
          f"per-layer values are set-up once plus the mean traced pass")
    OUT.mkdir(exist_ok=True)
    meta = {
        "workload": workload.name,
        "seed": args.seed,
        "traced_passes": len(traced),
        "untraced_passes": len(untraced),
    }
    tracer.write(OUT / f"trace-{workload.name}", meta, metrics)
    selected = {name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in PER_LAYER}
    return attempted, failed, selected


def run_all(args):
    results = {}
    ok = True
    for name in WORKLOAD_NAMES:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        print(f"== {name}", flush=True)
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
        ok = ok and results[name]["correct"]
    print(json.dumps({
        "correct": ok,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()
        },
    }))
    return 0 if ok else 1


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        workloads = load_program()
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]()
    print(f"# driftppm benchmark workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    if args.trace:
        attempted, failed, metrics = run_traced(workload, args)
    else:
        attempted, failed, metrics = run_plain(workload, args)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
