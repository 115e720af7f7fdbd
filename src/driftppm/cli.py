"""Command-line front-end.

Subcommands: construct, sweep, simulate, verify, oracle.  Exit codes:
0 success, 1 usage error, 2 verification or simulation failure,
3 oracle budget exceeded.  All parameters are parsed as exact ratios
("7/4", "1.03", "inf"); CSV and codebook outputs are byte-stable across
runs and platforms.  construct builds a codebook only to write it to
--out; without --out it counts the code (count_code, as sweep does), with
the same refusals, the same size guard and the same output line.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from fractions import Fraction

from .core import (
    INFINITY,
    ChannelSpec,
    format_ratio,
    parse_drift_ratio,
    parse_ratio,
    rate_bits,
    _size_bits,
)
from .codebook_io import dump_codebook, load_codebook
from .constructions import _CONSTRUCTED, AUTO_REGIME, construct, count_code
from .oracle import BUDGET_EXCEEDED, optimal_code_bruteforce, verify_zero_error
from .simulate import run_endpoint_roundtrips, run_uniform_roundtrips

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FAILED = 2
EXIT_BUDGET = 3

#: Most points a start:stop:step range may expand to; every point counts a
#: code, some by listing its bases, so a larger grid is almost surely a
#: mistyped step.
_MAX_GRID_POINTS = 10_000


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        raise _UsageError(message)


def _non_negative(parse):
    """argparse type: parse the value, then refuse it below zero (or NaN)."""

    def check(text):
        value = parse(text)
        if not value >= 0:
            raise argparse.ArgumentTypeError(f"must be non-negative, got {text}")
        return value

    check.__name__ = parse.__name__  # argparse names the type in parse errors
    return check


def _as_argument(parse):
    """argparse type: parse the value, reporting a ValueError as a bad argument."""

    def check(text):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc))

    check.__name__ = parse.__name__  # argparse names the type in parse errors
    return check


_ratio = _as_argument(parse_ratio)
_drift = _as_argument(parse_drift_ratio)


def _channel_arguments(p, m_required=True) -> None:
    """--k, --M, --xi and --gamma: the frame and channel of a construction."""
    p.add_argument("--k", type=int, required=True, help="number of pulses")
    p.add_argument("--M", type=int, required=m_required, help="frame size in bins")
    p.add_argument("--xi", type=_ratio, default=Fraction(1), help="jitter ratio")
    p.add_argument("--gamma", type=_drift, default=INFINITY, help="drift ratio or inf")


@functools.cache
def _build_parser() -> _Parser:
    """The one parser of the process: parse_args returns a fresh Namespace
    each call, no default is mutable and no action appends."""
    parser = _Parser(prog="driftppm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a codebook and report its rate")
    _channel_arguments(p)
    p.add_argument(
        "--regime",
        default=AUTO_REGIME,
        choices=(AUTO_REGIME, *_CONSTRUCTED),
        help="construction to use; auto picks from (xi, gamma)",
    )
    p.add_argument("--out", help="write the codebook file here")

    p = sub.add_parser("sweep", help="rate table over a parameter grid, as CSV")
    p.add_argument("--param", required=True, choices=("gamma", "xi", "M"))
    p.add_argument(
        "--values",
        required=True,
        help="comma list ('1,7/4,inf') or range 'start:stop:step'",
    )
    _channel_arguments(p, m_required=False)
    p.add_argument("--csv", help="output path; stdout when omitted")

    p = sub.add_parser("simulate", help="round-trip decode trials over a codebook")
    p.add_argument("--code", required=True, help="codebook file")
    p.add_argument(
        "--trials",
        type=_non_negative(int),
        help="endpoints mode defaults to full coverage",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", default="endpoints", choices=("uniform", "endpoints"))
    p.add_argument("--t-cap", type=_ratio, help="drift bound stand-in when gamma=inf")

    p = sub.add_parser("verify", help="pairwise zero-error check of a codebook file")
    p.add_argument("--code", required=True)
    p.add_argument("--xi", type=_ratio, help="defaults to the file's xi")
    p.add_argument("--gamma", type=_drift, help="defaults to the file's gamma")

    p = sub.add_parser("oracle", help="exact optimum by maximum independent set")
    _channel_arguments(p)
    p.add_argument(
        "--budget-seconds", type=_non_negative(float), help="wall-clock budget"
    )
    p.add_argument(
        "--budget-nodes",
        type=_non_negative(int),
        help="search-node budget (reproducible)",
    )
    p.add_argument("--out", help="write the optimal codebook here")

    return parser


def _parse_grid(text: str, parse_one):
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"range must be start:stop:step, got {text!r}")
        start, stop, step = (parse_ratio(part) for part in parts)
        if step <= 0:
            raise ValueError("range step must be positive")
        count = max(0, math.floor((stop - start) / step) + 1)
        if count > _MAX_GRID_POINTS:
            raise ValueError(f"range has {count} points, more than {_MAX_GRID_POINTS}")
        grid = [start + i * step for i in range(count)]
    else:
        grid = [parse_one(tok) for tok in text.split(",") if tok.strip()]
    if not grid:
        raise ValueError("empty value grid")
    return grid


def _cmd_construct(args) -> int:
    if args.out:
        codebook = construct(args.k, args.M, args.xi, args.gamma, args.regime)
        dump_codebook(codebook, args.out)
        size, rate = len(codebook), rate_bits(codebook)
    else:
        # the size alone: counted, with construct's refusals, and not built
        size = count_code(args.k, args.M, args.xi, args.gamma, args.regime)
        rate = _size_bits(size)
    print(f"size={size} rate={rate:.4f}")
    return EXIT_OK


def _sweep_rows(args):
    grid = _parse_grid(args.values, parse_drift_ratio if args.param == "gamma" else parse_ratio)
    if args.param == "M":
        for v in grid:
            if v.denominator != 1 or v < 1:
                raise ValueError(f"M must be an integer of at least 1, got {format_ratio(v)}")
        grid = [int(v) for v in grid]
    elif args.M is None:
        raise ValueError("--M is required")

    rows = []
    for v in grid:
        # the shared point, with the swept field replaced
        p = {"M": args.M, "xi": args.xi, "gamma": args.gamma, args.param: v}
        size = count_code(args.k, p["M"], p["xi"], p["gamma"])
        rows.append([format_ratio(v), size, _size_bits(size)])

    if args.param == "xi" and args.gamma != INFINITY:
        # a code built for larger jitter stays zero-error at smaller jitter,
        # so the best rate at xi is the max over grid points with value >= xi
        running = float("-inf")
        for i in sorted(range(len(rows)), key=grid.__getitem__, reverse=True):
            running = max(running, rows[i][2])
            rows[i].append(running)
    return rows


_SWEEP_COLUMNS = ("param_value", "codebook_size", "rate_bits", "best_rate_bits")


def _cmd_sweep(args) -> int:
    rows = _sweep_rows(args)
    lines = [",".join(_SWEEP_COLUMNS[: len(rows[0])])]
    for label, size, *rates in rows:
        lines.append(",".join([label, str(size), *(f"{r:.4f}" for r in rates)]))
    text = "\n".join(lines) + "\n"
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_simulate(args) -> int:
    codebook = load_codebook(args.code)
    if args.mode == "endpoints":
        report = run_endpoint_roundtrips(codebook, t_cap=args.t_cap, trials=args.trials)
    else:
        if args.trials is None:
            raise ValueError("--trials is required in uniform mode")
        report = run_uniform_roundtrips(codebook, args.trials, args.seed, t_cap=args.t_cap)
    print(f"trials={report.trials} failures={report.failures}")
    return EXIT_OK if report.ok else EXIT_FAILED


def _cmd_verify(args) -> int:
    codebook = load_codebook(args.code)
    spec = ChannelSpec(
        codebook.spec.xi if args.xi is None else args.xi,
        codebook.spec.gamma if args.gamma is None else args.gamma,
    )
    report = verify_zero_error(codebook, spec)
    for x, y in report.violations:
        print(f"indistinguishable: {' '.join(map(str, x))} | {' '.join(map(str, y))}")
    print(f"pairs={report.pairs_checked} violations={len(report.violations)}")
    return EXIT_OK if report.ok else EXIT_FAILED


def _cmd_oracle(args) -> int:
    spec = ChannelSpec(args.xi, args.gamma)
    result = optimal_code_bruteforce(
        args.k,
        args.M,
        spec,
        node_budget=args.budget_nodes,
        time_budget=args.budget_seconds,
    )
    if args.out:
        dump_codebook(result.codebook, args.out)
    print(f"mis_size={len(result.codebook)} status={result.status}")
    return EXIT_BUDGET if result.status == BUDGET_EXCEEDED else EXIT_OK


_COMMANDS = {
    "construct": _cmd_construct,
    "sweep": _cmd_sweep,
    "simulate": _cmd_simulate,
    "verify": _cmd_verify,
    "oracle": _cmd_oracle,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (_UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
