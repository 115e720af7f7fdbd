"""Reference forms of rules the package applies in one pass.

Each helper states one rule directly: a run vector's gcd, its drift-invariant
ratio vector, one base's drift chain, the best rate over a jitter grid, and
a sweep's rows read off built codebooks.  The tests check the package's
builds, the sweep's best-rate column and the counted sweep against them.
"""

import math
from fractions import Fraction

from driftppm.cli import _parse_grid
from driftppm.constructions import (
    code_jitter_bounded_drift,
    construct,
    geometric_multipliers,
)
from driftppm.core import (
    INFINITY,
    as_ratio,
    format_ratio,
    parse_drift_ratio,
    parse_ratio,
    rate_bits,
)


def gcd_of(runs):
    """Largest integer dividing every run."""
    if not runs:
        raise ValueError("empty run vector")
    return math.gcd(*runs)


def ratio_vector(runs):
    """(x_2/x_1, ..., x_k/x_1), each in lowest terms: invariant under drift."""
    if len(runs) < 2:
        raise ValueError("ratio vector needs at least two runs")
    first = runs[0]
    return tuple(Fraction(r, first) for r in runs[1:])


def multiples_chain(runs, gamma, m):
    """Scaled copies d * runs, d on the chain of step gamma up to m // sum(runs).

    The base must have gcd 1 and fit the frame of m bins.
    """
    runs = tuple(runs)
    if gcd_of(runs) != 1:
        raise ValueError(f"chain base must have gcd 1, got {runs}")
    total = sum(runs)
    if total > m:
        raise ValueError(f"base {runs} does not fit in frame of {m}")
    return [tuple(d * r for r in runs) for d in geometric_multipliers(gamma, m // total)]


def best_achievable_rate(m, xi, gamma, xi_grid):
    """Largest jitter-bounded-drift rate over the grid, every value >= xi.

    A code built for larger jitter stays zero-error at smaller jitter.
    """
    xi = as_ratio(xi)
    grid = [as_ratio(value) for value in xi_grid]
    if not grid:
        raise ValueError("empty xi grid")
    below = [g for g in grid if g < xi]
    if below:
        raise ValueError(f"grid values below xi={xi}: {below}")
    return max(rate_bits(code_jitter_bounded_drift(m, g, gamma)) for g in grid)


def sweep_rows(args):
    """The sweep's rows, each point's codebook built to read its size and rate.

    The body is the command line's sweep as it was before sweeps counted
    their codes, kept verbatim.
    """
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
        codebook = construct(args.k, p["M"], p["xi"], p["gamma"])
        rows.append([format_ratio(v), len(codebook), rate_bits(codebook)])

    if args.param == "xi" and args.gamma != INFINITY:
        # a code built for larger jitter stays zero-error at smaller jitter,
        # so the best rate at xi is the max over grid points with value >= xi
        running = float("-inf")
        for i in sorted(range(len(rows)), key=grid.__getitem__, reverse=True):
            running = max(running, rows[i][2])
            rows[i].append(running)
    return rows
