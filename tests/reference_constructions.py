"""Reference forms of rules the package applies in one pass.

Each helper states one rule directly: a run vector's gcd, its drift-invariant
ratio vector, one base's drift chain, and the best rate over a jitter grid.
The tests check the package's builds and the sweep's best-rate column
against them.
"""

import math
from fractions import Fraction

from driftppm.constructions import code_jitter_bounded_drift, geometric_multipliers
from driftppm.core import as_ratio, rate_bits


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
