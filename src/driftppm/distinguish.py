"""Indistinguishability of inputs and the confusion graph it induces.

Two run vectors x and y are indistinguishable when some admissible drift and
jitter realizations map both onto the same received signal.  Eliminating the
common drift factor reduces this to a one-dimensional feasibility question:
writing rho for the ratio of the two drift factors, each coordinate constrains
rho to [x_i/(xi*y_i), xi*x_i/y_i], and rho itself must lie in
[1/gamma, gamma] (any positive value when gamma is infinite).  The pair is
indistinguishable iff those intervals have a common point.

A single predicate backs every regime; the per-regime closed forms live only
in the test suite as independent oracles.

The confusable pairs of a list of inputs are found without testing all n^2
pairs.  With m_lo and m_hi the least and greatest x_c/y_c, the intervals meet
iff m_hi <= xi^2 * m_lo, m_hi <= gamma*xi and m_lo >= 1/(gamma*xi).  So for
k >= 2 the first ratios s = x_2/x_1 of a confusable pair differ by at most a
factor xi^2: s(x)/s(y) = (x_2/y_2)/(x_1/y_1) lies in [m_lo/m_hi, m_hi/m_lo],
inside [1/xi^2, xi^2].  For k = 1 the one ratio x/y lies in
[1/(gamma*xi), gamma*xi], and every pair qualifies when gamma is infinite.
The inputs are sorted once by that key, and every pair inside a window of
that factor is a candidate.  A float may locate a window, with a margin that
keeps every confusable pair; where runs or the factor do not fit a float,
every pair is a candidate.  The exact test decides every candidate: one
vectorized interval test, run in int64 where every product fits and on
Python ints (dtype object) otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .core import ChannelSpec, Runs

__all__ = ["indistinguishable", "confusion_graph", "ConfusionGraph"]


def indistinguishable(x: Sequence[int], y: Sequence[int], spec: ChannelSpec) -> bool:
    """True iff x and y can produce the same output under spec."""
    if len(x) != len(y):
        raise ValueError(f"run counts differ: {len(x)} vs {len(y)}")
    xi = spec.xi
    ratios = [Fraction(a, b) for a, b in zip(x, y)]
    lo = max(ratios) / xi
    hi = min(ratios) * xi
    if lo > hi:
        return False
    if spec.unbounded_drift:
        return True
    gamma = spec.gamma
    return lo <= gamma and hi >= Fraction(1) / gamma


@dataclass(frozen=True)
class ConfusionGraph:
    """Inputs as vertices, indistinguishable pairs as edges.

    Zero-error codes are exactly the independent sets.  Adjacency is stored
    as one bitmask int per vertex for fast neighborhood intersection in the
    branch-and-bound oracle.
    """

    vertices: tuple[Runs, ...]
    spec: ChannelSpec
    neighbors: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.vertices)

    def has_edge(self, i: int, j: int) -> bool:
        return i != j and bool(self.neighbors[i] >> j & 1)

    def degree(self, i: int) -> int:
        return self.neighbors[i].bit_count()

    @property
    def edge_count(self) -> int:
        return sum(self.degree(i) for i in range(self.n)) // 2

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for i in range(self.n):
            mask = self.neighbors[i] >> (i + 1) << (i + 1)
            while mask:
                j = (mask & -mask).bit_length() - 1
                out.append((i, j))
                mask &= mask - 1
        return out


def confusion_graph(inputs: Sequence[Sequence[int]], spec: ChannelSpec) -> ConfusionGraph:
    """Graph over the given inputs with edges between indistinguishable pairs.

    Vertex order is the input order; inputs must share k and be duplicate-free.
    """
    vertices = tuple(tuple(v) for v in inputs)
    if vertices:
        k = len(vertices[0])
        for v in vertices:
            if len(v) != k:
                raise ValueError("all inputs must have the same number of runs")
    if len(set(vertices)) != len(vertices):
        raise ValueError("duplicate inputs")
    n = len(vertices)
    scan = scan_pairs(vertices, spec)
    # one bit per vertex pair, each row little-endian in whole bytes
    rows = np.zeros((n, -(-n // 8)), dtype=np.uint8)
    for a, b in ((scan.first, scan.second), (scan.second, scan.first)):
        np.bitwise_or.at(rows, (a, b >> 3), (1 << (b & 7)).astype(np.uint8))
    masks = tuple(int.from_bytes(row.tobytes(), "little") for row in rows)
    return ConfusionGraph(vertices, spec, masks)


@dataclass(frozen=True)
class PairScan:
    """Indistinguishable pairs of a vertex list and how they were found.

    Pair t is (first[t], second[t]), first < second, in ascending order.
    ``candidates`` pairs reached the exact test, which ran as ``kernel``:
    "int64", or "scalar" (the same vectorized test on Python ints).
    """

    first: np.ndarray
    second: np.ndarray
    candidates: int
    kernel: str

    def pairs(self) -> list[tuple[int, int]]:
        return list(zip(self.first.tolist(), self.second.tolist()))


# int64 products in the pair kernel stay below this; past it the kernel runs
# on Python ints.
_INT64_GUARD = 1 << 62
# Windows are located in floats only for runs below this, where every run
# converts to a float exactly.
_FLOAT_EXACT = 1 << 53
# Relative margin on a float window end.  Keys x_2/x_1 of runs below
# _FLOAT_EXACT, the factor, its product with the margin and each key's
# product with that are correctly rounded, each within u = 2^-53.  If the
# exact keys satisfy s_b <= factor * s_a, the float key of b exceeds the
# float key of a times the factor by at most (1+u)/(1-u), while the computed
# window end is at least that product times (1-u)^3 * _MARGIN, which is
# larger.  Rounding is monotone, so sorting by float keys keeps exact order
# up to ties, and ties share a window.  No confusable pair is dropped.
_MARGIN = 1 + 2.0**-32
# Candidate pairs tested per batch, which bounds the kernel's memory.
_BATCH = 1 << 13


def scan_pairs(vertices: Sequence[Runs], spec: ChannelSpec) -> PairScan:
    """Every indistinguishable pair of vertices, by the candidate window."""
    vertices = list(vertices)
    p, q, g, h = spec.ints
    mx = max(map(max, vertices), default=0)
    scalar = max(p * p, q * q, g * p, h * q) * mx * mx >= _INT64_GUARD
    arr = np.array(vertices, dtype=object if scalar else np.int64)
    columns = [np.ascontiguousarray(c) for c in arr.T]
    # each unordered pair is found once; key it by its (low, high) index
    n = len(vertices)
    keys = []
    candidates = 0
    for i, j in _candidates(arr, mx, spec):
        candidates += len(i)
        keep = _kernel(columns, i, j, p, q, g, h)
        i, j = i[keep], j[keep]
        keys.append(np.minimum(i, j) * n + np.maximum(i, j))
    key = np.concatenate(keys) if keys else np.empty(0, dtype=np.int64)
    key.sort(kind="stable")
    first, second = np.divmod(key, n)
    return PairScan(first, second, candidates, "scalar" if scalar else "int64")


def _windows(arr, mx, spec):
    """Vertex indices sorted by window key, and for each sorted position the
    exclusive end of its window."""
    n, k = arr.shape
    factor = spec.xi * spec.xi if k > 1 else spec.gamma * spec.xi
    if mx >= _FLOAT_EXACT or factor >= _FLOAT_EXACT**2:
        # runs a float cannot hold, or a factor past every ratio of runs
        # below _FLOAT_EXACT (unbounded drift at k = 1): every pair is a candidate
        return np.arange(n), np.full(n, n)
    runs = arr.astype(float)
    keys = runs[:, 0] if k == 1 else runs[:, 1] / runs[:, 0]
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    return order, np.searchsorted(keys, keys * (float(factor) * _MARGIN), side="right")


def _candidates(arr, mx, spec):
    """Yield batches (i, j) of candidate vertex pairs: every pair of sorted
    positions a < b with b inside a's window, each pair once."""
    if not len(arr):
        return
    order, ends = _windows(arr, mx, spec)
    n = len(order)
    counts = ends - np.arange(1, n + 1)
    stops = np.cumsum(counts)
    a0 = 0
    while a0 < n:
        base = int(stops[a0 - 1]) if a0 else 0
        a1 = max(a0 + 1, int(np.searchsorted(stops, base + _BATCH, side="right")))
        c = counts[a0:a1]
        first = np.repeat(np.arange(a0, a1), c)
        offset = np.arange(len(first)) - np.repeat(stops[a0:a1] - c - base, c)
        yield order[first], order[first + 1 + offset]
        a0 = a1


def _kernel(columns, i, j, p, q, g, h):
    """Interval test on vertex pairs (i, j), vectorized over the columns'
    dtype: int64, or object (Python ints) past the int64 guard.

    Tracks m_hi = max_c x_c/y_c and m_lo = min_c x_c/y_c as numerator and
    denominator; the pair is indistinguishable iff m_hi <= xi^2 * m_lo,
    m_hi <= gamma*xi and m_lo >= 1/(gamma*xi); (p, q, g, h) is ChannelSpec.ints.
    """
    hi_num = lo_num = columns[0][i]
    hi_den = lo_den = columns[0][j]
    for col in columns[1:]:
        xc, yc = col[i], col[j]
        bigger = xc * hi_den > hi_num * yc
        hi_num = np.where(bigger, xc, hi_num)
        hi_den = np.where(bigger, yc, hi_den)
        smaller = xc * lo_den < lo_num * yc
        lo_num = np.where(smaller, xc, lo_num)
        lo_den = np.where(smaller, yc, lo_den)
    keep = hi_num * lo_den * (q * q) <= lo_num * hi_den * (p * p)
    keep &= hi_num * (h * q) <= hi_den * (g * p)
    keep &= lo_num * (g * p) >= lo_den * (h * q)
    return keep
