"""Channel simulation: drift and jitter factors applied to a codeword.

A realization is a drift factor T (shared by all runs of a frame) and one
jitter factor Z_i per run; the receiver observes Y_i = T * Z_i * x_i.  The
channel is adversarial -- codes must survive *every* admissible realization --
so the primary coverage tool is the set of 2^(k+1) corner realizations
(each factor at its lower or upper bound); seeded uniform sampling fills in
interior points.

Uniform trial t of a seed reads the k+2 outputs x_0..x_{k+1} of
counter_draws under run_key(seed).  Its codeword is floor(x_0 * n / 2^64),
each of the n within 2^-64 of probability 1/n, and the top _GRID_BITS bits
of x_1 and x_{i+1} index T and Z_i on an exact 2^-_GRID_BITS rational grid.
sample_realization is trial 0.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from .core import ChannelSpec, as_ratio

__all__ = [
    "ChannelRealization",
    "ObservedSignal",
    "transmit",
    "sample_realization",
    "endpoint_realizations",
    "derive_trial_seed",
    "run_key",
    "counter_draws",
    "endpoint_ints",
    "uniform_sampler",
]

# Bits of the uniform grid: exact rationals, float-dense coverage at 53.
_GRID_BITS = 53


@dataclass(frozen=True)
class ChannelRealization:
    """One admissible (T, Z_1..Z_k) assignment, all exact rationals."""

    t: Fraction
    z: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "t", as_ratio(self.t))
        object.__setattr__(self, "z", tuple(as_ratio(v) for v in self.z))
        if self.t < 1 or any(v < 1 for v in self.z):
            raise ValueError("drift and jitter factors are normalized to >= 1")


@dataclass(frozen=True)
class ObservedSignal:
    """Received run lengths; exact rationals, or floats for receiver realism."""

    values: tuple
    exact: bool

    def __post_init__(self):
        if not self.values:
            raise ValueError("empty signal")
        if any(isinstance(v, float) and not math.isfinite(v) for v in self.values):
            raise ValueError("observations must be finite")
        if any(v <= 0 for v in self.values):
            raise ValueError("observations must be strictly positive")

    @classmethod
    def from_exact(cls, values: Sequence) -> "ObservedSignal":
        return cls(tuple(as_ratio(v) for v in values), True)

    @classmethod
    def from_floats(cls, values: Sequence[float]) -> "ObservedSignal":
        return cls(tuple(float(v) for v in values), False)

    def as_floats(self) -> "ObservedSignal":
        return ObservedSignal.from_floats([float(v) for v in self.values])

    @property
    def k(self) -> int:
        return len(self.values)


def transmit(runs: Sequence[int], realization: ChannelRealization) -> ObservedSignal:
    """Apply a realization to a codeword: Y_i = T * Z_i * x_i, exactly."""
    if len(runs) != len(realization.z):
        raise ValueError(
            f"realization has {len(realization.z)} jitter factors "
            f"for {len(runs)} runs"
        )
    t = realization.t
    return ObservedSignal(
        tuple(t * z * x for z, x in zip(realization.z, runs)), True
    )


def _upper_drift(spec: ChannelSpec, t_cap) -> Fraction:
    if t_cap is not None:
        t_cap = as_ratio(t_cap)
        if t_cap < 1:
            raise ValueError(f"t_cap must be >= 1, got {t_cap}")
    if not spec.unbounded_drift:
        return spec.gamma
    if t_cap is None:
        raise ValueError(
            "gamma is infinite: uniform sampling over T is undefined; "
            "use endpoints mode with a t_cap, or pass t_cap explicitly"
        )
    return t_cap


def derive_trial_seed(seed: int, trial: int) -> int:
    """Stable per-trial seed so trials are reproducible under any parallelism."""
    digest = hashlib.blake2s(f"{seed}:{trial}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def run_key(seed: int) -> int:
    """64-bit key of a seed's uniform round trips: blake2s of its decimal
    text, so every int seed, negative or past 2^64, has its own stream."""
    digest = hashlib.blake2s(str(seed).encode()).digest()
    return int.from_bytes(digest[:8], "little")


def counter_draws(key: int, first: int, count: int, slots: int) -> np.ndarray:
    """Draws of trials first .. first+count-1, as a (count, slots) uint64 array.

    Entry [r, j] is output (first + r) * slots + j, counted from 0, of
    SplitMix64 (Steele, Lea & Flood, OOPSLA 2014) seeded with key: the
    state key + (counter + 1) * golden gamma = counter * golden + (key +
    golden), modulo 2^64, through its mix.
    Each entry is a function of (key, trial, slot) alone, so a batch is
    array arithmetic and no trial depends on the others.  Every operation
    is on arrays, whose uint64 arithmetic wraps without a warning.
    """
    golden = 0x9E3779B97F4A7C15
    counter = np.arange(first * slots, (first + count) * slots, dtype=np.uint64)
    z = counter.reshape(count, slots) * np.uint64(golden) + np.uint64((key + golden) % 2**64)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _grid_indices(x: np.ndarray) -> np.ndarray:
    """Rows (u_T, u_Z1, ..., u_Zk) of uniform trials' draws x: slots 1..k+1's top bits."""
    return x[:, 1:] >> np.uint64(64 - _GRID_BITS)


def sample_realization(
    spec: ChannelSpec, k: int, seed: int, t_cap=None
) -> ChannelRealization:
    """Draw one uniform realization, that of uniform trial 0 of seed: T and
    each Z_i independently uniform on their intervals, on the exact grid.
    endpoint_realizations gives the corners."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    td, t_point = _grid(_upper_drift(spec, t_cap))
    zd, z_point = _grid(spec.xi)
    ((u_t, *u_z),) = _grid_indices(counter_draws(run_key(seed), 0, 1, k + 2)).tolist()
    t = Fraction(t_point(u_t), td)
    return ChannelRealization(t, tuple(Fraction(z_point(u), zd) for u in u_z))


def _grid(hi: Fraction):
    """(den, point): grid index u in [0, 2^_GRID_BITS) is the factor
    point(u)/den = 1 + (hi - 1) * u/2^_GRID_BITS on [1, hi].  point maps
    ints, and numpy object arrays of them elementwise."""
    den, step = hi.denominator << _GRID_BITS, hi.numerator - hi.denominator
    return den, lambda u: den + step * u


def uniform_sampler(spec: ChannelSpec, t_cap=None):
    """Integer form of uniform sampling, for round-trip drivers.

    Returns (d, top, factors): factors(u) maps grid indices to realizations,
    row by row, on a numpy object array of Python ints.  A row u = (u_T,
    u_Z1, ..., u_Zk) of grid indices is the realization with the grid
    points T and Z_i that sample_realization would give for the same
    indices, as the row c with c_i = T * Z_i * d, so that a word x is
    observed as Y_i = c_i * x_i / d.  No c_i exceeds top.
    """
    hi_t = _upper_drift(spec, t_cap)
    td, t_point = _grid(hi_t)
    zd, z_point = _grid(spec.xi)

    def factors(u: np.ndarray) -> np.ndarray:
        # (T * td) * (Z_i * zd): products near 2^110
        return t_point(u[:, :1]) * z_point(u[:, 1:])

    # T <= hi_t and Z_i <= xi, over the grid denominators td and zd
    return td * zd, (hi_t.numerator * spec.xi.numerator) << (2 * _GRID_BITS), factors


def _corners(k: int) -> Iterator[tuple[int, tuple[int, ...]]]:
    """Each corner as (T high, (Z_1 high, ..., Z_k high)), 0 or 1, in index order.

    Bit 0 of the index selects T low/high and bit i selects Z_i.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    for index in range(1 << (k + 1)):
        yield index & 1, tuple(index >> i & 1 for i in range(1, k + 1))


def endpoint_ints(spec: ChannelSpec, k: int, t_cap=None) -> tuple[int, list[list[int]]]:
    """(d, factors): the corner realizations in index order, corner j as
    Y_i = factors[j][i] * x_i / d."""
    hi_t = _upper_drift(spec, t_cap)
    xi = spec.xi
    # with d = den(T_hi) * den(xi), the factor t*z*d of each low/high choice
    t_factor = (hi_t.denominator, hi_t.numerator)
    z_factor = (xi.denominator, xi.numerator)
    d = hi_t.denominator * xi.denominator
    return d, [[t_factor[t] * z_factor[z] for z in zs] for t, zs in _corners(k)]


def endpoint_realizations(
    spec: ChannelSpec, k: int, t_cap=None
) -> Iterator[ChannelRealization]:
    """All 2^(k+1) corner realizations, in the index order of _corners."""
    t_values = (Fraction(1), _upper_drift(spec, t_cap))
    z_values = (Fraction(1), spec.xi)
    for t, zs in _corners(k):
        yield ChannelRealization(t_values[t], tuple(z_values[z] for z in zs))
