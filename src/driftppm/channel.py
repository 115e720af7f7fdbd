"""Channel simulation: drift and jitter factors applied to a codeword.

A realization is a drift factor T (shared by all runs of a frame) and one
jitter factor Z_i per run; the receiver observes Y_i = T * Z_i * x_i.  The
channel is adversarial -- codes must survive *every* admissible realization --
so the primary coverage tool is the set of 2^(k+1) corner realizations
(each factor at its lower or upper bound); seeded uniform sampling fills in
interior points.

Both are rows (u_T, u_Z1, ..., u_Zk) of one exact grid, index u in
[0, 2^bits] standing for 1 + (hi - 1) * u/2^bits on [1, hi]: a corner is a
row of the 0-bit grid, read from the bits of its index, and grid_ints turns
rows of any width into integer observations.

The uniform trial layout, word pick included, is written here alone.
Uniform trial t of a seed reads the k+2 outputs x_0..x_{k+1} of
counter_draws under run_key(seed).  Its codeword is floor(x_0 * n / 2^64),
each of the n within 2^-64 of probability 1/n, and the top _GRID_BITS bits
of x_1 and x_{i+1} index T and Z_i.  sample_realization is trial 0.
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
    "grid_ints",
]

# Bits of the uniform grid: exact rationals, float-dense coverage at 53.
_GRID_BITS = 53

#: Drift cap of the unbounded-drift corners unless one is given.
DEFAULT_T_CAP = Fraction(8)


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
    text, so every int seed, negative or past 2^64, has its own stream.
    Any other seed is refused, bool too: its text would hash as well."""
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise TypeError(f"seed must be an int, got {seed!r}")
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


def _uniform_trials(key: int, first: int, count: int, k: int, n: int = 0):
    """(words, rows) of uniform trials first .. first+count-1 of a run key:
    each one's codeword index among n (None when n is 0) and its grid row
    (u_T, u_Z1, ..., u_Zk), laid out as the module docstring gives."""
    x = counter_draws(key, first, count, k + 2)
    rows = x[:, 1:] >> np.uint64(64 - _GRID_BITS)
    # x_0 * n needs Python ints
    words = (x[:, 0].astype(object) * n >> 64).astype(np.intp) if n else None
    return words, rows


def _corner_rows(k: int, count: int) -> np.ndarray:
    """Grid rows of corners 0 .. count-1 on the 0-bit grid: bit 0 of a
    corner's index is u_T, low or high, and bit i is u_Zi."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return np.arange(count)[:, None] >> np.arange(k + 1) & 1


def _grid(hi: Fraction, bits: int):
    """(den, point): grid index u is the factor point(u)/den on [1, hi].
    point maps ints, and numpy object arrays of them elementwise."""
    den, step = hi.denominator << bits, hi.numerator - hi.denominator
    return den, lambda u: den + step * u


def grid_ints(spec: ChannelSpec, bits: int, t_cap=None):
    """Integer form of the 2^-bits grid of realizations, for round-trip drivers.

    Returns (d, top, factors): factors(u) maps rows u = (u_T, u_Z1, ...,
    u_Zk) of grid indices, a numpy array, to the realizations with the grid
    points T and Z_i, as rows c with c_i = T * Z_i * d, so that a word x is
    observed as Y_i = c_i * x_i / d.  The rows are numpy object arrays of
    Python ints, and no c_i exceeds top.
    """
    td, t_point = _grid(_upper_drift(spec, t_cap), bits)
    zd, z_point = _grid(spec.xi, bits)

    def factors(u: np.ndarray) -> np.ndarray:
        u = u.astype(object)
        # (T * td) * (Z_i * zd): products near 2^(2 * bits)
        return t_point(u[:, :1]) * z_point(u[:, 1:])

    # the largest factor is that of the top index 2^bits: T and every Z_i high
    return td * zd, t_point(1 << bits) * z_point(1 << bits), factors


def _realizations(spec: ChannelSpec, bits: int, t_cap, rows) -> Iterator[ChannelRealization]:
    """The realizations of grid rows (u_T, u_Z1, ..., u_Zk) of Python ints."""
    td, t_point = _grid(_upper_drift(spec, t_cap), bits)
    zd, z_point = _grid(spec.xi, bits)
    for u_t, *u_z in rows:
        yield ChannelRealization(
            Fraction(t_point(u_t), td), tuple(Fraction(z_point(u), zd) for u in u_z)
        )


def sample_realization(
    spec: ChannelSpec, k: int, seed: int, t_cap=None
) -> ChannelRealization:
    """Draw one uniform realization, that of uniform trial 0 of seed: T and
    each Z_i independently uniform on their intervals, on the exact grid.
    endpoint_realizations gives the corners."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    _, rows = _uniform_trials(run_key(seed), 0, 1, k)
    return next(_realizations(spec, _GRID_BITS, t_cap, rows.tolist()))


def endpoint_realizations(
    spec: ChannelSpec, k: int, t_cap=None
) -> Iterator[ChannelRealization]:
    """All 2^(k+1) corner realizations, in the index order of the round
    trips and, unless t_cap is given, with their drift cap DEFAULT_T_CAP."""
    t_cap = DEFAULT_T_CAP if t_cap is None else t_cap
    yield from _realizations(spec, 0, t_cap, _corner_rows(k, 2 << k).tolist())
