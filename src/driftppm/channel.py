"""Channel simulation: drift and jitter factors applied to a codeword.

A realization is a drift factor T (shared by all runs of a frame) and one
jitter factor Z_i per run; the receiver observes Y_i = T * Z_i * x_i.  The
channel is adversarial -- codes must survive *every* admissible realization --
so the primary coverage tool is the set of 2^(k+1) corner realizations
(each factor at its lower or upper bound); seeded uniform sampling fills in
interior points.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .core import ChannelSpec, as_ratio

__all__ = [
    "ChannelRealization",
    "ObservedSignal",
    "transmit",
    "sample_realization",
    "endpoint_realizations",
    "derive_trial_seed",
    "endpoint_ints",
    "uniform_sampler",
]

# 53-bit grid for uniform draws: exact rationals, float-dense coverage.
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
    if not spec.unbounded_drift:
        return spec.gamma
    if t_cap is None:
        raise ValueError(
            "gamma is infinite: uniform sampling over T is undefined; "
            "use endpoints mode with a t_cap, or pass t_cap explicitly"
        )
    t_cap = as_ratio(t_cap)
    if t_cap < 1:
        raise ValueError(f"t_cap must be >= 1, got {t_cap}")
    return t_cap


def derive_trial_seed(seed: int, trial: int) -> int:
    """Stable per-trial seed so trials are reproducible under any parallelism."""
    digest = hashlib.blake2s(f"{seed}:{trial}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def sample_realization(
    spec: ChannelSpec, k: int, seed: int, t_cap=None
) -> ChannelRealization:
    """Draw one uniform realization.

    T and each Z_i are independently uniform on their intervals, on an exact
    2^-53 rational grid, reproducible from the seed.  endpoint_realizations
    gives the corners.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    td, t_step = _grid_steps(_upper_drift(spec, t_cap))
    zd, z_step = _grid_steps(spec.xi)
    rng = random.Random(seed)
    t = Fraction(td + t_step * rng.getrandbits(_GRID_BITS), td)
    z = tuple(Fraction(zd + z_step * rng.getrandbits(_GRID_BITS), zd) for _ in range(k))
    return ChannelRealization(t, z)


def _grid_steps(hi: Fraction) -> tuple[int, int]:
    """(den, step): grid point u/2^53 on [1, hi] is the factor (den + step*u)/den."""
    return hi.denominator << _GRID_BITS, hi.numerator - hi.denominator


def uniform_sampler(spec: ChannelSpec, k: int, t_cap=None):
    """Integer form of uniform sampling, for round-trip drivers.

    Returns (d, top, draw): draw(rng) -> c is the realization that
    sample_realization would draw from the same generator state, as
    integers, so that a word x is observed as Y_i = c_i * x_i / d; no c_i
    exceeds top.  It makes the same generator calls.
    """
    hi_t = _upper_drift(spec, t_cap)
    td, t_step = _grid_steps(hi_t)
    zd, z_step = _grid_steps(spec.xi)

    def draw(rng: random.Random) -> list[int]:
        t = td + t_step * rng.getrandbits(_GRID_BITS)
        return [t * (zd + z_step * rng.getrandbits(_GRID_BITS)) for _ in range(k)]

    # T <= hi_t and Z_i <= xi, over the grid denominators td and zd
    return td * zd, (hi_t.numerator * spec.xi.numerator) << (2 * _GRID_BITS), draw


def _corners(k: int) -> Iterator[tuple[int, tuple[int, ...]]]:
    """Each corner as (T high, (Z_1 high, ..., Z_k high)), 0 or 1, in index order.

    Bit 0 of the index selects T low/high and bit i selects Z_i.
    """
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
