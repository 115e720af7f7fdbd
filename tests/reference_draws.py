"""Scalar reference for the uniform round trips' counter-based draws.

Written from the SplitMix64 definition in Python ints, independently of the
numpy uint64 arrays in driftppm.channel, for the tests to check them
against.
"""

import hashlib

MASK = 2**64 - 1
GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(key, i):
    """Output i, counted from 0, of SplitMix64 seeded with key: the state
    after i + 1 steps of the golden gamma, through the mix."""
    z = (key + (i + 1) * GOLDEN) & MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31)


def run_key(seed):
    """The first 8 bytes, little-endian, of blake2s of the seed's decimal text."""
    return int.from_bytes(hashlib.blake2s(str(seed).encode()).digest()[:8], "little")


def trial_draws(seed, trial, k):
    """The k+2 draws of one uniform trial: outputs trial*(k+2) .. trial*(k+2)+k+1."""
    key, slots = run_key(seed), k + 2
    return [splitmix64(key, trial * slots + j) for j in range(slots)]


def uniform_trial(seed, trial, n, k):
    """(word index in [0, n), grid indices of T, Z_1..Z_k in [0, 2^53))."""
    pick, *grid = trial_draws(seed, trial, k)
    return pick * n >> 64, [x >> 11 for x in grid]
