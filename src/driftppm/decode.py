"""Decoding: recover the transmitted codeword from an observed signal.

The general decoder asks, for each candidate codeword x, whether some
admissible drift factor T in [1, gamma] and jitter factors Z_i in [1, xi]
explain the observation: equivalently, whether the interval
intersection_i [Y_i/(xi*x_i), Y_i/x_i] meets [1, gamma].  For a zero-error
codebook and an in-spec observation exactly one codeword survives.

The fast decoder follows the structured procedure that core.REGIMES names
for the codebook's tag instead: ratio lookup plus a multiplier window for the
drift-chain codes, and independent per-run windows for the no-drift codes.
Both decoders are exact; float observations widen every comparison by a
relative tolerance.

Every observation enters the decoders as integer bounds [a_i, b_i] / d.  A
float is taken at its exact binary value (float.as_integer_ratio), the
values go over one common denominator, the tolerance u/w is applied to the
integer numerators, and one gcd brings all bounds to lowest common terms.

Both decoders draw their candidates from one index: the codewords grouped by
primitive vector (x / gcd(x)).  An exact observation without jitter (xi = 1)
is a multiple of the sent codeword, so it picks its group by lookup; any
other observation picks the groups whose first ratio x_2/x_1 lies within a
jitter factor of the observed one (every group, for one run).  The decoders
share only which words they look at: each decides membership on its own.

A round-trip driver decodes many exact point observations of one codebook
at once through Decoder.decode_points: the same candidates and the same
exact predicates, evaluated as int64 arrays where every product fits and as
arrays of Python ints (dtype object) otherwise.

Out-of-spec signals raise NoCodewordError -- a receiver-side convention, not
a channel-model claim; ambiguity always raises, never tie-breaks.
"""

from __future__ import annotations

import math
import weakref
from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import cached_property
from typing import Optional

import numpy as np

from .core import REGIMES, ChannelSpec, Codebook, Runs
from .channel import ObservedSignal

__all__ = [
    "DEFAULT_FLOAT_TOLERANCE",
    "DecodeError",
    "NoCodewordError",
    "AmbiguityError",
    "consistent_codewords",
    "decode",
    "decode_fast",
    "get_decoder",
    "Decoder",
]

#: Relative widening applied to float-mode observations.
DEFAULT_FLOAT_TOLERANCE = Fraction(1, 10**9)

# int64 products in the batched point decoder stay below this; past it the
# decoder runs on Python ints.
_INT64_GUARD = 1 << 62
# Integers below this convert to floats exactly.
_FLOAT_EXACT = 1 << 53
# Relative margin on a float window end.  Between them, a word's float key
# w_2/w_1 and a computed window end hold at most eight correctly rounded
# operations, each within 2^-53 of its exact value, so widening the end by
# this factor keeps every word whose exact ratio lies inside the exact window.
_MARGIN = 1 + 2.0**-32
# (observation, codeword) candidate pairs tested per batch, which bounds the
# batched decoder's memory.
_BATCH = 1 << 12


class DecodeError(Exception):
    pass


class NoCodewordError(DecodeError):
    """No codeword is consistent with the observation under the spec."""


class AmbiguityError(DecodeError):
    """Several codewords are consistent: the codebook is not zero-error here."""

    def __init__(self, message, candidates=()):
        super().__init__(message)
        self.candidates = tuple(candidates)


def _bisect_ratio(nums, dens, tn, td, right=False):
    """bisect_left (bisect_right if right) of tn/td in the ascending ratios
    nums[i]/dens[i], compared by cross-multiplication."""
    lo, hi = 0, len(nums)
    while lo < hi:
        mid = (lo + hi) // 2
        diff = nums[mid] * td - tn * dens[mid]
        if diff < 0 or (right and diff == 0):
            lo = mid + 1
        else:
            hi = mid
    return lo


def _primitive(runs) -> Runs:
    """The run vector divided by its gcd."""
    div = math.gcd(*runs)
    return tuple([r // div for r in runs])


def _primitive_columns(cols):
    """Each column of a positive integer array divided by its gcd."""
    return cols // np.gcd.reduce(cols, axis=0)


def _radix(digits, base):
    """Each column of digits below base as one integer, in the columns'
    lexicographic order: int64 when every key fits, else Python ints."""
    digits = digits.astype(np.int64 if base ** len(digits) < _INT64_GUARD else object)
    key = np.zeros(digits.shape[1], dtype=digits.dtype)
    for row in digits:
        key = key * base + row
    return key


def _candidate_pairs(order, starts, ends):
    """Yield batches (row, word): word order[s] for each s in [starts[r],
    ends[r]), row by row, about _BATCH pairs a batch (a larger row alone)."""
    sizes = ends - starts
    stops = np.cumsum(sizes)
    r0 = 0
    while r0 < len(sizes):
        base = int(stops[r0 - 1]) if r0 else 0
        r1 = max(r0 + 1, int(np.searchsorted(stops, base + _BATCH, side="right")))
        size = sizes[r0:r1]
        row = np.repeat(np.arange(r0, r1), size)
        # pair number (from base) of row r's candidate at position s is
        # s + stops[r] - size[r] - starts[r] - base
        shift = np.repeat(stops[r0:r1] - size - starts[r0:r1] - base, size)
        yield row, order[np.arange(len(row)) - shift]
        r0 = r1


def _normalize_signal(signal: ObservedSignal, tol):
    """Observation as integer bounds: value_i in [a_i, b_i] / d, with d the
    lcm of the bounds' reduced denominators.

    Exact signals give point intervals; float signals are converted to their
    exact binary values and widened by the relative tolerance, in integers.
    """
    try:
        u, w = (DEFAULT_FLOAT_TOLERANCE if tol is None else Fraction(tol)).as_integer_ratio()
    except OverflowError:  # an infinite float: out of range like any tol >= 1
        u = w = 1
    if not 0 <= u < w:
        raise ValueError(f"tolerance must lie in [0, 1), got {tol}")
    if signal.exact:
        d = math.lcm(*(v.denominator for v in signal.values))
        a = [v.numerator * (d // v.denominator) for v in signal.values]
        return a, a, d
    # Each value is num/den exactly; over the lcm L of the den it is s_i/L,
    # and its bounds are s_i*(w -+ u) / (L*w).  Dividing a, b and L*w by
    # their gcd leaves d equal to the lcm of the bounds' reduced denominators:
    # each reduced denominator divides d, and for each prime power in d some
    # bound's numerator is now coprime to that prime, so that bound's reduced
    # denominator holds the whole prime power.
    ratios = [v.as_integer_ratio() for v in signal.values]
    lcm = math.lcm(*(den for _, den in ratios))
    s = [num * (lcm // den) for num, den in ratios]
    a = [v * (w - u) for v in s]
    b = [v * (w + u) for v in s]
    g = math.gcd(lcm * w, *a, *b)
    return [v // g for v in a], [v // g for v in b], lcm * w // g


class Decoder:
    """Per-codebook decode indexes; build once, query many times.

    The codebook is held weakly, so a cached decoder does not keep it alive.
    """

    def __init__(self, codebook: Codebook):
        self._codebook = weakref.ref(codebook)
        self.k = codebook.k
        self.regime = codebook.regime
        self.words = codebook.codewords
        self._by_primitive = None
        self._ratio = None
        self._alphabet = None

    @property
    def codebook(self) -> Optional[Codebook]:
        """The decoded codebook, or None once it has been collected."""
        return self._codebook()

    def _primitive_index(self):
        # primitive (gcd-1) vector -> the codewords that are multiples of it;
        # codewords are in lex order, so each list ascends by multiplier
        if self._by_primitive is None:
            groups = {}
            for w in self.words:
                groups.setdefault(_primitive(w), []).append(w)
            self._by_primitive = groups
        return self._by_primitive

    def _ratio_index(self):
        # primitive groups sorted by their ratio base_2/base_1, kept as int
        # pairs for the bisection
        if self._ratio is None:
            entries = sorted(
                self._primitive_index().items(),
                key=lambda entry: Fraction(entry[0][1], entry[0][0]),
            )
            nums = [base[1] for base, _ in entries]
            dens = [base[0] for base, _ in entries]
            self._ratio = (entries, nums, dens)
        return self._ratio

    def _groups(self, a, b, p, q):
        """(primitive vector, codewords) groups that can hold a codeword
        consistent with the observation [a, b]; both decoders scan these."""
        if p == q and a == b:
            # jitterless exact observation Y = T*x: a consistent codeword
            # has the observation's primitive vector
            base = _primitive(a)
            return [(base, self._primitive_index().get(base, ()))]
        if self.k == 1:
            return self._primitive_index().items()  # one group, (1,); no ratio
        # ratio window: x2/x1 must lie within a jitter factor of the observed
        # ratio interval [a2/b1, b2/a1]
        entries, nums, dens = self._ratio_index()
        i0 = _bisect_ratio(nums, dens, a[1] * q, b[0] * p)
        i1 = _bisect_ratio(nums, dens, b[1] * p, a[0] * q, right=True)
        return entries[i0:i1]

    # -- general consistency decoding ------------------------------------

    def consistent_ints(self, a, b, d, p, q, g, h) -> list[Runs]:
        """All codewords consistent with [a, b]/d; (p, q, g, h) is ChannelSpec.ints."""
        out = []
        gpd = g * p * d
        hq = h * q
        b0 = b[0]
        a0hq = a[0] * hq
        for _, words in self._groups(a, b, p, q):
            for x in words:
                x1 = x[0]  # inline first-run window; kills most candidates cheaply
                if b0 < d * x1 or a0hq > gpd * x1:
                    continue
                if self._feasible(x, a, b, d, p, q, gpd, hq):
                    out.append(x)
        out.sort()
        return out

    def _feasible(self, x, a, b, d, p, q, gpd, hq) -> bool:
        # per-coordinate drift-factor windows: the candidate interval for T
        # from coordinate i is [a_i/(xi*x_i), b_i/x_i]; it must reach [1, gamma]
        for i in range(self.k):
            xi_ = x[i]
            if b[i] < d * xi_ or a[i] * hq > gpd * xi_:
                return False
        # pairwise: interval lows cannot exceed interval highs
        for i in range(self.k):
            aiq = a[i] * q
            xpi = p * x[i]
            for j in range(self.k):
                if i != j and aiq * x[j] > b[j] * xpi:
                    return False
        return True

    # -- structured fast decoding -----------------------------------------

    def _alphabet_index(self):
        if self._alphabet is None:
            alphabet = sorted({run for w in self.words for run in w})
            self._alphabet = (alphabet, set(self.words))
        return self._alphabet

    def fast_ints(self, a, b, d, p, q, g, h) -> list[Runs]:
        """Structured decode; returns the list of matches (want exactly one)."""
        structure = REGIMES[self.regime]
        if structure == "chain":
            return self._fast_chain(a, b, d, p, q, g, h)
        if structure == "alphabet":
            return self._fast_alphabet(a, b, d, p, q)
        raise ValueError(f"no structured decoder for regime {self.regime!r}")

    def _fast_chain(self, a, b, d, p, q, g, h):
        matches = []
        for base, words in self._groups(a, b, p, q):
            x1 = base[0]
            for c in range(2, self.k):
                # window on ratio c: [a_c/(b_1*xi), b_c*xi/a_1]
                if a[c] * q * x1 > b[0] * p * base[c] or base[c] * a[0] * q > b[c] * p * x1:
                    break
            else:
                # multiplier window: Y_1/x_1 must reach [1, gamma*xi]
                for w in words:
                    if b[0] < d * w[0]:
                        break  # multipliers ascend; later ones only larger
                    if a[0] * h * q <= g * p * d * w[0]:
                        matches.append(w)
        matches.sort()
        return matches

    def _fast_alphabet(self, a, b, d, p, q):
        # no drift: each run decodes on its own window [l, xi*l]
        alphabet, wordset = self._alphabet_index()
        runs = []
        for i in range(self.k):
            # every run is an integer: p*d*l >= a_i*q and d*l <= b_i
            i0 = bisect_left(alphabet, -(-a[i] * q // (p * d)))
            i1 = bisect_right(alphabet, b[i] // d)
            if i1 == i0:
                return []
            if i1 - i0 > 1:
                raise AmbiguityError(
                    f"run {i + 1} matches several alphabet values", ()
                )
            runs.append(alphabet[i0])
        word = tuple(runs)
        return [word] if word in wordset else []

    # -- batched point decoding --------------------------------------------

    def point_dtype(self, scale, d, p, q, g, h):
        """The dtype decode_points runs in for observations c_i*x_i/d of
        codewords x with every c_i <= scale: int64 when every product it
        forms stays below _INT64_GUARD and every observation converts to a
        float exactly, else object (the same code on Python ints)."""
        x = self._top
        top = scale * x
        fits = top < _FLOAT_EXACT and max(top * p * x, top * h * q, g * p * d * x) < _INT64_GUARD
        return np.int64 if fits else object

    def decode_points(self, obs, d, p, q, g, h):
        """consistent_ints and fast_ints on many exact point observations.

        obs is an array of point_dtype, one row of k values per observation,
        each read as obs/d; (p, q, g, h) is ChannelSpec.ints.  Returns
        (general, structured): per row, the index in self.words of the one
        codeword that consistent_ints, and fast_ints, would return, or -1
        when either would return none or several, or raise.  structured is
        None for a regime without a structured decoder.
        """
        rows = len(obs)
        structure = REGIMES[self.regime]
        a_cols = np.ascontiguousarray(obs.T)
        x_cols = self._word_columns.astype(obs.dtype, copy=False)
        counts = np.zeros((2, rows), dtype=np.int64)
        found = np.full((2, rows), -1, dtype=np.int64)
        gpd, hq = g * p * d, h * q
        for r, w in _candidate_pairs(*self._point_windows(a_cols, p, q)):
            # both decoders test the first run's drift window, which most
            # candidates fail; the rest is tested on the survivors
            a, x = a_cols[0, r], x_cols[0, w]
            keep = (d * x <= a) & (a * hq <= gpd * x)
            r, w = r[keep], w[keep]
            a, x = a_cols[:, r], x_cols[:, w]
            # pair[i, j] is a_i*q*x_j <= a_j*p*x_i, true when i == j
            pair = (a * q)[:, None] * x[None] <= x[:, None] * (a * p)[None]
            # _feasible: every run's drift window and every pair
            window = (d * x[1:] <= a[1:]) & (a[1:] * hq <= gpd * x[1:])
            hits = [window.all(0) & pair.all((0, 1))]
            if structure == "chain":
                # _fast_chain: each ratio x_c/x_1 in its window (for c = 2,
                # the bounds _groups gives it)
                hits.append(pair[0].all(0) & pair[:, 0].all(0))
            for s, hit in enumerate(hits):
                counts[s] += np.bincount(r[hit], minlength=rows)
                found[s, r[hit]] = w[hit]
        unique = np.where(counts == 1, found, -1)
        if structure == "chain":
            return unique[0], unique[1]
        if structure == "alphabet":
            return unique[0], self._alphabet_points(a_cols, d, p, q)
        return unique[0], None

    @cached_property
    def _top(self):
        return max(map(max, self.words))

    @cached_property
    def _word_columns(self):
        # int64 when every run fits, else Python ints
        words = np.array(self.words, dtype=np.int64 if self._top < _INT64_GUARD else object)
        return np.ascontiguousarray(words.T)

    def _point_windows(self, a_cols, p, q):
        """(order, starts, ends): the candidates for observation r (column r
        of a_cols) are the words order[starts[r]:ends[r]], the groups
        _groups gives it plus words the exact tests reject."""
        n, rows = len(self.words), a_cols.shape[1]
        if self.k > 1 and p == q:
            # a consistent codeword has the observation's primitive vector;
            # clipping its runs below base can only add candidates
            base, keys, order = self._primitive_keys
            key = _radix(np.minimum(_primitive_columns(a_cols), base - 1), base)
            return order, np.searchsorted(keys, key), np.searchsorted(keys, key, side="right")
        if self.k == 1 or self._top >= _FLOAT_EXACT or p >= q * _FLOAT_EXACT:
            # one run, runs past exact floats, or xi of 2^53 or more: every word
            return np.arange(n), np.zeros(rows, dtype=np.int64), np.full(rows, n)
        keys, order = self._ratio_keys
        # one correctly rounded division, of exact floats in int64 and of the
        # Python ints themselves otherwise
        ratio = (a_cols[1] / a_cols[0]).astype(float)
        factor = p / q * _MARGIN
        return (
            order,
            np.searchsorted(keys, ratio / factor),
            np.searchsorted(keys, ratio * factor, side="right"),
        )

    @cached_property
    def _primitive_keys(self):
        # (base, sorted keys, word order): every primitive run is below base
        prim = _primitive_columns(self._word_columns)
        base = int(prim.max()) + 1
        keys = _radix(prim, base)
        order = np.argsort(keys, kind="stable")
        return base, keys[order], order

    @cached_property
    def _ratio_keys(self):
        # (sorted float first ratios x_2/x_1, word order)
        x_cols = self._word_columns
        keys = x_cols[1] / x_cols[0]
        order = np.argsort(keys, kind="stable")
        return keys[order], order

    @cached_property
    def _alphabet_keys(self):
        # (alphabet, word keys); codewords ascend, and so do their keys
        x_cols = self._word_columns
        alphabet = np.array(self._alphabet_index()[0], dtype=x_cols.dtype)
        keys = _radix(np.searchsorted(alphabet, x_cols), len(alphabet) + 1)
        return alphabet, keys

    def _alphabet_points(self, a_cols, d, p, q):
        # _fast_alphabet: run i must match one alphabet value l, with
        # p*d*l >= a_i*q and d*l <= a_i, and the runs must form a codeword
        alphabet, keys = self._alphabet_keys
        lo = np.searchsorted(alphabet, -(-a_cols * q // (p * d)))
        hi = np.searchsorted(alphabet, a_cols // d, side="right")
        key = _radix(lo, len(alphabet) + 1)
        at = np.minimum(np.searchsorted(keys, key), len(keys) - 1)
        return np.where((hi - lo == 1).all(0) & (keys[at] == key), at, -1)


_DECODER_CACHE: dict = {}


def get_decoder(codebook: Codebook) -> Decoder:
    """Decoder for this codebook instance, cached by identity."""
    key = id(codebook)
    entry = _DECODER_CACHE.get(key)
    if entry is not None and entry[0]() is codebook:
        return entry[1]
    decoder = Decoder(codebook)
    _DECODER_CACHE[key] = (
        # bind the cache dict so the callback survives interpreter teardown
        weakref.ref(
            codebook,
            lambda _ref, _key=key, _cache=_DECODER_CACHE: _cache.pop(_key, None),
        ),
        decoder,
    )
    return decoder


def _prepare(signal, codebook, spec, tol):
    if signal.k != codebook.k:
        raise ValueError(
            f"signal has {signal.k} runs, codebook expects {codebook.k}"
        )
    spec = codebook.spec if spec is None else spec
    a, b, d = _normalize_signal(signal, tol)
    return spec, (a, b, d)


def consistent_codewords(
    signal: ObservedSignal,
    codebook: Codebook,
    spec: Optional[ChannelSpec] = None,
    tol=None,
) -> list[Runs]:
    """Every codeword that some admissible realization maps onto the signal."""
    spec, (a, b, d) = _prepare(signal, codebook, spec, tol)
    return get_decoder(codebook).consistent_ints(a, b, d, *spec.ints)


def _unique(matches, signal) -> Runs:
    if not matches:
        raise NoCodewordError(
            f"no codeword is consistent with {tuple(signal.values)}; "
            "the signal is corrupted or out of spec"
        )
    if len(matches) > 1:
        raise AmbiguityError(
            f"{len(matches)} codewords are consistent with "
            f"{tuple(signal.values)}; the codebook is not zero-error "
            "for this spec",
            matches,
        )
    return matches[0]


def decode(
    signal: ObservedSignal,
    codebook: Codebook,
    spec: Optional[ChannelSpec] = None,
    tol=None,
) -> Runs:
    """The unique consistent codeword; raises when there is none or several."""
    return _unique(consistent_codewords(signal, codebook, spec, tol), signal)


def decode_fast(
    signal: ObservedSignal,
    codebook: Codebook,
    spec: Optional[ChannelSpec] = None,
    tol=None,
) -> Runs:
    """Same contract as decode, via the structured per-regime procedure."""
    spec, (a, b, d) = _prepare(signal, codebook, spec, tol)
    if not spec.is_stricter_or_equal(codebook.spec):
        raise ValueError(
            f"decode spec ({spec}) must match the codebook spec "
            f"({codebook.spec}) or be stricter"
        )
    return _unique(get_decoder(codebook).fast_ints(a, b, d, *spec.ints), signal)
