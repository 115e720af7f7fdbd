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

Every decoder but the scalar alphabet one draws its candidates from one
index: the codewords sorted by their first ratio x_2/x_1 as a float.  A
consistent codeword's exact ratio x_c/x_1 lies in [a_c*q/(b_1*p),
b_c*p/(a_1*q)] for an observation [a, b] and jitter xi = p/q, so the
candidates are the words whose float keys lie in those windows, widened by
the margin stated in distinguish._MARGIN; without jitter an exact
observation's window is one key wide.  With two runs the index is one sorted
key, read as one range.  With three or more it windows x_3/x_1 too: the
words sorted by first ratio are cut into cells, each at least one window of
the codebook's own xi wide, and the words of a cell are sorted by x_3/x_1.
A window of the first ratio then spans at most two cells under the
codebook's spec, more under a looser one, and every cell it spans is read
over the range of x_3/x_1 ranks in the second window.  The cell of a key is
one monotone function, the same for word keys and window ends, so every word
in both float windows is read.  Ratios past the third are left to the exact
tests.  With one run, or where runs or xi reach 2^53, every word is a
candidate.  The decoders share only which words they look at: each decides
membership exactly, on its own.  The scalar alphabet decoder looks each run
up in the sorted run values instead.

A round-trip driver decodes many exact point observations of one codebook
at once through Decoder.decode_points: the same exact predicates, evaluated
as int64 arrays where every product fits and as arrays of Python ints
(dtype object) otherwise.  Its general, chain and alphabet decoders all
test the candidates of the one window; without jitter that window is the
words sharing the observation's primitive vector x / gcd(x), found by an
integer key.

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

from .core import _INT64_GUARD, REGIMES, ChannelSpec, Codebook, Runs, _block_offsets
from .channel import ObservedSignal
from .distinguish import _FLOAT_EXACT, _MARGIN, _window_pairs

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


class DecodeError(Exception):
    pass


class NoCodewordError(DecodeError):
    """No codeword is consistent with the observation under the spec."""


class AmbiguityError(DecodeError):
    """Several codewords are consistent: the codebook is not zero-error here."""

    def __init__(self, message, candidates=()):
        super().__init__(message)
        self.candidates = tuple(candidates)


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


def _normalize_signal(signal: ObservedSignal, tol):
    """Observation as integer bounds: value_i in [a_i, b_i] / d, with d the
    lcm of the bounds' reduced denominators.

    Every value is read exactly, a float at its binary value.  Float
    signals are widened by the relative tolerance, in integers; exact
    signals, with tolerance 0, give point intervals.
    """
    try:
        u, w = (DEFAULT_FLOAT_TOLERANCE if tol is None else Fraction(tol)).as_integer_ratio()
    except OverflowError:  # an infinite float: out of range like any tol >= 1
        u = w = 1
    if not 0 <= u < w:
        raise ValueError(f"tolerance must lie in [0, 1), got {tol}")
    if signal.exact:
        u, w = 0, 1
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


def _float_window(a, b, p, q, c):
    """Float bounds (lo, hi) on the ratio x_{c+1}/x_1 of a codeword consistent
    with the observation [a, b] under jitter p/q, each end one correctly
    rounded int division, then widened by _MARGIN; None when the window lies
    above every float."""
    try:
        lo = a[c] * q / (b[0] * p) / _MARGIN
    except OverflowError:
        return None
    try:
        hi = b[c] * p / (a[0] * q) * _MARGIN
    except OverflowError:
        hi = math.inf
    return lo, hi


class Decoder:
    """Per-codebook decode indexes; build once, query many times.

    The codebook is held weakly, so a cached decoder does not keep it alive.
    """

    def __init__(self, codebook: Codebook):
        self._codebook = weakref.ref(codebook)
        self.k = codebook.k
        self.regime = codebook.regime
        self.words = codebook.codewords
        self._xi = codebook.spec.ints[:2]

    @property
    def codebook(self) -> Optional[Codebook]:
        """The decoded codebook, or None once it has been collected."""
        return self._codebook()

    def _every_word(self, p, q) -> bool:
        # one run, runs past exact floats, or xi of 2^53 or more: the float
        # keys cannot narrow the search
        return self.k == 1 or self._top >= _FLOAT_EXACT or p >= q * _FLOAT_EXACT

    def _candidates(self, a, b, p, q):
        """The codewords the index holds in the window of the observation
        [a, b]: a superset of the consistent codewords."""
        if self._every_word(p, q):
            return self.words
        first = _float_window(a, b, p, q, 1)
        if first is None:
            return ()
        if self.k == 2:
            keys, words = self._ratio_lists
            return words[bisect_left(keys, first[0]):bisect_right(keys, first[1])]
        third = _float_window(a, b, p, q, 2)
        if third is None:
            return ()
        starts, thirds, keys, words = self._ratio_lists
        lo, hi = bisect_left(thirds, third[0]), bisect_right(thirds, third[1])
        out = []
        if lo < hi:
            n = len(words)
            j0 = max(bisect_right(starts, first[0]) - 1, 0)
            for cell in range(j0, bisect_right(starts, first[1])):
                out += words[bisect_left(keys, cell * n + lo):bisect_left(keys, cell * n + hi)]
        return out

    # -- general consistency decoding ------------------------------------

    def consistent_ints(self, a, b, d, p, q, g, h) -> list[Runs]:
        """All codewords consistent with [a, b]/d; (p, q, g, h) is ChannelSpec.ints."""
        out = []
        gpd = g * p * d
        hq = h * q
        b0 = b[0]
        a0hq = a[0] * hq
        for x in self._candidates(a, b, p, q):
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

    @cached_property
    def _alphabet(self):
        # the sorted run values
        return sorted({run for w in self.words for run in w})

    def fast_ints(self, a, b, d, p, q, g, h) -> list[Runs]:
        """Structured decode; returns the list of matches (want exactly one)."""
        structure = REGIMES[self.regime]
        if structure == "chain":
            return self._fast_chain(a, b, d, p, q, g, h)
        if structure == "alphabet":
            return self._fast_alphabet(a, b, d, p, q)
        raise ValueError(f"no structured decoder for regime {self.regime!r}")

    def _fast_chain(self, a, b, d, p, q, g, h):
        # the first run's drift window [1, gamma*xi], then each ratio x_c/x_1
        # in its window [a_c*q/(b_1*p), b_c*p/(a_1*q)]
        matches = []
        gpd, a0hq = g * p * d, a[0] * h * q
        a0q, b0p = a[0] * q, b[0] * p
        for w in self._candidates(a, b, p, q):
            x1 = w[0]
            if b[0] < d * x1 or a0hq > gpd * x1:
                continue
            for c in range(1, self.k):
                if a[c] * q * x1 > b0p * w[c] or w[c] * a0q > b[c] * p * x1:
                    break
            else:
                matches.append(w)
        matches.sort()
        return matches

    def _fast_alphabet(self, a, b, d, p, q):
        # no drift: each run decodes on its own window [l, xi*l]
        alphabet = self._alphabet
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
        i = bisect_left(self.words, word)  # the codewords strictly ascend
        return [word] if self.words[i:i + 1] == (word,) else []

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
        (general, structured, candidates): per row, the index in self.words
        of the one codeword that consistent_ints, and fast_ints, would
        return, or -1 when either would return none or several, or raise;
        structured is None for a regime without a structured decoder.
        candidates counts the (row, word) pairs that every decoder tests.
        """
        rows = len(obs)
        structure = REGIMES[self.regime]
        a_cols = np.ascontiguousarray(obs.T)
        x_cols = self._word_columns.astype(obs.dtype, copy=False)
        counts = np.zeros((2, rows), dtype=np.int64)
        found = np.full((2, rows), -1, dtype=np.int64)
        gpd, hq = g * p * d, h * q
        if structure == "alphabet":
            # _fast_alphabet: the rows whose every run window [a_i*q/(p*d),
            # a_i/d] holds exactly one alphabet value
            alphabet = np.array(self._alphabet, dtype=obs.dtype)
            lo = np.searchsorted(alphabet, -(-a_cols * q // (p * d)))
            single = (np.searchsorted(alphabet, a_cols // d, side="right") - lo == 1).all(0)
        order, row, starts, ends = self._point_windows(a_cols, p, q)
        candidates = 0
        for s, w in _window_pairs(order, starts, ends):
            r = row[s]
            candidates += len(r)
            # every decoder's match lies in the first run's drift window,
            # which most candidates fail; the rest is tested on the survivors
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
                # _fast_chain: each ratio x_c/x_1 in its window
                hits.append(pair[0].all(0) & pair[:, 0].all(0))
            elif structure == "alphabet":
                # _fast_alphabet: every run in its window, so every ratio in
                # its window and, as gamma >= 1, the first run in its drift
                # window; at most one word passes in a single row
                hits.append(single[r] & ((d * x <= a) & (a * q <= p * d * x)).all(0))
            for t, hit in enumerate(hits):
                counts[t] += np.bincount(r[hit], minlength=rows)
                found[t, r[hit]] = w[hit]
        unique = np.where(counts == 1, found, -1)
        return unique[0], None if structure is None else unique[1], candidates

    @cached_property
    def _top(self):
        return max(map(max, self.words), default=0)

    @cached_property
    def _word_columns(self):
        # int64 when every run fits, else Python ints
        words = np.array(self.words, dtype=np.int64 if self._top < _INT64_GUARD else object)
        return np.ascontiguousarray(words.reshape(len(self.words), self.k).T)

    def _point_windows(self, a_cols, p, q):
        """(order, row, starts, ends): observation row[s] (a column of
        a_cols) reads the words order[starts[s]:ends[s]].  The reads of one
        observation hold no word twice, and together they hold every word
        consistent with it."""
        n, rows = len(self.words), a_cols.shape[1]
        every_row = np.arange(rows)
        if self.k > 1 and p == q:
            # a consistent codeword has the observation's primitive vector;
            # clipping its runs below base can only add candidates
            base, keys, order = self._primitive_keys
            key = _radix(np.minimum(_primitive_columns(a_cols), base - 1), base)
            lo, hi = np.searchsorted(keys, key), np.searchsorted(keys, key, side="right")
            return order, every_row, lo, hi
        if self._every_word(p, q):
            return np.arange(n), every_row, np.zeros(rows, dtype=np.int64), np.full(rows, n)
        # each ratio one correctly rounded division, of exact floats in int64
        # and of the Python ints themselves otherwise
        factor = p / q * _MARGIN
        first = (a_cols[1] / a_cols[0]).astype(float)
        if self.k == 2:
            keys, order = self._ratio_keys
            lo = np.searchsorted(keys, first / factor)
            return order, every_row, lo, np.searchsorted(keys, first * factor, side="right")
        starts, thirds, keys, order = self._ratio_keys
        third = (a_cols[2] / a_cols[0]).astype(float)
        lo = np.searchsorted(thirds, third / factor)
        hi = np.searchsorted(thirds, third * factor, side="right")
        # row r reads cells j0[r] .. j0[r] + cells[r] - 1, none when no third
        # ratio lies in its window
        j0 = np.maximum(np.searchsorted(starts, first / factor, side="right") - 1, 0)
        cells = np.searchsorted(starts, first * factor, side="right") - j0
        cells[lo >= hi] = 0
        row = np.repeat(every_row, cells)
        # cell j's words with x_3/x_1 rank in [lo, hi) hold keys j*n+lo .. j*n+hi-1
        base = (j0[row] + _block_offsets(cells)) * n
        ends = np.searchsorted(keys, base + hi[row])
        return order, row, np.searchsorted(keys, base + lo[row]), ends

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
        """The ratio index.  At k = 2: (keys, order), the words' float first
        ratios x_2/x_1 sorted and the word order that sorts them.  At k >= 3:
        (starts, thirds, keys, order).  The first ratios are cut into cells:
        cell j holds those in [starts[j], starts[j+1]), and starts[j+1] is
        the least first ratio of at least starts[j] * width, width being the
        widest a point observation's window is under the codebook's own xi,
        so such a window reads at most two cells.  thirds are the sorted
        float ratios x_3/x_1, and the word order[i] has the key keys[i] =
        cell * n + the rank of its x_3/x_1 in thirds, ascending."""
        x_cols = self._word_columns
        first = x_cols[1] / x_cols[0]
        if self.k == 2:
            order = np.argsort(first, kind="stable")
            return first[order], order
        p, q = self._xi
        try:
            width = (p / q * _MARGIN) ** 2
        except OverflowError:  # one cell: no first ratio reaches past it
            width = math.inf
        ordered = np.sort(first).tolist()
        starts, i = [], 0
        while i < len(ordered):
            starts.append(ordered[i])
            i = bisect_left(ordered, ordered[i] * width, i + 1)
        third = x_cols[2] / x_cols[0]
        thirds = np.sort(third)
        cell = np.searchsorted(starts, first, side="right") - 1
        keys = cell * len(first) + np.searchsorted(thirds, third)
        order = np.argsort(keys, kind="stable")
        return np.array(starts), thirds, keys[order], order

    @cached_property
    def _ratio_lists(self):
        # _ratio_keys as lists, for bisect, with the words in index order
        *keys, order = self._ratio_keys
        return (*(key.tolist() for key in keys), [self.words[i] for i in order.tolist()])


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
