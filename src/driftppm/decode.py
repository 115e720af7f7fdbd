"""Decoding: recover the transmitted codeword from an observed signal.

The general decoder asks, for each candidate codeword x, whether some
admissible drift factor T in [1, gamma] and jitter factors Z_i in [1, xi]
explain the observation: equivalently, whether the interval
intersection_i [Y_i/(xi*x_i), Y_i/x_i] meets [1, gamma].  For a zero-error
codebook and an in-spec observation exactly one codeword survives.

The fast decoder follows the structured procedure that core.REGIMES names
for the codebook's tag instead: ratio lookup plus a multiplier window for the
drift-chain codes, and independent per-run windows for the no-drift codes.
The alphabet decoder returns every codeword whose runs each lie in their
window [a_i*q/(p*d), b_i/d]: under gamma = 1, exactly the consistent ones.
Both decoders are exact; float observations widen every comparison by a
relative tolerance.

Every observation enters the decoders as integer bounds [a_i, b_i] / d.  A
float is taken at its exact binary value (float.as_integer_ratio), the
values go over one common denominator, the tolerance u/w is applied to the
integer numerators, and one gcd brings all bounds to lowest common terms.
As gcd_i(c*s_i) = c*gcd_i(s_i), the gcd of the bounds s_i*(w -+ u) and the
denominator L*w is the small gcd(L*w, gcd(s) * gcd(w - u, w + u)).

Every decoder draws its candidates from one index: the codewords sorted by
their first ratio x_2/x_1 as a float.  A consistent codeword's exact ratio
x_c/x_1 lies in [a_c*q/(b_1*p), b_c*p/(a_1*q)] for an observation [a, b] and
jitter xi = p/q, so the candidates are the words whose float keys lie in
those windows, widened by the margin stated in distinguish._MARGIN; without
jitter an exact observation's window is one key wide.  With two runs the
index is one sorted key, read as one range.  With three or more it windows
x_3/x_1 too: the words sorted by first ratio are cut into cells, each at
least one window of the codebook's own xi wide, and the words of a cell are
sorted by x_3/x_1.  A window of the first ratio then spans at most two cells
under the codebook's spec, more under a looser one, and every cell it spans
is read over the range of x_3/x_1 ranks in the second window.  The cell of a
key is one monotone function, the same for word keys and window ends, so
every word in both float windows is read.  Ratios past the third are left to
the exact tests.  With one run, or where runs or xi reach 2^53, every word
is a candidate.  The decoders share only which words they look at: each
decides membership exactly, on its own.  The scalar alphabet decoder reads
the index only when a run's window holds several run values; otherwise it
looks each run up in the sorted run values.

A round-trip driver decodes many exact point observations of one codebook
at once through Decoder.decode_points: the same exact predicates, evaluated
as int64 arrays where every product fits and as arrays of Python ints
(dtype object) otherwise.  Its general, chain and alphabet decoders all
test the candidates of the one window, each test a one-dimensional
comparison over the candidates' columns.  The ratio test, each x_c/x_1 in
its window, is the chain decoder; the general decoder adds the drift windows
of runs 2..k and the pairs of runs among them.  Without jitter the ratio test
forces a_c*x_1 = a_1*x_c, which makes every run's window the first run's and
every pair an equality, so the general decoder is the ratio test too: O(k)
comparisons per candidate.  The same equal ratios make a consistent word's
float keys the observation's own, so at k >= 3 a jitterless window is read
exactly: the one cell of the observation's first key, at the rank of its
x_3/x_1 key.

Decoder methods return every match.  Only decode and decode_fast raise:
NoCodewordError for an out-of-spec signal (a receiver-side convention, not a
channel-model claim), AmbiguityError for several matches, never tie-breaking.
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
# (u, w) of the default tolerance u/w, read once
_DEFAULT_TOLERANCE = DEFAULT_FLOAT_TOLERANCE.as_integer_ratio()


class DecodeError(Exception):
    pass


class NoCodewordError(DecodeError):
    """No codeword is consistent with the observation under the spec."""


class AmbiguityError(DecodeError):
    """Several codewords are consistent: the codebook is not zero-error here."""

    def __init__(self, message, candidates=()):
        super().__init__(message)
        self.candidates = tuple(candidates)


def _normalize_signal(signal: ObservedSignal, tol):
    """Observation as integer bounds: value_i in [a_i, b_i] / d, with d the
    lcm of the bounds' reduced denominators.

    Every value is read exactly, a float at its binary value.  Float
    signals are widened by the relative tolerance, in integers; exact
    signals, with tolerance 0, give point intervals.
    """
    if tol is None:
        u, w = _DEFAULT_TOLERANCE
    else:
        try:
            u, w = Fraction(tol).as_integer_ratio()
        except (OverflowError, ValueError):  # an infinite or NaN float: out of range
            u = w = 1
        if not 0 <= u < w:
            raise ValueError(f"tolerance must lie in [0, 1), got {tol}")
    if signal.exact:
        u, w = 0, 1
    # Each value is num/den exactly; over the lcm L of the den it is s_i/L,
    # and its bounds are s_i*(w -+ u) / (L*w).  Dividing every bound and L*w
    # by their gcd leaves d equal to the lcm of the bounds' reduced
    # denominators: each reduced denominator divides d, and for each prime
    # power in d some bound's numerator is now coprime to that prime, so that
    # bound's reduced denominator holds the whole prime power.  As
    # gcd_i(c*s_i) = c*gcd_i(s_i), that gcd is one small one:
    # gcd(L*w, gcd(s) * gcd(w - u, w + u)).
    ratios = [v.as_integer_ratio() for v in signal.values]
    lcm = math.lcm(*[den for _, den in ratios])
    s = [num * (lcm // den) for num, den in ratios]
    lo, hi = w - u, w + u
    g = math.gcd(lcm * w, math.gcd(*s) * math.gcd(lo, hi))
    if g == 1:  # every exact signal, and most float ones
        return [v * lo for v in s], [v * hi for v in s], lcm * w
    return [v * lo // g for v in s], [v * hi // g for v in s], lcm * w // g


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
    """Per-codebook decode indexes; build once, query many times.  Its
    decoders return every match; only decode and decode_fast raise.

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
        """Structured decode: the sorted matches, none or several included;
        the alphabet decoder's are the words with every run in its window."""
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
        # no drift: a codeword matches when each run x_i lies in its own
        # window [a_i*q/(p*d), b_i/d]; every run is an integer
        alphabet, pd = self._alphabet, p * d
        runs = []
        for i in range(self.k):
            i0 = bisect_left(alphabet, -(-a[i] * q // pd))
            i1 = bisect_right(alphabet, b[i] // d)
            if i1 - i0 != 1:
                # no value fits, or several do: then the words the index
                # holds are tested run by run
                return [] if i1 == i0 else sorted(
                    w for w in self._candidates(a, b, p, q)
                    if all(ai * q <= pd * x and d * x <= bi for ai, bi, x in zip(a, b, w))
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
        return, or -1 when either would return none or several;
        structured is None for a regime without a structured decoder.
        candidates counts, per row, the words that every decoder tests.

        Each test compares columns of candidates: the first run's drift
        window, then the 2(k-1) ratio comparisons that are the chain test.
        Under jitter the general test adds k-1 drift windows and the
        (k-1)(k-2) pairs of runs 2..k; without jitter it is the ratio test.
        No product exceeds what point_dtype bounds.
        """
        rows, k = len(obs), self.k
        structure = REGIMES[self.regime]
        a_cols = np.ascontiguousarray(obs.T)
        x_cols = self._word_columns.astype(obs.dtype, copy=False)
        counts = np.zeros((2, rows), dtype=np.int64)
        found = np.full((2, rows), -1, dtype=np.int64)
        gpd, hq, pd = g * p * d, h * q, p * d
        order, row, starts, ends = self._point_windows(a_cols, p, q)
        candidates = np.zeros(rows, dtype=np.int64)
        np.add.at(candidates, row, ends - starts)
        for s, w in _window_pairs(order, starts, ends):
            r = row[s]
            # every decoder's match lies in the first run's drift window,
            # which most candidates fail; the rest is tested on the survivors
            a, x = a_cols[0, r], x_cols[0, w]
            keep = (d * x <= a) & (a * hq <= gpd * x)
            r, w = r[keep], w[keep]
            a, x = a_cols[:, r], x_cols[:, w]
            # the pair (i, j) is a_i*q*x_j <= a_j*p*x_i.  ratio holds the
            # pairs (1, c) and (c, 1): each ratio x_c/x_1 in its window,
            # which is _fast_chain's test
            a1q, a1p = a[0] * q, a[0] * p
            ratio = np.ones(len(r), dtype=bool)
            for c in range(1, k):
                ratio &= (a[c] * q * x[0] <= a1p * x[c]) & (a1q * x[c] <= a[c] * p * x[0])
            # _feasible adds the drift windows of runs 2..k and the pairs
            # (i, j) with i, j >= 2.  Without jitter (p = q) ratio forces
            # a_c*x_1 = a_1*x_c: run c's window is then the first run's
            # scaled by x_c/x_1 > 0, which the prefilter passed, and each
            # pair is the equality a_i*x_j = a_j*x_i, so ratio decides
            general = ratio
            if p != q:
                general = ratio.copy()
                for i in range(1, k):
                    general &= (d * x[i] <= a[i]) & (a[i] * hq <= gpd * x[i])
                    aiq, aip = a[i] * q, a[i] * p
                    for j in range(i + 1, k):
                        general &= (aiq * x[j] <= a[j] * p * x[i]) & (a[j] * q * x[i] <= aip * x[j])
            hits = [general]
            if structure == "chain":
                hits.append(ratio)
            elif structure == "alphabet":
                # _fast_alphabet: every run in its window, so every ratio in
                # its window and, as gamma >= 1, the first run in its drift
                # window
                hits.append(((d * x <= a) & (a * q <= pd * x)).all(0))
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
        consistent with it.  Without jitter they are the words whose keys
        equal the observation's: at k = 2 the one-key window, at k >= 3 one
        cell at one x_3/x_1 rank."""
        n, rows = len(self.words), a_cols.shape[1]
        every_row = np.arange(rows)
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
        if p == q:
            # without jitter a consistent word's ratios are the observation's,
            # each key the correctly rounded quotient of the same rational:
            # read that key's one cell, at that x_3/x_1 rank (a first key
            # below every cell start gives a negative key, which no word has)
            cell = np.searchsorted(starts, first, side="right") - 1
            key = cell * n + np.searchsorted(thirds, third)
            lo = np.searchsorted(keys, key)
            return order, every_row, lo, np.searchsorted(keys, key, side="right")
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
    # the codebook's own spec needs no comparison with itself
    if spec is not codebook.spec and not spec.is_stricter_or_equal(codebook.spec):
        raise ValueError(
            f"decode spec ({spec}) must match the codebook spec "
            f"({codebook.spec}) or be stricter"
        )
    return _unique(get_decoder(codebook).fast_ints(a, b, d, *spec.ints), signal)
