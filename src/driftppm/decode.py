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

Both decoders draw their candidates from one index: the codewords grouped by
primitive vector (x / gcd(x)).  An exact observation without jitter (xi = 1)
is a multiple of the sent codeword, so it picks its group by lookup; any
other observation picks the groups whose first ratio x_2/x_1 lies within a
jitter factor of the observed one (every group, for one run).  The decoders
share only which words they look at: each decides membership on its own.

Out-of-spec signals raise NoCodewordError -- a receiver-side convention, not
a channel-model claim; ambiguity always raises, never tie-breaks.
"""

from __future__ import annotations

import math
import weakref
from bisect import bisect_left, bisect_right
from fractions import Fraction
from typing import Optional

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


def _normalize_signal(signal: ObservedSignal, tol):
    """Observation as integer bounds: value_i in [A_i, B_i] / D.

    Exact signals give point intervals; float signals are converted to their
    exact binary values and widened by the relative tolerance.
    """
    if signal.exact:
        lo = hi = signal.values
    else:
        eps = DEFAULT_FLOAT_TOLERANCE if tol is None else Fraction(tol)
        exact_values = [Fraction(v) for v in signal.values]
        lo = [v * (1 - eps) for v in exact_values]
        hi = [v * (1 + eps) for v in exact_values]
    d = math.lcm(*(v.denominator for v in lo), *(v.denominator for v in hi))
    a = [int(v * d) for v in lo]
    b = [int(v * d) for v in hi]
    return a, b, d


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
