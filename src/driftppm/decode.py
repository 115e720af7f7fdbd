"""Decoding: recover the transmitted codeword from an observed signal.

The general decoder asks, for each candidate codeword x, whether some
admissible drift factor T in [1, gamma] and jitter factors Z_i in [1, xi]
explain the observation: equivalently, whether the interval
intersection_i [Y_i/(xi*x_i), Y_i/x_i] meets [1, gamma].  For a zero-error
codebook and an in-spec observation exactly one codeword survives.

The fast decoder follows the structured per-regime procedures instead: ratio
lookup plus a multiplier window for the drift-chain codes, and independent
per-run windows for the no-drift codes.  Both decoders are exact; float
observations widen every comparison by a relative tolerance.  An exact
observation without jitter (xi = 1) is a multiple of the sent codeword, so
both decoders look its candidates up by primitive vector (x / gcd(x)).

Out-of-spec signals raise NoCodewordError -- a receiver-side convention, not
a channel-model claim; ambiguity always raises, never tie-breaks.
"""

from __future__ import annotations

import math
import weakref
from fractions import Fraction
from typing import Optional

from .core import ChannelSpec, Codebook, Runs
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


def _bisect_left_frac(nums, dens, tn, td):
    """First index with nums[i]/dens[i] >= tn/td (arrays sorted ascending)."""
    lo, hi = 0, len(nums)
    while lo < hi:
        mid = (lo + hi) // 2
        if nums[mid] * td < tn * dens[mid]:
            lo = mid + 1
        else:
            hi = mid
    return lo


def _bisect_right_frac(nums, dens, tn, td):
    """First index with nums[i]/dens[i] > tn/td."""
    lo, hi = 0, len(nums)
    while lo < hi:
        mid = (lo + hi) // 2
        if nums[mid] * td <= tn * dens[mid]:
            lo = mid + 1
        else:
            hi = mid
    return lo


def _primitive(runs) -> Runs:
    """The run vector divided by its gcd."""
    div = math.gcd(*runs)
    return tuple([r // div for r in runs])


def _spec_ints(spec: ChannelSpec):
    """(p, q, g, h, finite): xi = p/q and, when finite, gamma = g/h."""
    p, q = spec.xi.numerator, spec.xi.denominator
    if spec.unbounded_drift:
        return p, q, 1, 1, False
    return p, q, spec.gamma.numerator, spec.gamma.denominator, True


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
        self._general = None
        self._by_primitive = None
        self._chain = None
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

    # -- general consistency decoding ------------------------------------

    def _general_index(self):
        # codewords sorted by x_1 (k=1) or by the ratio x_2/x_1, kept as int
        # pairs so queries never touch Fraction objects
        if self._general is None:
            if self.k == 1:
                order = list(self.words)  # lex order = sorted by the only run
                nums = [w[0] for w in order]
                dens = [1] * len(order)
            else:
                order = sorted(self.words, key=lambda w: Fraction(w[1], w[0]))
                nums = [w[1] for w in order]
                dens = [w[0] for w in order]
            self._general = (order, nums, dens)
        return self._general

    def consistent_ints(self, a, b, d, p, q, g, h, finite) -> list[Runs]:
        """All codewords consistent with the observation [a, b]/d."""
        if self.k > 1 and p == q and a == b:
            # jitterless exact observation Y = T*x: a consistent codeword
            # has the observation's primitive vector
            candidates = self._primitive_index().get(_primitive(a), ())
        else:
            order, nums, dens = self._general_index()
            if self.k == 1:
                # T*Z_1*x_1 must land in the observed interval
                i0 = 0
                if finite:
                    # x_1 >= lo/(gamma*xi): smallest index with x*g*p*d >= a*h*q
                    i0 = _bisect_left_frac(nums, dens, a[0] * h * q, g * p * d)
                return order[i0:_bisect_right_frac(nums, dens, b[0], d)]
            # ratio window: x2/x1 must lie within a jitter factor of the
            # observed ratio interval [a2/b1, b2/a1]
            i0 = _bisect_left_frac(nums, dens, a[1] * q, b[0] * p)
            i1 = _bisect_right_frac(nums, dens, b[1] * p, a[0] * q)
            candidates = order[i0:i1]
        out = []
        gpd = g * p * d
        hq = h * q
        b0 = b[0]
        a0hq = a[0] * hq
        for x in candidates:
            x1 = x[0]  # inline first-run window; kills most candidates cheaply
            if b0 < d * x1 or (finite and a0hq > gpd * x1):
                continue
            if self._feasible(x, a, b, d, p, q, gpd, hq, finite):
                out.append(x)
        out.sort()
        return out

    def _feasible(self, x, a, b, d, p, q, gpd, hq, finite) -> bool:
        # per-coordinate drift-factor windows: the candidate interval for T
        # from coordinate i is [a_i/(xi*x_i), b_i/x_i]; it must reach [1, gamma]
        for i in range(self.k):
            xi_ = x[i]
            if b[i] < d * xi_:
                return False
            if finite and a[i] * hq > gpd * xi_:
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

    _CHAIN_REGIMES = (
        "gcd",
        "bounded-drift",
        "jitter-unbounded-drift",
        "jitter-bounded-drift",
    )
    _ALPHABET_REGIMES = ("jitter", "perfect-sync")

    def _chain_index(self):
        # primitive groups sorted by their ratio base_2/base_1, kept as int
        # pairs for the bisection
        if self._chain is None:
            entries = sorted(
                self._primitive_index().items(),
                key=lambda entry: Fraction(entry[0][1], entry[0][0]),
            )
            nums = [base[1] for base, _ in entries]
            dens = [base[0] for base, _ in entries]
            self._chain = (entries, nums, dens)
        return self._chain

    def _alphabet_index(self):
        if self._alphabet is None:
            alphabet = sorted({run for w in self.words for run in w})
            self._alphabet = (alphabet, set(self.words))
        return self._alphabet

    def fast_ints(self, a, b, d, p, q, g, h, finite) -> list[Runs]:
        """Structured decode; returns the list of matches (want exactly one)."""
        if self.regime in self._CHAIN_REGIMES:
            return self._fast_chain(a, b, d, p, q, g, h, finite)
        if self.regime in self._ALPHABET_REGIMES:
            return self._fast_alphabet(a, b, d, p, q)
        raise ValueError(f"no structured decoder for regime {self.regime!r}")

    def _fast_chain(self, a, b, d, p, q, g, h, finite):
        if self.k < 2:
            raise ValueError(f"regime {self.regime!r} needs at least two runs")
        if p == q and a == b:
            # jitterless exact: the observation's primitive vector pins the group
            base = _primitive(a)
            entries = [(base, self._primitive_index().get(base, ()))]
        else:
            # groups whose first ratio sits in the observed window
            entries, nums, dens = self._chain_index()
            i0 = _bisect_left_frac(nums, dens, a[1] * q, b[0] * p)
            i1 = _bisect_right_frac(nums, dens, b[1] * p, a[0] * q)
            entries = entries[i0:i1]
        matches = []
        for base, words in entries:
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
                    if finite and a[0] * h * q > g * p * d * w[0]:
                        continue
                    matches.append(w)
        matches.sort()
        return matches

    def _fast_alphabet(self, a, b, d, p, q):
        # no drift: each run decodes on its own window [l, xi*l]
        alphabet, wordset = self._alphabet_index()
        runs = []
        for i in range(self.k):
            lo = 0
            hi = len(alphabet)
            while lo < hi:  # first l with p*d*l >= a_i*q
                mid = (lo + hi) // 2
                if alphabet[mid] * p * d < a[i] * q:
                    lo = mid + 1
                else:
                    hi = mid
            i0 = lo
            hi = len(alphabet)
            while lo < hi:  # first l with d*l > b_i
                mid = (lo + hi) // 2
                if alphabet[mid] * d <= b[i]:
                    lo = mid + 1
                else:
                    hi = mid
            if lo == i0:
                return []
            if lo - i0 > 1:
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
    return get_decoder(codebook).consistent_ints(a, b, d, *_spec_ints(spec))


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
    return _unique(
        get_decoder(codebook).fast_ints(a, b, d, *_spec_ints(spec)), signal
    )
