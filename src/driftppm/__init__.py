"""Zero-error pulse-position-modulation codes for clocks with drift and jitter.

Construct provably zero-error codebooks for a channel that scales every run
of a frame by an unknown drift factor and each run independently by a jitter
factor, verify them pairwise, decode received signals, and cross-check code
sizes against a brute-force optimum.  All construction-time arithmetic is
exact rational.
"""

from .core import (
    INFINITY,
    REGIMES,
    ChannelSpec,
    Codebook,
    EmptyDomainError,
    UnsupportedRegimeError,
    as_ratio,
    enumerate_inputs,
    format_ratio,
    parse_drift_ratio,
    parse_ratio,
    rate_bits,
)
from .distinguish import ConfusionGraph, confusion_graph, indistinguishable
from .constructions import (
    code_bounded_drift,
    code_gcd,
    code_jitter,
    code_jitter_bounded_drift,
    code_jitter_unbounded_drift,
    construct,
    geometric_multipliers,
    naive_rate,
    perfect_sync_code,
    ratio_set,
)
from .codebook_io import dump_codebook, dumps_codebook, load_codebook, loads_codebook
from .channel import (
    ChannelRealization,
    ObservedSignal,
    endpoint_realizations,
    sample_realization,
    transmit,
)
from .decode import (
    AmbiguityError,
    DecodeError,
    NoCodewordError,
    consistent_codewords,
    decode,
    decode_fast,
)
from .oracle import (
    BUDGET_EXCEEDED,
    EXACT,
    MisResult,
    OracleResult,
    ZeroErrorReport,
    max_independent_set,
    optimal_code_bruteforce,
    verify_zero_error,
)
from .simulate import TrialReport, run_endpoint_roundtrips, run_uniform_roundtrips

__version__ = "0.1.0"

__all__ = [
    "INFINITY",
    "REGIMES",
    "ChannelSpec",
    "Codebook",
    "EmptyDomainError",
    "UnsupportedRegimeError",
    "as_ratio",
    "enumerate_inputs",
    "format_ratio",
    "parse_drift_ratio",
    "parse_ratio",
    "rate_bits",
    "ConfusionGraph",
    "confusion_graph",
    "indistinguishable",
    "code_bounded_drift",
    "code_gcd",
    "code_jitter",
    "code_jitter_bounded_drift",
    "code_jitter_unbounded_drift",
    "construct",
    "geometric_multipliers",
    "naive_rate",
    "perfect_sync_code",
    "ratio_set",
    "dump_codebook",
    "dumps_codebook",
    "load_codebook",
    "loads_codebook",
    "ChannelRealization",
    "ObservedSignal",
    "endpoint_realizations",
    "sample_realization",
    "transmit",
    "AmbiguityError",
    "DecodeError",
    "NoCodewordError",
    "consistent_codewords",
    "decode",
    "decode_fast",
    "BUDGET_EXCEEDED",
    "EXACT",
    "MisResult",
    "OracleResult",
    "ZeroErrorReport",
    "max_independent_set",
    "optimal_code_bruteforce",
    "verify_zero_error",
    "TrialReport",
    "run_endpoint_roundtrips",
    "run_uniform_roundtrips",
    "__version__",
]
