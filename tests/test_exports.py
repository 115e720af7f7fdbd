"""The package's public names, and the names the benchmark tracer looks up.

``bench/tracing.py`` wraps package functions it finds by name.  Building its
Tracer here (which installs nothing) makes a removed or renamed traced name
fail this suite rather than a later traced benchmark run.
"""

import importlib
import pkgutil
import sys
from pathlib import Path

import pytest

import driftppm

BENCH = Path(__file__).resolve().parent.parent / "bench"

MODULES = [driftppm] + [
    importlib.import_module(f"driftppm.{info.name}")
    for info in pkgutil.iter_modules(driftppm.__path__)
]

#: helpers no package code calls; the tests keep them in reference_constructions
#: and reference_codebook
RETIRED = (
    "multiples_chain",
    "gcd_of",
    "ratio_vector",
    "best_achievable_rate",
    "format_run_vector",
)


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    yield importlib.import_module("tracing")
    sys.modules.pop("tracing", None)


def test_tracer_resolves_every_traced_name(tracing):
    tracer = tracing.Tracer()
    patched = {(owner, attr) for owner, attr, _, _ in tracer._patches}
    for table in (tracing.SPANNED, tracing.COUNTED):
        for module, names in table.items():
            mod = sys.modules[f"driftppm.{module}"]
            for name in names:
                assert (mod, name) in patched, f"{module}.{name}"


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_retired_helpers_are_not_exported(module):
    assert [name for name in RETIRED if name in module.__all__] == []
    assert [name for name in RETIRED if hasattr(module, name)] == []
