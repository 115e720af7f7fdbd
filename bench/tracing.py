"""Per-layer tracing, installed from outside the package.

The tracer replaces public entry points of each ``driftppm`` module with
wrappers that record a span (name, start, end, parent) in memory.  A name is
replaced wherever it is looked up: in its own module and in every package
module that imported it by name (``simulate`` imports ``get_decoder`` and
``derive_trial_seed``, ``constructions`` and ``oracle`` import
``enumerate_inputs``).  Methods are patched on their class.  Functions called
hundreds of thousands of times per construction (``geometric_multipliers``,
``check_run_vector``) only count calls.  ``uninstall`` puts every original
back, so untraced passes run the program unchanged.

A span's self time is its duration minus the durations of its direct
children.  Spans are written out when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import weakref
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from driftppm import cli, core

decode = sys.modules["driftppm.decode"]

SPANNED = {
    "core": ("enumerate_inputs",),
    "constructions": (
        "code_gcd",
        "code_bounded_drift",
        "code_jitter",
        "code_jitter_unbounded_drift",
        "code_jitter_bounded_drift",
        "perfect_sync_code",
        "ratio_set",
        "construct",
    ),
    "codebook_io": ("dumps_codebook", "loads_codebook", "dump_codebook", "load_codebook"),
    "channel": ("sample_realization", "transmit", "derive_trial_seed"),
    "decode": ("decode", "decode_fast", "get_decoder"),
    "simulate": ("run_endpoint_roundtrips", "run_uniform_roundtrips"),
    "distinguish": ("indistinguishable", "confusion_graph"),
    "oracle": ("verify_zero_error", "max_independent_set", "optimal_code_bruteforce"),
}
COUNTED = {
    "constructions": ("geometric_multipliers",),
    "core": ("check_run_vector",),
}
DECODER_METHODS = ("consistent_ints", "fast_ints")
#: totals read from the results of wrapped calls
RESULT_COUNTS = ("simulate.trials", "oracle.graph_n", "oracle.graph_edges", "oracle.mis_size")
#: spans named per regime or per subcommand, also reported as one total
SPLIT = ("decode.consistent_ints", "decode.fast_ints", "cli.main")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("q")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        #: calls of count-only wrappers, plus totals read from results
        self.counts: Counter = Counter()
        #: verify_zero_error span index -> pairs checked
        self.verify_pairs: dict[int, int] = {}
        self._patches = self._build_patches()

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    # -- recording -----------------------------------------------------------

    def _open(self, nid: int) -> int:
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self._stack.append(idx)
        return idx

    @contextmanager
    def span(self, name: str):
        idx = self._open(self.name_id(name))
        t0 = perf_counter()
        try:
            yield idx
        finally:
            self.span_end[idx] = perf_counter()
            self.span_start[idx] = t0
            self._stack.pop()

    def _spanned(self, fn, name_of, after=None):
        """Wrap fn; name_of(args) gives the span's name id for this call."""
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(name_of(args))
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                starts[idx] = t0
                stack.pop()
            if after is not None:
                after(idx, args, result)
            return result

        return wrapper

    def _counted(self, fn, name):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- what gets wrapped ---------------------------------------------------

    def _fixed(self, name):
        nid = self.name_id(name)
        return lambda args: nid

    def _after_hooks(self):
        counts = self.counts

        def trials(idx, args, report):
            counts["simulate.trials"] += report.trials

        def graph(idx, args, result):
            g = args[0]
            counts["oracle.graph_n"] += g.n
            counts["oracle.graph_edges"] += g.edge_count
            counts["oracle.mis_size"] += result.size

        def pairs(idx, args, report):
            self.verify_pairs[idx] = report.pairs_checked

        return {
            "simulate.run_endpoint_roundtrips": trials,
            "simulate.run_uniform_roundtrips": trials,
            "oracle.max_independent_set": graph,
            "oracle.verify_zero_error": pairs,
        }

    def _decoder_method(self, fn, qual):
        # first call on each Decoder builds its index: kept under its own
        # name so per-regime medians describe warm calls
        first = self.name_id(f"{qual}.first")
        by_regime = {}
        seen = weakref.WeakSet()

        def name_of(args):
            decoder = args[0]
            if decoder not in seen:
                seen.add(decoder)
                return first
            regime = decoder.codebook.regime
            nid = by_regime.get(regime)
            if nid is None:
                nid = by_regime[regime] = self.name_id(f"{qual}.{regime}")
            return nid

        return self._spanned(fn, name_of)

    def _cli_main(self, fn):
        ids = {}

        def name_of(args):
            argv = args[0] if args else None
            sub = argv[0] if argv else "none"
            nid = ids.get(sub)
            if nid is None:
                nid = ids[sub] = self.name_id(f"cli.main.{sub}")
            return nid

        return self._spanned(fn, name_of)

    def _build_patches(self):
        """(owner, attribute, original, wrapper) for every patched binding."""
        hooks = self._after_hooks()
        wrappers = {}  # id(original) -> (original, wrapper)
        for module, names in SPANNED.items():
            mod = sys.modules[f"driftppm.{module}"]
            for name in names:
                fn = getattr(mod, name)
                qual = f"{module}.{name}"
                wrappers[id(fn)] = (fn, self._spanned(fn, self._fixed(qual), hooks.get(qual)))
        for module, names in COUNTED.items():
            mod = sys.modules[f"driftppm.{module}"]
            for name in names:
                fn = getattr(mod, name)
                wrappers[id(fn)] = (fn, self._counted(fn, f"{module}.{name}.calls"))
        fn = cli.main
        wrappers[id(fn)] = (fn, self._cli_main(fn))

        patches = []
        modules = [m for key, m in sys.modules.items() if key == "driftppm" or key.startswith("driftppm.")]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    patches.append((mod, attr, value, entry[1]))
        post_init = core.Codebook.__post_init__
        patches.append(
            (core.Codebook, "__post_init__", post_init,
             self._spanned(post_init, self._fixed("core.Codebook")))
        )
        for method in DECODER_METHODS:
            fn = getattr(decode.Decoder, method)
            patches.append(
                (decode.Decoder, method, fn, self._decoder_method(fn, f"decode.{method}"))
            )
        return patches

    def install(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def mark(self):
        """Position to split set-up spans and counts from pass ones."""
        return len(self.span_start), Counter(self.counts)

    def per_layer(self, setup_mark, passes: int) -> dict:
        """Every per-layer metric: set-up once plus the mean traced pass.

        Returns {metric name: (value, unit)}.
        """
        n_setup, setup_counts = setup_mark
        names = np.frombuffer(self.span_name, dtype=np.int64)
        parents = np.frombuffer(self.span_parent, dtype=np.int64)
        dur = np.frombuffer(self.span_end) - np.frombuffer(self.span_start)
        n = len(dur)
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=n)
        own = dur - child
        in_pass = np.arange(n) >= n_setup

        def per_pass(setup_part, pass_part):
            return float(setup_part + pass_part / passes)

        def count(setup_part, pass_part):
            value = per_pass(setup_part, pass_part)
            return int(value) if value.is_integer() else value

        out = {}

        def add_rows(label, mask):
            calls_setup = int(np.count_nonzero(mask & ~in_pass))
            calls_pass = int(np.count_nonzero(mask & in_pass))
            out[f"{label}.calls"] = (count(calls_setup, calls_pass), "count")
            out[f"{label}.self_s"] = (
                per_pass(float(own[mask & ~in_pass].sum()), float(own[mask & in_pass].sum())),
                "s",
            )
            if calls_setup + calls_pass:
                out[f"{label}.us_p50"] = (float(np.median(dur[mask])) * 1e6, "us")
                out[f"{label}.self_us_p50"] = (float(np.median(own[mask])) * 1e6, "us")

        # every wrapped function registered its name, so each has a row
        # whether or not it was called
        for nid, name in enumerate(self.names):
            add_rows(name, names == nid)
        for label in SPLIT:
            ids = [nid for nid, name in enumerate(self.names) if name.startswith(label + ".")]
            add_rows(label, np.isin(names, ids))
        modules = {}
        for nid, name in enumerate(self.names):
            modules.setdefault(name.split(".", 1)[0], []).append(nid)
        for module, ids in modules.items():
            mask = np.isin(names, ids)
            out[f"{module}.self_s"] = (
                per_pass(float(own[mask & ~in_pass].sum()), float(own[mask & in_pass].sum())),
                "s",
            )

        for method in DECODER_METHODS:
            first = f"decode.{method}.first.us_p50"
            if first in out:
                out[f"decode.{method}.first_call_us"] = out[first]
        if "decode.consistent_ints.first_call_us" in out:
            out["decode.first_call_us"] = out["decode.consistent_ints.first_call_us"]

        counted = [f"{module}.{fn}.calls" for module, fns in COUNTED.items() for fn in fns]
        for key in counted + list(RESULT_COUNTS):
            setup_part = setup_counts[key]
            out[key] = (count(setup_part, self.counts[key] - setup_part), "count")

        # kernel path of each verify: the scalar fallback calls
        # indistinguishable once per pair, the int64 kernel never does
        indist = self._ids["distinguish.indistinguishable"]
        scalar_children = np.bincount(
            parents[(names == indist) & has_parent], minlength=n
        )
        paths = {"int64": [0, 0, 0.0], "scalar": [0, 0, 0.0]}
        for idx, pairs in self.verify_pairs.items():
            tally = paths["scalar" if scalar_children[idx] else "int64"]
            tally[0 if idx < n_setup else 1] += pairs
            tally[2] += float(dur[idx])
        for path, (setup_pairs, pass_pairs, seconds) in paths.items():
            out[f"distinguish.pairs.{path}"] = (count(setup_pairs, pass_pairs), "count")
            if seconds:
                rate = (setup_pairs + pass_pairs) / seconds
                out[f"distinguish.pairs_per_s.{path}"] = (rate, "1/s")
        return dict(sorted(out.items()))

    def write(self, path_stem, meta: dict, metrics: dict):
        """Spans as arrays (.npz) and the per-layer table (.json)."""
        np.savez(
            f"{path_stem}.npz",
            name=np.frombuffer(self.span_name, dtype=np.int64),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            start=np.frombuffer(self.span_start),
            end=np.frombuffer(self.span_end),
            names=np.array(self.names),
        )
        with open(f"{path_stem}.json", "w", encoding="utf-8") as fh:
            json.dump(
                {**meta, "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}},
                fh,
                indent=1,
            )
            fh.write("\n")
