"""Tests of the benchmark itself: its checks, its tracer and its output.

Run from the repository root with ``python3 -m pytest bench``.  The workloads
run here at reduced sizes; the fault-injection tests show that a wrong answer
from the program is counted as a failure, so ``error_rate`` rises above 0.
"""

import json
import shutil
import subprocess
import sys

import pytest

import reference
import run

workloads = run.load_program()
import tracing  # noqa: E402  (needs the package on sys.path first)

from driftppm import cli as dp_cli  # noqa: E402
from driftppm import oracle as dp_oracle  # noqa: E402
from driftppm import simulate as dp_simulate  # noqa: E402

dp_decode = sys.modules["driftppm.decode"]

BENCHMARK_JSON = run.ROOT / "BENCHMARK.json"


def small(name, tmp_path):
    if name == "roundtrip":
        return workloads.Roundtrip(frame=6, uniform_trials=50)
    if name == "receiver":
        return workloads.Receiver(signals_per_codebook=3)
    if name == "design":
        return workloads.Design(steps=workloads.DESIGN_STEPS[:3], work_dir=tmp_path / "work")
    return workloads.Oracle(instances=workloads.ORACLE_INSTANCES[:3])


def inject_fault(name, monkeypatch):
    """Make the program give a wrong answer on the workload's path."""
    if name == "roundtrip":
        monkeypatch.setattr(dp_decode.Decoder, "fast_ints", lambda self, *args: [])
    elif name == "receiver":
        monkeypatch.setattr(dp_decode, "decode", lambda signal, book: (1,) * book.k)
    elif name == "design":
        monkeypatch.setattr(dp_cli, "rate_bits", lambda book: 0.0)
    else:
        solve = dp_oracle.max_independent_set

        def one_short(graph, *args):
            result = solve(graph, *args)
            return dp_oracle.MisResult(result.indices[:-1], result.status)

        monkeypatch.setattr(dp_oracle, "max_independent_set", one_short)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_correct_program_has_no_failures(name, tmp_path):
    workload = small(name, tmp_path)
    workload.setup(seed=3)
    attempted, failed = workload.run_pass()
    assert attempted > 0
    assert failed == 0


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_wrong_answer_raises_error_rate(name, tmp_path, monkeypatch):
    workload = small(name, tmp_path)
    workload.setup(seed=3)
    inject_fault(name, monkeypatch)
    attempted, failed = workload.run_pass()
    assert 0 < failed <= attempted


def test_receiver_signals_follow_the_seed():
    def words(seed):
        workload = workloads.Receiver(signals_per_codebook=4)
        workload.setup(seed)
        return [(word, signal.values) for _, word, signal in workload.signals]

    assert words(5) == words(5)
    assert words(5) != words(6)


def test_self_time_is_span_minus_children():
    tracer = tracing.Tracer()
    mark = tracer.mark()
    outer = tracer.name_id("core.enumerate_inputs")
    inner = tracer.name_id("core.Codebook")
    # (name, parent, start, end): outer [0, 10] holds inner [2, 6]
    for nid, parent, start, end in ((outer, -1, 0.0, 10.0), (inner, 0, 2.0, 6.0)):
        tracer.span_name.append(nid)
        tracer.span_parent.append(parent)
        tracer.span_start.append(start)
        tracer.span_end.append(end)
    metrics = tracer.per_layer(mark, passes=1)
    assert metrics["core.enumerate_inputs.self_s"] == (6.0, "s")
    assert metrics["core.enumerate_inputs.us_p50"] == (10e6, "us")
    assert metrics["core.Codebook.self_s"] == (4.0, "s")
    assert metrics["core.self_s"] == (10.0, "s")


def test_tracer_counts_and_restores(tmp_path):
    originals = (dp_simulate.get_decoder, dp_decode.Decoder.consistent_ints, dp_cli.main)
    workload = small("roundtrip", tmp_path)
    tracer = tracing.Tracer()
    tracer.install()
    assert dp_simulate.get_decoder is not originals[0]
    with tracer.span("bench.setup"):
        workload.setup(seed=3)
    mark = tracer.mark()
    with tracer.span("bench.pass"):
        attempted, failed = workload.run_pass()
    tracer.uninstall()
    assert (dp_simulate.get_decoder, dp_decode.Decoder.consistent_ints, dp_cli.main) == originals

    metrics = tracer.per_layer(mark, passes=1)
    assert failed == 0
    assert metrics["simulate.trials"] == (attempted, "count")
    assert metrics["decode.consistent_ints.calls"] == (attempted, "count")
    # one fresh decoder per codebook: 40 grid codebooks plus the headline one
    assert metrics["decode.consistent_ints.first.calls"] == (41, "count")
    assert metrics["core.Codebook.calls"][0] > 0
    assert metrics["core.check_run_vector.calls"][0] > 0
    for name in run.PER_LAYER:
        if not name.startswith("trace."):
            assert name in metrics


def test_scalar_fallback_is_seen_as_its_own_kernel_path(tmp_path):
    steps = [s for s in workloads.DESIGN_STEPS if "jbd.code" in " ".join(s[0])]
    workload = workloads.Design(steps=tuple(steps), work_dir=tmp_path / "work")
    tracer = tracing.Tracer()
    workload.setup(seed=0)
    mark = tracer.mark()
    tracer.install()
    attempted, failed = workload.run_pass()
    tracer.uninstall()
    metrics = tracer.per_layer(mark, passes=1)
    assert (attempted, failed) == (3, 0)
    assert metrics["distinguish.pairs.int64"] == (5995, "count")
    assert metrics["distinguish.pairs.scalar"] == (5995, "count")
    assert metrics["distinguish.indistinguishable.calls"][0] == 110 * 110


def test_reference_runs_for_its_share_and_rescales():
    ref = reference.Reference()
    ref.keep_pace(0.02, share=0.5)
    assert len(ref.samples) >= 1 and sum(ref.samples) >= 0.01
    ref.samples[:] = [0.003, 0.005]
    # the loop ran at twice its uncontended time, so the work is halved
    assert ref.corrected(1.0) == pytest.approx(reference.REFERENCE_S / 0.004)


def test_every_pass_is_rescaled_by_its_own_reference_runs():
    calls = []
    timing = run.timed_passes([lambda: calls.append(1) or (1, 0)] * 3, seconds=0)
    assert len(timing.passes) == 1 and (timing.attempted, timing.failed) == (3, 0)
    busy, ref = timing.passes[0]
    assert ref.samples
    assert timing.wall_s == ref.corrected(busy)
    assert timing.raw_pass_s == busy


def test_benchmark_json_matches_the_runner():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def run_bench(*args, cwd):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_result_line(trace):
    proc = run_bench("--workload", "receiver", "--seed", "2", "--seconds", "0.5",
                     "--trace", trace, cwd=run.ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    spec = json.loads(BENCHMARK_JSON.read_text())
    wanted = spec["end_to_end"] if trace == "0" else spec["per_layer"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }


def test_fails_without_the_program(tmp_path):
    shutil.copy(BENCHMARK_JSON, tmp_path)
    shutil.copytree(
        run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    proc = run_bench("--workload", "oracle", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert "driftppm" in proc.stderr

