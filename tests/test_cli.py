import hashlib
import importlib
import itertools
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

from driftppm import cli, constructions, core
from driftppm.cli import main
from driftppm.codebook_io import dump_codebook, load_codebook
from driftppm.constructions import _CONSTRUCTED, AUTO_REGIME, code_bounded_drift
from driftppm.core import INFINITY, ChannelSpec, Codebook, enumerate_inputs
from reference_constructions import best_achievable_rate, sweep_rows
from test_cli_fuzz import BAD_GRIDS, GRIDS

BENCH = Path(__file__).resolve().parent.parent / "bench"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConstruct:
    def test_gcd_headline(self, capsys, tmp_path):
        out_path = tmp_path / "gcd.code"
        code, out, _ = run(
            capsys, "construct", "--k", "2", "--M", "65",
            "--xi", "1", "--gamma", "inf", "--out", str(out_path),
        )
        assert code == 0
        assert out == "size=1307 rate=10.3520\n"
        cb = load_codebook(out_path)
        assert len(cb) == 1307 and cb.regime == "gcd"

    def test_bounded_drift_headline(self, capsys):
        code, out, _ = run(
            capsys, "construct", "--k", "2", "--M", "65", "--xi", "1", "--gamma", "7/4",
        )
        assert code == 0
        assert out == "size=1736 rate=10.7616\n"

    def test_perfect_sync_headline(self, capsys):
        code, out, _ = run(
            capsys, "construct", "--k", "2", "--M", "65", "--xi", "1", "--gamma", "1",
        )
        assert code == 0
        assert out == "size=2080 rate=11.0224\n"

    def test_unsupported_regime_exits_1(self, capsys):
        code, _, err = run(capsys, "construct", "--k", "1", "--M", "65",
                           "--xi", "1", "--gamma", "inf")
        assert code == 1
        assert "single run" in err

    def test_k1_without_drift_is_perfect_sync(self, capsys, tmp_path):
        path = tmp_path / "k1.code"
        code, out, _ = run(capsys, "construct", "--k", "1", "--M", "65",
                           "--xi", "1", "--gamma", "1", "--out", str(path))
        assert code == 0
        assert out == "size=65 rate=6.0224\n"
        assert load_codebook(path).regime == "perfect-sync"
        code, out, _ = run(capsys, "simulate", "--code", str(path))
        assert code == 0
        assert out == "trials=260 failures=0\n"

    def test_k1_finite_drift_round_trips(self, capsys, tmp_path):
        path = tmp_path / "k1.code"
        code, out, _ = run(capsys, "construct", "--k", "1", "--M", "65",
                           "--xi", "1", "--gamma", "7/4", "--out", str(path))
        assert (code, out) == (0, "size=7 rate=2.8074\n")
        assert load_codebook(path).regime == "bounded-drift"
        code, out, _ = run(capsys, "simulate", "--code", str(path))
        assert (code, out) == (0, "trials=28 failures=0\n")
        code, out, _ = run(capsys, "simulate", "--code", str(path),
                           "--mode", "uniform", "--trials", "500")
        assert (code, out) == (0, "trials=500 failures=0\n")

    def test_k3_jitter_exits_1(self, capsys):
        code, _, err = run(capsys, "construct", "--k", "3", "--M", "20",
                           "--xi", "2", "--gamma", "inf")
        assert code == 1
        assert "two pulses" in err

    def test_bad_ratio_exits_1(self, capsys):
        code, _, err = run(capsys, "construct", "--k", "2", "--M", "10", "--xi", "zero")
        assert code == 1

    def test_bad_gamma_exits_1(self, capsys):
        code, out, err = run(capsys, "construct", "--k", "2", "--M", "10", "--gamma", "x")
        assert (code, out) == (1, "")
        assert err == "error: argument --gamma: not an exact ratio: 'x'\n"


class TestSweep:
    def test_gamma_sweep(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--param", "gamma", "--values", "1,7/4,8,inf",
            "--k", "2", "--M", "65", "--xi", "1",
        )
        assert code == 0
        assert out == (
            "param_value,codebook_size,rate_bits\n"
            "1,2080,11.0224\n"
            "7/4,1736,10.7616\n"
            "8,1324,10.3707\n"
            "inf,1307,10.3520\n"
        )

    def test_xi_sweep_unbounded_drift(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--param", "xi", "--values", "1,1.02,1.03",
            "--k", "2", "--M", "65", "--gamma", "inf",
        )
        assert code == 0
        assert out == (
            "param_value,codebook_size,rate_bits\n"
            "1,1307,10.3520\n"
            "51/50,184,7.5236\n"
            "103/100,128,7.0000\n"
        )

    def test_m_sweep(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--param", "M", "--values", "4,8,16,32,64,128",
            "--k", "2", "--xi", "1", "--gamma", "inf",
        )
        assert code == 0
        rates = [line.split(",")[2] for line in out.strip().splitlines()[1:]]
        assert rates == ["2.3219", "4.3923", "6.3038", "8.3354", "10.2981", "12.2938"]

    def test_m_range_is_its_comma_list(self, capsys):
        outs = []
        for values in ("16:64:16", "16,32,48,64"):
            code, out, err = run(
                capsys, "sweep", "--param", "M", "--values", values,
                "--k", "2", "--xi", "1", "--gamma", "7/4",
            )
            assert (code, err) == (0, "")
            outs.append(out)
        assert outs[0] == outs[1]
        assert [line.split(",")[0] for line in outs[0].splitlines()[1:]] == ["16", "32", "48", "64"]

    @pytest.mark.parametrize("values, point", [("65/2", "65/2"), ("8,0", "0"), ("1:2:1/2", "3/2")])
    def test_m_not_a_frame_size_exits_1(self, capsys, values, point):
        code, out, err = run(capsys, "sweep", "--param", "M", "--values", values, "--k", "2")
        assert (code, out) == (1, "")
        assert err == f"error: M must be an integer of at least 1, got {point}\n"

    def test_xi_sweep_bounded_drift_has_best_column(self, capsys, tmp_path):
        csv_path = tmp_path / "sweep.csv"
        code, out, _ = run(
            capsys, "sweep", "--param", "xi", "--values", "1:1.004:0.001",
            "--k", "2", "--M", "65", "--gamma", "7/4", "--csv", str(csv_path),
        )
        assert code == 0 and out == ""
        lines = csv_path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "param_value,codebook_size,rate_bits,best_rate_bits"
        assert len(lines) == 6
        assert lines[1].startswith("1,1736,10.7616,")
        # best column is the running max over the tail, so non-increasing
        best = [float(line.split(",")[3]) for line in lines[1:]]
        assert best == sorted(best, reverse=True)
        assert all(b >= float(line.split(",")[2]) for b, line in zip(best, lines[1:]))

    def test_best_column_is_by_xi_value_not_position(self, capsys):
        # the xi=21/20 code (110 words) is not zero-error at xi=3/2, so it
        # cannot be the best at 3/2 even though it comes later in the list
        code, out, _ = run(
            capsys, "sweep", "--param", "xi", "--values", "3/2,21/20",
            "--k", "2", "--M", "65", "--gamma", "7/4",
        )
        assert code == 0
        rows = out.splitlines()[1:]
        assert rows[0].startswith("3/2,") and rows[0].endswith(",3.4594")
        # a permuted list gives each value the row it has in the sorted one
        values = ["1", "21/20", "11/10", "6/5", "3/2", "2"]
        permuted = [values[i] for i in (4, 0, 5, 2, 1, 3)]
        by_value = {}
        for grid in (values, permuted):
            code, out, _ = run(
                capsys, "sweep", "--param", "xi", "--values", ",".join(grid),
                "--k", "2", "--M", "65", "--gamma", "7/4",
            )
            assert code == 0
            by_value[tuple(grid)] = sorted(out.splitlines()[1:])
        assert by_value[tuple(values)] == by_value[tuple(permuted)]

    @pytest.mark.parametrize("gamma", ["3/2", "7/4", "4"])
    @pytest.mark.parametrize("m", [20, 65])
    def test_best_column_is_the_reference_best_rate(self, capsys, m, gamma):
        # each row's best rate is the best over the grid values >= its xi,
        # whatever order the grid is given in
        values = ["1", "101/100", "21/20", "11/10", "3/2", "2"]
        shuffled = [values[i] for i in (3, 0, 5, 1, 4, 2)]
        for grid in (values, values[::-1], shuffled):
            code, out, _ = run(
                capsys, "sweep", "--param", "xi", "--values", ",".join(grid),
                "--k", "2", "--M", str(m), "--gamma", gamma,
            )
            assert code == 0
            for line in out.splitlines()[1:]:
                label, _, _, best = line.split(",")
                tail = [v for v in values if F(v) >= F(label)]
                expected = best_achievable_rate(m, label, gamma, tail)
                assert best == f"{expected:.4f}", (grid, line)

    def test_byte_identical_reruns(self, capsys, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            assert run(
                capsys, "sweep", "--param", "gamma", "--values", "1,2,4",
                "--k", "2", "--M", "30", "--xi", "1", "--csv", str(path),
            )[0] == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_bad_grid_exits_1(self, capsys):
        code, _, err = run(
            capsys, "sweep", "--param", "gamma", "--values", "",
            "--k", "2", "--M", "10", "--xi", "1",
        )
        assert code == 1

    @pytest.mark.parametrize(
        "values, message",
        [("1:2", "range must be start:stop:step, got '1:2'"), ("1:2:0", "range step must be positive")],
    )
    def test_malformed_range_exits_1(self, capsys, values, message):
        code, out, err = run(
            capsys, "sweep", "--param", "xi", "--values", values, "--k", "2", "--M", "10",
        )
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_oversized_range_exits_1(self, capsys):
        code, out, err = run(
            capsys, "sweep", "--param", "xi", "--values", "1:2:1/1000000000",
            "--k", "2", "--M", "10",
        )
        assert code == 1 and out == ""
        assert "1000000001 points" in err

    def test_empty_range_exits_1(self, capsys):
        code, out, err = run(
            capsys, "sweep", "--param", "xi", "--values", "2:1:1/10",
            "--k", "2", "--M", "10",
        )
        assert code == 1 and out == ""
        assert "empty value grid" in err

    def test_missing_m_exits_1(self, capsys):
        code, _, _ = run(capsys, "sweep", "--param", "xi", "--values", "1", "--k", "2")
        assert code == 1


class TestSweepCounts:
    """sweep counts its codes and builds none, with the output of building them."""

    @pytest.mark.parametrize("k", ["1", "2", "3"])
    @pytest.mark.parametrize("param", list(GRIDS))
    def test_same_bytes_as_building_every_code(self, capsys, monkeypatch, param, k):
        grids = [*(grid for values in GRIDS.values() for grid in values), *BAD_GRIDS]
        for values in grids:
            for xi in ("1", "3/2"):
                for gamma in ("1", "7/4", "inf"):
                    argv = ("sweep", "--param", param, "--values", values, "--k", k,
                            "--M", "30", "--xi", xi, "--gamma", gamma)
                    counted = run(capsys, *argv)
                    with monkeypatch.context() as patch:
                        patch.setattr(cli, "_sweep_rows", sweep_rows)
                        built = run(capsys, *argv)
                    assert counted == built, argv

    def test_benchmark_sweeps_build_no_codebook(self, monkeypatch, tmp_path):
        monkeypatch.syspath_prepend(str(BENCH))
        workloads = importlib.import_module("workloads")
        steps = [step for step in workloads.DESIGN_STEPS if step[0][0] == "sweep"]
        design = workloads.Design(steps=steps, work_dir=tmp_path / "work")
        design.setup(seed=0)

        def refuse(self):
            raise AssertionError("a codebook was built")

        monkeypatch.setattr(core.Codebook, "__post_init__", refuse)
        assert design.run_pass() == (len(steps), 0)


class TestSimulate:
    def test_endpoints_full_coverage(self, capsys, tmp_path):
        path = tmp_path / "book.code"
        assert run(capsys, "construct", "--k", "2", "--M", "12", "--xi", "1",
                   "--gamma", "7/4", "--out", str(path))[0] == 0
        code, out, _ = run(capsys, "simulate", "--code", str(path))
        assert code == 0
        trials = int(out.split()[0].split("=")[1])
        cb = load_codebook(path)
        assert trials == len(cb) * 8
        assert out.endswith("failures=0\n")

    def test_uniform_trials(self, capsys, tmp_path):
        path = tmp_path / "book.code"
        assert run(capsys, "construct", "--k", "2", "--M", "20", "--xi", "3/2",
                   "--gamma", "3/2", "--out", str(path))[0] == 0
        code, out, _ = run(capsys, "simulate", "--code", str(path),
                           "--mode", "uniform", "--trials", "500", "--seed", "7")
        assert code == 0
        assert out == "trials=500 failures=0\n"

    def test_corrupted_codebook_fails(self, capsys, tmp_path):
        path = tmp_path / "bad.code"
        bad = Codebook(2, 65, ChannelSpec(1, INFINITY), "gcd", ((1, 1), (2, 2)))
        dump_codebook(bad, path)
        code, out, _ = run(capsys, "simulate", "--code", str(path))
        assert code == 2
        failures = int(out.split()[1].split("=")[1])
        assert failures > 0

    def test_uniform_needs_trials(self, capsys, tmp_path):
        path = tmp_path / "book.code"
        assert run(capsys, "construct", "--k", "2", "--M", "10", "--xi", "1",
                   "--gamma", "2", "--out", str(path))[0] == 0
        assert run(capsys, "simulate", "--code", str(path), "--mode", "uniform")[0] == 1

    def test_missing_file_exits_1(self, capsys):
        assert run(capsys, "simulate", "--code", "/nonexistent.code")[0] == 1

    def test_few_trials_of_a_long_frame(self, capsys, tmp_path):
        # 2^41 corners at k = 40: ten trials build only the ten they reach
        path = tmp_path / "long.code"
        word = tuple(range(1, 41))
        spec = ChannelSpec(F(3, 2), F(7, 4))
        dump_codebook(Codebook.build(40, sum(word), spec, "custom", [word]), path)
        code, out, _ = run(capsys, "simulate", "--code", str(path), "--trials", "10")
        assert (code, out) == (0, "trials=10 failures=0\n")

    @pytest.mark.parametrize(
        "mode, gamma",
        [("endpoints", "inf"), ("uniform", "inf"), ("endpoints", "7/4"), ("uniform", "7/4")],
        ids=["endpoints", "uniform", "endpoints-finite-gamma", "uniform-finite-gamma"],
    )
    def test_cap_below_one_exits_1(self, capsys, tmp_path, mode, gamma):
        path = tmp_path / "book.code"
        assert run(capsys, "construct", "--k", "2", "--M", "10", "--xi", "1",
                   "--gamma", gamma, "--out", str(path))[0] == 0
        code, out, err = run(capsys, "simulate", "--code", str(path), "--mode", mode,
                             "--trials", "20", "--t-cap", "1/2")
        assert (code, out) == (1, "")
        assert err == "error: t_cap must be >= 1, got 1/2\n"

    def test_uniform_unbounded_drift_needs_cap(self, capsys, tmp_path):
        path = tmp_path / "book.code"
        assert run(capsys, "construct", "--k", "2", "--M", "10", "--xi", "1",
                   "--gamma", "inf", "--out", str(path))[0] == 0
        code, out, err = run(capsys, "simulate", "--code", str(path),
                             "--mode", "uniform", "--trials", "5")
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and "t_cap" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("mode", ["endpoints", "uniform"])
    def test_empty_codebook_exits_1(self, capsys, tmp_path, mode):
        path = tmp_path / "empty.code"
        path.write_text("k=2 M=10 xi=1 gamma=7/4 regime=bounded-drift\n")
        code, out, err = run(capsys, "simulate", "--code", str(path), "--mode", mode,
                             "--trials", "20")
        assert (code, out) == (1, "")
        assert err == "error: codebook has no codewords to transmit\n"


    @pytest.mark.parametrize("mode", ["endpoints", "uniform"])
    def test_xi_beyond_float_range(self, capsys, tmp_path, mode):
        # xi = 10^400 fits no float, so no decode window is located in floats
        path = tmp_path / "one.code"
        code, out, _ = run(capsys, "construct", "--k", "2", "--M", "6", "--xi", "1e400",
                           "--gamma", "7/4", "--out", str(path))
        assert (code, out) == (0, "size=1 rate=0.0000\n")
        code, out, _ = run(capsys, "simulate", "--code", str(path), "--mode", mode,
                           "--trials", "40", "--seed", "3")
        assert (code, out) == (0, "trials=40 failures=0\n")
        # every pair of these words is confusable under that jitter
        path = tmp_path / "many.code"
        dump_codebook(
            Codebook.build(2, 6, ChannelSpec(F(10**400), F(7, 4)), "gcd", enumerate_inputs(2, 4)),
            path,
        )
        code, out, _ = run(capsys, "simulate", "--code", str(path), "--mode", mode,
                           "--trials", "40", "--seed", "3")
        failures = {"endpoints": 70, "uniform": 76}[mode]
        assert (code, out) == (2, f"trials=40 failures={failures}\n")

    @pytest.mark.parametrize("mode", ["endpoints", "uniform"])
    def test_negative_trials_exits_1(self, capsys, tmp_path, mode):
        path = tmp_path / "book.code"
        assert run(capsys, "construct", "--k", "2", "--M", "10", "--xi", "1",
                   "--gamma", "7/4", "--out", str(path))[0] == 0
        code, out, err = run(capsys, "simulate", "--code", str(path), "--mode", mode,
                             "--trials", "-5")
        assert (code, out) == (1, "")
        assert err == "error: argument --trials: must be non-negative, got -5\n"


class TestVerify:
    def test_clean_codebook(self, capsys, tmp_path):
        path = tmp_path / "book.code"
        assert run(capsys, "construct", "--k", "2", "--M", "30", "--xi", "1",
                   "--gamma", "inf", "--out", str(path))[0] == 0
        code, out, _ = run(capsys, "verify", "--code", str(path))
        assert code == 0
        assert "violations=0" in out

    def test_violations_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.code"
        bad = Codebook(2, 65, ChannelSpec(1, 2), "custom", ((1, 1), (2, 2)))
        dump_codebook(bad, path)
        code, out, _ = run(capsys, "verify", "--code", str(path))
        assert code == 2
        assert "indistinguishable: 1 1 | 2 2" in out
        assert "violations=1" in out

    def test_repeated_header_field_exits_1(self, capsys, tmp_path):
        path = tmp_path / "dup.code"
        path.write_text("k=2 M=5 xi=1 gamma=1 regime=custom M=6\n1 1\n")
        code, out, err = run(capsys, "verify", "--code", str(path))
        assert (code, out, err) == (1, "", "error: duplicate header field 'M'\n")

    def test_spec_override_flags(self, capsys, tmp_path):
        path = tmp_path / "book.code"
        assert run(capsys, "construct", "--k", "2", "--M", "12", "--xi", "2",
                   "--gamma", "1", "--out", str(path))[0] == 0
        assert run(capsys, "verify", "--code", str(path))[0] == 0
        # same words under unbounded drift are confusable
        assert run(capsys, "verify", "--code", str(path), "--gamma", "inf")[0] == 2


    def test_loose_jitter_lists_violations_in_pair_order(self, capsys, tmp_path):
        path = tmp_path / "book.code"
        dump_codebook(code_bounded_drift(2, 10, F(7, 4)), path)
        code, out, _ = run(capsys, "verify", "--code", str(path), "--xi", "2")
        assert code == 2
        assert out.count("indistinguishable: ") == 399
        assert out.endswith("\npairs=820 violations=399\n")
        # pins every violation line and their (i, j) order
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "b4fb249f9941d5f139ef61722dd0be9bf377053dcf495eebf406d3e95e7c9dee"
        )

    def test_xi_beyond_float_range(self, capsys, tmp_path):
        path = tmp_path / "book.code"
        dump_codebook(code_bounded_drift(2, 10, F(7, 4)), path)
        code, out, err = run(capsys, "verify", "--code", str(path), "--xi", "1e400")
        assert (code, err) == (2, "")
        assert out.startswith("indistinguishable: 1 1 | 1 2\nindistinguishable: 1 1 | 1 3\n")
        assert out.endswith("indistinguishable: 8 2 | 9 1\npairs=820 violations=820\n")
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "3493e278f00ee025bc38b7dd0049ce88dbab36f2c10ed40d6d0a205640d483f4"
        )

    @pytest.mark.parametrize(
        "flags, expected_code, tail",
        [
            ((), 0, "pairs=21 violations=0\n"),
            (("--xi", "2"), 2, "indistinguishable: 27 | 48\npairs=21 violations=8\n"),
            (("--gamma", "inf"), 2, "indistinguishable: 27 | 48\npairs=21 violations=21\n"),
        ],
    )
    def test_single_pulse_codebook(self, capsys, tmp_path, flags, expected_code, tail):
        path = tmp_path / "k1.code"
        dump_codebook(code_bounded_drift(1, 65, F(7, 4)), path)
        code, out, _ = run(capsys, "verify", "--code", str(path), *flags)
        assert code == expected_code
        assert out.endswith(tail)


class TestOracle:
    def test_xi_beyond_float_range(self, capsys):
        code, out, err = run(capsys, "oracle", "--k", "2", "--M", "3", "--xi", "1e400")
        assert (code, out, err) == (0, "mis_size=1 status=EXACT\n", "")

    def test_one_pulse_xi_beyond_float_range(self, capsys):
        # unbounded drift confuses every pair of one-run inputs
        code, out, err = run(capsys, "oracle", "--k", "1", "--M", "5", "--xi", "1e309")
        assert (code, out, err) == (0, "mis_size=1 status=EXACT\n", "")

    def test_exact(self, capsys):
        code, out, _ = run(capsys, "oracle", "--k", "2", "--M", "6",
                           "--xi", "1", "--gamma", "inf")
        assert code == 0
        assert out == "mis_size=11 status=EXACT\n"

    def test_matches_construction(self, capsys):
        code, out, _ = run(capsys, "oracle", "--k", "2", "--M", "10",
                           "--xi", "2", "--gamma", "inf")
        assert code == 0
        assert out.startswith("mis_size=3 ")

    def test_time_budget_exceeded_exit_3(self, capsys):
        # the clock is first read before the 1024th of the 2 689 search nodes
        code, out, err = run(capsys, "oracle", "--k", "2", "--M", "24", "--xi", "2",
                             "--gamma", "3/2", "--budget-seconds", "0")
        assert (code, out, err) == (3, "mis_size=9 status=BUDGET_EXCEEDED\n", "")

    def test_budget_exceeded_exit_3(self, capsys):
        # the root node alone cannot prove this instance (it takes 37 nodes)
        code, out, _ = run(capsys, "oracle", "--k", "2", "--M", "12",
                           "--xi", "3/2", "--gamma", "3/2", "--budget-nodes", "1")
        assert code == 3
        assert "status=BUDGET_EXCEEDED" in out

    @pytest.mark.parametrize(
        "flag, value", [("--budget-nodes", "-3"), ("--budget-seconds", "-1")]
    )
    def test_negative_budget_exits_1(self, capsys, flag, value):
        code, out, err = run(capsys, "oracle", "--k", "2", "--M", "10",
                             "--xi", "2", "--gamma", "2", flag, value)
        assert (code, out) == (1, "")
        assert err == f"error: argument {flag}: must be non-negative, got {value}\n"

    def test_writes_codebook(self, capsys, tmp_path):
        path = tmp_path / "mis.code"
        code, _, _ = run(capsys, "oracle", "--k", "2", "--M", "8",
                         "--xi", "3/2", "--gamma", "1", "--out", str(path))
        assert code == 0
        assert load_codebook(path).regime == "custom"


class TestPipeline:
    @pytest.mark.parametrize(
        "k,xi,gamma",
        [
            ("2", "1", "inf"),       # gcd
            ("3", "1", "7/4"),       # drift chains
            ("2", "3/2", "1"),       # jitter alphabet
            ("2", "3/2", "inf"),     # ratio ascent
            ("2", "3/2", "7/4"),     # chained jitter+drift
            ("2", "1", "1"),         # degenerate: full input set
        ],
    )
    def test_construct_verify_simulate(self, capsys, tmp_path, k, xi, gamma):
        path = tmp_path / "book.code"
        assert run(capsys, "construct", "--k", k, "--M", "14", "--xi", xi,
                   "--gamma", gamma, "--out", str(path))[0] == 0
        assert run(capsys, "verify", "--code", str(path))[0] == 0
        code, out, _ = run(capsys, "simulate", "--code", str(path))
        assert code == 0
        assert out.endswith("failures=0\n")


class TestInputSizeGuard:
    @pytest.mark.parametrize(
        "argv",
        [
            ("construct", "--k", "2", "--M", "100000"),
            ("sweep", "--param", "M", "--values", "99999999999", "--k", "2"),
            ("oracle", "--k", "50", "--M", "60"),
        ],
        ids=["construct", "sweep", "oracle"],
    )
    def test_refused_before_enumerating(self, capsys, monkeypatch, argv):
        def refuse(*args):
            raise AssertionError("the enumeration started")

        monkeypatch.setattr(core, "_run_vectors", refuse)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: k=") and "more than the" in err
        assert err.count("\n") == 1


    @pytest.mark.parametrize(
        "argv",
        [
            ("construct", "--k", "2", "--M", "100000", "--xi", "1", "--gamma", "1",
             "--regime", "jitter"),
        ],
        ids=["jitter-chain"],
    )
    def test_builders_past_enumerate_inputs_refused(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert (code, out) == (1, "")
        assert err.startswith("error: k=2, M=100000 has ") and "more than the" in err
        assert err.count("\n") == 1

    def test_jitter_with_drift_built_past_enumerate_inputs(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "construct", "--k", "2", "--M", "100000",
                             "--xi", "21/20", "--gamma", "7/4")
        assert time.perf_counter() - start < 1
        assert (code, out, err) == (0, "size=365 rate=8.5118\n", "")

    @pytest.mark.parametrize(
        "xi, text",
        [("1", "has >= 99999999999 codewords"), ("21/20", "has 1683 codewords")],
        ids=["bases", "chains"],
    )
    def test_jitter_with_drift_words_counted_first(self, capsys, monkeypatch, xi, text):
        # at xi = 1 the ascent would list every coprime pair, the M - 1 pairs
        # (1, j) among them, and is refused before its first word; at
        # xi = 21/20 the 520 bases fit and their chains are counted
        monkeypatch.setattr(core, "MAX_INPUTS", 1000)
        start = time.perf_counter()
        code, out, err = run(capsys, "construct", "--k", "2", "--M", "100000000000",
                             "--xi", xi, "--gamma", "1", "--regime", "jitter-bounded-drift")
        assert time.perf_counter() - start < 1
        assert (code, out) == (1, "")
        assert err == (
            f"error: k=2, M=100000000000 {text}, more than the 1000 that can be enumerated\n"
        )

    def test_coprime_bases_refused_before_the_ascent(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "construct", "--k", "2", "--M", "100000000000",
                             "--xi", "1", "--gamma", "1", "--regime", "jitter-bounded-drift")
        assert time.perf_counter() - start < 1
        assert (code, out) == (1, "")
        assert err == (
            "error: k=2, M=100000000000 has >= 99999999999 codewords, "
            "more than the 2000000 that can be enumerated\n"
        )

    @pytest.mark.parametrize(
        "command, flags",
        [
            ("construct", ()),
            ("oracle", ()),
            ("construct", ("--regime", "jitter", "--xi", "2", "--gamma", "1")),
        ],
        ids=["construct", "oracle", "jitter"],
    )
    def test_more_pulses_than_the_limit_refused(self, capsys, command, flags):
        # C(M, M) = 1 input, but it holds 10^11 runs
        start = time.perf_counter()
        code, out, err = run(capsys, command, "--k", "100000000000", "--M", "100000000000", *flags)
        assert time.perf_counter() - start < 1
        assert (code, out) == (1, "")
        assert err == (
            "error: k=100000000000, M=100000000000 has 100000000000 runs per input, "
            "more than the 2000000 that can be enumerated\n"
        )

    def test_jitter_chain_refused_before_it_is_built(self, capsys):
        # at xi = 1 the chain would hold every run value up to 10^8
        start = time.perf_counter()
        code, out, err = run(
            capsys, "construct", "--k", "1", "--M", "100000000", "--xi", "1",
            "--gamma", "1", "--regime", "jitter",
        )
        assert time.perf_counter() - start < 1
        assert (code, out) == (1, "")
        assert err == (
            "error: k=1, M=100000000 has >= 2000001 inputs, "
            "more than the 2000000 that can be enumerated\n"
        )


class TestConstructCounts:
    """construct without --out counts the code; with --out it builds it.
    Both must print the same line and refuse the same inputs alike."""

    GRID_K = ("0", "1", "2", "3", "4", "40")
    GRID_M = ("0", "1", "2", "5", "16", "40")
    GRID_XI = ("1", "21/20", "3/2", "1.000001")
    GRID_GAMMA = ("1", "7/4", "inf")
    REGIMES = (AUTO_REGIME, *_CONSTRUCTED)

    def outcomes(self, capsys, out_path, argv):
        counted = run(capsys, *argv)
        built = run(capsys, *argv, "--out", str(out_path))
        return counted, built

    @pytest.mark.parametrize("regime", REGIMES)
    def test_same_output_as_the_build(self, capsys, tmp_path, regime):
        # every refusal is on this grid: k=1 under unbounded drift, k >= 3
        # jitter with drift, empty domains (k=0, M < k) and frames the
        # regime does not serve
        codes = set()
        for k, m, xi, gamma in itertools.product(
            self.GRID_K, self.GRID_M, self.GRID_XI, self.GRID_GAMMA
        ):
            argv = ("construct", "--k", k, "--M", m, "--xi", xi, "--gamma", gamma,
                    "--regime", regime)
            counted, built = self.outcomes(capsys, tmp_path / "book.code", argv)
            assert counted == built, argv
            codes.add(counted[0])
        assert codes <= {0, 1}

    @pytest.mark.parametrize("regime", REGIMES)
    def test_same_size_guard_as_the_build(self, capsys, monkeypatch, tmp_path, regime):
        # a small limit puts the size guard inside the grid for every
        # builder: C(M, k) inputs, jitter prefixes, bases and chain words
        monkeypatch.setattr(core, "MAX_INPUTS", 100)
        refused = 0
        for k, m, xi, gamma in itertools.product(
            ("1", "2", "3"), ("16", "40"), self.GRID_XI, self.GRID_GAMMA
        ):
            argv = ("construct", "--k", k, "--M", m, "--xi", xi, "--gamma", gamma,
                    "--regime", regime)
            counted, built = self.outcomes(capsys, tmp_path / "book.code", argv)
            assert counted == built, argv
            refused += "more than the 100 that can be enumerated" in counted[2]
        assert refused > 0

    def test_no_builder_runs(self, capsys, monkeypatch, tmp_path):
        calls = [
            ("--k", "2", "--M", "65", "--gamma", "7/4"),
            ("--k", "3", "--M", "20"),
            ("--k", "3", "--M", "30", "--xi", "21/20", "--gamma", "1"),
            ("--k", "2", "--M", "65", "--xi", "21/20"),
            ("--k", "2", "--M", "65", "--xi", "21/20", "--gamma", "7/4"),
            ("--k", "3", "--M", "12", "--xi", "1", "--gamma", "1",
             "--regime", "perfect-sync"),
        ]
        built = [run(capsys, "construct", *argv, "--out", str(tmp_path / "book.code"))
                 for argv in calls]

        def refuse(*args):
            raise AssertionError("a builder ran")

        for name in ("code_gcd", "code_bounded_drift", "code_jitter",
                     "code_jitter_unbounded_drift", "code_jitter_bounded_drift",
                     "perfect_sync_code", "_run_vectors"):
            monkeypatch.setattr(constructions, name, refuse)
        monkeypatch.setattr(core, "_run_vectors", refuse)
        counted = [run(capsys, "construct", *argv) for argv in calls]
        assert counted == built
        assert counted[0] == (0, "size=1736 rate=10.7616\n", "")

    def test_out_path_keeps_the_rate_of_the_book(self, capsys, monkeypatch, tmp_path):
        # the --out line reads the built book through cli.rate_bits, the
        # name that bench/test_bench.py's fault injection patches
        monkeypatch.setattr(cli, "rate_bits", lambda book: 0.0)
        path = tmp_path / "book.code"
        assert run(capsys, "construct", "--k", "2", "--M", "65", "--gamma", "7/4",
                   "--out", str(path)) == (0, "size=1736 rate=0.0000\n", "")
        assert run(capsys, "construct", "--k", "2", "--M", "65", "--gamma", "7/4") == (
            0, "size=1736 rate=10.7616\n", ""
        )


class TestParserCache:
    def test_one_parser_per_process(self):
        assert cli._build_parser() is cli._build_parser()

    def test_no_state_kept_between_calls(self, capsys, tmp_path):
        path = tmp_path / "book.code"
        dump_codebook(code_bounded_drift(2, 65, F(7, 4)), path)
        calls = [
            ("verify", "--code", str(path), "--xi", "21/20"),
            ("verify", "--code", str(path)),  # the file's xi = 1, not 21/20
            ("construct", "--k", "2", "--xi", "abc"),
            ("construct", "--k", "2", "--M", "65", "--gamma", "7/4"),
        ]
        in_turn = [run(capsys, *argv) for argv in calls]
        first = []
        for argv in calls:
            cli._build_parser.cache_clear()
            first.append(run(capsys, *argv))
        assert in_turn == first
        assert [code for code, _, _ in in_turn] == [2, 0, 1, 0]
        assert in_turn[1][1] == "pairs=1505980 violations=0\n"


class TestUsage:
    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 1

    def test_no_args(self, capsys):
        assert run(capsys)[0] == 1
