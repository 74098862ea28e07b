import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from periodic_secretary import cli
from periodic_secretary.cli import build_parser, main
from periodic_secretary.gp import load_hyperparams
from periodic_secretary import (
    CsvSchema,
    GPHyperparams,
    PeriodicSecretaryConfig,
    UtilityFunction,
    ingest_csv,
    offline_greedy,
    periodic_secretary,
    random_sampler,
    scheduled_sampler,
    submodular_secretary,
)
from periodic_secretary.harness import ALGORITHM_NAMES
from periodic_secretary.kv import read_kv_file


@pytest.fixture
def hyper_file(tmp_path):
    path = tmp_path / "hyper.cfg"
    path.write_text("lengthscales = 0.5\nsignal_variance = 1\nnoise_variance = 0.1\n")
    return path


def run_cli(*argv):
    return main([str(a) for a in argv])


class TestGenerate:
    def test_writes_expected_rows_and_manifest(self, tmp_path):
        out = tmp_path / "gen"
        rc = run_cli("generate", "--period", 100, "--noise", 0.35, "--periods", 10,
                     "--seed", 7, "--out", out)
        assert rc == 0
        lines = (out / "stream.csv").read_text().strip().splitlines()
        assert len(lines) == 1001  # header + 1000 rows
        manifest = read_kv_file(out / "manifest.txt")
        assert manifest["subcommand"] == "generate"
        assert manifest["seed"] == "7"

    def test_rerun_is_byte_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert run_cli("generate", "--period", 20, "--noise", 0.2, "--periods", 5,
                           "--seed", 3, "--out", out) == 0
        assert (out_a / "stream.csv").read_bytes() == (out_b / "stream.csv").read_bytes()

    def test_zero_periods_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("generate", "--period", 10, "--periods", 0, "--out", tmp_path)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1

    def test_zero_period_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("generate", "--period", 0, "--periods", 2, "--out", tmp_path / "out")
        assert exc.value.code == 2
        assert capsys.readouterr().err == "error: --period must be >= 1, got 0\n"
        assert not (tmp_path / "out").exists()

    def test_config_file_fills_missing_flags(self, tmp_path):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text("period = 10\nperiods = 3\nseed = 5\n")
        out = tmp_path / "gen"
        assert run_cli("generate", "--config", cfg, "--out", out) == 0
        lines = (out / "stream.csv").read_text().strip().splitlines()
        assert len(lines) == 31

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text("period = 10\nperiods = 3\n")
        out = tmp_path / "gen"
        assert run_cli("generate", "--config", cfg, "--periods", 2, "--out", out) == 0
        assert len((out / "stream.csv").read_text().strip().splitlines()) == 21


class TestSelect:
    @pytest.fixture
    def stream_csv(self, tmp_path):
        out = tmp_path / "gen"
        run_cli("generate", "--period", 10, "--noise", 0.1, "--periods", 4,
                "--seed", 1, "--out", out)
        return out / "stream.csv"

    def test_scheduled_rule(self, tmp_path):
        out_g = tmp_path / "g"
        run_cli("generate", "--period", 5, "--periods", 2, "--out", out_g)
        out = tmp_path / "sel"
        rc = run_cli("select", "--input", out_g / "stream.csv", "--algo", "scheduled",
                     "--k", 2, "--out", out)
        assert rc == 0
        rows = (out / "selection.csv").read_text().strip().splitlines()[1:]
        assert [r.split(",")[1] for r in rows] == ["0", "5"]

    def test_periodic_respects_observation_phase(self, stream_csv, hyper_file, tmp_path):
        out = tmp_path / "sel"
        rc = run_cli("select", "--input", stream_csv, "--algo", "periodic", "--k", 5,
                     "--period", 10, "--lambda", 0.5, "--hyper", hyper_file, "--out", out)
        assert rc == 0
        rows = (out / "selection.csv").read_text().strip().splitlines()[1:]
        assert rows and all(int(r.split(",")[1]) >= 10 for r in rows)
        summary = read_kv_file(out / "summary.txt")
        assert summary["algorithm"] == "periodic"
        assert summary["terminated"] in ("filled_k", "end_of_stream")

    def test_negative_slack_usage_error(self, stream_csv, hyper_file, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("select", "--input", stream_csv, "--algo", "periodic", "--k", 2,
                    "--period", 10, "--lambda", -1, "--hyper", hyper_file, "--out", tmp_path)
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_algorithm_usage_error(self, stream_csv, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("select", "--input", stream_csv, "--algo", "simulated", "--k", 2,
                    "--out", tmp_path)
        assert exc.value.code == 2
        assert "unknown algorithm" in capsys.readouterr().err

    def test_unknown_utility_usage_error(self, stream_csv, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("select", "--input", stream_csv, "--algo", "scheduled", "--k", 2,
                    "--utility", "variance", "--out", tmp_path / "sel")
        assert exc.value.code == 2
        assert capsys.readouterr().err == "error: unknown utility 'variance'\n"
        assert not (tmp_path / "sel").exists()

    def test_entropy_without_hyper_usage_error(self, stream_csv, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("select", "--input", stream_csv, "--algo", "periodic", "--k", 2,
                    "--period", 10, "--lambda", 0.5, "--out", tmp_path / "sel")
        assert exc.value.code == 2
        assert capsys.readouterr().err == (
            "error: --hyper config file is required for the entropy utility\n"
        )
        assert not (tmp_path / "sel").exists()

    def test_oversized_k_is_runtime_error(self, stream_csv, tmp_path, capsys):
        rc = run_cli("select", "--input", stream_csv, "--algo", "scheduled", "--k", 999,
                     "--out", tmp_path)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("k", [0, -3])
    @pytest.mark.parametrize("name", ALGORITHM_NAMES)
    def test_k_below_one_usage_error(self, name, k, stream_csv, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("select", "--input", stream_csv, "--algo", name, "--k", k,
                    "--period", 10, "--lambda", 0.5, "--utility", "modular",
                    "--out", tmp_path / "sel")
        assert exc.value.code == 2
        assert capsys.readouterr().err == f"error: --k must be >= 1, got {k}\n"
        assert not (tmp_path / "sel").exists()

    @pytest.mark.parametrize("utility", ["entropy", "modular"])
    @pytest.mark.parametrize("name", ALGORITHM_NAMES)
    def test_registry_selector_matches_library(self, name, utility, stream_csv, hyper_file,
                                               tmp_path):
        k, period, slack, seed = 4, 10, 0.05, 3
        out = tmp_path / "sel"
        rc = run_cli("select", "--input", stream_csv, "--algo", name, "--k", k,
                     "--period", period, "--lambda", slack, "--utility", utility,
                     "--hyper", hyper_file, "--seed", seed, "--out", out)
        assert rc == 0
        rows = (out / "selection.csv").read_text().strip().splitlines()[1:]

        obs = ingest_csv(stream_csv, CsvSchema(index_col="t", feature_cols=("x0",))).observations
        if utility == "modular":
            f = UtilityFunction.modular(np.array([o.features[0] for o in obs]))
        else:
            f = UtilityFunction.entropy(load_hyperparams(hyper_file))
        direct = {
            "periodic": lambda: periodic_secretary(
                obs, f, PeriodicSecretaryConfig(k=k, period_T=period, threshold_slack=slack)),
            "submodular": lambda: submodular_secretary(obs, f, k),
            "scheduled": lambda: scheduled_sampler(obs, k),
            "random": lambda: random_sampler(obs, k, seed),
            "greedy": lambda: offline_greedy(obs, f, k),
        }[name]()
        assert [int(r.split(",")[1]) for r in rows] == list(direct.chosen)

    def test_modular_utility_uses_first_feature(self, stream_csv, tmp_path):
        out = tmp_path / "sel"
        rc = run_cli("select", "--input", stream_csv, "--algo", "greedy", "--k", 3,
                     "--utility", "modular", "--out", out)
        assert rc == 0
        summary = read_kv_file(out / "summary.txt")
        assert float(summary["final_utility"]) > 0

    def test_manifest_names_versions_and_still_replays(self, stream_csv, hyper_file, tmp_path):
        # The manifest opens with comment lines naming the Python and numpy
        # that ran; a --config replay skips them and writes the same bytes.
        first, replay = tmp_path / "first", tmp_path / "replay"
        assert run_cli("select", "--input", stream_csv, "--algo", "periodic", "--k", 5,
                       "--period", 10, "--lambda", 0.5, "--hyper", hyper_file, "--out", first) == 0
        lines = (first / "manifest.txt").read_text().splitlines()
        assert lines[:2] == [f"# python {platform.python_version()}", f"# numpy {np.__version__}"]
        assert run_cli("select", "--config", first / "manifest.txt", "--out", replay) == 0
        for name in ("selection.csv", "summary.txt"):
            assert (first / name).read_bytes() == (replay / name).read_bytes()
        replayed = (replay / "manifest.txt").read_text().splitlines()
        assert [line for line in replayed if not line.startswith("out = ")] == [
            line for line in lines if not line.startswith("out = ")
        ]


@pytest.mark.parametrize("subcommand", ["generate", "tune"])
def test_negative_noise_is_same_usage_error(subcommand, hyper_file, tmp_path, capsys):
    extra = ["--k", 2, "--grid", "0", "--runs", 2, "--hyper", hyper_file] if subcommand == "tune" else []
    for noise in ("-1", "nan"):
        with pytest.raises(SystemExit) as exc:
            run_cli(subcommand, "--period", 10, "--periods", 2, "--noise", noise, *extra,
                    "--out", tmp_path / "out")
        assert exc.value.code == 2
        assert capsys.readouterr().err == f"error: --noise must be >= 0, got {float(noise)}\n"


def test_infinite_noise_is_refused_by_name(tmp_path, capsys):
    rc = run_cli("generate", "--period", 10, "--periods", 2, "--noise", "inf",
                 "--out", tmp_path / "out")
    assert rc == 1
    assert capsys.readouterr().err == "error: noise_cov contains non-finite values\n"
    assert not (tmp_path / "out" / "stream.csv").exists()


@pytest.mark.parametrize("k", [0, -3])
@pytest.mark.parametrize("subcommand", ["tune", "evaluate", "bounds"])
def test_k_below_one_is_same_usage_error_as_select(subcommand, k, hyper_file, tmp_path, capsys):
    # evaluate names an input that does not exist: --k is refused before it is read.
    extra = {
        "tune": ["--period", 8, "--periods", 2, "--grid", "0", "--runs", 2,
                 "--hyper", hyper_file],
        "evaluate": ["--input", tmp_path / "missing.csv", "--qoi-col", "qoi",
                     "--algos", "periodic:0.4,scheduled", "--period", 8, "--runs", 2,
                     "--hyper", hyper_file],
        "bounds": ["--lambda", 0.1, "--sigma-u", 1.0, "--N", 100, "--T", 10, "--f-opt", 1],
    }[subcommand]
    with pytest.raises(SystemExit) as exc:
        run_cli(subcommand, *extra, "--k", k, "--out", tmp_path / "out")
    assert exc.value.code == 2
    assert capsys.readouterr().err == f"error: --k must be >= 1, got {k}\n"
    assert not (tmp_path / "out").exists()


class TestTune:
    def test_zero_runs_is_error(self, hyper_file, tmp_path, capsys):
        out = tmp_path / "tune"
        with pytest.raises(SystemExit) as exc:  # a usage error, as every declared least value
            run_cli("tune", "--period", 8, "--periods", 2, "--k", 2, "--grid", "0,0.5",
                    "--runs", 0, "--hyper", hyper_file, "--out", out)
        rc = exc.value.code
        assert rc != 0
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
        assert not (out / "tuning.csv").exists()

    def test_summary_names_best_slack(self, hyper_file, tmp_path):
        out = tmp_path / "tune"
        rc = run_cli("tune", "--period", 8, "--periods", 6, "--noise", 0.2, "--k", 4,
                     "--grid", "0,0.3,0.9", "--runs", 3, "--seed", 2,
                     "--hyper", hyper_file, "--out", out)
        assert rc == 0
        summary = read_kv_file(out / "summary.txt")
        assert float(summary["best_lambda"]) in (0.0, 0.3, 0.9)
        lines = (out / "tuning.csv").read_text().strip().splitlines()
        assert len(lines) == 4

    def test_rerun_byte_identical(self, hyper_file, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            run_cli("tune", "--period", 8, "--periods", 6, "--noise", 0.2, "--k", 4,
                    "--grid", "0,0.3", "--runs", 2, "--seed", 2, "--hyper", hyper_file,
                    "--out", out)
            outs.append(out)
        assert (outs[0] / "tuning.csv").read_bytes() == (outs[1] / "tuning.csv").read_bytes()

    def test_single_period_is_refused(self, hyper_file, tmp_path, capsys):
        out = tmp_path / "tune"
        with pytest.raises(SystemExit) as exc:
            run_cli("tune", "--period", 8, "--periods", 1, "--k", 2, "--grid", "0,0.5",
                    "--runs", 2, "--hyper", hyper_file, "--out", out)
        assert exc.value.code == 2
        assert capsys.readouterr().err == (
            "error: --periods must be >= 2 so the stream outlasts its reference period"
            " (--period), got 1\n"
        )
        assert not out.exists()

    def test_nan_grid_value_is_usage_error(self, hyper_file, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("tune", "--period", 8, "--periods", 2, "--k", 2, "--grid", "0,nan",
                    "--runs", 2, "--hyper", hyper_file, "--out", tmp_path / "tune")
        assert exc.value.code == 2
        assert capsys.readouterr().err == "error: slack grid values must be >= 0\n"


class TestEvaluate:
    @pytest.fixture
    def qoi_csv(self, tmp_path, hyper_file):
        # Synthesize a stream, attach a qoi column, write it back out.
        from periodic_secretary import (
            PeriodicStreamSpec,
            attach_gp_qoi,
            generate_periodic_stream,
            two_sine_waveform,
            write_stream_csv,
        )
        from periodic_secretary.gp import load_hyperparams

        spec = PeriodicStreamSpec(
            period_T=8,
            noise_cov=np.array([[0.3]]),
            length_N=48,
            base_waveform=two_sine_waveform(8),
        )
        stream = attach_gp_qoi(
            generate_periodic_stream(spec, seed=4), load_hyperparams(hyper_file), seed=9
        )
        path = tmp_path / "data.csv"
        write_stream_csv(stream, path)
        return path

    def test_missing_qoi_column_is_usage_error(self, qoi_csv, hyper_file, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("evaluate", "--input", qoi_csv, "--algos", "scheduled,random",
                    "--k", 4, "--period", 8, "--runs", 2, "--hyper", hyper_file,
                    "--out", tmp_path)
        assert exc.value.code == 2
        assert "qoi" in capsys.readouterr().err

    def test_writes_panels_and_summary(self, qoi_csv, hyper_file, tmp_path):
        out = tmp_path / "eval"
        rc = run_cli("evaluate", "--input", qoi_csv, "--qoi-col", "qoi",
                     "--algos", "periodic:0.4,scheduled,random", "--k", 4, "--period", 8,
                     "--runs", 2, "--hyper", hyper_file, "--out", out)
        assert rc == 0
        assert (out / "utility_curves.csv").exists()
        assert (out / "mse_curves.csv").exists()
        summary = read_kv_file(out / "summary.txt")
        assert summary["algorithms"] == "periodic:0.4, scheduled, random"

    def test_rerun_byte_identical(self, qoi_csv, hyper_file, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run_cli("evaluate", "--input", qoi_csv, "--qoi-col", "qoi",
                           "--algos", "periodic:0.4,random", "--k", 3, "--period", 8,
                           "--runs", 2, "--seed", 5, "--hyper", hyper_file, "--out", out) == 0
            outs.append(out)
        for name in ("utility_curves.csv", "mse_curves.csv", "summary.txt"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_empty_algos_token_is_skipped(self, qoi_csv, hyper_file, tmp_path):
        outs = []
        for algos in ("scheduled, ,random,", "scheduled,random"):
            out = tmp_path / str(len(outs))
            assert run_cli("evaluate", "--input", qoi_csv, "--no-mse", "--algos", algos,
                           "--k", 4, "--period", 8, "--runs", 2, "--hyper", hyper_file,
                           "--out", out) == 0
            outs.append(out)
        assert read_kv_file(outs[0] / "summary.txt")["algorithms"] == "scheduled, random"
        for name in ("utility_curves.csv", "summary.txt"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_algos_naming_nothing_usage_error(self, qoi_csv, hyper_file, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("evaluate", "--input", qoi_csv, "--no-mse", "--algos", " , ", "--k", 4,
                    "--period", 8, "--runs", 2, "--hyper", hyper_file, "--out", tmp_path / "out")
        assert exc.value.code == 2
        assert capsys.readouterr().err == "error: --algos named no algorithms\n"
        assert not (tmp_path / "out").exists()

    def test_no_mse_skips_qoi_requirement(self, qoi_csv, hyper_file, tmp_path):
        out = tmp_path / "nomse"
        rc = run_cli("evaluate", "--input", qoi_csv, "--no-mse",
                     "--algos", "scheduled,random", "--k", 4, "--period", 8,
                     "--runs", 2, "--hyper", hyper_file, "--out", out)
        assert rc == 0
        assert (out / "utility_curves.csv").exists()
        assert not (out / "mse_curves.csv").exists()


    @pytest.mark.parametrize("value", ["False", "true", "TRUE"])
    def test_no_mse_config_values(self, qoi_csv, hyper_file, tmp_path, value):
        cfg = tmp_path / "eval.cfg"
        cfg.write_text(f"no_mse = {value}\n")
        out = tmp_path / "eval"
        assert run_cli("evaluate", "--config", cfg, "--input", qoi_csv, "--qoi-col", "qoi",
                       "--algos", "scheduled", "--k", 2, "--period", 8, "--runs", 2,
                       "--hyper", hyper_file, "--out", out) == 0
        no_mse = value.lower() == "true"
        assert (out / "mse_curves.csv").exists() != no_mse
        assert read_kv_file(out / "manifest.txt")["no_mse"] == str(no_mse)

    def test_bad_no_mse_config_value_is_usage_error(self, qoi_csv, hyper_file, tmp_path, capsys):
        cfg = tmp_path / "eval.cfg"
        cfg.write_text("no_mse = yes\n")
        with pytest.raises(SystemExit) as exc:
            run_cli("evaluate", "--config", cfg, "--input", qoi_csv, "--algos", "scheduled",
                    "--k", 2, "--period", 8, "--runs", 2, "--hyper", hyper_file,
                    "--out", tmp_path)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1

    def test_negative_slack_is_usage_error(self, qoi_csv, hyper_file, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("evaluate", "--input", qoi_csv, "--qoi-col", "qoi",
                    "--algos", "periodic:-1,scheduled", "--k", 2, "--period", 8,
                    "--runs", 2, "--hyper", hyper_file, "--out", tmp_path / "eval")
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
        assert "threshold_slack" in err
        assert not (tmp_path / "eval").exists()

    @pytest.mark.parametrize("period, mse, what", [
        (60, True, "the stream has 48 observations, fewer than one period (period_T=60)"),
        (60, False, "the stream has 48 observations, fewer than one period (period_T=60)"),
        (48, True, "MSE needs a test position after the reference period, but the stream has"
                   " 48 observations and period_T=48"),
    ], ids=["short-mse", "short-no-mse", "one-period-mse"])
    def test_stream_without_room_is_refused_by_name(self, qoi_csv, hyper_file, tmp_path, capsys,
                                                    period, mse, what):
        out = tmp_path / "eval"
        rc = run_cli("evaluate", "--input", qoi_csv, "--qoi-col", "qoi",
                     *([] if mse else ["--no-mse"]),
                     "--algos", "periodic:0.4,greedy", "--k", 2, "--period", period,
                     "--runs", 2, "--hyper", hyper_file, "--out", out)
        assert rc == 1
        assert capsys.readouterr().err == f"error: {what}\n"
        assert not out.exists()

    @pytest.mark.parametrize("period", [46, 47])
    def test_no_room_for_a_test_position_and_k_picks_is_refused(self, qoi_csv, hyper_file,
                                                                 tmp_path, capsys, period):
        # 48 rows: 2 or 1 after the period cannot hold a test position and
        # k = 2 picks, so the periodic secretary could never fill.
        out = tmp_path / "eval"
        argv = ["--algos", "periodic:0.3,greedy", "--k", 2, "--period", period, "--runs", 2,
                "--hyper", hyper_file]
        rc = run_cli("evaluate", "--input", qoi_csv, "--qoi-col", "qoi", *argv, "--out", out)
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: MSE needs a test position after the reference period, but the stream has"
            f" 48 observations and period_T={period}, so the {48 - period} after it cannot"
            f" also hold k=2 picks\n"
        )
        assert not out.exists()
        assert run_cli("evaluate", "--input", qoi_csv, "--no-mse", *argv, "--out", out) == 0

    def test_no_mse_run_replays_from_manifest(self, qoi_csv, hyper_file, tmp_path):
        first, replay = tmp_path / "first", tmp_path / "replay"
        assert run_cli("evaluate", "--input", qoi_csv, "--no-mse",
                       "--algos", "periodic:0.4,scheduled,random", "--k", 3, "--period", 8,
                       "--runs", 2, "--seed", 5, "--hyper", hyper_file, "--out", first) == 0
        assert run_cli("evaluate", "--config", first / "manifest.txt", "--out", replay) == 0
        assert not (replay / "mse_curves.csv").exists()
        for name in ("utility_curves.csv", "summary.txt"):
            assert (first / name).read_bytes() == (replay / name).read_bytes()
        strip_out = [line for line in (first / "manifest.txt").read_text().splitlines()
                     if not line.startswith("out = ")]
        assert [line for line in (replay / "manifest.txt").read_text().splitlines()
                if not line.startswith("out = ")] == strip_out

    @pytest.mark.parametrize("k", [3, 5])
    def test_identical_runs_report_zero_spread(self, hyper_file, tmp_path, k):
        # Without noise every period is the same, so every block-permuted
        # trial is the same stream and the schedule's utility never varies.
        gen, out = tmp_path / "gen", tmp_path / "eval"
        assert run_cli("generate", "--period", 24, "--periods", 5, "--noise", 0,
                       "--seed", 3, "--out", gen) == 0
        assert run_cli("evaluate", "--input", gen / "stream.csv", "--no-mse",
                       "--algos", "scheduled", "--k", k, "--period", 24, "--runs", 7,
                       "--hyper", hyper_file, "--out", out) == 0
        assert read_kv_file(out / "summary.txt")["scheduled.final_utility_sd"] == "0"
        sds = [line.rsplit(",", 1)[1]
               for line in (out / "utility_curves.csv").read_text().splitlines()[1:]]
        assert sds == ["0"] * k


class TestNonMonotoneFlag:
    """Below noise_variance = 1/(2*pi*e) = 0.0585 an entropy gain can be
    negative; select, tune and evaluate say so on stderr and in summary.txt,
    and write nothing extra above the floor."""

    @pytest.fixture
    def data(self, tmp_path):
        from periodic_secretary import attach_gp_qoi, generate_periodic_stream, write_stream_csv

        gen = tmp_path / "gen"
        assert run_cli("generate", "--period", 8, "--periods", 4, "--noise", 0.3,
                       "--seed", 4, "--out", gen) == 0
        stream = ingest_csv(gen / "stream.csv", CsvSchema(index_col="t", feature_cols=("x0",)))
        hyper = GPHyperparams(lengthscales=np.array([0.5]), signal_variance=1.0, noise_variance=0.1)
        write_stream_csv(attach_gp_qoi(stream, hyper, seed=9), tmp_path / "qoi.csv")
        return tmp_path / "qoi.csv"

    @pytest.mark.parametrize("subcommand", ["select", "tune", "evaluate"])
    @pytest.mark.parametrize("noise, flagged", [(0.0, True), (0.05, True), (0.06, False), (0.1, False)])
    def test_flag_on_one_side_of_the_floor(self, data, tmp_path, capsys, subcommand, noise, flagged):
        hyper = tmp_path / "hyper.cfg"
        hyper.write_text(f"lengthscales = 0.5\nsignal_variance = 1\nnoise_variance = {noise}\n")
        out = tmp_path / "out"
        argv = {
            "select": ["--input", data, "--algo", "periodic", "--k", 3, "--period", 8,
                       "--lambda", 0.3],
            "tune": ["--period", 8, "--periods", 4, "--noise", 0.3, "--k", 3, "--grid", "0,0.3",
                     "--runs", 2],
            "evaluate": ["--input", data, "--qoi-col", "qoi", "--algos", "periodic:0.3,scheduled",
                         "--k", 3, "--period", 8, "--runs", 2],
        }[subcommand]
        assert run_cli(subcommand, *argv, "--hyper", hyper, "--out", out) == 0
        err = capsys.readouterr().err
        summary = read_kv_file(out / "summary.txt")
        if flagged:
            assert err.startswith("warning: entropy noise_variance") and "not monotone" in err
            assert err.count("\n") == 1
            assert summary["non_monotone"] == err.strip().removeprefix("warning: ")
        else:
            assert err == ""
            assert "non_monotone" not in summary

    def test_modular_select_is_not_flagged(self, data, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("select", "--input", data, "--algo", "greedy", "--k", 3,
                       "--utility", "modular", "--out", out) == 0
        assert capsys.readouterr().err == ""
        assert "non_monotone" not in read_kv_file(out / "summary.txt")


class TestBounds:
    def test_noiseless_limit_value(self, tmp_path, capsys):
        out = tmp_path / "bounds"
        rc = run_cli("bounds", "--k", 5, "--lambda", 0.1, "--sigma-u", 1e-9,
                     "--N", 1000, "--T", 100, "--f-opt", 10, "--out", out)
        assert rc == 0
        report = read_kv_file(out / "bounds.txt")
        assert float(report["utility_lower_bound"]) == pytest.approx(
            6.005145302088752, abs=1e-9
        )
        assert report["vacuous"] == "false"
        assert "utility_lower_bound" in capsys.readouterr().out

    @pytest.mark.parametrize("option, value", [("--lambda", "nan"), ("--sigma-u", "nan")])
    def test_nan_is_usage_error(self, option, value, tmp_path, capsys):
        argv = {"--k": 5, "--lambda": 0.1, "--sigma-u": 1.0, "--N": 1000, "--T": 100, "--f-opt": 10}
        argv[option] = value
        with pytest.raises(SystemExit) as exc:
            run_cli("bounds", *[a for kv in argv.items() for a in kv], "--out", tmp_path)
        assert exc.value.code == 2
        assert capsys.readouterr().err == f"error: {option} must be >= 0, got nan\n"

    def test_negative_sigma_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("bounds", "--k", 5, "--lambda", 0.1, "--sigma-u", -1.0,
                    "--N", 1000, "--T", 100, "--f-opt", 10, "--out", tmp_path)
        assert exc.value.code == 2

    def test_key_value_block(self, tmp_path, capsys):
        assert run_cli("bounds", "--k", 5, "--lambda", 0.1, "--sigma-u", 0, "--N", 1000,
                       "--T", 100, "--f-opt", 10, "--out", tmp_path) == 0
        text = capsys.readouterr().out
        assert "utility_lower_bound = 6.00514530887" in text
        assert "vacuous = false" in text
        assert (tmp_path / "bounds.txt").read_text() == text

    def test_period_past_the_stream_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("bounds", "--k", 1, "--lambda", 0.1, "--sigma-u", 1.0, "--N", 5, "--T", 8,
                    "--f-opt", 1, "--out", tmp_path / "out")
        assert exc.value.code == 2
        assert capsys.readouterr().err == "error: --T (8) must be <= --N (5)\n"
        assert not (tmp_path / "out").exists()

    def test_options_are_the_bound_inputs(self):
        args = build_parser().parse_args(["bounds"])
        assert set(vars(args)) == {"subcommand", "func", "k", "threshold_slack", "sigma_u",
                                   "N", "T", "f_opt", "out", "config", "seed"}

    def test_unknown_config_key_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "bounds.cfg"
        cfg.write_text("grid = 0.1\n")
        with pytest.raises(SystemExit) as exc:
            run_cli("bounds", "--config", cfg, "--k", 9, "--lambda", 0.5, "--sigma-u", 2.0,
                    "--N", 100, "--T", 10, "--f-opt", 50, "--out", tmp_path)
        assert exc.value.code == 2
        assert capsys.readouterr().err == f"error: unknown config key 'grid' in {cfg}\n"


def test_missing_required_option_reports_single_line(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("tune", "--period", 8, "--out", tmp_path)
    assert exc.value.code == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: missing required option")
    assert len(err.splitlines()) == 1


def test_missing_option_is_named_by_its_flag(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("bounds", "--k", 5, "--sigma-u", 1.0, "--N", 100, "--T", 10, "--f-opt", 1,
                "--out", tmp_path)
    assert exc.value.code == 2
    assert capsys.readouterr().err == "error: missing required option --lambda\n"


def test_bad_config_number_is_the_flags_usage_error(tmp_path, capsys):
    cfg = tmp_path / "k.cfg"
    cfg.write_text("k = 2.5\n")
    with pytest.raises(SystemExit) as exc:
        run_cli("bounds", "--config", cfg, "--lambda", 0.1, "--sigma-u", 1.0, "--N", 100,
                "--T", 10, "--f-opt", 1, "--out", tmp_path / "out")
    assert exc.value.code == 2
    assert capsys.readouterr().err == "error: argument --k: invalid int value: '2.5'\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("subcommand, options, output", [
    ("generate", {"period": 10, "periods": 3, "noise": "1e-3", "seed": "07"}, "stream.csv"),
    ("bounds", {"k": 5, "threshold_slack": 0, "sigma_u": "1e-3", "N": 1000, "T": 100,
                "f_opt": 10, "seed": "07"}, "bounds.txt"),
])
def test_config_file_and_flags_write_the_same_run(subcommand, options, output, tmp_path):
    # A config file's text is typed as its flag's is, so the manifest holds
    # the same canonical text (noise = 0.001, seed = 7) either way.
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{key} = {value}\n" for key, value in options.items()))
    flag = {"threshold_slack": "--lambda", "sigma_u": "--sigma-u", "f_opt": "--f-opt"}
    flags = [a for key, value in options.items() for a in (flag.get(key, f"--{key}"), value)]
    by_flags, by_file = tmp_path / "flags", tmp_path / "file"
    assert run_cli(subcommand, *flags, "--out", by_flags) == 0
    assert run_cli(subcommand, "--config", cfg, "--out", by_file) == 0
    assert (by_flags / output).read_bytes() == (by_file / output).read_bytes()
    manifests = [[line for line in (out / "manifest.txt").read_text().splitlines()
                  if not line.startswith("out = ")] for out in (by_flags, by_file)]
    assert manifests[0] == manifests[1]
    assert "seed = 7" in manifests[0]


# The options each subcommand requires (and the --qoi-col that evaluate's MSE
# needs). The files they name do not exist: a usage error comes before either is read.
_REQUIRED_ONLY = {
    "generate": ["--period", 8, "--periods", 2],
    "select": ["--input", "missing.csv", "--algo", "scheduled", "--k", 2],
    "tune": ["--period", 8, "--periods", 2, "--k", 2, "--grid", "0", "--hyper", "missing.cfg"],
    "evaluate": ["--input", "missing.csv", "--qoi-col", "qoi", "--k", 2, "--period", 8,
                 "--algos", "scheduled", "--hyper", "missing.cfg"],
    "bounds": ["--k", 2, "--lambda", 0.1, "--sigma-u", 1.0, "--N", 24, "--T", 8, "--f-opt", 1],
}


@pytest.mark.parametrize("subcommand", sorted(_REQUIRED_ONLY))
def test_negative_seed_is_usage_error(subcommand, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(subcommand, *_REQUIRED_ONLY[subcommand], "--seed", -1, "--out", tmp_path / "out")
    assert exc.value.code == 2
    assert capsys.readouterr().err == "error: --seed must be >= 0, got -1\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("subcommand", ["select", "evaluate"])
def test_zero_period_is_usage_error(subcommand, tmp_path, capsys):
    # select's scheduled rule reads no period; evaluate used to fail at run time.
    with pytest.raises(SystemExit) as exc:
        run_cli(subcommand, *_REQUIRED_ONLY[subcommand], "--period", 0, "--out", tmp_path / "out")
    assert exc.value.code == 2
    assert capsys.readouterr().err == "error: --period must be >= 1, got 0\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("subcommand, flag", [
    ("tune", "--runs"), ("evaluate", "--block-len"), ("bounds", "--N"), ("bounds", "--T"),
])
def test_zero_count_is_usage_error(subcommand, flag, tmp_path, capsys):
    # Refused by the flag's declared least value before any input is read.
    with pytest.raises(SystemExit) as exc:
        run_cli(subcommand, *_REQUIRED_ONLY[subcommand], flag, 0, "--out", tmp_path / "out")
    assert exc.value.code == 2
    assert capsys.readouterr().err == f"error: {flag} must be >= 1, got 0\n"
    assert not (tmp_path / "out").exists()


def test_runtime_imports_no_scipy():
    # The library and its command line run on numpy alone; scipy is a test
    # dependency only.
    code = (
        "import sys, periodic_secretary, periodic_secretary.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert out.stdout.strip() == "[]"


def test_main_builds_its_parser_once_per_process(monkeypatch, tmp_path):
    # Parsing leaves the parser unchanged, so main builds it once; the public
    # build_parser still returns a fresh one on every call.
    built = []

    def counting_build_parser():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    cli._parser.cache_clear()
    try:
        for _ in range(2):
            assert run_cli("bounds", "--k", 5, "--lambda", 0.1, "--sigma-u", 1.0,
                           "--N", 100, "--T", 10, "--f-opt", 1, "--out", tmp_path) == 0
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1
    assert build_parser() is not build_parser()


# Each subcommand run with only the options it requires (and, for evaluate,
# the --qoi-col that MSE needs): every other key of its manifest is the
# built-in default's text.
_DEFAULT_MANIFEST = {
    "generate": {"noise": "0.0", "amplitude": "1.0"},
    "select": {"index_col": "t", "feature_cols": "x0", "utility": "entropy"},
    "tune": {"noise": "0.0", "amplitude": "1.0", "runs": "50"},
    "evaluate": {"index_col": "t", "feature_cols": "x0", "runs": "50", "test_fraction": "0.2",
                 "no_mse": "False"},
    "bounds": {},
}


@pytest.mark.parametrize("subcommand", sorted(_DEFAULT_MANIFEST))
def test_required_options_alone_write_the_built_in_defaults(subcommand, hyper_file, tmp_path,
                                                            monkeypatch):
    from periodic_secretary import PeriodicStreamSpec, attach_gp_qoi, generate_periodic_stream
    from periodic_secretary import two_sine_waveform, write_stream_csv

    spec = PeriodicStreamSpec(period_T=8, noise_cov=np.array([[0.3]]), length_N=24,
                              base_waveform=two_sine_waveform(8))
    stream = attach_gp_qoi(generate_periodic_stream(spec, seed=4), load_hyperparams(hyper_file),
                           seed=9)
    write_stream_csv(stream, tmp_path / "data.csv")
    argv = {
        "generate": {"period": 8, "periods": 2},
        "select": {"input": tmp_path / "data.csv", "algo": "scheduled", "k": 2},
        "tune": {"period": 8, "periods": 2, "k": 2, "grid": "0", "hyper": hyper_file},
        "evaluate": {"input": tmp_path / "data.csv", "qoi-col": "qoi", "k": 2, "period": 8,
                     "algos": "scheduled", "hyper": hyper_file},
        "bounds": {"k": 2, "lambda": 0.1, "sigma-u": 1.0, "N": 24, "T": 8, "f-opt": 1},
    }[subcommand]
    run = tmp_path / "run"
    run.mkdir()
    monkeypatch.chdir(run)
    assert run_cli(subcommand, *[a for flag, value in argv.items() for a in (f"--{flag}", value)]) == 0
    manifest = read_kv_file(run / "manifest.txt")
    defaults = {"subcommand": subcommand, "seed": "0", "out": ".", **_DEFAULT_MANIFEST[subcommand]}
    given = {"threshold_slack" if flag == "lambda" else flag.replace("-", "_") for flag in argv}
    assert sorted(manifest) == sorted({*defaults, *given})
    assert {key: manifest[key] for key in defaults} == defaults
