import numpy as np
import pytest

from periodic_secretary.cli import main
from periodic_secretary.gp import load_hyperparams, save_hyperparams
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
    save_hyperparams(
        GPHyperparams(lengthscales=np.array([0.5]), signal_variance=1.0, noise_variance=0.1),
        path,
    )
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

    def test_oversized_k_is_runtime_error(self, stream_csv, tmp_path, capsys):
        rc = run_cli("select", "--input", stream_csv, "--algo", "scheduled", "--k", 999,
                     "--out", tmp_path)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1

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


@pytest.mark.parametrize("subcommand", ["generate", "tune"])
def test_negative_noise_is_same_usage_error(subcommand, hyper_file, tmp_path, capsys):
    extra = ["--k", 2, "--grid", "0", "--runs", 2, "--hyper", hyper_file] if subcommand == "tune" else []
    with pytest.raises(SystemExit) as exc:
        run_cli(subcommand, "--period", 10, "--periods", 2, "--noise", -1, *extra,
                "--out", tmp_path / "out")
    assert exc.value.code == 2
    assert capsys.readouterr().err == "error: --noise must be >= 0, got -1.0\n"


class TestTune:
    def test_zero_runs_is_error(self, hyper_file, tmp_path, capsys):
        out = tmp_path / "tune"
        rc = run_cli("tune", "--period", 8, "--periods", 2, "--k", 2, "--grid", "0,0.5",
                     "--runs", 0, "--hyper", hyper_file, "--out", out)
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

    def test_negative_sigma_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("bounds", "--k", 5, "--lambda", 0.1, "--sigma-u", -1.0,
                    "--N", 1000, "--T", 100, "--f-opt", 10, "--out", tmp_path)
        assert exc.value.code == 2

    def test_std_denominator_switch(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        common = ["bounds", "--k", 9, "--lambda", 0.5, "--sigma-u", 2.0,
                  "--N", 100, "--T", 10, "--f-opt", 50]
        assert run_cli(*common, "--out", out_a) == 0
        assert run_cli(*common, "--q-denominator", "std", "--out", out_b) == 0
        a = float(read_kv_file(out_a / "bounds.txt")["expected_successes"])
        b = float(read_kv_file(out_b / "bounds.txt")["expected_successes"])
        assert a != b


def test_missing_required_option_reports_single_line(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("tune", "--period", 8, "--out", tmp_path)
    assert exc.value.code == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: missing required option")
    assert len(err.splitlines()) == 1
