import math

import numpy as np
import pytest

from sfde_tem import cli, experiments
from sfde_tem.cli import main, parse_config, run
from sfde_tem.errors import ConfigurationError


class TestParseConfig:
    def test_defaults_applied(self):
        cfg = parse_config("", {"command": "stability", "model": "example2"})
        assert cfg.horizon == 10.0
        assert cfg.samples == 1000
        assert cfg.seed == 42
        assert cfg.p_exponent == 2.0
        assert cfg.ref_exponent == 14
        assert cfg.step_exponents == [6]
        assert cfg.output_path == "stability.csv"

    def test_reference_grid_accepted(self):
        text = "command = convergence\nmodel = example1\nsteps = 5,6,7,8,10\nref_exponent = 14\n"
        cfg = parse_config(text)
        assert cfg.step_exponents == [5, 6, 7, 8, 10]

    def test_inconsistent_reference_rejected(self):
        text = "command = convergence\nsteps = 5,6,7,8,10\nref_exponent = 6\n"
        with pytest.raises(ConfigurationError, match="ref_exponent"):
            parse_config(text)

    def test_unknown_key_named(self):
        with pytest.raises(ConfigurationError, match="granularity"):
            parse_config("command = simulate\ngranularity = 3\n")

    def test_type_mismatch_named(self):
        with pytest.raises(ConfigurationError, match="samples"):
            parse_config("command = simulate\nsamples = lots\n")

    def test_missing_command(self):
        with pytest.raises(ConfigurationError, match="command"):
            parse_config("model = example1\n")

    def test_unknown_model(self):
        with pytest.raises(ConfigurationError, match="model"):
            parse_config("command = simulate\nmodel = heston\n")

    def test_comments_and_blanks(self):
        text = "# full line comment\n\ncommand = nu  # trailing comment\n"
        assert parse_config(text).command == "nu"

    def test_flags_override_file(self):
        cfg = parse_config("command = simulate\nseed = 1\n", {"command": "simulate", "seed": "9"})
        assert cfg.seed == 9


# every settable key: (file value, flag value, RunConfig field or model parameter, parsed file value, parsed flag value)
_KEY_CASES = {
    "model": ("example2", "gbm", "model_name", "example2", "gbm"),
    "steps": ("5,6", "7", "step_exponents", [5, 6], [7]),
    "ref_exponent": ("12", "13", "ref_exponent", 12, 13),
    "horizon": ("2", "3.5", "horizon", 2.0, 3.5),
    "samples": ("200", "300", "samples", 200, 300),
    "seed": ("1", "2", "seed", 1, 2),
    "p": ("4", "8", "p_exponent", 4.0, 8.0),
    "output": ("file.csv", "flag.csv", "output_path", "file.csv", "flag.csv"),
    **{key: ("0.25", "0.75", "model_params", {key: 0.25}, {key: 0.75})
       for key in ("a", "b", "x0", "b1", "b2", "b3", "b4", "tau")},
}


class TestEveryKey:
    @pytest.mark.parametrize("key", list(_KEY_CASES))
    def test_settable_from_file_and_flag_flag_wins(self, key, tmp_path, monkeypatch):
        file_value, flag_value, name, from_file, from_flag = _KEY_CASES[key]
        seen = []
        monkeypatch.setattr(cli, "run", lambda config: seen.append(config) or 0)
        conf = tmp_path / "run.conf"
        conf.write_text(f"command = convergence\n{key} = {file_value}\n")
        flag = "--" + key.replace("_", "-")
        assert main(["convergence", "--config", str(conf)]) == 0
        assert main(["convergence", "--config", str(conf), flag, flag_value]) == 0
        assert [getattr(config, name) for config in seen] == [from_file, from_flag]


class TestRun:
    def test_simulate_frozen_trajectory(self, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        cfg = parse_config(
            None,
            {
                "command": "simulate", "model": "gbm", "a": "0", "b": "0", "x0": "2.5",
                "steps": "6", "horizon": "1", "output": str(out),
            },
        )
        assert run(cfg) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,y_1"
        values = {float(line.split(",")[1]) for line in lines[1:]}
        assert values == {2.5}
        assert len(lines) == 2 + 64  # header + K+1 states

    def test_nu_summary_line(self, capsys):
        cfg = parse_config(None, {"command": "nu", "model": "example2"})
        assert run(cfg) == 0
        line = capsys.readouterr().out.strip()
        assert line.startswith("nu=")
        assert float(line.split("=")[1]) >= 2.0

    def test_convergence_csv_round_trip(self, tmp_path, capsys):
        out = tmp_path / "conv.csv"
        cfg = parse_config(
            None,
            {
                "command": "convergence", "model": "gbm", "steps": "5,6,7",
                "ref_exponent": "10", "horizon": "1", "samples": "100",
                "output": str(out),
            },
        )
        assert run(cfg) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "delta,rms_error,std_error"
        assert len(lines) == 4
        deltas = [float(line.split(",")[0]) for line in lines[1:]]
        assert deltas == [2.0**-5, 2.0**-6, 2.0**-7]
        summary = capsys.readouterr().out.strip()
        assert summary.startswith("slope=")

    def test_convergence_paper_grid_row_count(self, tmp_path, capsys):
        # the default five-level grid yields a five-row table plus the summary line
        out = tmp_path / "grid.csv"
        cfg = parse_config(
            None,
            {
                "command": "convergence", "model": "example1",
                "steps": "5,6,7,8,10", "ref_exponent": "11",
                "horizon": "1", "samples": "100", "output": str(out),
            },
        )
        assert run(cfg) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "delta,rms_error,std_error"
        assert len(lines) == 6
        assert capsys.readouterr().out.startswith("slope=")

    def test_moments_csv_schema(self, tmp_path):
        out = tmp_path / "m.csv"
        cfg = parse_config(
            None,
            {
                "command": "moments", "model": "gbm", "a": "0", "b": "0", "x0": "1",
                "steps": "5", "horizon": "1", "samples": "100", "output": str(out),
            },
        )
        assert run(cfg) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,moment_p,running_max"
        last = lines[-1].split(",")
        assert float(last[1]) == pytest.approx(1.0)
        assert float(last[2]) == pytest.approx(1.0)

    def test_stability_csv_schema(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        cfg = parse_config(
            None,
            {
                "command": "stability", "model": "example2", "steps": "5",
                "horizon": "2", "samples": "100", "output": str(out),
            },
        )
        assert run(cfg) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,log_moment,sample_mean_1,sample_mean_2"
        assert capsys.readouterr().out.startswith("moment_rate=")


class TestMainExitCodes:
    def test_single_step_convergence_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "one.csv"
        code = main(
            ["convergence", "--model", "gbm", "--steps", "5", "--ref-exponent", "7",
             "--horizon", "1", "--samples", "100", "--output", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "delta,rms_error,std_error"
        assert len(lines) == 2 and float(lines[1].split(",")[0]) == 2.0**-5
        assert capsys.readouterr().out.strip() == "slope=degenerate"

    def test_config_error_exit_two(self, capsys):
        assert main(["simulate", "--model", "heston"]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_io_error_exit_four(self, capsys):
        code = main(
            [
                "simulate", "--model", "gbm", "--a", "0", "--b", "0",
                "--steps", "5", "--horizon", "1",
                "--output", "/nonexistent-dir/x.csv",
            ]
        )
        assert code == 4
        assert "i/o error" in capsys.readouterr().err

    def test_bad_nu_constants_exit_two(self, capsys):
        assert main(["nu", "--b1", "1", "--b2", "2", "--b3", "2", "--b4", "0"]) == 2
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "convergence", "moments", "stability", "nu"])
    @pytest.mark.parametrize("horizon", ["nan", "inf"])
    def test_infinite_horizon_exit_two(self, command, horizon, tmp_path, capsys):
        out = tmp_path / "t.csv"
        assert main([command, "--horizon", horizon, "--output", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert "configuration error" in captured.err and "key 'horizon'" in captured.err

    @pytest.mark.parametrize(
        "args",
        [
            ["nu", "--p", "nan"],
            ["moments", "--samples", "100", "--horizon", "1", "--p", "nan"],
            ["stability", "--p", "nan"],
        ],
        ids=["nu", "moments", "stability"],
    )
    def test_non_finite_exponent_exit_two(self, args, tmp_path, capsys):
        out = tmp_path / "p.csv"
        assert main(args + ["--output", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert "configuration error" in captured.err and "moment exponent" in captured.err

    @pytest.mark.parametrize(
        "args, name",
        [
            (["--tau", "nan"], "tau"),
            (["--tau", "inf"], "tau"),
            (["--b1", "inf", "--b2", "0.25", "--b3", "3.75", "--b4", "0.75"], "b1"),
            (["--b1", "2.75", "--b2", "0.25", "--b3", "inf", "--b4", "0.75"], "b3"),
            (["--b1", "2.75", "--b2", "nan", "--b3", "3.75", "--b4", "0.75"], "b2"),
        ],
        ids=["tau_nan", "tau_inf", "b1_inf", "b3_inf", "b2_nan"],
    )
    def test_non_finite_nu_constant_exit_two(self, args, name, capsys):
        assert main(["nu"] + args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "configuration error" in captured.err and "finite" in captured.err and name in captured.err

    @pytest.mark.parametrize(
        "args, name",
        [
            (["convergence", "--b", "inf", "--steps", "5", "--ref-exponent", "7", "--samples", "100"], "b"),
            (["simulate", "--a", "inf"], "a"),
            (["simulate", "--a", "nan"], "a"),
            (["simulate", "--x0=-inf"], "x0"),
        ],
        ids=["convergence_b_inf", "simulate_a_inf", "simulate_a_nan", "simulate_x0_inf"],
    )
    def test_non_finite_gbm_parameter_exit_two(self, args, name, tmp_path, capsys):
        out = tmp_path / "g.csv"
        assert main(args + ["--model", "gbm", "--horizon", "1", "--output", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert "configuration error" in captured.err and f"parameter {name} must be finite" in captured.err

    def test_underflowing_reference_step_exit_two(self, tmp_path, capsys):
        # 2^-1100 rounds to 0.0
        out = tmp_path / "c.csv"
        args = ["convergence", "--ref-exponent", "1100", "--steps", "5", "--samples", "100", "--horizon", "1"]
        assert main(args + ["--output", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert "configuration error" in captured.err and "step/step_ref" in captured.err

    def test_seed_outside_key_range_exit_two(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        assert main(["simulate", "--horizon", "1", "--seed", str(2**64), "--output", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert "configuration error" in captured.err and "seed" in captured.err

    def test_partial_nu_constants_exit_two(self, capsys):
        assert main(["nu", "--b1", "30"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "configuration error" in captured.err and "b2, b3, b4" in captured.err

    def test_nu_tau_alone_accepted(self, capsys):
        assert main(["nu", "--tau", "0.25"]) == 0
        assert capsys.readouterr().out.startswith("nu=")

    def test_unread_model_parameter_exit_two(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        assert main(["simulate", "--model", "example1", "--tau", "0.25", "--a", "7", "--output", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert "configuration error" in captured.err and "'a', 'tau'" in captured.err

    @pytest.mark.parametrize(
        "args",
        [
            ["convergence", "--model", "gbm", "--a", "0.5", "--steps", "5", "--ref-exponent", "7",
             "--horizon", "1", "--samples", "100"],
            ["nu", "--tau", "0.3"],
        ],
        ids=["read_by_model", "read_by_command"],
    )
    def test_parameter_read_by_model_or_command_accepted(self, args, tmp_path):
        assert main(args + ["--output", str(tmp_path / "out.csv")]) == 0

    def test_success_exit_zero(self, tmp_path):
        code = main(
            ["simulate", "--model", "gbm", "--a", "0", "--b", "0", "--steps", "5",
             "--horizon", "1", "--output", str(tmp_path / "t.csv")]
        )
        assert code == 0


class TestByteReproducibility:
    def test_batching_identical_csv(self, tmp_path, monkeypatch):
        # the reference level has N = 16 history steps: 17 ring entries per replica
        args = [
            "convergence", "--model", "gbm", "--steps", "5,6",
            "--ref-exponent", "9", "--horizon", "1", "--samples", "300",
        ]
        outputs = []
        for ring_entries, batches in ((experiments.RING_ENTRIES, 1), (17 * 100, 3)):
            monkeypatch.setattr(experiments, "RING_ENTRIES", ring_entries)
            assert len(list(experiments._batches(300, 16, 1, 512))) == batches
            out = tmp_path / f"conv_{batches}.csv"
            assert main(args + ["--output", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
