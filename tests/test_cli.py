"""CLI surface tests: exit codes, file outputs, determinism, config."""

import json

import pytest

from hardyqkd.cli import RunConfig, main


def run_cli(args):
    return main(args)


class TestConfig:
    def test_round_trip(self):
        cfg = RunConfig(command="keyrate", eta=0.7, dist="nonuniform",
                        seed=77, epsilon=0.05)
        again = RunConfig.from_json(cfg.to_json())
        assert again == cfg

    def test_unknown_keys_rejected(self):
        with pytest.raises(Exception):
            RunConfig.from_json(json.dumps({"bogus": 1}))

    def test_flags_override_config(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(RunConfig(seed=1, rounds=50).to_json())
        out = tmp_path / "o"
        code = run_cli(["simulate", "--config", str(cfg_file),
                        "--rounds", "120", "--out", str(out)])
        assert code == 0
        csv_text = (out / "transcript.csv").read_text()
        assert len(csv_text.strip().split("\n")) == 121  # header + rounds

    def test_validation_errors_exit_2(self, tmp_path):
        assert run_cli(["simulate", "--eta", "1.7",
                        "--out", str(tmp_path)]) == 2
        assert run_cli(["simulate", "--dist", "weird",
                        "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("seed", ["-1", str(2 ** 128)])
    def test_out_of_range_seed_exit_2(self, tmp_path, seed):
        assert run_cli(["simulate", "--seed", seed, "--rounds", "10",
                        "--out", str(tmp_path)]) == 2


class TestHardyStateCommand:
    def test_default_q_value(self, tmp_path, capsys):
        code = run_cli(["hardy-state", "--out", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "hardy_state.json").read_text())
        assert abs(report["q"] - 0.0901699437) < 1e-9
        assert abs(report["q_tilde"] - 0.2360679775) < 1e-9
        assert report["uniqueness_dimension"] == 1
        assert max(abs(z) for z in report["hardy_zeros"]) < 1e-10

    def test_balanced_alpha(self, tmp_path):
        code = run_cli(["hardy-state", "--alpha", "0.7071067811865476",
                        "--out", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "hardy_state.json").read_text())
        assert abs(report["q"] - 1.0 / 12.0) < 1e-9

    def test_boundary_alpha_exit_2(self, tmp_path):
        assert run_cli(["hardy-state", "--alpha", "1.0",
                        "--out", str(tmp_path)]) == 2


class TestSimulateCommand:
    def test_noiseless_key_agrees(self, tmp_path, capsys):
        code = run_cli(["simulate", "--eta", "1.0", "--rounds", "20000",
                        "--seed", "5", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "key disagreement rate = 0.000000" in out

    def test_deterministic_re_run(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert run_cli(["simulate", "--rounds", "5000", "--seed", "42",
                            "--out", str(out)]) == 0
        assert (out1 / "transcript.csv").read_bytes() == \
            (out2 / "transcript.csv").read_bytes()

    def test_too_few_revealed_rounds_exit_2(self, tmp_path, capsys):
        assert run_cli(["simulate", "--rounds", "5", "--reveal", "0.1",
                        "--out", str(tmp_path)]) == 2
        assert "no revealed rounds" in capsys.readouterr().err
        assert not (tmp_path / "transcript.csv").exists()

    def test_zero_reveal_exit_2(self, tmp_path):
        # no round is ever revealed, so h can never be estimated
        assert run_cli(["simulate", "--reveal", "0", "--rounds", "10",
                        "--out", str(tmp_path)]) == 2
        assert not (tmp_path / "transcript.csv").exists()

    def test_csv_header(self, tmp_path):
        run_cli(["simulate", "--rounds", "100", "--out", str(tmp_path)])
        text = (tmp_path / "transcript.csv").read_text()
        assert text.startswith(
            "index,settingA,settingB,outcomeA,outcomeB,revealed\n")


class TestKeyrateCommand:
    def test_csv_rows_and_svg_curves(self, tmp_path):
        code = run_cli(["keyrate", "--eta-grid", "4", "--grid-res", "5",
                        "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "keyrates.csv").read_text().strip().split("\n")
        assert len(lines) == 1 + 4 * 4  # header + grid * (2 dists x 2 strategies)
        svg = (tmp_path / "keyrates.svg").read_text()
        assert svg.count("<polyline") == 4


class TestBiasCompareCommand:
    def test_svg_has_exactly_two_polylines(self, tmp_path):
        code = run_cli(["bias-compare", "--eps-grid", "3",
                        "--out", str(tmp_path)])
        assert code == 0
        svg = (tmp_path / "bias_compare.svg").read_text()
        assert svg.count("<polyline") == 2
        lines = (tmp_path / "bias_compare.csv").read_text().strip().split("\n")
        assert lines[0] == "epsilon,hardy_guess,chsh_guess"
        assert len(lines) == 4

    def test_single_epsilon(self, tmp_path, capsys):
        code = run_cli(["bias-compare", "--epsilon", "0.0",
                        "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "hardy=0.500000" in out


class TestGammaCommand:
    def test_gamma_csv(self, tmp_path):
        code = run_cli(["gamma", "--grid-res", "5", "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "gamma.csv").read_text().strip().split("\n")
        assert lines[0] == "eta,h1,h2,h3,h4,gamma0,gamma1"
        assert len(lines) == 1 + 5 + 8  # header + segment + corner points

    def test_byte_identical_re_run(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert run_cli(["gamma", "--grid-res", "4",
                            "--out", str(out)]) == 0
        assert (out1 / "gamma.csv").read_bytes() == \
            (out2 / "gamma.csv").read_bytes()
