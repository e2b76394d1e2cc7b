"""CLI surface tests: exit codes, file outputs, determinism, config."""

import csv
import dataclasses
import json
import os
import tracemalloc

import numpy as np
import pytest

from hardyqkd import analysis, cli, errors, protocol
from hardyqkd.cli import RunConfig, main


def run_cli(args):
    return main(args)


# every file each command writes under --out
OUTPUT_FILES = [("hardy-state", "hardy_state.json"), ("simulate", "transcript.csv"),
                ("keyrate", "keyrates.csv"), ("keyrate", "keyrates.svg"),
                ("bias-compare", "bias_compare.csv"), ("bias-compare", "bias_compare.svg"),
                ("gamma", "gamma.csv")]


# a valid value for each flag, as typed on the command line
FLAG_VALUES = {"alpha": "0.5", "alpha_b": "0.5", "eta": "0.5", "eta_grid": "3",
               "dist": "uniform", "epsilon": "0.01", "eps_grid": "3", "level": "1",
               "grid_res": "3", "seed": "7", "rounds": "10", "reveal": "0.5", "out": "o"}


def config_json(cfg: RunConfig) -> str:
    """The config file that `RunConfig.from_json` reads back as cfg."""
    return json.dumps(dataclasses.asdict(cfg), indent=2, sort_keys=True)


class TestConfig:
    def test_round_trip(self):
        cfg = RunConfig(command="keyrate", eta=0.7, dist="nonuniform",
                        seed=77, epsilon=0.05)
        again = RunConfig.from_json(config_json(cfg))
        assert again == cfg

    def test_unknown_keys_rejected(self):
        with pytest.raises(Exception):
            RunConfig.from_json(json.dumps({"bogus": 1}))

    def test_flags_override_config(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(config_json(RunConfig(seed=1, rounds=50)))
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

    @pytest.mark.parametrize("config", [
        {"eta": "x"}, {"grid_res": 3.5}, {"rounds": 1.5}, {"reveal": "0.3"},
        {"alpha": "0.5"}, {"dist": 1}, {"seed": 1.5}, {"level": True}, {"eta": None},
        # a top level that is not a JSON object
        3, None, [], [["eta", 1]], "eta"])
    def test_config_value_of_wrong_type_exit_2(self, tmp_path, config):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(config))
        out = tmp_path / "o"
        assert run_cli(["simulate", "--config", str(cfg_file), "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("command", sorted(cli._COMMANDS))
    @pytest.mark.parametrize("below", ["", "sub"], ids=["file", "under-file"])
    def test_out_path_through_a_file_exit_2_before_any_work(self, tmp_path, capsys, monkeypatch,
                                                            command, below):
        def never(cfg):
            raise AssertionError("the command ran")

        monkeypatch.setitem(cli._COMMANDS, command, never)
        out = tmp_path / "file"
        out.write_text("kept")
        assert run_cli([command, "--out", str(out / below)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: output path ") and err.count("\n") == 1
        assert out.read_text() == "kept"

    @pytest.mark.parametrize("command, name", OUTPUT_FILES)
    def test_output_file_that_is_a_directory_exit_2_before_any_work(
            self, tmp_path, capsys, monkeypatch, command, name):
        assert {c for c, _ in OUTPUT_FILES} == set(cli._COMMANDS)

        def never(cfg):
            raise AssertionError("the command ran")

        monkeypatch.setitem(cli._COMMANDS, command, never)
        (tmp_path / name).mkdir()
        assert run_cli([command, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: output file {tmp_path / name} is a directory\n"
        assert [p.name for p in tmp_path.rglob("*")] == [name]

    @pytest.mark.parametrize("command", ["simulate", "bias-compare"])
    @pytest.mark.parametrize("epsilon", ["nan", "-0.01"])
    def test_nan_or_negative_epsilon_exit_2_before_any_work(self, tmp_path, capsys,
                                                            monkeypatch, command, epsilon):
        # NaN fails every comparison, so it must be rejected as not >= 0
        def never(cfg):
            raise AssertionError("the command ran")

        monkeypatch.setitem(cli._COMMANDS, command, never)
        assert run_cli([command, "--epsilon", epsilon, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "config error: epsilon must be nonnegative\n"
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("command", sorted(cli._COMMANDS))
    @pytest.mark.parametrize("field", dataclasses.fields(RunConfig)[1:], ids=lambda f: f.name)
    def test_flag_accepted_only_by_the_commands_that_read_it(self, tmp_path, capsys,
                                                             monkeypatch, command, field):
        name = field.name
        ran = []
        monkeypatch.setitem(cli._COMMANDS, command, lambda cfg: ran.append(cfg) or 0)
        monkeypatch.chdir(tmp_path)  # the default --out is relative
        flag = "--" + name.replace("_", "-")
        code = run_cli([command, flag, FLAG_VALUES[name]])
        if command in field.metadata["commands"]:
            assert code == 0 and str(getattr(ran[0], name)) == FLAG_VALUES[name]
        else:
            assert code == 2 and not ran
            assert capsys.readouterr().err == f"config error: {flag} is not read by {command}\n"
        assert not any(tmp_path.iterdir())

    def test_config_keys_serve_every_command(self, tmp_path, monkeypatch):
        # one file may hold the keys of several commands
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"seed": 7, "eta_grid": 51}))
        for command in cli._COMMANDS:
            monkeypatch.setitem(cli._COMMANDS, command, lambda cfg: 0)
            assert run_cli([command, "--config", str(cfg_file), "--out", str(tmp_path)]) == 0

    @pytest.mark.parametrize("given", ["flags", "config", "both"])
    def test_epsilon_with_eps_grid_exit_2_before_any_work(self, tmp_path, capsys, monkeypatch,
                                                          given):
        # one point or a sweep: given both, one of them would be ignored
        def never(cfg):
            raise AssertionError("the command ran")

        monkeypatch.setitem(cli._COMMANDS, "bias-compare", never)
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"epsilon": 0.05, "eps_grid": 13}))
        out = tmp_path / "o"
        argv = {"flags": ["--epsilon", "0.05", "--eps-grid", "5"],
                "config": ["--config", str(cfg_file)],
                "both": ["--config", str(cfg_file), "--eps-grid", "5"]}[given]
        assert run_cli(["bias-compare", *argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            "config error: epsilon (one point) and eps_grid (a sweep) exclude each other\n"
        assert not out.exists()

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

    @pytest.mark.parametrize("cpus", [1, 3])
    @pytest.mark.parametrize("existing", [False, True])
    def test_render_failure_midway_leaves_no_partial_csv(self, tmp_path, capsys, monkeypatch,
                                                         cpus, existing):
        # the third CSV block fails after the header and two blocks are written
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        run_chunks = protocol._run_chunks

        def failing(job, n):
            def render(lo, hi):
                block = job(lo, hi)  # simulate's draws return None
                if block is not None and lo == 2 * protocol._ROW_CHUNK:
                    raise MemoryError("block could not be rendered")
                return block

            return run_chunks(render, n)

        monkeypatch.setattr(protocol, "_run_chunks", failing)
        if existing:
            (tmp_path / "transcript.csv").write_bytes(b"kept")
        rounds = str(5 * protocol._ROW_CHUNK + 3)
        assert run_cli(["simulate", "--rounds", rounds, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "config error: block could not be rendered\n"
        assert [p.name for p in tmp_path.iterdir()] == (["transcript.csv"] if existing else [])
        if existing:
            assert (tmp_path / "transcript.csv").read_bytes() == b"kept"

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
    def test_output_mode_is_that_of_write_bytes(self, tmp_path, umask):
        old = os.umask(umask)
        try:
            (tmp_path / "reference").write_bytes(b"")
            assert run_cli(["simulate", "--rounds", "100", "--out", str(tmp_path)]) == 0
        finally:
            os.umask(old)
        mode = (tmp_path / "reference").stat().st_mode
        assert (tmp_path / "transcript.csv").stat().st_mode == mode

    def test_million_round_run_stays_within_its_memory(self, tmp_path, monkeypatch):
        # the CSV is streamed in blocks, so the largest allocation beyond the
        # one code byte per round is a few blocks and the chunks' draws (two
        # workers; one whole-file buffer of the CSV peaked at about 22 MB)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        tracemalloc.start()
        try:
            assert run_cli(["simulate", "--rounds", "1000000", "--eta", "0.95",
                            "--dist", "nonuniform", "--epsilon", "0.02",
                            "--out", str(tmp_path)]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 14e6
        assert (tmp_path / "transcript.csv").stat().st_size == 16_888_941

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

    def test_best_rate_tie_goes_to_the_first_csv_row(self, tmp_path, capsys, monkeypatch):
        # two rates one ulp apart, the larger second: both print as the same
        # 12 digits in keyrates.csv, so the first of them is the best
        rate = 0.0688837074973
        table = analysis.KeyRates(
            dist_label="nonuniform", etas=np.array([1.0]), p00=np.array([rate]),
            priors=np.full((1, 2), 0.5), guess=np.full((1, 2), 0.5), hab=np.zeros((1, 2)),
            key_rate=np.array([[rate, np.nextafter(rate, 1.0)]]), clamped=np.zeros((1, 2), bool))
        assert table.key_rate[0, 1] > table.key_rate[0, 0]
        monkeypatch.setattr(analysis, "key_rate_sweep", lambda *args, **kwargs: [table])
        assert run_cli(["keyrate", "--out", str(tmp_path)]) == 0
        assert "(nonuniform/basic)" in capsys.readouterr().out
        csv_rows = (tmp_path / "keyrates.csv").read_text().strip().split("\n")[1:]
        assert [row.split(",")[-1] for row in csv_rows] == ["0.0688837074973"] * 2

    def test_dist_selects_the_swept_distribution(self, tmp_path):
        # without --dist both named distributions are swept; with it, only
        # the given one, custom ones included, and a named one gives the
        # same rows as in the sweep of both
        def rows(out):
            return list(csv.reader((out / "keyrates.csv").read_text().splitlines()[1:]))

        assert run_cli(["keyrate", "--eta-grid", "3", "--grid-res", "5",
                        "--out", str(tmp_path / "both")]) == 0
        both = rows(tmp_path / "both")
        for dist, label in (("uniform", "uniform"), ("nonuniform", "nonuniform"),
                            ("0.3,0.6", "custom(0.3,0.6)")):
            out = tmp_path / dist
            assert run_cli(["keyrate", "--eta-grid", "3", "--grid-res", "5",
                            "--dist", dist, "--out", str(out)]) == 0
            swept = rows(out)
            assert len(swept) == 3 * 2 and {row[1] for row in swept} == {label}
            assert (out / "keyrates.svg").read_text().count("<polyline") == 2
            named = [row for row in both if row[1] == label]
            if named:
                assert swept == named
            else:  # a custom distribution changes the rates
                nonuniform = [row for row in both if row[1] == "nonuniform"]
                assert [row[2:] for row in swept] != [row[2:] for row in nonuniform]

    def test_bad_dist_exit_2_without_csv(self, tmp_path):
        assert run_cli(["keyrate", "--eta-grid", "3", "--grid-res", "5",
                        "--dist", "0.3", "--out", str(tmp_path)]) == 2
        assert not (tmp_path / "keyrates.csv").exists()

    @pytest.mark.parametrize("dist", ["1,1", "0.5,0", "0,1", "0.5,1e-320"])
    def test_dist_without_key_rounds_exit_2_without_csv(self, tmp_path, capsys, dist):
        # a setting value that never occurs leaves nothing to condition on
        # or to drop down to; one as rare as a subnormal would overflow the
        # dropping coefficients gamma / 2 pa
        assert run_cli(["keyrate", "--eta-grid", "3", "--grid-res", "3",
                        "--dist", dist, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert not (tmp_path / "keyrates.csv").exists()

    @pytest.mark.parametrize("dist", ["1e-50,0.5", "1e-300,0.5", "1e-12,0.5", "0.5,1e-320"])
    def test_rare_setting_value_is_no_solver_failure(self, tmp_path, dist):
        # the dropping coefficients gamma / 2 pa reach 1e300 here; the LP is
        # solved scaled, so a run either reports bounds or rejects the input
        code = run_cli(["keyrate", "--eta-grid", "3", "--grid-res", "3",
                        "--dist", dist, "--out", str(tmp_path)])
        assert code in (0, 2)
        if code == 2:
            assert not (tmp_path / "keyrates.csv").exists()
            return
        with (tmp_path / "keyrates.csv").open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3 * 2
        for row in rows:
            p00, guess, hab, rate = (float(row[k]) for k in ("p00", "guess", "hab", "keyrate"))
            # a binary key is guessed with probability at least 1/2, and the
            # rate is at most P(a=b=0) bits per round
            assert 0.5 <= guess <= 1.0 and 0.0 <= hab <= 1.0 and 0.0 <= rate <= p00


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

    def test_out_of_range_epsilon_exit_2(self, tmp_path):
        # the nonuniform Hardy branch leaves [0, 1]; the CHSH side alone
        # would be settled at 1 without an SDP
        assert run_cli(["bias-compare", "--epsilon", "0.45", "--out", str(tmp_path)]) == 2
        assert not (tmp_path / "bias_compare.csv").exists()

    def test_level_one_chsh_column_is_vacuous(self, tmp_path):
        # level 1 leaves P(a | A=0) free under the CHSH pin, Tsirelson's
        # face included
        assert run_cli(["bias-compare", "--eps-grid", "7", "--level", "1",
                        "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "bias_compare.csv").read_text().strip().split("\n")
        assert len(lines) == 8
        assert [line.split(",")[2] for line in lines[1:]] == ["1"] * 7


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


@pytest.mark.parametrize("error", [value for value in vars(errors).values()
                                   if isinstance(value, type) and issubclass(value, Exception)],
                         ids=lambda error: error.__name__)
def test_every_package_error_maps_to_its_exit_code(tmp_path, capsys, monkeypatch, error):
    # input errors (the ValueError family) exit 2, solver failures exit 3,
    # each with a one-line message and no traceback
    def failing(cfg):
        raise error("raised by the command")

    monkeypatch.setitem(cli._COMMANDS, "gamma", failing)
    code = main(["gamma", "--out", str(tmp_path)])
    assert code == (2 if issubclass(error, ValueError) else 3)
    assert issubclass(error, ValueError) or issubclass(error, errors.SolverFailure)
    prefix = "config error" if code == 2 else "numerical failure"
    assert capsys.readouterr().err == f"{prefix}: raised by the command\n"


def test_memory_error_exits_as_bad_input(tmp_path, capsys, monkeypatch):
    # a size too large to allocate (for example `keyrate --grid-res
    # 100000000000`) is bad input: exit 2 with one line, no traceback
    def failing(cfg):
        raise MemoryError("raised by the command")

    monkeypatch.setitem(cli._COMMANDS, "gamma", failing)
    assert main(["gamma", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "config error: raised by the command\n"
