"""Command-line interface: hardy-state, simulate, keyrate, bias-compare, gamma.

Every command is deterministic given its configuration (including the seed)
and writes file outputs under `--out`, each renamed into place once whole.
Each flag is a `RunConfig` field that names the commands reading it; a flag
given to any other command is a configuration error.  Exit codes: 0 on
success, 2 for configuration errors, 3 for numerical/solver failures.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import analysis, protocol, quantum
from .errors import InputError, ParameterRangeError, SolverFailure
from .protocol import NONUNIFORM, SettingsDistribution, UNIFORM
from .svgplot import LinePlot

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


# annotation kind -> (flag type, JSON types of a config value)
_TYPES = {"int": (int, int), "float": (float, (int, float)), "str": (str, str)}
# the files each command writes under --out
_OUTPUTS = {"hardy-state": ("hardy_state.json",), "simulate": ("transcript.csv",),
            "keyrate": ("keyrates.csv", "keyrates.svg"), "gamma": ("gamma.csv",),
            "bias-compare": ("bias_compare.csv", "bias_compare.svg")}


def _flag(default, text: str, *commands: str):
    """A `RunConfig` field with its flag: the help text and the commands that
    read it (a flag given to any other command is a configuration error)."""
    return dataclasses.field(default=default, metadata={"help": text, "commands": commands})


@dataclass
class RunConfig:
    """Configuration for one CLI run, read from flags and a JSON config file."""

    command: str = ""
    alpha: float = _flag(quantum.ALPHA_OPT, "basis parameter |alpha|", "hardy-state")
    alpha_b: float | None = _flag(None, "Bob basis parameter (defaults to --alpha)",
                                  "hardy-state")
    eta: float = _flag(1.0, "state visibility in [0, 1]", "simulate")
    eta_grid: int = _flag(201, "number of eta sweep points", "keyrate")
    dist: str | None = _flag(None, "uniform | nonuniform | pA,pB (keyrate: default both "
                             "named ones; otherwise uniform)", "simulate", "keyrate", "gamma")
    epsilon: float | None = _flag(None, "settings bias", "simulate", "bias-compare")
    eps_grid: int | None = _flag(None, "number of epsilon sweep points", "bias-compare")
    level: int = _flag(2, "relaxation level (1-3)", "keyrate", "bias-compare", "gamma")
    grid_res: int = _flag(201, "gamma grid resolution", "keyrate", "gamma")
    seed: int = _flag(1234, "simulation seed", "simulate")
    rounds: int = _flag(100_000, "simulated rounds", "simulate")
    reveal: float = _flag(0.25, "estimation fraction", "simulate")
    out: str = _flag("out", "output directory", *_OUTPUTS)

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ParameterRangeError(f"config file must hold a JSON object, got {data!r}")
        types = {f.name: f.type for f in dataclasses.fields(cls)}  # e.g. "float | None"
        unknown = set(data) - set(types)
        if unknown:
            raise ParameterRangeError(f"unknown config keys: {sorted(unknown)}")
        for name, value in data.items():
            kind, _, optional = types[name].partition(" | ")  # optional: "None" or ""
            # JSON true/false load as bools, which are ints
            if not (value is None and optional) and (
                    isinstance(value, bool) or not isinstance(value, _TYPES[kind][1])):
                raise ParameterRangeError(f"config key {name!r} must be {types[name]}, "
                                          f"got {value!r}")
        return cls(**data)

    def validate(self) -> None:
        if not 0.0 <= self.eta <= 1.0:
            raise ParameterRangeError(f"eta = {self.eta} outside [0, 1]")
        if self.eta_grid < 2 or self.grid_res < 2:
            raise ParameterRangeError("grids need at least 2 points")
        if self.level not in (1, 2, 3):
            raise ParameterRangeError("level must be 1, 2 or 3")
        if not 0 <= self.seed < 2 ** 128:
            raise ParameterRangeError("seed must lie in [0, 2**128)")
        if self.rounds <= 0:
            raise ParameterRangeError("rounds must be positive")
        if not 0.0 < self.reveal <= 1.0:
            raise ParameterRangeError("reveal fraction must lie in (0, 1]")
        if self.epsilon is not None and not self.epsilon >= 0.0:  # NaN too
            raise ParameterRangeError("epsilon must be nonnegative")
        if self.eps_grid is not None and self.eps_grid < 2:
            raise ParameterRangeError("eps grid needs at least 2 points")
        if self.command == "bias-compare" and None not in (self.epsilon, self.eps_grid):
            raise ParameterRangeError(
                "epsilon (one point) and eps_grid (a sweep) exclude each other")
        self.parse_dist()
        out = Path(self.out)
        existing = next(path for path in (out, *out.parents) if path.exists())
        if not existing.is_dir():
            raise ParameterRangeError(f"output path {self.out!r}: {existing} is not a directory")
        for name in _OUTPUTS.get(self.command, ()):
            if (out / name).is_dir():
                raise ParameterRangeError(f"output file {out / name} is a directory")

    def parse_dist(self) -> SettingsDistribution:
        if self.dist is None or self.dist == "uniform":
            return UNIFORM
        if self.dist == "nonuniform":
            return NONUNIFORM
        parts = self.dist.split(",")
        if len(parts) != 2:
            raise ParameterRangeError(
                f"dist must be 'uniform', 'nonuniform' or 'pA,pB'; got {self.dist!r}")
        try:
            pa, pb = float(parts[0]), float(parts[1])
        except ValueError as exc:
            raise ParameterRangeError(f"unparsable dist {self.dist!r}") from exc
        return SettingsDistribution(pa, pb, label=f"custom({pa:g},{pb:g})")


def _write(path: Path, data: str | Iterable[bytes | np.ndarray]) -> None:
    """Write a text, or a stream of byte blocks in order, to path: into a
    sibling temp file, renamed into place once whole, so a failure midway
    leaves path as it was.

    On ext4 the rename over an existing file is not free: replacing a 17 MB
    `transcript.csv` takes about 10 ms, since `auto_da_alloc` starts the new
    file's writeback inside the rename.  It is kept on purpose: unlinking
    the old file first would save that time but give up the atomic replace
    and the crash ordering (new data on disk before the name points at it)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("wb") as fh:  # the mode Path.write_bytes gives
            for block in [data.encode()] if isinstance(data, str) else data:
                fh.write(block)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def cmd_hardy_state(cfg: RunConfig) -> int:
    alpha_a = cfg.alpha
    alpha_b = cfg.alpha_b if cfg.alpha_b is not None else cfg.alpha
    bases = quantum.local_bases(alpha_a, alpha_b)
    psi = quantum.hardy_state(alpha_a, alpha_b)
    behavior = quantum.hardy_behavior(1.0, alpha_a, alpha_b)
    q = quantum.q_value(alpha_a, alpha_b)
    report = {
        "alpha_a": alpha_a,
        "alpha_b": alpha_b,
        "psi_re": [float(c.real) for c in psi],
        "psi_im": [float(c.imag) for c in psi],
        "q": q,
        "q_tilde": behavior.cell(0, 0, 1, 1),
        "hardy_zeros": [behavior.cell(0, 0, 1, 0), behavior.cell(0, 0, 0, 1),
                        behavior.cell(1, 1, 1, 1)],
        "uniqueness_dimension": quantum.uniqueness_check(bases),
    }
    out = Path(cfg.out) / "hardy_state.json"
    _write(out, json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"q = {q:.9f}")
    print(f"q_tilde = {report['q_tilde']:.9f}")
    print(f"uniqueness dimension = {report['uniqueness_dimension']}")
    print(f"report written to {out}")
    return EXIT_OK


def cmd_simulate(cfg: RunConfig) -> int:
    dist = cfg.parse_dist()
    behavior = quantum.hardy_behavior(cfg.eta)
    source: protocol.SettingsDistribution | protocol.BiasModel = dist
    if cfg.epsilon:
        source = protocol.biased_branches(dist, cfg.epsilon)
    transcript = protocol.simulate(cfg.rounds, behavior, source,
                                   cfg.reveal, cfg.seed)
    # estimate first: too few revealed rounds must leave no transcript behind
    est = protocol.estimate_h(transcript.revealed_rounds())
    out = Path(cfg.out) / "transcript.csv"
    _write(out, transcript.csv_blocks())
    sifted = protocol.sift(transcript)
    alice, bob = protocol.key_bits(sifted)
    disagree = float(np.mean(alice != bob)) if len(alice) else 0.0
    print(f"rounds = {cfg.rounds}, sifted key length = {len(sifted)}")
    print(f"key disagreement rate = {disagree:.6f}")
    for k, (name, val, se) in enumerate(zip(("h1", "h2", "h3", "h4"), est.h, est.stderr)):
        print(f"{name} = {val:.6f} +/- {se:.6f} (n={int(est.counts[k])})")
    print(f"transcript written to {out}")
    return EXIT_OK


def cmd_keyrate(cfg: RunConfig) -> int:
    etas = np.linspace(0.0, 1.0, cfg.eta_grid)
    dists = (UNIFORM, NONUNIFORM) if cfg.dist is None else (cfg.parse_dist(),)
    tables = analysis.key_rate_sweep(etas, dists, level=cfg.level,
                                     resolution=cfg.grid_res)
    csv_text = analysis.key_rates_to_csv(tables)
    out_csv = Path(cfg.out) / "keyrates.csv"
    _write(out_csv, csv_text)

    plot = LinePlot(title="Key rates vs noise", x_label="eta",
                    y_label="key rate")
    for t in tables:
        for s, strategy in enumerate(analysis.STRATEGIES):
            plot.add_curve(f"{t.dist_label}/{strategy}", t.etas, t.key_rate[:, s])
    out_svg = Path(cfg.out) / "keyrates.svg"
    _write(out_svg, plot.to_svg())

    # ranked by the CSV's own value, in CSV order (table, eta, strategy):
    # rates equal to 12 digits go to the first row
    shown = [float(f"{rate:.12g}") for t in tables for rate in t.key_rate.ravel().tolist()]
    d, k, s = np.unravel_index(np.argmax(shown), (len(tables), *tables[0].key_rate.shape))
    top = tables[d]
    print(f"wrote {len(shown)} rows to {out_csv}")
    print(f"best rate {top.key_rate[k, s]:.6f} at eta={top.etas[k]:.4f} "
          f"({top.dist_label}/{analysis.STRATEGIES[s]})")
    print(f"plot written to {out_svg}")
    return EXIT_OK


def cmd_bias_compare(cfg: RunConfig) -> int:
    if cfg.epsilon is not None:
        eps_list = [cfg.epsilon]
    else:
        eps_list = [float(e) for e in np.linspace(0.0, 0.12, cfg.eps_grid or 13)]
    rows = analysis.bias_compare(eps_list, level=cfg.level)
    out_csv = Path(cfg.out) / "bias_compare.csv"
    _write(out_csv, analysis.bias_compare_to_csv(rows))
    print(f"wrote {len(rows)} rows to {out_csv}")
    if len(rows) > 1:
        plot = LinePlot(title="Guessing probability vs settings bias",
                        x_label="epsilon", y_label="guessing probability")
        plot.add_curve("hardy", [r.epsilon for r in rows],
                       [r.hardy_guess for r in rows])
        plot.add_curve("chsh", [r.epsilon for r in rows],
                       [r.chsh_guess for r in rows])
        out_svg = Path(cfg.out) / "bias_compare.svg"
        _write(out_svg, plot.to_svg())
        print(f"plot written to {out_svg}")
    for r in rows:
        print(f"eps={r.epsilon:.4f}: hardy={r.hardy_guess:.6f} "
              f"chsh={r.chsh_guess:.6f}")
    return EXIT_OK


def cmd_gamma(cfg: RunConfig) -> int:
    dist = cfg.parse_dist()
    grid = analysis.build_gamma_grid(dist, resolution=cfg.grid_res,
                                     level=cfg.level)
    out_csv = Path(cfg.out) / "gamma.csv"
    _write(out_csv, grid.to_csv())
    g0, g1 = grid.gammas[cfg.grid_res - 1]  # the last segment point, eta = 1
    print(f"wrote {len(grid.hs)} grid points to {out_csv}")
    print(f"gamma at eta=1: ({g0:.6f}, {g1:.6f})")
    return EXIT_OK


_COMMANDS = {
    "hardy-state": cmd_hardy_state,
    "simulate": cmd_simulate,
    "keyrate": cmd_keyrate,
    "bias-compare": cmd_bias_compare,
    "gamma": cmd_gamma,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hardyqkd",
        description="Hardy-paradox QKD analysis pipeline")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", type=str, help="JSON config file")
    for field in dataclasses.fields(RunConfig)[1:]:  # all but the command
        kind = field.type.partition(" | ")[0]  # "float | None" -> "float"
        parser.add_argument("--" + field.name.replace("_", "-"), type=_TYPES[kind][0],
                            help=field.metadata["help"])
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    if args.config:
        cfg = RunConfig.from_json(Path(args.config).read_text())
    else:
        cfg = RunConfig()
    cfg.command = args.command
    for field in dataclasses.fields(RunConfig)[1:]:
        value = getattr(args, field.name)
        if value is None:
            continue
        if args.command not in field.metadata["commands"]:
            # a config key may serve several commands; a flag names this one
            flag = "--" + field.name.replace("_", "-")
            raise ParameterRangeError(f"{flag} is not read by {args.command}")
        setattr(cfg, field.name, value)  # flags win over the config file
    cfg.validate()
    return cfg


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = config_from_args(args)
    except (ParameterRangeError, ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return _COMMANDS[args.command](cfg)
    except (InputError, MemoryError) as exc:  # MemoryError: a size too large to allocate
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SolverFailure, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
