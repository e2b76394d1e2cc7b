"""The four benchmark workloads: inputs from the seed, the timed body, output checks.

Each workload drives the public API of `hardyqkd` the way a user does: three
run a CLI command through `cli.main`, and `bias-l2` calls
`analysis.bias_compare` once per epsilon point, because the CLI aborts the
whole sweep on the first failing point.

The checks test properties that the paper and the project fix, not the
digits the current code happens to produce, so work that moves gamma values
or key rates on purpose does not count as a failure.  The deviation from
the outputs recorded at the first benchmarked commit (`reference/`) is only
reported.

Import this module only after the BLAS thread variables are set: it
imports numpy.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import random
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from hardyqkd import analysis, cli, npa, protocol, quantum
from hardyqkd.protocol import NONUNIFORM, HVector
from hardyqkd.svgplot import LinePlot

REFERENCE = Path(__file__).resolve().parent / "reference"


@dataclass
class Op:
    """One attempted operation of a body and what its checks found."""

    label: str
    raised: str | None = None          # exception or nonzero exit; a failure
    failures: list[str] = field(default_factory=list)  # failed output checks
    dev: float = 0.0                   # largest deviation from the reference
    data: Any = None

    @property
    def failed(self) -> bool:
        return self.raised is not None or bool(self.failures)


def _run_cli(label: str, argv: list[str]) -> Op:
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    except Exception as exc:  # the operation boundary: record and go on
        traceback.print_exc()
        return Op(label, raised=type(exc).__name__)
    return Op(label, raised=None if code == 0 else f"exit {code}",
              data=out.getvalue())


def _read_csv(path: Path) -> tuple[list[str], list[dict[str, str]]]:
    with path.open(newline="") as fh:
        reader = csv.DictReader(fh)
        return list(reader.fieldnames or []), list(reader)


def _expect(op: Op, ok: bool, what: str) -> None:
    if not ok:
        op.failures.append(what)


def _warm_up_sdp(level: int) -> None:
    """Build the layout and run the solver once on a tiny SDP.

    The solve is the level-1 Tsirelson bound: it loads the same numpy and
    LAPACK paths as the workload's solves, without adding a workload-sized
    solve to the set-up time.
    """
    npa.get_layout(level)
    value = npa.bound_functional(1, [], npa.chsh_functional(), "max")
    if abs(value - npa.TSIRELSON) > 1e-6:
        raise RuntimeError(f"warm-up solve gave {value}, expected 2*sqrt(2)")


class Workload:
    name = ""
    level = 0  # relaxation level whose moment layout set-up builds (0: none)

    def __init__(self, seed: int, out: Path) -> None:
        self.seed = seed
        self.out = out

    def warm_up(self) -> None:
        _warm_up_sdp(self.level)

    def body(self) -> list[Op]:
        """The timed work: one or more operations."""
        raise NotImplementedError

    def check(self, ops: list[Op]) -> None:
        """Cheap checks, run after each body; mark failures on the ops."""

    def finish(self, ops: list[Op]) -> None:
        """Checks that need a reference computation, run once at the end."""


class KeyrateL2(Workload):
    """`keyrate` at level 2: both distributions, both strategies, LPs over a grid."""

    name = "keyrate-l2"
    level = 2
    GRID_RES = 15
    # eta sweeps of nearly equal cost; the 51-point one lies on the
    # 201-point reference sweep, the others share a few of its points
    ETA_GRIDS = tuple(range(46, 52))
    # criterion-4 values at eta = 1 and their tolerance
    AT_ETA_1 = {("uniform", "dropping"): 0.045084, ("nonuniform", "basic"): 0.06888}
    TOL_ETA_1 = 5e-3
    HEADER = ["eta", "dist", "strategy", "p00", "guess", "hab", "keyrate"]

    def __init__(self, seed: int, out: Path) -> None:
        super().__init__(seed, out)
        self.eta_grid = random.Random(seed).choice(self.ETA_GRIDS)
        _, rows = _read_csv(REFERENCE / "keyrates.csv")
        self.reference = {(round(float(r["eta"]), 9), r["dist"], r["strategy"]):
                          (float(r["guess"]), float(r["keyrate"])) for r in rows}

    def body(self) -> list[Op]:
        return [_run_cli("keyrate", [
            "keyrate", "--eta-grid", str(self.eta_grid),
            "--grid-res", str(self.GRID_RES), "--level", "2",
            "--out", str(self.out)])]

    def check(self, ops: list[Op]) -> None:
        op = ops[0]
        if op.raised:
            return
        header, rows = _read_csv(self.out / "keyrates.csv")
        _expect(op, header == self.HEADER, f"keyrates.csv header {header}")
        _expect(op, len(rows) == 4 * self.eta_grid, f"keyrates.csv has {len(rows)} rows")
        for r in rows:
            eta, guess, rate = float(r["eta"]), float(r["guess"]), float(r["keyrate"])
            key = (r["dist"], r["strategy"])
            _expect(op, rate >= 0.0, f"negative key rate at {eta} {key}")
            _expect(op, 0.5 <= guess <= 1.0, f"guess {guess} outside [0.5, 1]")
            if eta == 1.0 and key in self.AT_ETA_1:
                _expect(op, abs(rate - self.AT_ETA_1[key]) <= self.TOL_ETA_1,
                        f"rate {rate} at eta = 1 {key}")
            ref = self.reference.get((round(eta, 9), *key))
            if ref is not None:
                op.dev = max(op.dev, abs(guess - ref[0]), abs(rate - ref[1]))
        svg = (self.out / "keyrates.svg").read_text()
        _expect(op, svg.startswith("<svg") and svg.count("<polyline") == 4,
                "keyrates.svg lacks its four curves")


class GammaL3(Workload):
    """`gamma` at level 3, uniform distribution: a short segment and the 8 corners.

    The table is deterministic at fixed settings, so the seed does not
    change the input.
    """

    name = "gamma-l3"
    level = 3
    GRID_RES = 3
    HEADER = ["eta", "h1", "h2", "h3", "h4", "gamma0", "gamma1"]

    def __init__(self, seed: int, out: Path) -> None:
        super().__init__(seed, out)
        _, self.reference = _read_csv(REFERENCE / "gamma.csv")

    def body(self) -> list[Op]:
        return [_run_cli("gamma", [
            "gamma", "--level", "3", "--dist", "uniform",
            "--grid-res", str(self.GRID_RES), "--out", str(self.out)])]

    def check(self, ops: list[Op]) -> None:
        op = ops[0]
        if op.raised:
            return
        header, rows = _read_csv(self.out / "gamma.csv")
        _expect(op, header == self.HEADER, f"gamma.csv header {header}")
        _expect(op, len(rows) == self.GRID_RES + 8, f"gamma.csv has {len(rows)} rows")
        for k, r in enumerate(rows):
            for col in ("gamma0", "gamma1"):
                g = float(r[col])
                _expect(op, 0.0 <= g <= 1.0, f"{col} = {g} outside [0, 1]")
                if k < len(self.reference):
                    op.dev = max(op.dev, abs(g - float(self.reference[k][col])))


class BiasL2(Workload):
    """Hardy-vs-CHSH bias sweep at level 2, one operation per epsilon point.

    Every fifth of the 25 points of `scripts/run_bias_compare.py` and the
    last one: 0, 0.025, 0.05, 0.075, 0.1 and 0.12, the same floats as that
    sweep, so 0.05 (which raises) and the saturated 0.12 are both in.  The
    seed only shuffles their order, which must not change any value.
    """

    name = "bias-l2"
    level = 2
    EPSILONS = tuple(float(e) for e in np.linspace(0.0, 0.12, 25)[[0, 5, 10, 15, 20, 24]])
    SATURATED = 0.12  # the CHSH bound is 1 here (it saturates near 0.117)

    def __init__(self, seed: int, out: Path) -> None:
        super().__init__(seed, out)
        self.order = list(self.EPSILONS)
        random.Random(seed).shuffle(self.order)
        _, rows = _read_csv(REFERENCE / "bias_compare.csv")
        self.reference = {float(r["epsilon"]): float(r["chsh_guess"]) for r in rows}

    def body(self) -> list[Op]:
        ops: list[Op] = []
        rows = []
        for eps in self.order:
            label = f"eps={eps!r}"
            try:
                row = analysis.bias_compare([eps], level=2)[0]
            except Exception as exc:  # one failing point must not hide the rest
                print(f"{self.name}: {label} failed", file=sys.stderr)
                traceback.print_exc(limit=-3)
                ops.append(Op(label, raised=type(exc).__name__))
                continue
            rows.append(row)
            ops.append(Op(label, data=row))
        rows.sort(key=lambda r: r.epsilon)
        (self.out / "bias_compare.csv").write_text(analysis.bias_compare_to_csv(rows))
        plot = LinePlot(title="Guessing probability vs settings bias",
                        x_label="epsilon", y_label="guessing probability")
        plot.add_curve("hardy", [r.epsilon for r in rows], [r.hardy_guess for r in rows])
        plot.add_curve("chsh", [r.epsilon for r in rows], [r.chsh_guess for r in rows])
        (self.out / "bias_compare.svg").write_text(plot.to_svg())
        return ops

    def check(self, ops: list[Op]) -> None:
        for op in ops:
            if op.raised:
                continue
            r = op.data
            _expect(op, r.hardy_guess == protocol.noiseless_bias_guess(r.epsilon, NONUNIFORM),
                    f"hardy_guess {r.hardy_guess}")
            _expect(op, 0.5 <= r.chsh_guess <= 1.0, f"chsh_guess {r.chsh_guess}")
            if r.epsilon == self.SATURATED:
                _expect(op, abs(r.chsh_guess - 1.0) <= 1e-6,
                        f"chsh_guess {r.chsh_guess} is not saturated")
            if r.epsilon in self.reference:
                op.dev = abs(r.chsh_guess - self.reference[r.epsilon])
        header, rows = _read_csv(self.out / "bias_compare.csv")
        done = sum(not op.raised for op in ops)
        _expect(ops[0], header == ["epsilon", "hardy_guess", "chsh_guess"]
                and len(rows) == done, "bias_compare.csv schema or row count")


class Simulate1M(Workload):
    """`simulate` with 1M rounds, eta < 1, nonuniform settings and a bias model."""

    name = "simulate-1M"
    ROUNDS = 1_000_000
    ETA = 0.95
    EPSILON = 0.02
    REVEAL = 0.25
    SIGMAS = 5.0

    def warm_up(self) -> None:
        behavior = quantum.hardy_behavior(self.ETA)
        model = protocol.biased_branches(NONUNIFORM, self.EPSILON)
        transcript = protocol.simulate(1000, behavior, model, self.REVEAL, self.seed)
        transcript.to_csv()
        protocol.estimate_h(transcript.revealed_rounds())
        protocol.key_bits(protocol.sift(transcript))

    def body(self) -> list[Op]:
        return [_run_cli("simulate", [
            "simulate", "--rounds", str(self.ROUNDS), "--eta", repr(self.ETA),
            "--dist", "nonuniform", "--epsilon", repr(self.EPSILON),
            "--reveal", repr(self.REVEAL), "--seed", str(self.seed),
            "--out", str(self.out)])]

    def check(self, ops: list[Op]) -> None:
        op = ops[0]
        if op.raised:
            return
        with (self.out / "transcript.csv").open("rb") as fh:
            sha = hashlib.file_digest(fh, "sha256").hexdigest()
        printed = {}
        for line in op.data.splitlines():
            if line.startswith("rounds = "):
                printed["sifted"] = int(line.rsplit("=", 1)[1])
            elif line[:1] == "h" and " +/- " in line:
                name, rest = line.split(" = ")
                val, rest = rest.split(" +/- ")
                se, n = rest.split(" (n=")
                printed[name] = (float(val), float(se), int(n.rstrip(")")))
        op.data = (sha, printed)
        expected = HVector.from_eta(self.ETA).as_array()
        for k, name in enumerate(("h1", "h2", "h3", "h4")):
            if name not in printed:
                op.failures.append(f"{name} not printed")
                continue
            val, se, _ = printed[name]
            _expect(op, abs(val - expected[k]) <= self.SIGMAS * se,
                    f"{name} = {val} is more than {self.SIGMAS} SE from {expected[k]}")

    def finish(self, ops: list[Op]) -> None:
        sha, sifted, h, counts = reference_transcript(
            self.seed, self.ROUNDS, quantum.hardy_behavior(self.ETA),
            protocol.biased_branches(NONUNIFORM, self.EPSILON), self.REVEAL)
        for op in ops:
            if op.raised or op.data is None:
                continue
            got_sha, printed = op.data
            _expect(op, got_sha == sha, "transcript differs from the reference")
            _expect(op, printed.get("sifted") == sifted, "sifted key length")
            for k, name in enumerate(("h1", "h2", "h3", "h4")):
                if name in printed:
                    val, _, n = printed[name]
                    _expect(op, n == counts[k], f"{name} sample count")
                    op.dev = max(op.dev, abs(val - float(f"{h[k]:.6f}")))


def reference_transcript(seed: int, n: int, behavior, model, reveal: float) \
        -> tuple[str, int, np.ndarray, np.ndarray]:
    """Transcript SHA-256, sifted length, h and its counts, by the documented rule.

    Round i is driven by row i of an (n, 5) block of Philox(key=seed)
    uniforms: bias branch, setting A, setting B, outcome pair (through the
    CDF of p(a, b | A, B) in the order 00, 01, 10, 11) and the reveal mark.
    This is written independently of `protocol.simulate` and `to_csv`, so
    that the transcript bytes are checked against the rule, not against
    themselves.
    """
    u = np.random.Generator(np.random.Philox(key=seed)).random((n, 5))
    branch = np.minimum((u[:, 0] * 4).astype(np.int64), 3)
    pa = np.array([b.p_a for b in model.branches])[branch]
    pb = np.array([b.p_b for b in model.branches])[branch]
    sa = (u[:, 1] >= pa).astype(np.int64)
    sb = (u[:, 2] >= pb).astype(np.int64)
    cdf = np.cumsum(behavior.p.reshape(4, 2, 2), axis=0)[:, sa, sb]
    cell = np.minimum((u[:, 3][None, :] >= cdf).sum(axis=0), 3)
    oa, ob = cell // 2, cell % 2
    rev = (u[:, 4] < reveal).astype(np.int64)
    del u, cdf

    code = (sa << 4) | (sb << 3) | (oa << 2) | (ob << 1) | rev
    tails = [f",{c >> 4 & 1},{c >> 3 & 1},{c >> 2 & 1},{c >> 1 & 1},{c & 1}\n"
             for c in range(32)]
    digest = hashlib.sha256(b"index,settingA,settingB,outcomeA,outcomeB,revealed\n")
    chunk = 100_000
    for lo in range(0, n, chunk):
        digest.update("".join(f"{i}{tails[c]}" for i, c in
                              enumerate(code[lo:lo + chunk].tolist(), lo)).encode())

    sifted = int(((rev == 0) & (oa == 0) & (ob == 0)).sum())
    hits, totals = np.zeros(4), np.zeros(4)
    for k, (a, b, set_a, set_b) in enumerate(protocol.H_CELLS):
        pair = (rev == 1) & (sa == set_a) & (sb == set_b)
        totals[k] = pair.sum()
        hits[k] = (pair & (oa == a) & (ob == b)).sum()
    return digest.hexdigest(), sifted, hits / totals, totals


WORKLOADS = {w.name: w for w in (KeyrateL2, GammaL3, BiasL2, Simulate1M)}
