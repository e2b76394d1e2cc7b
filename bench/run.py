#!/usr/bin/env python3
"""Benchmark of the hardyqkd pipeline: one workload per run.

    python3 bench/run.py --workload keyrate-l2 --seed 1 --seconds 25 --trace 0

Run from anywhere; the package is imported from `src/` of the checkout that
holds this file, never from an installed copy.  BLAS and OpenMP threads are
pinned to 1 before numpy is imported.  The workload body is repeated for
about `--seconds` (at least once; no body is started that would be expected
to end more than half a body past the deadline), and its outputs are
checked after every repetition.  Body and set-up times are adjusted for the
machine's speed, sampled while they run (`bench/speed.py`).

With `--trace 0` the last line of standard output is a JSON object with the
end-to-end metrics (wall_s, setup_s, peak_rss_mb, ok_frac).  With
`--trace 1` untraced and traced repetitions alternate, and the per-layer
metrics of the traced ones are reported together with the tracing overhead;
their spans are written under `.bench_out/`.  See `bench/NOTES.md`.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"  # before anything imports numpy

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402  (standard library only until a body is traced)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("keyrate-l2", "gamma-l3", "bias-l2", "simulate-1M")
SETUP_CHILDREN = 4  # extra fresh-process set-ups; setup_s is the median


def set_up(name: str, seed: int):
    """Import the package, build the workload's layout and warm up; timed.

    Returns the workload, a speed probe, and the set-up time both as
    measured and adjusted to the reference speed by slices run right after.
    """
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import hardyqkd
    if not Path(hardyqkd.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"hardyqkd imported from {hardyqkd.__file__}, not {SRC}")
    import workloads
    out = ROOT / ".bench_out" / name
    out.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[name](seed, out)
    wl.warm_up()
    raw = time.perf_counter() - t0
    import speed
    probe = speed.SpeedProbe()
    with probe.sampling():
        pass
    return wl, probe, raw, raw * probe.factor


def setup_sample(name: str, seed: int) -> tuple[float, float]:
    """Set-up time of a fresh interpreter, measured inside it: raw, adjusted."""
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", name, "--seed", str(seed),
         "--setup-only"], capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"set-up probe exited with {proc.returncode}")
    raw, adjusted = proc.stdout.split()[-2:]
    return float(raw), float(adjusted)


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    samples = [setup_sample(name, seed) for _ in range(SETUP_CHILDREN)]
    wl, probe, *own_setup = set_up(name, seed)
    samples.append(tuple(own_setup))
    setups = [adjusted for _, adjusted in samples]

    walls: list[float] = []         # body wall times adjusted to the reference speed
    traced_walls: list[float] = []
    raw_walls: list[float] = []     # unadjusted, of every body, traced ones too
    factors: list[float] = []
    layer: list[dict] = []
    ops = []
    peak_rss_mb = None
    start = time.perf_counter()
    while True:
        traced = trace and len(walls) > len(traced_walls)
        tracer = tracing.Tracer() if traced else None
        t0 = time.perf_counter()
        with probe.sampling():
            with tracing.patched(tracer) if traced else nullcontext():
                with tracer.span("cli") if traced else nullcontext():
                    rep_ops = wl.body()
            raw = time.perf_counter() - t0
        raw -= probe.in_block_s
        raw_walls.append(raw)
        factors.append(probe.factor)
        wall = raw * probe.factor
        if peak_rss_mb is None:  # set-up plus one body, as one CLI run would use
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        wl.check(rep_ops)
        ops.extend(rep_ops)
        if traced:
            traced_walls.append(wall)
            layer.append(tracing.layer_metrics(tracer.spans))
            tracer.write_jsonl(wl.out / f"spans-seed{seed}.jsonl")
        else:
            walls.append(wall)
        if trace and not traced_walls:
            continue
        expected_end = (time.perf_counter() - start
                        + 0.5 * statistics.median(raw_walls))
        if expected_end >= seconds:
            break
    wl.finish(ops)

    failed = sum(op.failed for op in ops)
    for op in ops:
        if op.failures:
            print(f"check failed: {name} {op.label}: {'; '.join(op.failures)}",
                  file=sys.stderr)
    report = {
        "workload": name, "seed": seed, "env": environment(),
        "bodies": len(raw_walls), "walls": walls, "traced_walls": traced_walls,
        "raw_walls": raw_walls, "speed_factors": factors, "setup_samples": setups,
        "raw_setup_samples": [raw for raw, _ in samples],
        "attempted": len(ops), "failed": failed,
        "raised": [f"{op.label}: {op.raised}" for op in ops if op.raised],
    }
    if trace:
        metrics = tracing.median_metrics(layer)
        metrics["trace.overhead_frac"] = (
            statistics.median(traced_walls) / statistics.median(walls) - 1.0, "frac")
        metrics["check.max_dev_vs_seed"] = (max(op.dev for op in ops), "1")
    else:
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "ok_frac": ((len(ops) - failed) / len(ops), "frac"),
        }
    report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    report["unadjusted"] = {"wall_s": statistics.median(raw_walls),
                            "setup_s": statistics.median(raw for raw, _ in samples)}
    report["correct"] = not any(op.failures for op in ops)
    (wl.out / f"run-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(report, indent=1) + "\n")
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up in this process and print it")
    args = parser.parse_args()
    if not (SRC / "hardyqkd" / "__init__.py").is_file():
        print(f"no hardyqkd sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_only:
        _, _, raw, adjusted = set_up(args.workload, args.seed)
        print(f"{raw!r} {adjusted!r}")
        return 0

    report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("env " + json.dumps(report["env"], sort_keys=True))
    print(f"{report['workload']} seed {report['seed']}: {report['bodies']} bodies, "
          f"{report['attempted']} operations attempted, {report['failed']} failed")
    for raised in report["raised"]:
        print(f"  raised: {raised}")
    for k, m in report["metrics"].items():
        print(f"  {k} = {m['value']:.6g} {m['unit']}")
    for k, v in report["unadjusted"].items():
        print(f"  {k} as measured, not adjusted for machine speed = {v:.6g} s")
    print(f"  failed_frac = {report['failed'] / report['attempted']:.6g} frac")
    print(json.dumps({"correct": report["correct"], "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
