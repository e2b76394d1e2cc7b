"""Per-module spans for a traced benchmark body, recorded from outside the package.

`patched(tracer)` replaces selected module attributes and methods of
`hardyqkd` with timing wrappers for the duration of one body and restores
them afterwards.  Each name is patched in the module where the caller looks
it up at call time (for example `npa.sdp_solve`, not `solvers.sdp_solve`),
so every call the pipeline makes through that name opens a span.

A span holds a name, start and end times, its parent span and a few counts
read from the call's arguments, result or raised exception.  Spans nest in
call order on one thread, so a span's self time is its duration minus the
durations of its direct children.  `layer_metrics` turns one body's spans
into the per-layer metrics of the benchmark.
"""

from __future__ import annotations

import json
import math
import statistics
import time
import warnings
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    child_s: float = 0.0
    info: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """In-memory span recorder for one single-threaded body."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    def begin(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, parent, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if self._stack:
            self._stack[-1].child_s += span.duration

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        s = self.begin(name)
        try:
            yield s
        finally:
            self.end(s)

    def write_jsonl(self, path: Path) -> None:
        origin = self.spans[0].start if self.spans else 0.0
        with path.open("w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.id, "name": s.name, "parent": s.parent,
                                     "start": s.start - origin, "end": s.end - origin,
                                     **s.info}) + "\n")


def _wrap(tracer: Tracer, name: str, fn: Callable,
          record: Callable[[Span, tuple, Any], None] | None) -> Callable:
    def wrapper(*args, **kwargs):
        span = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            span.info["error"] = type(exc).__name__
            raise
        finally:
            tracer.end(span)
        if record is not None:
            record(span, args, result)
        return result
    return wrapper


def _wrap_solve(tracer: Tracer, name: str, fn: Callable) -> Callable:
    """SDP solve wrapper: also counts the solver's constraint-pruning warnings."""
    def solve(*args, **kwargs):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            span = tracer.begin(name)
            try:
                sol = fn(*args, **kwargs)
            except Exception as exc:
                span.info["error"] = type(exc).__name__
                raise
            finally:
                tracer.end(span)
                span.info["prune_warnings"] = sum(
                    str(w.message).startswith("pruned") for w in caught)
        _record_solution(span, args, sol)
        return sol
    return solve


def _record_build(span: Span, args: tuple, problem: Any) -> None:
    span.info["rows"] = len(problem.constraints)
    span.info["dim"] = problem.dim


def _record_kept(span: Span, args: tuple, result: tuple) -> None:
    span.info["kept"] = len(result[0])


def _record_solution(span: Span, args: tuple, sol: Any) -> None:
    """Status and iterations of an `SDPSolution` or `LPSolution`."""
    span.info["status"] = sol.status
    span.info["iterations"] = sol.iterations


def _record_sifted(span: Span, args: tuple, sifted: list) -> None:
    span.info["sifted"] = len(sifted)


def _record_bytes(span: Span, args: tuple, text: str) -> None:
    span.info["bytes"] = len(text)


def _patch_table() -> list[tuple[Any, str, str, Callable | None]]:
    """(owner, attribute, span name, recorder); span names start with the layer."""
    from hardyqkd import analysis, npa, protocol, svgplot
    from hardyqkd.solvers import sdp

    return [
        (npa, "build_moment_sdp", "npa.build", _record_build),
        (npa, "sdp_solve", "sdp.solve", None),
        (npa, "prune_dependent_constraints", "npa.prune", None),
        (npa, "bound_functional", "npa.bound", None),
        (npa, "chsh_outcome_guess_bound", "npa.chsh", None),
        (sdp, "prune_dependent_constraints", "sdp.prune", _record_kept),
        (analysis, "key_rate_sweep", "analysis.key_rate_sweep", None),
        (analysis, "build_gamma_grid", "analysis.build_gamma_grid", None),
        (analysis, "gamma_tilde", "analysis.gamma_tilde", None),
        (analysis, "lp_solve", "lp.solve", _record_solution),
        (analysis, "key_rate_basic", "analysis.keyrate", None),
        (analysis, "key_rate_dropping", "analysis.keyrate", None),
        (analysis, "bias_compare", "analysis.bias_compare", None),
        (analysis, "key_rates_to_csv", "analysis.to_csv", None),
        (analysis, "bias_compare_to_csv", "analysis.to_csv", None),
        (analysis.GammaGrid, "to_csv", "analysis.to_csv", None),
        (protocol, "simulate", "protocol.simulate", None),
        (protocol, "sift", "protocol.sift", _record_sifted),
        (protocol, "key_bits", "protocol.key_bits", None),
        (protocol, "estimate_h", "protocol.estimate_h", None),
        (protocol.Transcript, "revealed_rounds", "protocol.revealed_rounds", None),
        (protocol.Transcript, "to_csv", "protocol.to_csv", _record_bytes),
        (svgplot.LinePlot, "to_svg", "svgplot.to_svg", None),
    ]


@contextmanager
def patched(tracer: Tracer) -> Iterator[None]:
    """Route the pipeline's calls through span wrappers; restore on exit."""
    saved = []
    try:
        for owner, attr, name, record in _patch_table():
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            if name == "sdp.solve":
                setattr(owner, attr, _wrap_solve(tracer, name, original))
            else:
                setattr(owner, attr, _wrap(tracer, name, original, record))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


LAYERS = ("cli", "analysis", "npa", "sdp", "lp", "protocol", "svgplot")


def _pct(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return float(ordered[max(0, math.ceil(q * len(ordered)) - 1)])


def layer_metrics(spans: list[Span]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced body: name -> (value, unit)."""
    by: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by[s.name].append(s)

    def calls(name: str) -> int:
        return len(by[name])

    def total_s(name: str) -> float:
        return sum(s.duration for s in by[name])

    def self_s(name: str) -> float:
        return sum(s.self_s for s in by[name])

    def infos(name: str, key: str) -> list:
        return [s.info[key] for s in by[name] if key in s.info]

    solve_status = infos("sdp.solve", "status")
    solve_iters = infos("sdp.solve", "iterations")
    solve_self = self_s("sdp.solve")
    lp_status = infos("lp.solve", "status")
    items = calls("analysis.gamma_tilde") + calls("npa.chsh")
    m: dict[str, tuple[float, str]] = {
        "sdp.solve.calls": (calls("sdp.solve"), "count"),
        "sdp.solve.self_s": (solve_self, "s"),
        "sdp.solve.p50_ms": (1e3 * _pct([s.duration for s in by["sdp.solve"]], 0.5), "ms"),
        "sdp.solve.p90_ms": (1e3 * _pct([s.duration for s in by["sdp.solve"]], 0.9), "ms"),
        "sdp.iters.total": (sum(solve_iters), "count"),
        "sdp.iters.p50": (_pct(solve_iters, 0.5), "count"),
        "sdp.s_per_iter": (solve_self / sum(solve_iters) if solve_iters else 0.0, "s"),
        "sdp.status.optimal": (solve_status.count("optimal"), "count"),
        "sdp.status.numerical_breakdown": (solve_status.count("numerical-breakdown"), "count"),
        "sdp.status.max_iterations": (solve_status.count("max-iterations"), "count"),
        "sdp.linalg_errors": (infos("sdp.solve", "error").count("LinAlgError"), "count"),
        "sdp.schur_m_p50": (_pct(infos("sdp.prune", "kept"), 0.5), "count"),
        "sdp.prune.s": (total_s("sdp.prune"), "s"),
        "sdp.prune_warnings": (sum(infos("sdp.solve", "prune_warnings")), "count"),
        "npa.build.calls": (calls("npa.build"), "count"),
        "npa.build.s": (total_s("npa.build"), "s"),
        "npa.build.rows_p50": (_pct(infos("npa.build", "rows"), 0.5), "count"),
        "npa.build.dim_p50": (_pct(infos("npa.build", "dim"), 0.5), "count"),
        "npa.prune.s": (total_s("npa.prune"), "s"),
        "npa.bound.calls": (calls("npa.bound"), "count"),
        "npa.bound.self_s": (self_s("npa.bound"), "s"),
        "npa.bound.per_item": (calls("npa.bound") / items if items else 0.0, "count"),
        "npa.chsh.calls": (calls("npa.chsh"), "count"),
        "npa.chsh.s": (total_s("npa.chsh"), "s"),
        "lp.solve.calls": (calls("lp.solve"), "count"),
        "lp.solve.s": (total_s("lp.solve"), "s"),
        "lp.iters.total": (sum(infos("lp.solve", "iterations")), "count"),
        "lp.status.nonoptimal": (sum(st != "optimal" for st in lp_status), "count"),
        "analysis.gamma_tilde.calls": (calls("analysis.gamma_tilde"), "count"),
        "analysis.gamma_tilde.self_s": (self_s("analysis.gamma_tilde"), "s"),
        "analysis.keyrate.calls": (calls("analysis.keyrate"), "count"),
        "analysis.keyrate.self_s": (self_s("analysis.keyrate"), "s"),
        "analysis.to_csv.s": (total_s("analysis.to_csv"), "s"),
        "protocol.simulate.s": (total_s("protocol.simulate"), "s"),
        "protocol.revealed_rounds.s": (total_s("protocol.revealed_rounds"), "s"),
        "protocol.estimate_h.s": (total_s("protocol.estimate_h"), "s"),
        "protocol.sift.s": (total_s("protocol.sift"), "s"),
        "protocol.key_bits.s": (total_s("protocol.key_bits"), "s"),
        "protocol.to_csv.s": (total_s("protocol.to_csv"), "s"),
        "protocol.csv_bytes": (sum(infos("protocol.to_csv", "bytes")), "bytes"),
        "protocol.sifted": (sum(infos("protocol.sift", "sifted")), "count"),
        "svgplot.to_svg.s": (total_s("svgplot.to_svg"), "s"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (sum(s.self_s for s in spans
                                    if s.name.split(".")[0] == layer), "s")
    return m


def median_metrics(per_body: list[dict[str, tuple[float, str]]]) \
        -> dict[str, tuple[float, str]]:
    """Metric-wise median over several traced bodies."""
    return {name: (float(statistics.median(m[name][0] for m in per_body)), unit)
            for name, (_, unit) in per_body[0].items()}
