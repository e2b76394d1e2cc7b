"""Device-independent guessing bounds and key rates for the Hardy protocol.

The pipeline tabulates, per candidate statistics vector h, upper bounds
(gamma0, gamma1) on the posterior of Alice's setting given both outcomes 0,
then solves small decomposition LPs that let the eavesdropper split the
observed statistics into populations at the tabulated points, each guessed
with its better posterior.  The LP value is the upper concave envelope of
max(gamma0, gamma1) at the observed h (rescaled by the setting frequencies
for the dropping strategy); the split is not tied to the observed setting
frequencies or sifting rates.  Key rates follow from the guessing bound,
the sifting probability and the settings conditional entropy of the setup.
"""

from __future__ import annotations

import csv
import io
import itertools
from dataclasses import dataclass

import numpy as np

from . import npa
from .errors import DecompositionInfeasibleError, ZeroPosteriorError
from .npa import LinearFunctional
from .protocol import (
    HVector,
    H_CELLS,
    NONUNIFORM,
    SettingsDistribution,
    UNIFORM,
    biased_branches,
    conditional_entropy,
    noiseless_bias_guess,
)
from .quantum import Behavior, hardy_behavior
from .solvers import LPProblem, lp_solve

_VACUOUS_TOL = 1e-7


def bayes_setting_posterior(behavior: Behavior,
                            dist: SettingsDistribution) -> tuple[float, float]:
    """(P(A=0 | a=b=0), P(A=1 | a=b=0)) for an explicit setup."""
    joint = dist.joint()
    sigma = behavior.cell(0, 0, 0, 0) * joint[0, 0] \
        + behavior.cell(0, 0, 0, 1) * joint[0, 1]
    nu = behavior.cell(0, 0, 1, 0) * joint[1, 0] \
        + behavior.cell(0, 0, 1, 1) * joint[1, 1]
    total = sigma + nu
    if total <= 0.0:
        raise ZeroPosteriorError("P(a=0, b=0) vanishes; posterior undefined")
    return sigma / total, nu / total


def sigma_from_h(h: HVector, dist: SettingsDistribution) -> float:
    """sigma = h1 P(A=0,B=0) + h3 P(A=0,B=1); fixed by h for the Hardy test."""
    joint = dist.joint()
    return h.h1 * joint[0, 0] + h.h3 * joint[0, 1]


def nu_functional(dist: SettingsDistribution) -> LinearFunctional:
    """nu = P(0,0|1,0) P(A=1,B=0) + P(0,0|1,1) P(A=1,B=1) as a functional."""
    joint = dist.joint()
    cells = np.zeros((2, 2, 2, 2))
    cells[0, 0, 1, 0] = joint[1, 0]
    cells[0, 0, 1, 1] = joint[1, 1]
    return LinearFunctional(cells=cells)


def _h_equalities(h: HVector) -> list[tuple[LinearFunctional, float]]:
    values = h.as_array()
    return [(LinearFunctional.from_cell(*H_CELLS[k]), float(values[k]))
            for k in range(4)]


def _nu_bounds(hs: list[HVector], dists: list[SettingsDistribution],
               level: int) -> list[list[tuple[float, float]]]:
    """(nu_min, nu_max) at each h, one list per distribution.

    The bounds of all distributions are solved in one batched call.  Where
    an h-pinned solve stalls (the pin sits on the boundary of the
    relaxation, e.g. the noiseless point), the better of it and
    `npa.relaxed_bounds` with the h1 pin relaxed at rho = 1e3 is kept;
    these form a second batch.
    """
    jobs = [(_h_equalities(h), nu_functional(dist), direction)
            for dist in dists for h in hs for direction in ("min", "max")]
    solved = npa.bound_functionals(level, jobs)
    nu = [bound for bound, _ in solved]
    polish = [k for k, (_, sol) in enumerate(solved) if not sol.optimal
              and max(sol.gap, sol.primal_residual, sol.dual_residual) > 1e-7]
    for k, bound in zip(polish, npa.relaxed_bounds(level, [jobs[k] for k in polish], 1e3),
                        strict=True):
        nu[k] = min(nu[k], bound) if jobs[k][2] == "max" else max(nu[k], bound)
    pairs = list(zip(nu[0::2], nu[1::2]))
    return [pairs[len(hs) * d:len(hs) * (d + 1)] for d in range(len(dists))]


def _gamma_bounds(hs: list[HVector], dists: list[SettingsDistribution],
                  level: int) -> list[list[tuple[float, float]]]:
    """Upper bounds (gamma0, gamma1) on the setting posterior at each h,
    one list per distribution.

    sigma is a function of h; the free part of nu is bracketed by
    `_nu_bounds`, and the posterior ratios are evaluated at the extremes.
    Points whose compatible behaviors never produce two zero outcomes
    constrain nothing, so both bounds degrade to 1.
    """
    tables = []
    for dist, nu in zip(dists, _nu_bounds(hs, dists, level), strict=True):
        bounds = []
        for h, (lo, hi) in zip(hs, nu, strict=True):
            nu_min = max(0.0, lo)
            nu_max = max(nu_min, hi)
            sigma = sigma_from_h(h, dist)
            if sigma <= _VACUOUS_TOL and nu_max <= _VACUOUS_TOL:
                bounds.append((1.0, 1.0))  # sifting never happens: vacuous conditioning
            elif sigma <= _VACUOUS_TOL:
                bounds.append((0.0, 1.0))
            else:
                bounds.append((min(sigma / (sigma + nu_min), 1.0),
                               min(nu_max / (sigma + nu_max), 1.0)))
        tables.append(bounds)
    return tables


def gamma_tilde(h: HVector, dist: SettingsDistribution,
                level: int = 2) -> tuple[float, float]:
    """Upper bounds (gamma0, gamma1) on the setting posterior at statistics h."""
    return _gamma_bounds([h], [dist], level)[0][0]


@dataclass(frozen=True)
class GammaPoint:
    h: HVector
    gamma0: float
    gamma1: float
    eta: float | None = None  # set for points on the isotropic-noise segment


@dataclass
class GammaGrid:
    """Tabulated (h, gamma0, gamma1) points for the decomposition programs."""

    points: list[GammaPoint]
    level: int
    dist_label: str

    def h_matrix(self) -> np.ndarray:
        return np.stack([p.h.as_array() for p in self.points])

    def segment_points(self) -> list[GammaPoint]:
        return [p for p in self.points if p.eta is not None]

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["eta", "h1", "h2", "h3", "h4", "gamma0", "gamma1"])
        for p in self.points:
            eta = "" if p.eta is None else f"{p.eta:.12g}"
            writer.writerow([eta] + [f"{v:.12g}" for v in p.h.as_array()]
                            + [f"{p.gamma0:.12g}", f"{p.gamma1:.12g}"])
        return buf.getvalue()


def _deterministic_h_points() -> tuple[HVector, ...]:
    """h-images of the 16 local deterministic strategies (8 are distinct)."""
    seen = {(float(a0 == 0 and b0 == 0), float(a1 == 0 and b0 == 0),
             float(a0 == 0 and b1 == 0), float(a1 == 1 and b1 == 1))
            for a0, a1, b0, b1 in itertools.product(range(2), repeat=4)}
    return tuple(HVector(*t) for t in sorted(seen))


DETERMINISTIC_H_POINTS: tuple[HVector, ...] = _deterministic_h_points()


def build_gamma_grids(dists: list[SettingsDistribution],
                      resolution: int = 201,
                      level: int = 2) -> list[GammaGrid]:
    """Tabulate gamma bounds on the noise segment plus decomposition corners.

    The segment holds h(eta) for eta on a uniform grid; the corners are the
    h-images of the local deterministic strategies, which give the
    decomposition LPs their reach (any classical-noise statistics can then
    be split into perfectly guessable populations).  Every bound of the
    tables of all distributions comes from one batched solve (plus one for
    the polishes).  Returns one grid per distribution.
    """
    etas = [float(eta) for eta in np.linspace(0.0, 1.0, resolution)]
    hs = [HVector.from_eta(eta) for eta in etas] + list(DETERMINISTIC_H_POINTS)
    point_etas = etas + [None] * len(DETERMINISTIC_H_POINTS)
    return [GammaGrid(points=[GammaPoint(h=h, gamma0=g0, gamma1=g1, eta=eta)
                              for h, (g0, g1), eta in zip(hs, bounds, point_etas, strict=True)],
                      level=level, dist_label=dist.label or "custom")
            for dist, bounds in zip(dists, _gamma_bounds(hs, dists, level), strict=True)]


def build_gamma_grid(dist: SettingsDistribution,
                     resolution: int = 201,
                     level: int = 2) -> GammaGrid:
    """The one-distribution case of `build_gamma_grids`."""
    return build_gamma_grids([dist], resolution, level)[0]


def _decomposition_lp(h: HVector, grid: GammaGrid, coeff: np.ndarray) -> float:
    """Upper concave envelope of `coeff` over the grid's h-points, at h.

    Maximizes sum_k w_k coeff_k over weights w >= 0 with sum_k w_k h_k = h
    and sum_k w_k = 1: the eavesdropper splits h into populations at grid
    points and guesses each with its better posterior, so `coeff` is the
    pointwise maximum of the two guess coefficients.
    """
    hmat = grid.h_matrix()  # (G, 4)
    a_eq = np.vstack([hmat.T, np.ones(hmat.shape[0])])
    b_eq = np.concatenate([h.as_array(), [1.0]])
    sol = lp_solve(LPProblem(c=coeff, a_eq=a_eq, b_eq=b_eq, maximize=True))
    if sol.status == "infeasible":
        raise DecompositionInfeasibleError(
            "h lies outside the convex hull of the gamma grid")
    if not sol.optimal:
        raise DecompositionInfeasibleError(
            f"decomposition LP failed with status {sol.status}")
    return float(sol.value)


def guess1(h: HVector, grid: GammaGrid) -> float:
    """Basic guessing probability: the concave envelope of max(gamma0, gamma1)."""
    g0 = np.array([p.gamma0 for p in grid.points])
    g1 = np.array([p.gamma1 for p in grid.points])
    return min(1.0, _decomposition_lp(h, grid, np.maximum(g0, g1)))


def guess2(h: HVector, grid: GammaGrid, pa0: float, pa1: float) -> float:
    """Guessing probability after Alice's random dropping rebalances her key:
    the concave envelope of max(gamma0 / 2 pa0, gamma1 / 2 pa1)."""
    if pa0 <= 0.0 or pa1 <= 0.0:
        raise ZeroPosteriorError("dropping requires both setting values to occur")
    g0 = np.array([p.gamma0 for p in grid.points]) / (2.0 * pa0)
    g1 = np.array([p.gamma1 for p in grid.points]) / (2.0 * pa1)
    return min(1.0, _decomposition_lp(h, grid, np.maximum(g0, g1)))


@dataclass(frozen=True)
class KeyRateReport:
    """One key-rate evaluation; `key_rate` is clamped at zero."""

    eta: float
    dist_label: str
    strategy: str  # basic | dropping
    p00: float
    guess: float
    hab: float
    key_rate: float
    pa0: float
    pa1: float
    clamped: bool


def _setup_quantities(eta: float, dist: SettingsDistribution,
                      behavior: Behavior | None) -> tuple[Behavior, float]:
    if behavior is None:
        behavior = hardy_behavior(eta)
    p00 = float((behavior.p[0, 0] * dist.joint()).sum())
    return behavior, p00


def key_rate_basic(eta: float, dist: SettingsDistribution, grid: GammaGrid,
                   behavior: Behavior | None = None) -> KeyRateReport:
    """K1 = P(a=b=0) (-log2 Pguess1 - H(A|B)); negative values clamp to 0.

    `behavior` is `hardy_behavior(eta)`, built here when not given.
    """
    behavior, p00 = _setup_quantities(eta, dist, behavior)
    g = guess1(HVector.from_eta(eta), grid)
    hab = conditional_entropy(behavior, dist, dropping=False)
    pa0, pa1 = bayes_setting_posterior(behavior, dist)
    raw = p00 * (-np.log2(g) - hab)
    return KeyRateReport(eta=eta, dist_label=grid.dist_label, strategy="basic",
                         p00=p00, guess=g, hab=hab,
                         key_rate=max(0.0, float(raw)), pa0=pa0, pa1=pa1,
                         clamped=raw < 0.0)


def key_rate_dropping(eta: float, dist: SettingsDistribution, grid: GammaGrid,
                      behavior: Behavior | None = None) -> KeyRateReport:
    """K2 with the dropping strategy: Alice discards her majority value.

    `behavior` is `hardy_behavior(eta)`, built here when not given.
    """
    behavior, p00 = _setup_quantities(eta, dist, behavior)
    pa0, pa1 = bayes_setting_posterior(behavior, dist)
    g = guess2(HVector.from_eta(eta), grid, pa0, pa1)
    hab = conditional_entropy(behavior, dist, dropping=True)
    raw = p00 * 2.0 * min(pa0, pa1) * (-np.log2(g) - hab)
    return KeyRateReport(eta=eta, dist_label=grid.dist_label, strategy="dropping",
                         p00=p00, guess=g, hab=hab,
                         key_rate=max(0.0, float(raw)), pa0=pa0, pa1=pa1,
                         clamped=raw < 0.0)


def key_rate_sweep(etas: np.ndarray,
                   dists: tuple[SettingsDistribution, ...] = (UNIFORM, NONUNIFORM),
                   level: int = 2,
                   resolution: int = 201) -> list[KeyRateReport]:
    """Key rates for all (eta, distribution, strategy) combinations."""
    behaviors = [hardy_behavior(float(eta)) for eta in etas]
    reports: list[KeyRateReport] = []
    for dist, grid in zip(dists, build_gamma_grids(list(dists), resolution, level), strict=True):
        for eta, behavior in zip(etas, behaviors, strict=True):
            reports.append(key_rate_basic(float(eta), dist, grid, behavior))
            reports.append(key_rate_dropping(float(eta), dist, grid, behavior))
    return reports


def key_rates_to_csv(reports: list[KeyRateReport]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["eta", "dist", "strategy", "p00", "guess", "hab", "keyrate"])
    for r in reports:
        writer.writerow([f"{r.eta:.12g}", r.dist_label, r.strategy,
                         f"{r.p00:.12g}", f"{r.guess:.12g}", f"{r.hab:.12g}",
                         f"{r.key_rate:.12g}"])
    return buf.getvalue()


@dataclass(frozen=True)
class BiasComparisonRow:
    epsilon: float
    hardy_guess: float
    chsh_guess: float


def bias_compare(epsilons: list[float], level: int = 2) -> list[BiasComparisonRow]:
    """Hardy-vs-CHSH guessing probabilities under a biased settings source.

    The Hardy column is the noiseless key-guessing probability with the
    nonuniform distribution; the CHSH column averages the outcome-guessing
    bound at observed value 2*sqrt(2) over the four biased branches of the
    uniform distribution.  The branches of all epsilon points are bounded
    in one `npa.chsh_outcome_guess_bounds` call.
    """
    models = [biased_branches(UNIFORM, eps) for eps in epsilons]
    guesses = iter(npa.chsh_outcome_guess_bounds(
        [branch for model in models for branch in model.branches], npa.TSIRELSON, level))
    return [BiasComparisonRow(
        epsilon=model.epsilon, hardy_guess=noiseless_bias_guess(model.epsilon, NONUNIFORM),
        chsh_guess=float(np.mean([next(guesses) for _ in model.branches])))
        for model in models]


def bias_compare_to_csv(rows: list[BiasComparisonRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["epsilon", "hardy_guess", "chsh_guess"])
    for r in rows:
        writer.writerow([f"{r.epsilon:.12g}", f"{r.hardy_guess:.12g}",
                         f"{r.chsh_guess:.12g}"])
    return buf.getvalue()
