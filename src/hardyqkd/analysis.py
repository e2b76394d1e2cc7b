"""Device-independent guessing bounds and key rates for the Hardy protocol.

The pipeline tabulates, per candidate statistics vector h, upper bounds
(gamma0, gamma1) on the posterior of Alice's setting given both outcomes 0,
then solves small decomposition LPs that let the eavesdropper split the
observed statistics into a guess-0 and a guess-1 population.  Key rates
follow from the guessing bound, the sifting probability and the settings
conditional entropy of the setup.
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


def _nu_bound(h: HVector, dist: SettingsDistribution, level: int,
              direction: str) -> float:
    """One-sided bound on nu given h, polished on degenerate pins.

    When the equality-pinned solve stalls (the pin sits on the boundary of
    the relaxation, e.g. the noiseless point), the h1 row is additionally
    relaxed into a Lagrangian term: for any multiplier the penalized
    problem bounds the pinned one, so the best of the two routes is kept.
    """
    equalities = _h_equalities(h)
    func = nu_functional(dist)
    best, sol = npa.bound_functional(level, equalities, func, direction,
                                     return_solution=True)
    accuracy = max(sol.gap, sol.primal_residual, sol.dual_residual)
    if sol.optimal or accuracy <= 1e-7:
        return float(best)
    h1_cell = LinearFunctional.from_cell(*H_CELLS[0])
    rest = equalities[1:]
    sign = 1.0 if direction == "max" else -1.0
    pick = min if direction == "max" else max
    for rho in (1e1, 1e2, 1e3):
        pen = LinearFunctional(cells=func.cells + sign * rho * h1_cell.cells)
        val = npa.bound_functional(level, rest, pen, direction, tol=1e-10) \
            - sign * rho * h.h1
        best = pick(best, val)
    return float(best)


def gamma_tilde(h: HVector, dist: SettingsDistribution,
                level: int = 2) -> tuple[float, float]:
    """Upper bounds (gamma0, gamma1) on the setting posterior at statistics h.

    sigma is a function of h; the free part of nu is bracketed by two SDP
    bounds, and the posterior ratios are evaluated at the extremes.  Points
    whose compatible behaviors never produce two zero outcomes constrain
    nothing, so both bounds degrade to 1.
    """
    nu_min = max(0.0, _nu_bound(h, dist, level, "min"))
    nu_max = max(nu_min, _nu_bound(h, dist, level, "max"))
    sigma = sigma_from_h(h, dist)
    if sigma <= _VACUOUS_TOL and nu_max <= _VACUOUS_TOL:
        return 1.0, 1.0  # sifting never happens: vacuous conditioning
    if sigma <= _VACUOUS_TOL:
        return 0.0, 1.0
    gamma0 = sigma / (sigma + nu_min)
    gamma1 = nu_max / (sigma + nu_max)
    return min(gamma0, 1.0), min(gamma1, 1.0)


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


def build_gamma_grid(dist: SettingsDistribution,
                     resolution: int = 201,
                     level: int = 2) -> GammaGrid:
    """Tabulate gamma bounds on the noise segment plus decomposition corners.

    The segment holds h(eta) for eta on a uniform grid; the corners are the
    h-images of the local deterministic strategies, which give the
    decomposition LPs their reach (any classical-noise statistics can then
    be split into perfectly guessable populations).
    """
    points: list[GammaPoint] = []
    for eta in np.linspace(0.0, 1.0, resolution):
        h = HVector.from_eta(float(eta))
        g0, g1 = gamma_tilde(h, dist, level)
        points.append(GammaPoint(h=h, gamma0=g0, gamma1=g1, eta=float(eta)))
    for h in DETERMINISTIC_H_POINTS:
        g0, g1 = gamma_tilde(h, dist, level)
        points.append(GammaPoint(h=h, gamma0=g0, gamma1=g1))
    return GammaGrid(points=points, level=level, dist_label=dist.label or "custom")


def _decomposition_lp(h: HVector, grid: GammaGrid,
                      coeff0: np.ndarray, coeff1: np.ndarray) -> float:
    """Shared LP: split h over grid points into guess-0/guess-1 weights."""
    hmat = grid.h_matrix()  # (G, 4)
    n = hmat.shape[0]
    c = np.concatenate([coeff0, coeff1])
    a_eq = np.zeros((5, 2 * n))
    a_eq[:4, :n] = hmat.T
    a_eq[:4, n:] = hmat.T
    a_eq[4, :] = 1.0
    b_eq = np.concatenate([h.as_array(), [1.0]])
    sol = lp_solve(LPProblem(c=c, a_eq=a_eq, b_eq=b_eq, maximize=True))
    if sol.status == "infeasible":
        raise DecompositionInfeasibleError(
            "h lies outside the convex hull of the gamma grid")
    if not sol.optimal:
        raise DecompositionInfeasibleError(
            f"decomposition LP failed with status {sol.status}")
    return float(sol.value)


def guess1(h: HVector, grid: GammaGrid) -> float:
    """Basic guessing probability: maximize sum of per-population bounds."""
    g0 = np.array([p.gamma0 for p in grid.points])
    g1 = np.array([p.gamma1 for p in grid.points])
    return min(1.0, _decomposition_lp(h, grid, g0, g1))


def guess2(h: HVector, grid: GammaGrid, pa0: float, pa1: float) -> float:
    """Guessing probability after Alice's random dropping rebalances her key."""
    if pa0 <= 0.0 or pa1 <= 0.0:
        raise ZeroPosteriorError("dropping requires both setting values to occur")
    g0 = np.array([p.gamma0 for p in grid.points]) / (2.0 * pa0)
    g1 = np.array([p.gamma1 for p in grid.points]) / (2.0 * pa1)
    return min(1.0, _decomposition_lp(h, grid, g0, g1))


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

    def recompute(self) -> float:
        factor = 1.0 if self.strategy == "basic" else 2.0 * min(self.pa0, self.pa1)
        raw = self.p00 * factor * (-np.log2(self.guess) - self.hab)
        return max(0.0, float(raw))


def _setup_quantities(eta: float, dist: SettingsDistribution) \
        -> tuple[Behavior, float]:
    behavior = hardy_behavior(eta)
    p00 = float((behavior.p[0, 0] * dist.joint()).sum())
    return behavior, p00


def key_rate_basic(eta: float, dist: SettingsDistribution,
                   grid: GammaGrid) -> KeyRateReport:
    """K1 = P(a=b=0) (-log2 Pguess1 - H(A|B)); negative values clamp to 0."""
    behavior, p00 = _setup_quantities(eta, dist)
    g = guess1(HVector.from_eta(eta), grid)
    hab = conditional_entropy(behavior, dist, dropping=False)
    pa0, pa1 = bayes_setting_posterior(behavior, dist)
    raw = p00 * (-np.log2(g) - hab)
    return KeyRateReport(eta=eta, dist_label=grid.dist_label, strategy="basic",
                         p00=p00, guess=g, hab=hab,
                         key_rate=max(0.0, float(raw)), pa0=pa0, pa1=pa1,
                         clamped=raw < 0.0)


def key_rate_dropping(eta: float, dist: SettingsDistribution,
                      grid: GammaGrid) -> KeyRateReport:
    """K2 with the dropping strategy: Alice discards her majority value."""
    behavior, p00 = _setup_quantities(eta, dist)
    pa0, pa1 = bayes_setting_posterior(behavior, dist)
    g = guess2(HVector.from_eta(eta), grid, pa0, pa1)
    hab = conditional_entropy(behavior, dist, dropping=True)
    raw = p00 * 2.0 * min(pa0, pa1) * (-np.log2(g) - hab)
    return KeyRateReport(eta=eta, dist_label=grid.dist_label, strategy="dropping",
                         p00=p00, guess=g, hab=hab,
                         key_rate=max(0.0, float(raw)), pa0=pa0, pa1=pa1,
                         clamped=raw < 0.0)


def nonuniform_ratio(x: float, y: float) -> float:
    """r = sqrt(y) / (sqrt(x) + sqrt(y)), balancing x r^2 = y (1-r)^2."""
    if x <= 0.0 or y <= 0.0:
        raise ValueError("both success probabilities must be positive")
    return float(np.sqrt(y) / (np.sqrt(x) + np.sqrt(y)))


def key_rate_sweep(etas: np.ndarray,
                   dists: tuple[SettingsDistribution, ...] = (UNIFORM, NONUNIFORM),
                   level: int = 2,
                   resolution: int = 201) -> list[KeyRateReport]:
    """Key rates for all (eta, distribution, strategy) combinations."""
    reports: list[KeyRateReport] = []
    for dist in dists:
        grid = build_gamma_grid(dist, resolution=resolution, level=level)
        for eta in etas:
            reports.append(key_rate_basic(float(eta), dist, grid))
            reports.append(key_rate_dropping(float(eta), dist, grid))
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
    uniform distribution.
    """
    rows: list[BiasComparisonRow] = []
    for eps in epsilons:
        hardy = noiseless_bias_guess(eps, NONUNIFORM)
        model = biased_branches(UNIFORM, eps)
        chsh = float(np.mean([
            npa.chsh_outcome_guess_bound(branch, npa.TSIRELSON, level)
            for branch in model.branches]))
        rows.append(BiasComparisonRow(epsilon=eps, hardy_guess=hardy,
                                      chsh_guess=chsh))
    return rows


def bias_compare_to_csv(rows: list[BiasComparisonRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["epsilon", "hardy_guess", "chsh_guess"])
    for r in rows:
        writer.writerow([f"{r.epsilon:.12g}", f"{r.hardy_guess:.12g}",
                         f"{r.chsh_guess:.12g}"])
    return buf.getvalue()
