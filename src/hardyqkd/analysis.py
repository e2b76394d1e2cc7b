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

The tables are arrays from the eta sweep to the LP: (N, 4) h rows (the
noise segment, then the 8 deterministic corners), (N, 2) q brackets and
(N, 2) gamma rows, with the segment's eta beside them, NaN at the corners
(`GammaGrid`).  The key rates stay arrays to keyrates.csv: one `KeyRates`
table per distribution, with a column per strategy.

The posterior weighs sigma = P(A=0,B=0) h1 + P(A=0,B=1) h3 against
nu = P(A=1,B=0) h2 + P(A=1,B=1) q with q = P(0,0|1,1).  The h pins fix
sigma and h2, so the only bracket needed per h is the one on q, and it
serves every settings distribution.  One linear program per end settles
it without an SDP wherever the no-signalling bound on q, which contains
the quantum set, is attained at a vertex that satisfies the CHSH
inequalities: that vertex is local, so the certified dual bound is the
exact quantum value.  This holds at both ends wherever a local model
exists at all (at grid resolution 15: every point with eta <= 0.845 and
every corner).

Both LP families run through one sweep (`_sweep`): the LPs of one family
differ only in the right-hand side (and, for dropping, in the rescaled
coefficients), so one basis settles every point it is optimal for, which
along an eta sweep is usually a whole run of points.  Each solve starts
from the last final basis; with one objective that basis stays dual
feasible, so `lp_solve` restarts from it by dual simplex.  Every variable
of either family lies in [0, 1] (a behavior's cell, or a decomposition
weight with sum_k w_k = 1), so the dual bound y.b + sum_k (f_k - y.a_k)_+
of a point's basis, y = B^-T c_B, bounds its optimum for every y.  A value
is reported only as that bound, and only within 1e-9 of the basis' primal
value.
"""

from __future__ import annotations

import csv
import io
import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import npa
from .errors import DecompositionInfeasibleError, ZeroPosteriorError
from .protocol import (
    HVector,
    H_CELLS,
    NONUNIFORM,
    SettingsDistribution,
    UNIFORM,
    biased_branches,
    conditional_entropy,
    h_rows,
    joint_settings_given_00,
    noiseless_bias_guess,
)
from .quantum import Q_MAX, Q_TILDE, hardy_tables
from .solvers import LPProblem, lp_solve

_VACUOUS_TOL = 1e-7
# the cell of q = P(0,0|1,1), the one cell the h pins leave free in nu
_Q_CELL = (0, 0, 1, 1)
# largest excess of an LP's dual bound over its basis' primal value
_CERT_TOL = 1e-9
# largest primal infeasibility (relative to 1 + max |b|) and reduced cost of
# a basis that settles an LP of a sweep without a solve: the simplex's own
# pivot tolerance, so it settles the points where a solve would not pivot
_BASIS_TOL = 1e-11
# largest residual of a settling no-signalling vertex and largest excess of
# its CHSH values over the local bound 2
_SETTLE_TOL = 1e-9


def _h_equalities(h: np.ndarray) -> list[tuple[np.ndarray, float]]:
    return [(npa.cell(*c), float(v)) for c, v in zip(H_CELLS, h, strict=True)]


def _no_signalling_rows() -> np.ndarray:
    """(12, 16) equality rows over the cells p[a, b, A, B] (C order): the
    normalization of each setting pair, Alice's and Bob's outcome-0
    marginals independent of the other party's setting, and the h cells."""
    rows = np.zeros((8, 2, 2, 2, 2))
    for k, (sa, sb) in enumerate(itertools.product(range(2), repeat=2)):
        rows[k, :, :, sa, sb] = 1.0
    for s in range(2):
        rows[4 + s, 0, :, s] = [1.0, -1.0]  # P(a=0 | A=s, B=0) - P(a=0 | A=s, B=1)
        rows[6 + s, :, 0, :, s] = [1.0, -1.0]  # P(b=0 | A=0, B=s) - P(b=0 | A=1, B=s)
    return np.vstack([rows.reshape(8, 16)] + [npa.cell(*c).reshape(1, 16) for c in H_CELLS])


# (8, 4) h-rows of the 16 local deterministic strategies (8 are distinct)
DETERMINISTIC_H = np.array(sorted(
    {tuple(float(b[c]) for c in H_CELLS) for b in npa.DETERMINISTIC_BEHAVIORS}))
# no-signalling LP of `_settled_q_ends`, objective the q cell
_NS_LP = _no_signalling_rows()
_NS_Q = npa.cell(*_Q_CELL).ravel()
# (8, 16) CHSH expressions, each sign pattern with an odd number of minus
# signs: a no-signalling behavior is local iff all eight are <= 2 (Fine)
_CHSH = np.array([npa.chsh_functional(np.reshape(w, (2, 2))).ravel()
                  for w in itertools.product((1.0, -1.0), repeat=4) if np.prod(w) > 0])


def _settled_q_ends(hs: np.ndarray) -> np.ndarray:
    """(N, 2) [q_min, q_max] at each h row where a linear program settles
    that end, NaN where it needs an SDP.

    Each end is the max of s q with s = +1 (max) or s = -1 (min) over the
    cells of a no-signalling behavior with statistics h, solved as one
    `_sweep` over hs.  The end is reported as the dual bound of the final
    basis, which bounds the quantum set for all duals (quantum is inside
    no-signalling; Barrett et al., PRA 71, 022101, 2005).  It is settled
    where the LP is optimal, its vertex meets the rows within
    `_SETTLE_TOL`, the bound is within `_CERT_TOL` of the primal value, and
    the vertex satisfies the eight CHSH inequalities within `_SETTLE_TOL`:
    with two settings and two outcomes the vertex is then local (Fine, PRL
    48, 291, 1982), hence quantum, so no relaxation can tighten the bound.
    Every other end is NaN.
    """
    ends = np.full((len(hs), 2), np.nan)
    b_eqs = np.hstack([np.ones((len(hs), 4)), np.zeros((len(hs), 4)), hs])
    for side, sign in enumerate((-1.0, 1.0)):
        coeffs = np.broadcast_to(sign * _NS_Q, (len(hs), _NS_Q.size))
        x, value, residual, status, bound = _sweep(_NS_LP, b_eqs, coeffs)
        settled = (status == "optimal") & (residual <= _SETTLE_TOL) \
            & (bound <= value + _CERT_TOL) & ((x @ _CHSH.T).max(axis=1) <= 2.0 + _SETTLE_TOL)
        ends[settled, side] = sign * bound[settled] + 0.0  # + 0.0 turns -0.0 into 0.0
    return ends


def _q_brackets(hs: np.ndarray, level: int) -> np.ndarray:
    """(N, 2) [q_min, q_max] of q = P(0,0|1,1) at each h row.

    The h pins fix every cell of the posterior but q, and its bracket does
    not depend on the settings distribution.  An end that `_settled_q_ends`
    settles by its linear program is not solved: there a local vertex
    attains the no-signalling bound, so no relaxation can tighten it.  At
    level >= 2 the noiseless point is not solved either: h2 = h3 = h4 = 0
    exactly with h1 at Hardy's maximum Q_MAX (up to rounding) self-tests the
    Hardy realization (Rabelo, Zhi and Scarani, PRL 109, 180401, 2012), so
    both ends are its q~ = sqrt(5) - 2.  There the pinned relaxation has no
    interior, and an interior-point run stalls with a bracket up to 1e-3
    wide.  Every other end is one job of a single batched
    `npa.bound_functionals` call, point by point, min before max.  Every end
    is clipped to [0, 1], where q lies as a probability: at level 1 q is not
    a diagonal moment, and the relaxation min falls below 0 (-0.031 at
    eta = 0.857, grid 15).
    """
    q = _settled_q_ends(hs)
    if level >= 2:
        q[(hs[:, 1:] == 0.0).all(axis=1)
          & (np.abs(hs[:, 0] - Q_MAX) <= 1e-12 * (1.0 + Q_MAX))] = Q_TILDE
    points, sides = np.nonzero(np.isnan(q))
    jobs = [(_h_equalities(hs[k]), npa.cell(*_Q_CELL), ("min", "max")[side])
            for k, side in zip(points, sides, strict=True)]
    q[points, sides] = npa.bound_functionals(level, jobs)
    return np.clip(q, 0.0, 1.0)


def _gamma_table(hs: np.ndarray, q: np.ndarray, dist: SettingsDistribution) -> np.ndarray:
    """(N, 2) upper bounds (gamma0, gamma1) on the setting posterior at each
    h row, from its q bracket.

    sigma = P(A=0,B=0) h1 + P(A=0,B=1) h3 is a function of h, and
    nu = P(A=1,B=0) h2 + P(A=1,B=1) q, a nondecreasing affine map of the
    bracketed q; the posterior ratios are evaluated at the extremes.  Points
    whose compatible behaviors never produce two zero outcomes constrain
    nothing, so both bounds degrade to 1.
    """
    joint = dist.joint()
    sigma = hs[:, 0] * joint[0, 0] + hs[:, 2] * joint[0, 1]
    nu = joint[1, 0] * hs[:, 1:2] + joint[1, 1] * q
    nu_min = np.maximum(0.0, nu[:, 0])
    nu_max = np.maximum(nu_min, nu[:, 1])
    with np.errstate(divide="ignore", invalid="ignore"):  # the vacuous rows, set below
        gammas = np.minimum(np.stack([sigma / (sigma + nu_min),
                                      nu_max / (sigma + nu_max)], axis=1), 1.0)
    vacuous = sigma <= _VACUOUS_TOL
    gammas[vacuous] = (0.0, 1.0)
    gammas[vacuous & (nu_max <= _VACUOUS_TOL)] = 1.0  # sifting never happens
    return gammas


def gamma_tilde(h: HVector, dist: SettingsDistribution,
                level: int = 2) -> tuple[float, float]:
    """Upper bounds (gamma0, gamma1) on the setting posterior at statistics h."""
    hs = h.as_array()[None]
    return tuple(_gamma_table(hs, _q_brackets(hs, level), dist)[0].tolist())


@dataclass
class GammaGrid:
    """Tabulated gamma bounds for the decomposition programs: row k holds
    the statistics hs[k], the bounds gammas[k] = (gamma0, gamma1) and the
    visibility etas[k] on the noise segment (NaN at the corners)."""

    hs: np.ndarray  # (G, 4)
    gammas: np.ndarray  # (G, 2)
    etas: np.ndarray  # (G,)
    dist_label: str

    @cached_property
    def lp_matrix(self) -> np.ndarray:
        """(5, G) constraints of the decomposition LPs: column k is (h_k, 1)."""
        return np.vstack([self.hs.T, np.ones(len(self.hs))])

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["eta", "h1", "h2", "h3", "h4", "gamma0", "gamma1"])
        for eta, h, gamma in zip(self.etas, self.hs, self.gammas, strict=True):
            writer.writerow(["" if np.isnan(eta) else f"{eta:.12g}"]
                            + [f"{v:.12g}" for v in (*h, *gamma)])
        return buf.getvalue()


def build_gamma_grids(dists: list[SettingsDistribution],
                      resolution: int = 201,
                      level: int = 2) -> list[GammaGrid]:
    """Tabulate gamma bounds on the noise segment plus decomposition corners.

    The segment holds h(eta) for eta on a uniform grid; the corners are the
    h-images of the local deterministic strategies, which give the
    decomposition LPs their reach (any classical-noise statistics can then
    be split into perfectly guessable populations).  The tables of all
    distributions come from one bracket on q = P(0,0|1,1) per point
    (`_q_brackets`), mapped to each distribution's
    nu = P(A=1,B=0) h2 + P(A=1,B=1) q, so several distributions cost the SDP
    work of one.  One linear program per end settles both ends wherever a
    local model reproduces the point (`_settled_q_ends`; at grid resolution
    15: 12 of the 15 segment points and all 8 corners), and at level >= 2
    the noiseless point eta = 1 is settled by self-testing; every other end
    is one job of a single `npa.bound_functionals` call.  Returns one grid
    per distribution.
    """
    segment = np.linspace(0.0, 1.0, resolution)
    hs = np.vstack([h_rows(segment), DETERMINISTIC_H])
    q = _q_brackets(hs, level)
    etas = np.concatenate([segment, np.full(len(DETERMINISTIC_H), np.nan)])
    return [GammaGrid(hs, _gamma_table(hs, q, dist), etas, dist.label or "custom")
            for dist in dists]


def build_gamma_grid(dist: SettingsDistribution,
                     resolution: int = 201,
                     level: int = 2) -> GammaGrid:
    """The one-distribution case of `build_gamma_grids`."""
    return build_gamma_grids([dist], resolution, level)[0]


def _dual_bound(y: np.ndarray, coeff: np.ndarray, a_eq: np.ndarray,
                b_eq: np.ndarray) -> np.ndarray:
    """y.b + sum_k (coeff_k - y.a_k)_+, an upper bound for every y on
    max coeff.x over x in [0, 1]^n with a_eq x = b_eq; one bound per row of
    stacked (y, coeff, b_eq).

    coeff.x = y.b + sum_k x_k (coeff_k - y.a_k), and each x_k lies in
    [0, 1], as each cell of a behavior and each decomposition weight does.
    """
    return (y * b_eq).sum(axis=-1) + np.maximum(coeff - y @ a_eq, 0.0).sum(axis=-1)


def _sweep(a_eq: np.ndarray, b_eqs: np.ndarray,
           coeffs: np.ndarray) -> tuple[np.ndarray, ...]:
    """Maximize coeffs[k].x s.t. a_eq x = b_eqs[k], x >= 0 for every k.

    One basis settles every point it is optimal for.  The first open point
    is solved from the last final basis (`lp_solve` restarts by dual simplex
    where that basis is dual feasible but not primal feasible there), and
    its final basis B is then tested against all points still open at once:
    a point whose x_B = B^-1 b >= -tol and whose reduced costs
    coeff - y.a_eq <= tol with y = B^-T c_B is settled by B without a solve.
    Returns the arrays (x, value, residual, status, bound), one row per
    point; bound is the `_dual_bound` of the point's basis (NaN where a
    solve reached no basis), certified iff at most `_CERT_TOL` above value.
    """
    b_eqs, coeffs = np.asarray(b_eqs, dtype=float), np.asarray(coeffs, dtype=float)
    count, (m, n) = len(b_eqs), a_eq.shape
    x = np.zeros((count, n))
    value, residual, bound = np.full((3, count), np.nan)
    status = np.full(count, "", dtype=object)
    tol = _BASIS_TOL * (1.0 + np.abs(b_eqs).max(axis=1, initial=0.0))
    basis = None
    for k in range(count):
        if status[k]:
            continue
        sol = lp_solve(LPProblem(c=coeffs[k], a_eq=a_eq, b_eq=b_eqs[k], maximize=True), basis)
        basis = sol.basis
        x[k], value[k], residual[k], status[k] = sol.x, sol.value, sol.residual, sol.status
        if sol.duals.size:
            bound[k] = _dual_bound(sol.duals, coeffs[k], a_eq, b_eqs[k])
        if not sol.optimal or basis.size != m:
            continue
        rest = np.flatnonzero(status == "")
        xb = np.linalg.solve(a_eq[:, basis], b_eqs[rest].T).T
        y = np.linalg.solve(a_eq[:, basis].T, coeffs[rest][:, basis].T).T
        ok = (xb >= -tol[rest, None]).all(axis=1) \
            & (coeffs[rest] - y @ a_eq <= _BASIS_TOL).all(axis=1)
        done, xb = rest[ok], np.where(xb[ok] < 1e-14, 0.0, xb[ok])  # as `lp_solve` rounds x
        x[done[:, None], basis] = xb
        value[done] = (coeffs[done][:, basis] * xb).sum(axis=1)
        residual[done] = np.abs(x[done] @ a_eq.T - b_eqs[done]).max(axis=1, initial=0.0)
        status[done] = "optimal"
        bound[done] = _dual_bound(y[ok], coeffs[done], a_eq, b_eqs[done])
    return x, value, residual, status, bound


def guesses(hs: np.ndarray, grid: GammaGrid,
            priors: np.ndarray | None = None) -> np.ndarray:
    """Certified guessing probabilities at each of the (N, 4) h rows, solved
    as one LP sweep.

    Each value is the upper concave envelope of the coefficients f over the
    grid's h-points, at h: the maximum of sum_k w_k f_k over weights w >= 0
    with sum_k w_k h_k = h and sum_k w_k = 1.  The eavesdropper splits h
    into populations at grid points and guesses each with its better
    posterior: f = max(gamma0, gamma1) for the basic strategy, and
    f = max(gamma0 / 2 pa0, gamma1 / 2 pa1) with the (pa0, pa1) of each h in
    the (N, 2) `priors` for the dropping strategy.  The LPs are one
    `_sweep`; each value is its certified dual bound, and an uncertified one
    raises `DecompositionInfeasibleError`.
    """
    gammas = grid.gammas
    if priors is None:
        coeffs = np.broadcast_to(gammas.max(axis=1), (len(hs), len(gammas)))
    else:
        pa = np.array(priors, dtype=float).reshape(-1, 1, 2)
        if (pa <= 0.0).any():
            raise ZeroPosteriorError("dropping requires both setting values to occur")
        coeffs = (gammas / (2.0 * pa)).max(axis=2)
    _, value, _, status, bound = _sweep(
        grid.lp_matrix, np.hstack([hs, np.ones((len(hs), 1))]), coeffs)
    failed = np.flatnonzero(~(bound <= value + _CERT_TOL))
    if failed.size:
        k = failed[0]
        raise DecompositionInfeasibleError(
            "h lies outside the convex hull of the gamma grid" if status[k] == "infeasible"
            else f"decomposition LP ended {status[k]}: its dual bound {bound[k]:.12g} "
            f"exceeds the primal value {value[k]:.12g} by more than {_CERT_TOL:g}")
    return np.minimum(1.0, bound)


STRATEGIES = ("basic", "dropping")


@dataclass(frozen=True)
class KeyRates:
    """Key rates of one distribution along an eta sweep: row k is etas[k],
    and column s of the (N, 2) arrays is the strategy STRATEGIES[s]."""

    dist_label: str
    etas: np.ndarray  # (N,)
    p00: np.ndarray  # (N,) P(a=b=0)
    priors: np.ndarray  # (N, 2) P(A | a=b=0)
    guess: np.ndarray  # (N, 2)
    hab: np.ndarray  # (N, 2)
    key_rate: np.ndarray  # (N, 2), clamped at 0
    clamped: np.ndarray  # (N, 2) bool


def key_rates(etas: np.ndarray | list[float], dist: SettingsDistribution,
              grid: GammaGrid) -> KeyRates:
    """Key rates of both strategies at each eta; each strategy's guesses are
    one `guesses` sweep.

    K1 = P(a=b=0) (-log2 Pguess1 - H(A|B)).  Dropping, Alice discards her
    majority value: K2 = P(a=b=0) 2 min(pa0, pa1) (-log2 Pguess2 - H(A|B)),
    where (pa0, pa1) = P(A | a=b=0) of the Hardy behavior at eta.  Negative
    values clamp to 0.
    """
    etas = np.asarray(etas, dtype=float)
    p00s = hardy_tables(etas)[:, 0, 0]  # P(a=0, b=0 | A, B)
    priors = joint_settings_given_00(p00s, dist).sum(axis=-1)
    hs = h_rows(etas)
    guess = np.stack([guesses(hs, grid), guesses(hs, grid, priors)], axis=1)
    hab = np.stack([conditional_entropy(p00s, dist, dropping)
                    for dropping in (False, True)], axis=1)
    p00 = (p00s * dist.joint()).sum(axis=(-2, -1))
    factor = np.stack([np.ones(len(etas)), 2.0 * priors.min(axis=1)], axis=1)
    raw = p00[:, None] * factor * (-np.log2(guess) - hab)
    return KeyRates(grid.dist_label, etas, p00, priors, guess, hab,
                    np.where(raw > 0.0, raw, 0.0), raw < 0.0)


def key_rate_basic(eta: float, dist: SettingsDistribution,
                   grid: GammaGrid) -> tuple[float, float]:
    """(Pguess1, K1) at one eta: the one-point case of `key_rates`."""
    rates = key_rates([eta], dist, grid)
    return float(rates.guess[0, 0]), float(rates.key_rate[0, 0])


def key_rate_dropping(eta: float, dist: SettingsDistribution,
                      grid: GammaGrid) -> tuple[float, float]:
    """(Pguess2, K2) at one eta: the one-point case of `key_rates`."""
    rates = key_rates([eta], dist, grid)
    return float(rates.guess[0, 1]), float(rates.key_rate[0, 1])


def key_rate_sweep(etas: np.ndarray,
                   dists: tuple[SettingsDistribution, ...] = (UNIFORM, NONUNIFORM),
                   level: int = 2,
                   resolution: int = 201) -> list[KeyRates]:
    """One `key_rates` table per distribution, over all etas."""
    return [key_rates(etas, dist, grid) for dist, grid in
            zip(dists, build_gamma_grids(list(dists), resolution, level), strict=True)]


def key_rates_to_csv(tables: list[KeyRates]) -> str:
    """One row per (distribution, eta, strategy), in that order."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["eta", "dist", "strategy", "p00", "guess", "hab", "keyrate"])
    for t in tables:
        for eta, p00, guess, hab, rate in zip(t.etas.tolist(), t.p00.tolist(), t.guess.tolist(),
                                              t.hab.tolist(), t.key_rate.tolist(), strict=True):
            for s, strategy in enumerate(STRATEGIES):
                writer.writerow([f"{eta:.12g}", t.dist_label, strategy, f"{p00:.12g}",
                                 f"{guess[s]:.12g}", f"{hab[s]:.12g}", f"{rate[s]:.12g}"])
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
    in one `npa.chsh_outcome_guess_bounds` call, which solves one pinned SDP
    per branch class: Tsirelson's theorem gives the quantum maxima in closed
    form, a global outcome flip makes the two outcome bounds equal, and
    where a local mixture meets 2*sqrt(2) with P(0 | A=0) = 1 (every
    epsilon >= 1/2 - cos(3 pi / 8)) the guess is exactly 1 without a solve;
    at epsilon = 0, the Tsirelson face, self-testing makes it exactly 1/2.
    The column needs level >= 2: level 1 gives 1 at every epsilon.
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
