"""Dense two-phase simplex for small equality-form linear programs.

Problems are stated as

    optimize    c' x
    subject to  A_eq x = b_eq,  x >= 0.

Sizes of interest are a few thousand variables and a handful of equality
rows (the decomposition programs of the analysis pipeline), so a dense
tableau is entirely adequate.  Bland's smallest-index rule is used for both
the entering and the leaving variable, which rules out cycling on the
degenerate instances produced by grid decompositions.

A solve may start from a basis, typically the final `basis` of a problem
with the same `A_eq` and a nearby `b_eq` or `c`.  When that basis is primal
feasible at the new `b_eq`, phase 2 starts from it.  When it is primal
infeasible but dual feasible for the new `c` (every reduced cost of the
minimization within the pivot tolerance of >= 0), as the last optimal
basis of a run of LPs with one objective always is, dual-simplex pivots
restore primal feasibility first (Chvatal, *Linear Programming*, 1983,
ch. 10): Bland's rule on the basis index picks the leaving row, the
smallest ratio (smallest index on ties) the entering column, and an empty
ratio test proves the LP infeasible.  Phase 2 then runs from the result as
the final optimality check.  Phase 1 runs only without a basis, or from one
that is singular or neither primal nor dual feasible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_FEAS_TOL = 1e-9
_PIVOT_TOL = 1e-11
# pivots allowed per phase; Bland's rule needs a few hundred on the
# largest decomposition programs
_MAX_ITER = 10_000


@dataclass
class LPProblem:
    """Equality-constrained LP data; `maximize` flips the objective sense."""

    c: np.ndarray
    a_eq: np.ndarray
    b_eq: np.ndarray
    maximize: bool = False

    def __post_init__(self) -> None:
        self.c = np.asarray(self.c, dtype=float).ravel()
        self.a_eq = np.atleast_2d(np.asarray(self.a_eq, dtype=float))
        self.b_eq = np.asarray(self.b_eq, dtype=float).ravel()
        m, n = self.a_eq.shape
        if n != self.c.size or m != self.b_eq.size:
            raise ValueError("inconsistent LP dimensions")
        if not (np.isfinite(self.c).all() and np.isfinite(self.a_eq).all()
                and np.isfinite(self.b_eq).all()):
            raise ValueError("LP data must be finite")


@dataclass
class LPSolution:
    x: np.ndarray
    value: float
    status: str  # optimal | infeasible | unbounded | max-iterations | numerical-breakdown
    iterations: int = 0
    residual: float = field(default=np.nan)
    # basic column per kept row of the final tableau; empty when phase 1 failed
    basis: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))
    # y = B^-T c_B of the final basis, one per row of a_eq; empty with `basis`
    duals: np.ndarray = field(default_factory=lambda: np.zeros(0))

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


def _pivot(tab: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    tab[row] /= tab[row, col]
    cols = tab[:, col].copy()
    cols[row] = 0.0
    tab -= np.outer(cols, tab[row])
    tab[:, col] = 0.0
    tab[row, col] = 1.0
    basis[row] = col


def _simplex_phase(tab: np.ndarray, basis: np.ndarray, ncols: int) -> tuple[str, int]:
    """Run Bland-rule simplex on a tableau whose last row is the objective."""
    it = 0
    while it < _MAX_ITER:
        reduced = tab[-1, :ncols]
        candidates = np.flatnonzero(reduced < -_PIVOT_TOL)
        if candidates.size == 0:
            return "optimal", it
        col = int(candidates[0])  # Bland: smallest index
        column = tab[:-1, col]
        positive = np.flatnonzero(column > _PIVOT_TOL)
        if positive.size == 0:
            return "unbounded", it
        ratios = tab[:-1, -1][positive] / column[positive]
        best = ratios.min()
        ties = positive[np.flatnonzero(ratios <= best + _PIVOT_TOL)]
        row = int(ties[np.argmin(basis[ties])])  # Bland on leaving variable
        _pivot(tab, basis, row, col)
        it += 1
    return "max-iterations", it


def _basis_rows(a: np.ndarray, b: np.ndarray, basis: np.ndarray) -> np.ndarray | None:
    """Tableau rows B^-1 [A | b] of `basis`, or None unless it is a
    nonsingular basis of `a`."""
    m, n = a.shape
    if basis.size != m or basis.min(initial=0) < 0 or basis.max(initial=0) >= n:
        return None
    try:
        rows = np.linalg.solve(a[:, basis], np.column_stack([a, b]))
    except np.linalg.LinAlgError:
        return None
    if not np.isfinite(rows).all():
        return None
    rows[:, basis] = np.eye(m)
    return rows


def _dual_simplex(tab: np.ndarray, basis: np.ndarray, ncols: int,
                  tol: float) -> tuple[str, int]:
    """Run dual-simplex pivots on a tableau whose last row holds reduced
    costs within `_PIVOT_TOL` of >= 0, until every basic value is >= -tol."""
    it = 0
    while it < _MAX_ITER:
        short = np.flatnonzero(tab[:-1, -1] < -tol)
        if short.size == 0:
            return "optimal", it
        row = int(short[np.argmin(basis[short])])  # Bland on leaving variable
        entries = tab[row, :ncols]
        negative = np.flatnonzero(entries < -_PIVOT_TOL)
        if negative.size == 0:
            return "infeasible", it  # the row's basic value is < 0 for every x >= 0
        ratios = tab[-1, negative] / -entries[negative]
        col = int(negative[np.flatnonzero(ratios <= ratios.min() + _PIVOT_TOL)[0]])
        _pivot(tab, basis, row, col)
        it += 1
    return "max-iterations", it


def _phase1(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray | None, np.ndarray | None, str, int]:
    """Feasible basis from an artificial one: (tableau rows, basis, status, pivots).

    Redundant equality rows are handled here: an artificial variable that
    remains basic at level zero is either pivoted out or its row is
    dropped.  Inconsistent rows surface as `infeasible`; the rows are None
    unless the status is `optimal`.
    """
    m, n = a.shape
    a = a.copy()
    b = b.copy()
    neg = b < 0
    a[neg] *= -1.0
    b[neg] *= -1.0

    # Phase 1 tableau: [A | I | b] with objective = sum of artificials.
    tab = np.zeros((m + 1, n + m + 1))
    tab[:m, :n] = a
    tab[:m, n:n + m] = np.eye(m)
    tab[:m, -1] = b
    basis = np.arange(n, n + m)
    tab[-1, :n] = -a.sum(axis=0)
    tab[-1, -1] = -b.sum()

    status, it = _simplex_phase(tab, basis, n + m)
    if status == "max-iterations":
        return None, None, status, it
    if -tab[-1, -1] > _FEAS_TOL * (1.0 + abs(b).sum()):
        return None, None, "infeasible", it

    # Drive leftover artificials out of the basis; drop redundant rows.
    keep = np.ones(m, dtype=bool)
    for row in range(m):
        if basis[row] < n:
            continue
        pivots = np.flatnonzero(np.abs(tab[row, :n]) > 1e-8)
        if pivots.size:
            _pivot(tab, basis, row, int(pivots[0]))
        else:
            keep[row] = False  # redundant equality
    rows = np.flatnonzero(keep)
    return np.column_stack([tab[rows, :n], tab[rows, -1]]), basis[rows], "optimal", it


def lp_solve(problem: LPProblem, basis: np.ndarray | None = None) -> LPSolution:
    """Solve an equality-form LP; returns a basic solution, its basis and
    that basis' duals y = B^-T c_B for `problem.c` (least squares where
    phase 1 dropped redundant rows), so an optimal y.b is the value.

    From a nonsingular `basis` the solve starts with phase 2 if the basis is
    primal feasible at `problem.b_eq`, and with dual-simplex pivots if it is
    dual feasible instead; otherwise phase 1 finds a feasible basis from an
    artificial one.  A final basis whose solution fails the residual check
    ends as `numerical-breakdown`.
    """
    a, b = problem.a_eq, problem.b_eq
    c = -problem.c if problem.maximize else problem.c
    n = c.size
    tol = _PIVOT_TOL * (1.0 + np.abs(b).max(initial=0.0))
    tab = None
    if basis is not None:
        basis = np.array(basis, dtype=int)  # a copy: pivots update it in place
        rows = _basis_rows(a, b, basis)
        if rows is not None:
            tab = np.vstack([rows, np.append(c, 0.0) - c[basis] @ rows])
            if (rows[:, -1] < -tol).any() and (tab[-1, :n] < -_PIVOT_TOL).any():
                tab = None  # neither primal nor dual feasible
    if tab is None:
        rows, basis, status, it1 = _phase1(a, b)
        if rows is None:
            return LPSolution(np.zeros(n), np.nan, status, it1)
        tab = np.vstack([rows, np.append(c, 0.0) - c[basis] @ rows])
    else:
        status, it1 = _dual_simplex(tab, basis, n, tol)
        if status != "optimal":
            return LPSolution(np.zeros(n), np.nan, status, it1)
    # only rounding-level negatives remain, so x keeps c'x to ~1e-11
    tab[:-1, -1] = np.maximum(tab[:-1, -1], 0.0)
    status, it2 = _simplex_phase(tab, basis, n)

    x = np.zeros(n)
    x[basis] = tab[:-1, -1]
    x[np.abs(x) < 1e-14] = 0.0
    value = float(problem.c @ x)
    residual = float(np.linalg.norm(a @ x - b, ord=np.inf))
    if status == "optimal" and residual > 1e-7 * (1.0 + np.abs(b).max(initial=0.0)):
        status = "numerical-breakdown"  # degraded basis; do not certify
    b_mat_t, c_b = a[:, basis].T, problem.c[basis]
    duals = np.linalg.solve(b_mat_t, c_b) if basis.size == b.size \
        else np.linalg.lstsq(b_mat_t, c_b, rcond=None)[0]
    return LPSolution(x, value, status, it1 + it2, residual, basis, duals)
