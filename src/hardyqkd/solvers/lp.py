"""Dense two-phase simplex for small equality-form linear programs.

Problems are stated as

    optimize    c' x
    subject to  A_eq x = b_eq,  x >= 0.

Sizes of interest are a few thousand variables and a handful of equality
rows (the decomposition programs of the analysis pipeline), so a dense
tableau is entirely adequate.  Bland's smallest-index rule is used for both
the entering and the leaving variable, which rules out cycling on the
degenerate instances produced by grid decompositions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_FEAS_TOL = 1e-9
_PIVOT_TOL = 1e-11


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
    status: str  # optimal | infeasible | unbounded | max-iterations
    iterations: int = 0
    residual: float = field(default=np.nan)

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


def _simplex_phase(tab: np.ndarray, basis: np.ndarray, ncols: int,
                   max_iter: int) -> tuple[str, int]:
    """Run Bland-rule simplex on a tableau whose last row is the objective."""
    it = 0
    while it < max_iter:
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


def lp_solve(problem: LPProblem, max_iter: int | None = None) -> LPSolution:
    """Solve an equality-form LP; returns a basic solution when optimal.

    Redundant equality rows are handled in phase 1: an artificial variable
    that remains basic at level zero is either pivoted out or its row is
    dropped.  Inconsistent rows surface as `infeasible`.
    """
    a = problem.a_eq.copy()
    b = problem.b_eq.copy()
    c = -problem.c if problem.maximize else problem.c.copy()
    m, n = a.shape
    if max_iter is None:
        max_iter = 50 * (n + m + 10)

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

    status, it1 = _simplex_phase(tab, basis, n + m, max_iter)
    if status == "max-iterations":
        return LPSolution(np.zeros(n), np.nan, "max-iterations", it1)
    if -tab[-1, -1] > _FEAS_TOL * (1.0 + abs(b).sum()):
        return LPSolution(np.zeros(n), np.nan, "infeasible", it1)

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
    tab = np.vstack([tab[rows], tab[-1:]])
    basis = basis[rows]

    # Phase 2: replace the objective row, price out the basis.
    tab2 = np.zeros((rows.size + 1, n + 1))
    tab2[:-1, :n] = tab[:-1, :n]
    tab2[:-1, -1] = tab[:-1, -1]
    tab2[-1, :n] = c
    for i, bv in enumerate(basis):
        tab2[-1] -= c[bv] * tab2[i]
    status, it2 = _simplex_phase(tab2, basis, n, max_iter)

    x = np.zeros(n)
    x[basis] = tab2[:-1, -1]
    x[np.abs(x) < 1e-14] = 0.0
    value = float(problem.c @ x)
    residual = float(np.linalg.norm(problem.a_eq @ x - problem.b_eq, ord=np.inf))
    if status == "optimal" and residual > 1e-7 * (1.0 + np.abs(problem.b_eq).max(initial=0.0)):
        status = "max-iterations"  # numerically degraded basis; do not certify
    return LPSolution(x, value, status, it1 + it2, residual)

