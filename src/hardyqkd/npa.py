"""Moment-matrix semidefinite relaxations of the quantum set (NPA hierarchy).

The scenario is fixed: two parties, two settings, two outcomes.  Outcome-1
projectors are eliminated through completeness, so words are built from the
four outcome-0 symbols A0, A1, B0, B1.  Canonical words keep party-A symbols
before party-B symbols (cross-party commutation), collapse adjacent repeats
(idempotence) and map words containing orthogonal same-setting pairs to the
zero monomial.

Moment matrices are real symmetric: a moment and its adjoint share one
variable, which is the standard real relaxation and never cuts the quantum
set.  The resulting problems are handed to the in-repo dense SDP solver.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InexpressibleFunctionalError,
    InfeasibleHError,
    SolverFailure,
    UnsupportedLevelError,
)
from .protocol import SettingsDistribution
from .solvers import SDPProblem, SDPSolution, sdp_solve
from .solvers.sdp import prune_dependent_constraints

Symbol = tuple[int, int, int]  # (party, setting, outcome)
Word = tuple[Symbol, ...]

ZERO: Word | None = None  # sentinel for the zero monomial
IDENTITY: Word = ()

_SYMBOLS: tuple[Symbol, ...] = ((0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 0))

TSIRELSON = 2.0 * np.sqrt(2.0)

# Gap/residual level at which a stalled solve is still accepted as a bound.
_ACCEPT_TOL = 2e-4


def canonical(word: Word | None) -> Word | None:
    """Canonical form of a projector word (or the zero monomial)."""
    if word is None:
        return None
    part_a = [s for s in word if s[0] == 0]
    part_b = [s for s in word if s[0] == 1]
    out: list[Symbol] = []
    for part in (part_a, part_b):
        reduced: list[Symbol] = []
        for s in part:
            if reduced and reduced[-1] == s:
                continue  # idempotent
            if reduced and reduced[-1][:2] == s[:2]:
                return None  # orthogonal outcomes of one setting
            reduced.append(s)
        out.extend(reduced)
    return tuple(out)


def adjoint(word: Word) -> Word:
    """Adjoint of a word of Hermitian projectors (reversal)."""
    return tuple(reversed(word))


def _alternating(symbols: list[Symbol], max_len: int) -> list[Word]:
    words: list[Word] = [()]
    frontier: list[Word] = [()]
    for _ in range(max_len):
        nxt: list[Word] = []
        for w in frontier:
            for s in symbols:
                if w and w[-1] == s:
                    continue
                nxt.append(w + (s,))
        words.extend(nxt)
        frontier = nxt
    return words


def monomial_basis(level: int) -> list[Word]:
    """Canonical monomials of length <= level; the identity comes first."""
    if level not in (1, 2, 3):
        raise UnsupportedLevelError(f"level {level} not supported (use 1, 2 or 3)")
    a_words = _alternating([(0, 0, 0), (0, 1, 0)], level)
    b_words = _alternating([(1, 0, 0), (1, 1, 0)], level)
    basis: list[Word] = []
    seen: set[Word] = set()
    for total in range(level + 1):
        for len_a in range(total, -1, -1):
            for wa in (w for w in a_words if len(w) == len_a):
                for wb in (w for w in b_words if len(w) == total - len_a):
                    w = canonical(wa + wb)
                    if w is not None and w not in seen:
                        seen.add(w)
                        basis.append(w)
    return basis


@dataclass(frozen=True)
class LinearFunctional:
    """Linear expression in behavior cells, marginals and a constant.

    `cells[a, b, A, B]` multiplies p(a, b | A, B); `marg_a[a, A]` multiplies
    p(a | A) and `marg_b[b, B]` multiplies p(b | B).
    """

    cells: np.ndarray = field(default_factory=lambda: np.zeros((2, 2, 2, 2)))
    marg_a: np.ndarray = field(default_factory=lambda: np.zeros((2, 2)))
    marg_b: np.ndarray = field(default_factory=lambda: np.zeros((2, 2)))
    const: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "cells", np.asarray(self.cells, dtype=float))
        object.__setattr__(self, "marg_a", np.asarray(self.marg_a, dtype=float))
        object.__setattr__(self, "marg_b", np.asarray(self.marg_b, dtype=float))

    @classmethod
    def from_cell(cls, a: int, b: int, setting_a: int, setting_b: int,
                  coeff: float = 1.0) -> "LinearFunctional":
        cells = np.zeros((2, 2, 2, 2))
        cells[a, b, setting_a, setting_b] = coeff
        return cls(cells=cells)

    def evaluate(self, behavior) -> float:
        """Value on an explicit behavior (marginals via setting 0 of the peer)."""
        total = self.const + float(np.sum(self.cells * behavior.p))
        for a in range(2):
            for sa in range(2):
                if self.marg_a[a, sa]:
                    total += self.marg_a[a, sa] * behavior.marginal_a(a, sa)
        for b in range(2):
            for sb in range(2):
                if self.marg_b[b, sb]:
                    total += self.marg_b[b, sb] * behavior.marginal_b(b, sb)
        return total

    def moment_coefficients(self) -> tuple[dict[Word, float], float]:
        """Expand into projector moments: <A_s>, <B_s>, <A_s B_t> and 1."""
        coeffs: dict[Word, float] = {}
        const = self.const

        def add(word: Word, val: float) -> None:
            if val:
                coeffs[word] = coeffs.get(word, 0.0) + val

        for a in range(2):
            for b in range(2):
                for sa in range(2):
                    for sb in range(2):
                        c = self.cells[a, b, sa, sb]
                        if not c:
                            continue
                        wa: Word = ((0, sa, 0),)
                        wb: Word = ((1, sb, 0),)
                        sign_a = 1.0 if a == 0 else -1.0
                        sign_b = 1.0 if b == 0 else -1.0
                        # (x + s P)(y + t Q) with x = [a==1], y = [b==1]
                        add(wa + wb, c * sign_a * sign_b)
                        if b == 1:
                            add(wa, c * sign_a)
                        if a == 1:
                            add(wb, c * sign_b)
                        if a == 1 and b == 1:
                            const += c
        for a in range(2):
            for sa in range(2):
                c = self.marg_a[a, sa]
                if not c:
                    continue
                add(((0, sa, 0),), c if a == 0 else -c)
                if a == 1:
                    const += c
        for b in range(2):
            for sb in range(2):
                c = self.marg_b[b, sb]
                if not c:
                    continue
                add(((1, sb, 0),), c if b == 0 else -c)
                if b == 1:
                    const += c
        return coeffs, const


def chsh_functional(weights: np.ndarray | None = None) -> LinearFunctional:
    """CHSH combination sum_AB s_AB * w_AB * C(A, B), s = (+,+,+,-).

    `weights[A, B]` defaults to 1 (the plain CHSH expression, quantum
    maximum 2*sqrt(2)).
    """
    if weights is None:
        weights = np.ones((2, 2))
    cells = np.zeros((2, 2, 2, 2))
    for sa in range(2):
        for sb in range(2):
            s = -1.0 if (sa, sb) == (1, 1) else 1.0
            for a in range(2):
                for b in range(2):
                    cells[a, b, sa, sb] = s * weights[sa, sb] * ((-1.0) ** (a + b))
    return LinearFunctional(cells=cells)


@dataclass
class MomentMatrixLayout:
    """Index structure of the moment matrix at a given level."""

    level: int
    monomials: list[Word]
    entry_words: list[list[Word | None]]
    classes: dict[Word, list[tuple[int, int]]]
    representative: dict[Word, tuple[int, int]]

    @property
    def dim(self) -> int:
        return len(self.monomials)

    def class_key(self, word: Word | None) -> Word | None:
        if word is None:
            return None
        rev = canonical(adjoint(word))
        assert rev is not None
        return min(word, rev)


def build_layout(level: int) -> MomentMatrixLayout:
    basis = monomial_basis(level)
    n = len(basis)
    entry_words: list[list[Word | None]] = [[None] * n for _ in range(n)]
    classes: dict[Word, list[tuple[int, int]]] = {}
    representative: dict[Word, tuple[int, int]] = {}
    for i in range(n):
        for j in range(i, n):
            w = canonical(adjoint(basis[i]) + basis[j])
            entry_words[i][j] = w
            entry_words[j][i] = canonical(adjoint(basis[j]) + basis[i])
            if w is None:
                continue
            rev = canonical(adjoint(w))
            key = min(w, rev) if rev is not None else w
            classes.setdefault(key, []).append((i, j))
            representative.setdefault(key, (i, j))
    return MomentMatrixLayout(level=level, monomials=basis,
                              entry_words=entry_words, classes=classes,
                              representative=representative)


_LAYOUT_CACHE: dict[int, MomentMatrixLayout] = {}


def get_layout(level: int) -> MomentMatrixLayout:
    if level not in _LAYOUT_CACHE:
        _LAYOUT_CACHE[level] = build_layout(level)
    return _LAYOUT_CACHE[level]


def _entry_matrix(n: int, i: int, j: int) -> np.ndarray:
    m = np.zeros((n, n))
    if i == j:
        m[i, i] = 1.0
    else:
        m[i, j] = 0.5
        m[j, i] = 0.5
    return m


def _functional_matrix(layout: MomentMatrixLayout,
                       functional: LinearFunctional) -> tuple[np.ndarray, float]:
    """Symmetric matrix whose inner product with the moment matrix evaluates
    the functional; the constant is folded onto the fixed (0,0) entry."""
    n = layout.dim
    coeffs, const = functional.moment_coefficients()
    mat = np.zeros((n, n))
    for word, c in coeffs.items():
        key = layout.class_key(canonical(word))
        if key is None:
            continue  # zero monomial contributes nothing
        if key not in layout.representative:
            raise InexpressibleFunctionalError(
                f"monomial {word} has no entry in the level-{layout.level} matrix")
        i, j = layout.representative[key]
        mat += c * _entry_matrix(n, i, j)
    mat[0, 0] += const  # X[0, 0] is pinned to 1
    return mat, const


def _zero_cell_null_vectors(layout: MomentMatrixLayout,
                            equalities: list[tuple[LinearFunctional, float]]) \
        -> np.ndarray:
    """Facial-reduction directions implied by cells pinned exactly to zero.

    A behavior cell is the mean of a product projector Pi; Tr(rho Pi) = 0
    forces Pi * sqrt(rho) = 0, so the basis-coefficient vector of Pi is a
    null vector of every compatible moment matrix.  Requires the length-2
    word A_A B_B in the basis, hence level >= 2.
    """
    index = {w: k for k, w in enumerate(layout.monomials)}
    vectors: list[np.ndarray] = []
    for functional, value in equalities:
        nz = np.argwhere(functional.cells)
        if (value != 0.0 or nz.shape[0] != 1 or functional.const != 0.0
                or functional.marg_a.any() or functional.marg_b.any()):
            continue
        a, b, sa, sb = (int(t) for t in nz[0])
        word_a: Word = ((0, sa, 0),)
        word_b: Word = ((1, sb, 0),)
        # expansion of the product projector over {1, A, B, AB} words
        factor_a = [(word_a, 1.0)] if a == 0 else [(IDENTITY, 1.0), (word_a, -1.0)]
        factor_b = [(word_b, 1.0)] if b == 0 else [(IDENTITY, 1.0), (word_b, -1.0)]
        terms = [(canonical(wa + wb), ca * cb)
                 for wa, ca in factor_a for wb, cb in factor_b]
        if any(w not in index for w, _ in terms):
            continue  # not expressible at this level
        v = np.zeros(layout.dim)
        for w, c in terms:
            v[index[w]] = c
        vectors.append(v)
    if not vectors:
        return np.zeros((0, layout.dim))
    return np.stack(vectors)


def build_moment_sdp(level: int,
                     equalities: list[tuple[LinearFunctional, float]],
                     objective: LinearFunctional,
                     maximize: bool) -> SDPProblem:
    """Assemble the standard-form SDP for one bound computation.

    Constraints: X[0,0] = 1, one tie per duplicated moment entry, a zero
    pin for annihilated words, and one row per supplied functional equality.
    Cells pinned exactly to zero put the moment matrix on a face of the PSD
    cone; the problem is compressed onto that face, which restores a strictly
    feasible interior for the interior-point solver without changing the
    optimal value.
    """
    layout = get_layout(level)
    n = layout.dim
    constraints: list[np.ndarray] = []
    rhs: list[float] = []

    constraints.append(_entry_matrix(n, 0, 0))
    rhs.append(1.0)

    for key, entries in layout.classes.items():
        i0, j0 = layout.representative[key]
        rep = _entry_matrix(n, i0, j0)
        for (i, j) in entries:
            if (i, j) == (i0, j0):
                continue
            constraints.append(_entry_matrix(n, i, j) - rep)
            rhs.append(0.0)
    for i in range(n):
        for j in range(i, n):
            if layout.entry_words[i][j] is None:
                constraints.append(_entry_matrix(n, i, j))
                rhs.append(0.0)

    for functional, value in equalities:
        mat, const = _functional_matrix(layout, functional)
        mat[0, 0] -= const  # keep the constant on the right-hand side
        constraints.append(mat)
        rhs.append(value - const)

    c_mat, _ = _functional_matrix(layout, objective)

    null_vecs = _zero_cell_null_vectors(layout, equalities)
    if null_vecs.shape[0]:
        _, s, vt = np.linalg.svd(null_vecs)
        rank = int((s > 1e-12).sum())
        basis = vt[rank:].T  # orthonormal complement, shape (n, n - rank)
        c_mat = 0.5 * (basis.T @ c_mat @ basis + (basis.T @ c_mat @ basis).T)
        reduced: list[np.ndarray] = []
        red_rhs: list[float] = []
        for mat, val in zip(constraints, rhs, strict=True):
            m = basis.T @ mat @ basis
            if np.abs(m).max(initial=0.0) <= 1e-12:
                if abs(val) > 1e-9:
                    # keep one contradictory row; the solver reports it
                    reduced.append(m)
                    red_rhs.append(val)
                continue
            reduced.append(0.5 * (m + m.T))
            red_rhs.append(val)
        # the compression makes many tie rows coincide; drop them quietly
        keep, consistent = prune_dependent_constraints(reduced, np.asarray(red_rhs))
        if consistent:
            constraints = [reduced[k] for k in keep]
            rhs = [red_rhs[k] for k in keep]
        else:
            constraints = reduced
            rhs = red_rhs

    return SDPProblem(c=c_mat, constraints=constraints, b=np.array(rhs),
                      maximize=maximize)


def bound_functional(level: int,
                     equalities: list[tuple[LinearFunctional, float]],
                     objective: LinearFunctional,
                     direction: str,
                     tol: float = 1e-8,
                     return_solution: bool = False) -> float | tuple[float, SDPSolution]:
    """Certified bound on a functional over the level-`level` relaxation.

    Returns the dual objective: an upper bound for `direction='max'`, a
    lower bound for `direction='min'`.  A solve that stalls short of `tol`
    but reaches `_ACCEPT_TOL` in gap and residuals is still accepted;
    constraint sets pinning boundary statistics make that a normal outcome.
    """
    if direction not in ("max", "min"):
        raise ValueError("direction must be 'max' or 'min'")
    problem = build_moment_sdp(level, equalities, objective,
                               maximize=direction == "max")
    sol = sdp_solve(problem, tol=tol)
    if sol.status == "infeasible":
        raise InfeasibleHError("equality constraints admit no moment matrix")
    if not sol.optimal:
        near = max(sol.gap, sol.primal_residual, sol.dual_residual)
        if not np.isfinite(near) or near > _ACCEPT_TOL:
            raise SolverFailure(
                f"SDP terminated with status {sol.status} (accuracy {near:.2e})")
    bound = float(sol.dual_objective)
    if return_solution:
        return bound, sol
    return bound


def cell_equalities(cells: dict[tuple[int, int, int, int], float]) \
        -> list[tuple[LinearFunctional, float]]:
    """Equality list pinning individual behavior cells (a, b, A, B) -> value."""
    return [(LinearFunctional.from_cell(*idx), val) for idx, val in cells.items()]


def chsh_outcome_guess_bound(branch: SettingsDistribution,
                             observed_value: float,
                             level: int = 2) -> float:
    """Bound on Eve's guess of Alice's outcome for setting 0 in a CHSH test.

    The parties normalize their correlator estimates by the nominal uniform
    setting frequency 1/4, so for runs drawn from `branch` the constrained
    expression is 4 * sum_AB s_AB P_branch(A, B) C(A, B) = observed_value.
    The bound is max over a of P(a | A=0) at the given relaxation level.

    When the observed value sits at the quantum maximum the equality pins a
    degenerate face and the plain solve goes blunt; penalized objectives
    max(marginal + rho * expr) - rho * observed are also certified bounds
    there, so the smallest of the two routes is returned.
    """
    weights = 4.0 * branch.joint()
    expr = chsh_functional(weights)
    qmax = bound_functional(level, [], expr, "max", tol=1e-10)
    if observed_value > qmax + 1e-6:
        raise InfeasibleHError(
            f"observed value {observed_value:.6f} exceeds the quantum maximum "
            f"{qmax:.6f} for this branch weighting")
    at_max = observed_value >= qmax - 1e-4
    best = 0.0
    for a in range(2):
        marg = np.zeros((2, 2))
        marg[a, 0] = 1.0
        objective = LinearFunctional(marg_a=marg)
        val = bound_functional(level, [(expr, observed_value)], objective, "max")
        if at_max:
            for rho in (1e2, 1e3, 1e4):
                penalized = LinearFunctional(cells=rho * expr.cells, marg_a=marg)
                pen_val = bound_functional(level, [], penalized, "max",
                                           tol=1e-10) - rho * observed_value
                val = min(val, pen_val)
        best = max(best, float(val))
    return min(best, 1.0)


def realization_moment_matrix(rho: np.ndarray, bases, level: int) -> np.ndarray:
    """Real part of the moment matrix of an explicit two-qubit realization.

    Used by tests: for any state and projective measurements this matrix is
    PSD and satisfies every entry identification of the layout.
    """
    layout = get_layout(level)
    basis = layout.monomials

    def word_operator(word: Word) -> np.ndarray:
        op_a = np.eye(2, dtype=complex)
        op_b = np.eye(2, dtype=complex)
        for (party, setting, outcome) in word:
            p = bases.projectors[party, setting, outcome]
            if party == 0:
                op_a = op_a @ p
            else:
                op_b = op_b @ p
        return np.kron(op_a, op_b)

    n = len(basis)
    gamma = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            op = word_operator(basis[i]).conj().T @ word_operator(basis[j])
            gamma[i, j] = float(np.trace(rho @ op).real)
    return 0.5 * (gamma + gamma.T)
