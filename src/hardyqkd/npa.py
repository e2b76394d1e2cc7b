"""Moment-matrix semidefinite relaxations of the quantum set (NPA hierarchy).

The scenario is fixed: two parties, two settings, two outcomes.  Outcome-1
projectors are eliminated through completeness, so words are built from the
four outcome-0 symbols A0, A1, B0, B1.  Canonical words keep party-A symbols
before party-B symbols (cross-party commutation), collapse adjacent repeats
(idempotence) and map words containing orthogonal same-setting pairs to the
zero monomial.

Moment matrices are real symmetric: a moment and its adjoint share one
variable, which is the standard real relaxation and never cuts the quantum
set.  A relaxation is built by moment substitution (Wittek, Ncpol2sdpa, ACM
TOMS 41(3), 2015): the moment matrix is Gamma(y) = sum_k y_k F_k over the
distinct moments y, pinned statistics become values of y instead of
constraint rows, and the in-repo dense SDP solver receives the linear matrix
inequality over the remaining free moments in its dual form.

Bounds are computed in batches: `bound_functionals` builds every relaxation
of a call and solves them all as stacked interior-point runs.  The CHSH
outcome-guess bounds of a biased settings source are solved once per branch
symmetry class (a relabeling that every level respects maps mirror branches
onto each other; symmetry reduction of NPA relaxations as in Tavakoli,
Rosset and Renou, PRL 122, 070501, 2019), all classes in the same batches.
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
from .solvers import SDPProblem, SDPSolution, sdp_solve, sdp_solve_batch
# unused here; bench/tracing.py looks this name up in this module to time it
from .solvers.sdp import prune_dependent_constraints  # noqa: F401

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
    """Index structure of the moment matrix at a given level.

    `classes` maps each distinct moment (a word up to adjoint) to the
    upper-triangle entries that carry it, the identity first; `patterns[k]`
    is the symmetric 0/1 matrix F_k of the k-th class, so that the moment
    matrix is Gamma(y) = sum_k y_k F_k.  Entries whose word is zero belong
    to no class.
    """

    level: int
    monomials: list[Word]
    classes: dict[Word, list[tuple[int, int]]]
    patterns: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.monomials)

    @staticmethod
    def class_key(word: Word | None) -> Word | None:
        if word is None:
            return None
        rev = canonical(adjoint(word))
        assert rev is not None
        return min(word, rev)

    def moment_vector(self, functional: LinearFunctional) -> tuple[np.ndarray, float]:
        """(g, c) with functional = c + g @ y over the moment classes."""
        index = {key: k for k, key in enumerate(self.classes)}
        coeffs, const = functional.moment_coefficients()
        g = np.zeros(len(index))
        for word, c in coeffs.items():
            key = self.class_key(canonical(word))
            if key is None:
                continue  # zero monomial contributes nothing
            if key not in index:
                raise InexpressibleFunctionalError(
                    f"monomial {word} has no entry in the level-{self.level} matrix")
            g[index[key]] += c
        return g, const


def build_layout(level: int) -> MomentMatrixLayout:
    basis = monomial_basis(level)
    n = len(basis)
    classes: dict[Word, list[tuple[int, int]]] = {}
    for i in range(n):
        for j in range(i, n):
            w = canonical(adjoint(basis[i]) + basis[j])
            if w is not None:
                classes.setdefault(MomentMatrixLayout.class_key(w), []).append((i, j))
    patterns = np.zeros((len(classes), n, n))
    for k, entries in enumerate(classes.values()):
        for i, j in entries:
            patterns[k, i, j] = patterns[k, j, i] = 1.0
    return MomentMatrixLayout(level=level, monomials=basis, classes=classes,
                              patterns=patterns)


_LAYOUT_CACHE: dict[int, MomentMatrixLayout] = {}


def get_layout(level: int) -> MomentMatrixLayout:
    if level not in _LAYOUT_CACHE:
        _LAYOUT_CACHE[level] = build_layout(level)
    return _LAYOUT_CACHE[level]


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


@dataclass
class MomentSDP(SDPProblem):
    """A moment relaxation as an LMI in the dual form (D) of `SDPProblem`.

    Over the free moments t the objective equals `offset + b @ t` for a
    maximization and `offset - b @ t` for a minimization, so the solver's
    primal objective <C, X> (the value of the certificate X) turns into the
    bound `offset +- <C, X>`.
    """

    offset: float = 0.0


def _sym(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + np.swapaxes(m, -1, -2))


def build_moment_sdp(level: int,
                     equalities: list[tuple[LinearFunctional, float]],
                     objective: LinearFunctional,
                     maximize: bool) -> MomentSDP:
    """Assemble the LMI for one bound computation by moment substitution.

    The moment matrix is parameterized by its distinct moments,
    Gamma(y) = sum_k y_k F_k.  The identity moment y_id = 1, the supplied
    equalities and Gamma(y) v = 0 for each null vector v of a cell pinned
    exactly to zero (Gamma >= 0 and v'Gamma v = 0 imply Gamma v = 0) form
    one linear system E y = e; one SVD solves it as y = y0 + N t with N an
    orthonormal basis of its null space.  Compressed onto V, the orthonormal
    complement of the null vectors, the relaxation reads

        C - sum_j t_j A_j >= 0,  C = V'Gamma(y0)V,  A_j = -V'Gamma(N e_j)V,

    the dual form (D) of `SDPProblem` with b = +-N'g for an objective
    c + g @ y.  The F_k have disjoint supports and Gamma(N t) = VV'Gamma(N t)VV'
    on the solution set, so t -> V'Gamma(N t)V is injective: the rows are
    independent by construction.  Raises `InfeasibleHError` when E y = e is
    inconsistent.
    """
    layout = get_layout(level)
    patterns = layout.patterns
    n_mom = patterns.shape[0]
    rows = [np.eye(1, n_mom)[0]]
    rhs = [1.0]
    for functional, value in equalities:
        g, const = layout.moment_vector(functional)
        rows.append(g)
        rhs.append(value - const)
    null_vecs = _zero_cell_null_vectors(layout, equalities)
    ties = np.moveaxis(patterns @ null_vecs.T, 0, -1).reshape(-1, n_mom)
    e_mat = np.vstack([rows, ties])
    e_rhs = np.concatenate([rhs, np.zeros(len(ties))])
    u, s, vt = np.linalg.svd(e_mat)
    rank = int((s > 1e-10 * s[0]).sum())
    y0 = vt[:rank].T @ ((u[:, :rank].T @ e_rhs) / s[:rank])
    if np.abs(e_mat @ y0 - e_rhs).max() > 1e-8 * (1.0 + np.abs(e_rhs).max()):
        raise InfeasibleHError("equality constraints are linearly inconsistent")
    free = vt[rank:].T  # orthonormal null-space basis N, shape (n_mom, m)

    gamma0 = np.tensordot(y0, patterns, 1)
    gammas = np.tensordot(free.T, patterns, 1)
    if null_vecs.shape[0]:
        _, s, vt = np.linalg.svd(null_vecs)
        face = vt[int((s > 1e-12).sum()):].T  # shape (n, n - rank)
        gamma0 = face.T @ gamma0 @ face
        gammas = face.T @ gammas @ face
    g, const = layout.moment_vector(objective)
    sign = 1.0 if maximize else -1.0
    return MomentSDP(c=_sym(gamma0), constraints=list(-_sym(gammas)),
                     b=sign * (free.T @ g), offset=const + float(g @ y0))


Job = tuple[list[tuple[LinearFunctional, float]], LinearFunctional, str]


def _template_key(equalities: list[tuple[LinearFunctional, float]]) -> tuple:
    """What the LMI's constraint matrices depend on: the equality
    functionals and which of them pin a value to exactly zero."""
    return tuple((f.cells.tobytes(), f.marg_a.tobytes(), f.marg_b.tobytes(), f.const,
                  value == 0.0) for f, value in equalities)


def bound_functionals(level: int, jobs: list[Job],
                      tol: float = 1e-8) -> list[tuple[float, SDPSolution]]:
    """Certified bounds for several (equalities, objective, direction) jobs.

    Each relaxation is handed to the solver as the LMI of
    `build_moment_sdp`, whose primal variable X is a dual certificate of the
    moment problem: the bound is the affine offset plus (max) or minus (min)
    the solver's primal objective <C, X>.  Every relaxation of the call is
    built first; those sharing their constraint matrices (the same equality
    functionals and zero cells, e.g. every point of the noise segment) keep
    one copy of them, and all are solved in one `sdp_solve_batch` call, so
    same-shape relaxations of different templates share a stack too.  A
    solve that stops short of `tol` but reaches `_ACCEPT_TOL` in gap and
    residuals is still accepted; constraint sets pinning boundary statistics
    make that a normal outcome.  A solver status `unbounded` means no moment
    matrix meets the equalities.  Returns (bound, solution) per job; a
    failing job raises.
    """
    for _, _, direction in jobs:
        if direction not in ("max", "min"):
            raise ValueError("direction must be 'max' or 'min'")
    shared: dict[tuple, list[np.ndarray]] = {}
    problems: list[MomentSDP] = []
    for equalities, objective, direction in jobs:
        problem = build_moment_sdp(level, equalities, objective, direction == "max")
        first = shared.setdefault(_template_key(equalities), problem.constraints)
        if len(first) == len(problem.constraints) \
                and all(map(np.array_equal, first, problem.constraints)):
            problem.constraints = first
        problems.append(problem)
    # a single problem goes through the name `sdp_solve`, which the
    # benchmark's tracing times
    sols = sdp_solve_batch(problems, tol=tol) if len(problems) != 1 \
        else [sdp_solve(problems[0], tol=tol)]
    results = []
    for (_, _, direction), problem, sol in zip(jobs, problems, sols, strict=True):
        if sol.status == "unbounded":
            raise InfeasibleHError("equality constraints admit no moment matrix")
        if not sol.optimal:
            near = max(sol.gap, sol.primal_residual, sol.dual_residual)
            if not np.isfinite(near) or near > _ACCEPT_TOL:
                raise SolverFailure(
                    f"SDP terminated with status {sol.status} (accuracy {near:.2e})")
        sign = 1.0 if direction == "max" else -1.0
        results.append((problem.offset + sign * float(sol.primal_objective), sol))
    return results


def bound_functional(level: int,
                     equalities: list[tuple[LinearFunctional, float]],
                     objective: LinearFunctional,
                     direction: str,
                     tol: float = 1e-8) -> float:
    """Certified bound on a functional: the one-job case of `bound_functionals`."""
    return bound_functionals(level, [(equalities, objective, direction)], tol)[0][0]


def _symmetry_classes(branches: list[SettingsDistribution]) \
        -> tuple[list[SettingsDistribution], list[int]]:
    """One representative per symmetry class of CHSH branches.

    Swapping Bob's settings and flipping Alice's outcome for setting 1 maps
    the weighted CHSH functional of (p_A, 1 - p_B) onto that of (p_A, p_B)
    and leaves P(a | A=0) and the observed value fixed; the relabeling maps
    every NPA level onto itself, so both branches have one bound.  Classes
    join exact duplicates and such mirror pairs, matched within 1e-12 in p_B
    (1 - (0.5 - eps) and 0.5 + eps can differ by one ulp).  Returns the
    representatives, first members in input order, and each branch's index
    among them.
    """
    reps: list[SettingsDistribution] = []
    index: list[int] = []
    for branch in branches:
        for k, rep in enumerate(reps):
            if rep.p_a == branch.p_a and (rep.p_b == branch.p_b
                                          or abs(rep.p_b - (1.0 - branch.p_b)) <= 1e-12):
                index.append(k)
                break
        else:
            index.append(len(reps))
            reps.append(branch)
    return reps, index


def chsh_outcome_guess_bounds(branches: list[SettingsDistribution],
                              observed_value: float,
                              level: int = 2) -> list[float]:
    """Bounds on Eve's guess of Alice's outcome for setting 0 in a CHSH test.

    The parties normalize their correlator estimates by the nominal uniform
    setting frequency 1/4, so for runs drawn from a branch the constrained
    expression is 4 * sum_AB s_AB P_branch(A, B) C(A, B) = observed_value.
    Each bound is max over a of P(a | A=0) at the given relaxation level.

    When the observed value sits at the quantum maximum the equality pins a
    degenerate face and the plain solve goes blunt; penalized objectives
    max(marginal + rho * expr) - rho * observed are also certified bounds
    there, so the smallest of the two routes is returned.

    The branches are solved once per symmetry class (`_symmetry_classes`),
    in three batched calls over all representatives: the quantum maxima,
    the pinned marginal bounds, and the penalized bounds of the branches at
    their maximum.  Raises `InfeasibleHError` when the observed value
    exceeds a branch's quantum maximum.
    """
    reps, index = _symmetry_classes(branches)
    exprs = [chsh_functional(4.0 * rep.joint()) for rep in reps]
    qmax = [bound for bound, _ in bound_functionals(
        level, [([], expr, "max") for expr in exprs], tol=1e-10)]
    for q in qmax:
        if observed_value > q + 1e-6:
            raise InfeasibleHError(
                f"observed value {observed_value:.6f} exceeds the quantum maximum "
                f"{q:.6f} for this branch weighting")
    margs = []
    for a in range(2):
        marg = np.zeros((2, 2))
        marg[a, 0] = 1.0
        margs.append(LinearFunctional(marg_a=marg))
    pinned = bound_functionals(
        level, [([(expr, observed_value)], marg, "max") for expr in exprs for marg in margs])
    vals = [[pinned[2 * k + a][0] for a in range(2)] for k in range(len(reps))]
    at_max = [k for k, q in enumerate(qmax) if observed_value >= q - 1e-4]
    rhos = (1e2, 1e3, 1e4)
    penalized = bound_functionals(level, [
        ([], LinearFunctional(cells=rho * exprs[k].cells, marg_a=marg.marg_a), "max")
        for k in at_max for marg in margs for rho in rhos], tol=1e-10)
    for j, k in enumerate(at_max):
        for a in range(2):
            for r, rho in enumerate(rhos):
                vals[k][a] = min(vals[k][a],
                                 penalized[len(rhos) * (2 * j + a) + r][0] - rho * observed_value)
    bounds = [min(max(0.0, *v), 1.0) for v in vals]
    return [bounds[k] for k in index]


def chsh_outcome_guess_bound(branch: SettingsDistribution,
                             observed_value: float,
                             level: int = 2) -> float:
    """The one-branch case of `chsh_outcome_guess_bounds`."""
    return chsh_outcome_guess_bounds([branch], observed_value, level)[0]


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
