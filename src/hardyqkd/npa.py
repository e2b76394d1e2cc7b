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
inequality over the remaining free moments in its dual form.  The
substitution is split where the data varies: a template (`moment_template`)
holds what every job with the same pinned functionals and zero cells shares
(the SVD of the pin system, its null space, the face and the constraint
stack), and `build_moment_sdp` computes only a job's pinned point, objective
matrix, objective vector and offset.

A linear functional of a behavior is its (2, 2, 2, 2) cell table (`cell`,
`chsh_functional`).  `bound_functionals` is the one place where a solve
becomes a bound: it builds each template of a call once and every relaxation
from its template and solves them all as stacked interior-point runs.  The
two noiseless faces, where a pinned relaxation has no interior and no
interior-point run converges, are settled by self-testing before any solve:
Hardy's maximum fixes the behavior (Rabelo, Zhi and Scarani, PRL 109,
180401, 2012; `analysis._q_brackets`), and so does Tsirelson's bound (review:
Supic and Bowles, Quantum 4, 337, 2020; `chsh_outcome_guess_bounds`).

The CHSH outcome-guess bounds of a biased settings source solve by SDP only
what no theorem settles.  The quantum maximum of a weighted CHSH expression
is its vector value in closed form (Tsirelson's theorem,
`chsh_quantum_max`).  Two relabelings that every level respects cut the
pinned jobs (symmetry reduction of NPA relaxations as in Tavakoli, Rosset
and Renou, PRL 122, 070501, 2019): mirror branches share one class, and a
global outcome flip makes max P(1 | A=0) equal max P(0 | A=0), so each
class has one job.  A class whose pin a local mixture with a_0 = 0 meets
(`DETERMINISTIC_BEHAVIORS`) is settled at exactly 1 without a solve, and so
is every class at level 1, which leaves P(a | A=0) free under the pin.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleHError, SolverFailure, UnsupportedLevelError
from .protocol import SettingsDistribution
from .solvers import SDPProblem, sdp_solve_batch
# unused here; bench/tracing.py looks these names up in this module to time them
from .solvers import sdp_solve  # noqa: F401
from .solvers.sdp import prune_dependent_constraints  # noqa: F401
from .solvers.sdp import _sym

Symbol = tuple[int, int, int]  # (party, setting, outcome)
Word = tuple[Symbol, ...]

IDENTITY: Word = ()

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


def cell(a: int, b: int, setting_a: int, setting_b: int) -> np.ndarray:
    """The cell table of p(a, b | A, B) alone.

    A linear functional of a behavior is a (2, 2, 2, 2) table `cells` whose
    entry [a, b, A, B] multiplies p(a, b | A, B); a marginal is a sum of
    cells, e.g. P(a | A=0) = sum_b p(a, b | 0, 0).
    """
    cells = np.zeros((2, 2, 2, 2))
    cells[a, b, setting_a, setting_b] = 1.0
    return cells


_S_AB = np.array([[1.0, 1.0], [1.0, -1.0]])  # the CHSH signs s_AB


def chsh_functional(weights: np.ndarray | None = None) -> np.ndarray:
    """CHSH combination sum_AB s_AB * w_AB * C(A, B), s = (+,+,+,-).

    `weights[A, B]` defaults to 1 (the plain CHSH expression, quantum
    maximum 2*sqrt(2)).
    """
    parity = np.array([[1.0, -1.0], [-1.0, 1.0]])  # (-1)^(a+b): C(A, B) over cells [a, b]
    return (_S_AB * (1.0 if weights is None else weights)) * parity[:, :, None, None]


def chsh_quantum_max(weights: np.ndarray) -> float:
    """Quantum maximum of `chsh_functional(weights)`, exact to rounding.

    The functional is sum_xy M_xy C(x, y) with M = s * weights, a
    correlator-only expression, so by Tsirelson's theorem (Cirel'son, Lett.
    Math. Phys. 4, 93, 1980; Wehner, PRA 73, 022110, 2006) its quantum
    maximum is the vector value max sum_xy M_xy u_x . v_y over unit vectors.
    The best v_y is parallel to sum_x M_xy u_x, so with c = u_0 . u_1 the
    value is f(c) = sum_y sqrt(a_y + b_y c), a_y = M_0y^2 + M_1y^2,
    b_y = 2 M_0y M_1y: concave on [-1, 1], so its maximum lies at an end or
    where f'(c) = 0, which squares to one linear equation in c.  Level 1
    of the hierarchy already attains this value.
    """
    m = _S_AB * weights
    a, b = (m ** 2).sum(axis=0), 2.0 * m[0] * m[1]
    cs = [-1.0, 1.0]
    if den := b[0] * b[1] * (b[0] - b[1]):
        cs.append(float(np.clip((b[1] ** 2 * a[0] - b[0] ** 2 * a[1]) / den, -1.0, 1.0)))
    return max(float(np.sqrt(np.maximum(a + b * c, 0.0)).sum()) for c in cs)


# (4, 2, 2) one-party answer tables [strategy (x_0, x_1), outcome, setting]
_ANSWERS = np.array([[[float(x[s] == o) for s in range(2)] for o in range(2)]
                     for x in itertools.product(range(2), repeat=2)])
# (16, 2, 2, 2, 2) cell tables of the local deterministic strategies, in
# `itertools.product` order of (a_0, a_1, b_0, b_1): the strategy answers
# setting A with a_A and setting B with b_B; the first eight have a_0 = 0
DETERMINISTIC_BEHAVIORS = np.einsum("iaA,jbB->ijabAB", _ANSWERS, _ANSWERS).reshape(16, 2, 2, 2, 2)


def _cell_terms(a: int, b: int, setting_a: int, setting_b: int) -> list[tuple[Word, float]]:
    """p(a, b | A, B) as the mean of a product projector, expanded over the
    words A B, A, B and 1 of the outcome-0 projectors (p(1 | .) = 1 - P0)."""
    factors = [[(((party, setting, 0),), 1.0)] if outcome == 0
               else [(IDENTITY, 1.0), (((party, setting, 0),), -1.0)]
               for party, outcome, setting in ((0, a, setting_a), (1, b, setting_b))]
    return [(wa + wb, ca * cb) for wa, ca in factors[0] for wb, cb in factors[1]]


@dataclass
class MomentMatrixLayout:
    """Index structure of the moment matrix at a given level.

    `classes` maps each distinct moment (a word up to adjoint) to the
    upper-triangle entries that carry it, the identity first; `patterns[k]`
    is the symmetric 0/1 matrix F_k of the k-th class, so that the moment
    matrix is Gamma(y) = sum_k y_k F_k.  Entries whose word is zero belong
    to no class.  `class_index` and `monomial_index` give a class key's
    position in y and a monomial's row in Gamma.
    """

    level: int
    monomials: list[Word]
    classes: dict[Word, list[tuple[int, int]]]
    patterns: np.ndarray
    class_index: dict[Word, int]
    monomial_index: dict[Word, int]

    @property
    def dim(self) -> int:
        return len(self.monomials)

    def moment_vector(self, cells: np.ndarray) -> tuple[np.ndarray, float]:
        """(g, c) with sum(cells * p) = c + g @ y over the moment classes.

        Each cell expands into the moments <A_s B_t>, <A_s>, <B_t> and 1
        (`_cell_terms`); each of these words is its own class key at every
        level.
        """
        g = np.zeros(len(self.classes))
        const = 0.0
        for a, b, sa, sb in itertools.product(range(2), repeat=4):
            c = cells[a, b, sa, sb]
            if not c:
                continue
            for word, coeff in _cell_terms(a, b, sa, sb):
                if word == IDENTITY:
                    const += c * coeff
                else:
                    g[self.class_index[word]] += c * coeff
        return g, const


@functools.cache
def get_layout(level: int) -> MomentMatrixLayout:
    basis = monomial_basis(level)
    n = len(basis)
    classes: dict[Word, list[tuple[int, int]]] = {}
    for i in range(n):
        for j in range(i, n):
            w = canonical(adjoint(basis[i]) + basis[j])
            if w is not None:  # a class is keyed by the lesser of w and its adjoint
                classes.setdefault(min(w, canonical(adjoint(w))), []).append((i, j))
    patterns = np.zeros((len(classes), n, n))
    for k, entries in enumerate(classes.values()):
        for i, j in entries:
            patterns[k, i, j] = patterns[k, j, i] = 1.0
    return MomentMatrixLayout(level=level, monomials=basis, classes=classes,
                              patterns=patterns,
                              class_index={key: k for k, key in enumerate(classes)},
                              monomial_index={w: k for k, w in enumerate(basis)})


def _zero_cell_null_vectors(layout: MomentMatrixLayout,
                            equalities: list[tuple[np.ndarray, float]]) -> np.ndarray:
    """Facial-reduction directions implied by cells pinned exactly to zero.

    A behavior cell is the mean of a product projector Pi; Tr(rho Pi) = 0
    forces Pi * sqrt(rho) = 0, so the basis-coefficient vector of Pi is a
    null vector of every compatible moment matrix.  Requires the length-2
    word A_A B_B in the basis, hence level >= 2.
    """
    index = layout.monomial_index
    vectors: list[np.ndarray] = []
    for cells, value in equalities:
        nz = np.argwhere(cells)
        if value != 0.0 or nz.shape[0] != 1:
            continue
        terms = _cell_terms(*(int(t) for t in nz[0]))
        if any(w not in index for w, _ in terms):
            continue  # not expressible at this level
        v = np.zeros(layout.dim)
        for w, c in terms:
            v[index[w]] = c
        vectors.append(v)
    return np.array(vectors).reshape(-1, layout.dim)


@dataclass
class MomentSDP(SDPProblem):
    """A moment relaxation as an LMI in the dual form (D) of `SDPProblem`.

    Over the free moments t the objective equals `offset + b @ t` for a
    maximization and `offset - b @ t` for a minimization, so the solver's
    primal objective <C, X> (the value of the certificate X) turns into the
    bound `offset +- <C, X>`.
    """

    offset: float = 0.0


@dataclass
class MomentTemplate:
    """The part of a relaxation shared by every job with the same equality
    functionals and the same cells pinned to zero (`moment_template`).

    E stacks the identity row, the pins' moment vectors and the zero-cell
    ties; `svd` holds its leading singular triplets (u, s, v'), `free` the
    orthonormal null-space basis N, `face` the basis V of the face left by
    the zero cells (None without any) and `constraints` the stack
    -V'Gamma(N e_j)V, shared by the relaxations of all such jobs.
    """

    layout: MomentMatrixLayout
    consts: np.ndarray
    e_mat: np.ndarray
    svd: tuple[np.ndarray, np.ndarray, np.ndarray]
    free: np.ndarray
    face: np.ndarray | None
    constraints: np.ndarray


def moment_template(level: int,
                    equalities: list[tuple[np.ndarray, float]]) -> MomentTemplate:
    """Build the template of the jobs whose equalities share these functionals
    and these zero-pinned cells (their other values may differ)."""
    layout = get_layout(level)
    patterns = layout.patterns
    n_mom = patterns.shape[0]
    expansions = [layout.moment_vector(cells) for cells, _ in equalities]
    null_vecs = _zero_cell_null_vectors(layout, equalities)
    ties = np.moveaxis(patterns @ null_vecs.T, 0, -1).reshape(-1, n_mom)
    e_mat = np.vstack([[np.eye(1, n_mom)[0]] + [g for g, _ in expansions], ties])
    u, s, vt = np.linalg.svd(e_mat)
    rank = int((s > 1e-10 * s[0]).sum())
    free = vt[rank:].T  # shape (n_mom, m)
    gammas = np.tensordot(free.T, patterns, 1)
    face = None
    if null_vecs.shape[0]:
        _, s_null, vt_null = np.linalg.svd(null_vecs)
        face = vt_null[int((s_null > 1e-12).sum()):].T  # shape (n, n - rank)
        gammas = face.T @ gammas @ face
    return MomentTemplate(layout=layout, consts=np.array([c for _, c in expansions]),
                          e_mat=e_mat, svd=(u[:, :rank], s[:rank], vt[:rank]), free=free,
                          face=face, constraints=-_sym(gammas))


def build_moment_sdp(template: MomentTemplate,
                     values: list[float],
                     objective: np.ndarray,
                     maximize: bool) -> MomentSDP:
    """Assemble the LMI for one bound computation by moment substitution.

    The moment matrix is parameterized by its distinct moments,
    Gamma(y) = sum_k y_k F_k.  The identity moment y_id = 1, the equalities
    pinning the template's functionals to `values` and Gamma(y) v = 0 for
    each null vector v of a cell pinned exactly to zero (Gamma >= 0 and
    v'Gamma v = 0 imply Gamma v = 0) form one linear system E y = e; the
    template's SVD of E solves it as y = y0 + N t with N an orthonormal
    basis of its null space.  Compressed onto V, the orthonormal complement
    of the null vectors, the relaxation reads

        C - sum_j t_j A_j >= 0,  C = V'Gamma(y0)V,  A_j = -V'Gamma(N e_j)V,

    the dual form (D) of `SDPProblem` with b = +-N'g for an objective
    c + g @ y.  Only y0, C, b and the offset depend on the job; the A_j are
    the template's one array.  The F_k have disjoint supports and
    Gamma(N t) = VV'Gamma(N t)VV' on the solution set, so
    t -> V'Gamma(N t)V is injective: the rows are independent by
    construction.  Raises `InfeasibleHError` when E y = e is inconsistent.
    """
    layout, e_mat, free, face = template.layout, template.e_mat, template.free, template.face
    e_rhs = np.concatenate([[1.0], np.subtract(values, template.consts),
                            np.zeros(len(e_mat) - 1 - len(template.consts))])
    u, s, vt = template.svd
    y0 = vt.T @ ((u.T @ e_rhs) / s)
    if np.abs(e_mat @ y0 - e_rhs).max() > 1e-8 * (1.0 + np.abs(e_rhs).max()):
        raise InfeasibleHError("equality constraints are linearly inconsistent")
    gamma0 = np.tensordot(y0, layout.patterns, 1)
    if face is not None:
        gamma0 = face.T @ gamma0 @ face
    g, const = layout.moment_vector(objective)
    sign = 1.0 if maximize else -1.0
    return MomentSDP(c=_sym(gamma0), constraints=template.constraints,
                     b=sign * (free.T @ g), offset=const + float(g @ y0))


Job = tuple[list[tuple[np.ndarray, float]], np.ndarray, str]


def _template_key(equalities: list[tuple[np.ndarray, float]]) -> tuple:
    """What a job's template depends on: the equality functionals and which
    of them pin a value to exactly zero."""
    return tuple((cells.tobytes(), value == 0.0) for cells, value in equalities)


def bound_functionals(level: int, jobs: list[Job]) -> np.ndarray:
    """A (J,) array of bounds for J (equalities, objective, direction) jobs.

    Jobs are grouped by template (`_template_key`): each template is built
    once and its relaxations share one constraint array, whose rows are
    independent by construction (`build_moment_sdp`), as the solver
    requires; per job only y0, C, b and the offset are computed.  All
    relaxations are solved in one `sdp_solve_batch` call (none without
    jobs).  The bound is the offset plus (max) or minus (min) the solver's
    primal objective <C, X>, the value of the dual certificate X of the
    moment problem; X is not checked independently, so a value is a bound
    only up to the accuracy the solve reached.  A solve short of the
    solver's tolerance that reaches `_ACCEPT_TOL` in gap and residuals is
    accepted, a normal outcome where pins meet boundary statistics; beyond
    it `SolverFailure` is raised.  Status `unbounded` (no moment matrix
    meets the equalities) raises `InfeasibleHError`, and so does a max
    below the functional's minimum over all behaviors (or a min above its
    maximum).

    Where the pins leave a relaxation without interior (the noiseless Hardy
    point, the Tsirelson face) the pinned solve stalls short of `optimal`,
    and a direct call returns the accepted bracket as it is: at eta = 1 it
    holds q~ = sqrt(5) - 2 with a width of 2e-4 at level 2 and 1.1e-3 at
    level 3.  The pipeline settles both faces by self-testing and sends no
    job there (`analysis._q_brackets`, `chsh_outcome_guess_bounds`).
    """
    if not jobs:
        return np.empty(0)
    for _, _, direction in jobs:
        if direction not in ("max", "min"):
            raise ValueError("direction must be 'max' or 'min'")
    keys = [_template_key(equalities) for equalities, _, _ in jobs]
    templates: dict[tuple, MomentTemplate] = {}
    for key, (equalities, _, _) in zip(keys, jobs):
        if key not in templates:
            templates[key] = moment_template(level, equalities)
    problems = [build_moment_sdp(templates[key], [value for _, value in equalities],
                                 objective, direction == "max")
                for key, (equalities, objective, direction) in zip(keys, jobs)]
    bounds = np.empty(len(jobs))
    for k, ((_, _, direction), problem, sol) in enumerate(
            zip(jobs, problems, sdp_solve_batch(problems), strict=True)):
        if sol.status == "unbounded":
            raise InfeasibleHError("equality constraints admit no moment matrix")
        if not sol.optimal:
            near = max(sol.gap, sol.primal_residual, sol.dual_residual)
            if not np.isfinite(near) or near > _ACCEPT_TOL:
                raise SolverFailure(
                    f"SDP terminated with status {sol.status} (accuracy {near:.2e})")
        bounds[k] = problem.offset + (1.0 if direction == "max" else -1.0) \
            * float(sol.primal_objective)
    for (_, objective, direction), bound in zip(jobs, bounds):
        # each setting pair puts mass 1 on one of its four cells
        sign, worst = (1.0, objective.min(axis=(0, 1)).sum()) if direction == "max" \
            else (-1.0, objective.max(axis=(0, 1)).sum())
        if sign * (worst - bound) > _ACCEPT_TOL:
            raise InfeasibleHError(
                f"{direction} bound {bound:.6g} lies beyond {worst:.6g}, the functional's "
                "extreme over all behaviors: no behavior meets the equalities")
    return bounds


def bound_functional(level: int,
                     equalities: list[tuple[np.ndarray, float]],
                     objective: np.ndarray,
                     direction: str) -> float:
    """Bound on a functional: the one-job case of `bound_functionals`."""
    return float(bound_functionals(level, [(equalities, objective, direction)])[0])


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

    Theorems settle all but one pinned SDP per branch class:
    - the observed value is checked against each branch's exact quantum
      maximum (`chsh_quantum_max`), up to rounding, and against its
      minimum, the negated maximum (flipping Bob's outcomes negates every
      correlator);
    - mirror branches share one class (`_symmetry_classes`);
    - flipping every outcome of both parties keeps every correlator, so the
      pin, swaps P(0 | A=0) with P(1 | A=0) and maps each level onto itself
      (P -> 1 - P keeps the span of the words of each length), so the
      guess is the pinned max of P(0 | A=0) alone;
    - when the observed value lies between the least and the greatest value
      of the expression over the eight deterministic strategies with
      a_0 = 0, a mixture of two of them meets the pin with P(0 | A=0) = 1;
      it is local, so it lies in every relaxation and the guess is exactly 1;
    - a class with four equal weights is plain CHSH up to scale, and an
      observed value at its quantum maximum (up to the rounding slack of the
      maximum check) self-tests the maximally entangled state with
      anticommuting observables (review: Supic and Bowles, Quantum 4, 337,
      2020), whose marginals are 1/2: the guess is exactly 1/2 at every
      level >= 2, where an interior-point run on that face never converges;
    - level 1 is vacuous for this bound: its moment matrices are the Gram
      matrices of unit vectors for the identity and the four +-1 observables,
      so Alice's setting-0 vector may equal the identity's (P(0 | A=0) = 1)
      while the others reach any value up to the quantum maximum, and every
      guess is 1.
    The remaining classes are solved in one `bound_functionals` call.  Raises
    `InfeasibleHError` when the observed value exceeds a branch's quantum
    maximum, or when a guess falls more than `_ACCEPT_TOL` below 1/2.
    """
    get_layout(level)  # an unsupported level raises even where nothing is solved
    reps, index = _symmetry_classes(branches)
    weights = [4.0 * rep.joint() for rep in reps]
    maxima = [chsh_quantum_max(w) for w in weights]
    for q in maxima:
        if abs(observed_value) > q + 1e-12 * (1.0 + q):
            raise InfeasibleHError(
                f"observed value {observed_value:.9f} lies beyond the quantum maximum "
                f"+-{q:.9f} for this branch weighting")
    guesses = [0.5 if level > 1 and (w == w[0, 0]).all()  # the Tsirelson face
               and abs(observed_value) >= q - 1e-12 * (1.0 + q) else 1.0
               for w, q in zip(weights, maxima)]
    exprs = [chsh_functional(w) for w in weights]
    local = [np.tensordot(DETERMINISTIC_BEHAVIORS[:8], expr, 4) for expr in exprs]
    solve = [] if level == 1 else [k for k, vals in enumerate(local) if guesses[k] == 1.0
                                   and not vals.min() <= observed_value <= vals.max()]
    marg = cell(0, 0, 0, 0) + cell(0, 1, 0, 0)  # P(0 | A=0)
    jobs = [([(exprs[k], observed_value)], marg, "max") for k in solve]
    for k, bound in zip(solve, bound_functionals(level, jobs), strict=True):
        if bound < 0.5 - _ACCEPT_TOL:  # P(0 | A=0) + P(1 | A=0) = 1
            raise InfeasibleHError(f"guess {bound:.6f} lies below 1/2: no behavior "
                                   f"meets the observed value {observed_value:.6f}")
        guesses[k] = min(float(bound), 1.0)
    return [guesses[k] for k in index]


def chsh_outcome_guess_bound(branch: SettingsDistribution,
                             observed_value: float,
                             level: int = 2) -> float:
    """The one-branch case of `chsh_outcome_guess_bounds`."""
    return chsh_outcome_guess_bounds([branch], observed_value, level)[0]

