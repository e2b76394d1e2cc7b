"""Independent checks that only the tests use.

Each function recomputes a quantity from raw data (problem matrices, an
explicit realization, a report's fields) without going through the code
path under test.
"""

import numpy as np

from hardyqkd import npa
from hardyqkd.analysis import KeyRates
from hardyqkd.solvers import LPProblem, LPSolution, SDPProblem, SDPSolution


def verify_sdp_solution(problem: SDPProblem, sol: SDPSolution,
                        tol: float = 1e-6) -> bool:
    """Certificate check of min <C, X>: residuals and eigenvalue floors.

    Recomputes everything from the raw problem data; does not trust any
    field of the solution except the matrices/vectors themselves.
    """
    if not sol.optimal:
        return False
    c, x, y, z = problem.c, sol.x, sol.y, sol.z
    for m in (x, z):
        if np.linalg.eigvalsh(0.5 * (m + m.T)).min() < -1e-8:
            return False
    rp = problem.b - np.array([float(np.sum(a * x)) for a in problem.constraints])
    rd = c - z - sum(yi * a for yi, a in zip(y, problem.constraints, strict=True))
    if np.linalg.norm(rp, ord=np.inf) > tol * (1.0 + np.abs(problem.b).max(initial=0.0)):
        return False
    if np.abs(rd).max() > tol * (1.0 + np.abs(c).max()):
        return False
    pobj = float(np.sum(c * x))
    dobj = float(problem.b @ y)
    return abs(pobj - dobj) <= 100 * tol * (1.0 + abs(pobj) + abs(dobj))


def verify_lp_solution(problem: LPProblem, sol: LPSolution,
                       tol: float = 1e-9) -> bool:
    """Re-check feasibility of a claimed optimal solution from scratch."""
    if not sol.optimal:
        return False
    x = sol.x
    if (x < -1e-12).any():
        return False
    if np.linalg.norm(problem.a_eq @ x - problem.b_eq, ord=np.inf) > tol * (1 + np.abs(problem.b_eq).max(initial=0.0)):
        return False
    return abs(float(problem.c @ x) - sol.value) <= 1e-9 * (1 + abs(sol.value))


def realization_moment_matrix(rho: np.ndarray, bases, level: int) -> np.ndarray:
    """Real part of the moment matrix of an explicit two-qubit realization.

    For any state and projective measurements this matrix is PSD and
    satisfies every entry identification of the layout.
    """
    basis = npa.get_layout(level).monomials

    def word_operator(word) -> np.ndarray:
        op_a = np.eye(2, dtype=complex)
        op_b = np.eye(2, dtype=complex)
        for party, setting in word:
            p = bases.projectors[party, setting, 0]  # words use outcome-0 projectors
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


def born_behavior_loop(rho: np.ndarray, bases) -> np.ndarray:
    """Born-rule table p[a, b, A, B] cell by cell: Tr[(Pi_A x Pi_B) rho]."""
    rho = np.asarray(rho, dtype=complex)
    p = np.zeros((2, 2, 2, 2))
    for sa in range(2):
        for sb in range(2):
            for a in range(2):
                for b in range(2):
                    op = np.kron(bases.projectors[0, sa, a],
                                 bases.projectors[1, sb, b])
                    p[a, b, sa, sb] = float(np.trace(op @ rho).real)
    return np.clip(p, 0.0, 1.0)


def noisy_state(eta: float, psi: np.ndarray) -> np.ndarray:
    """Isotropic mixture (1 - eta) I/4 + eta |psi><psi|."""
    psi = np.asarray(psi, dtype=complex).ravel()
    return (1.0 - eta) * np.eye(4) / 4.0 + eta * np.outer(psi, psi.conj())


def nu_functional(dist) -> np.ndarray:
    """nu = P(0,0|1,0) P(A=1,B=0) + P(0,0|1,1) P(A=1,B=1) as a cell table."""
    joint = dist.joint()
    cells = np.zeros((2, 2, 2, 2))
    cells[0, 0, 1, 0] = joint[1, 0]
    cells[0, 0, 1, 1] = joint[1, 1]
    return cells


def sigma_from_h(h, dist) -> float:
    """sigma = h1 P(A=0,B=0) + h3 P(A=0,B=1) at one h row; fixed by h for
    the Hardy test."""
    joint = dist.joint()
    return h[0] * joint[0, 0] + h[2] * joint[0, 1]


def gamma_point(h, q_bracket, dist) -> tuple[float, float]:
    """(gamma0, gamma1) at one h row from its [q_min, q_max], point by point:
    sigma / (sigma + nu_min) and nu_max / (sigma + nu_max) with
    nu = P(A=1,B=0) h2 + P(A=1,B=1) q, and the vacuous values where sigma
    (and nu_max) are at most 1e-7."""
    p10, p11 = dist.joint()[1].tolist()
    lo, hi = (p10 * h[1] + p11 * q for q in q_bracket)
    nu_min = max(0.0, lo)
    nu_max = max(nu_min, hi)
    s = sigma_from_h(h, dist)
    if s <= 1e-7 and nu_max <= 1e-7:
        return (1.0, 1.0)  # sifting never happens: vacuous conditioning
    if s <= 1e-7:
        return (0.0, 1.0)
    return (min(s / (s + nu_min), 1.0), min(nu_max / (s + nu_max), 1.0))


def deterministic_behaviors() -> np.ndarray:
    """(16, 2, 2, 2, 2) behaviors of the local deterministic strategies, in
    the order of (a_0, a_1) then (b_0, b_1), each over {0, 1}: the strategy
    answers setting A with a_A and setting B with b_B."""
    tables = np.zeros((16, 2, 2, 2, 2))
    for k in range(16):
        alice, bob = divmod(k, 4)
        for sa in range(2):
            for sb in range(2):
                tables[k, (alice >> (1 - sa)) & 1, (bob >> (1 - sb)) & 1, sa, sb] = 1.0
    return tables


def evaluate(cells: np.ndarray, behavior) -> float:
    """Value of a cell-table functional on an explicit behavior."""
    return float(np.sum(cells * behavior.p))


HERM_TOL = 1e-12
NORM_TOL = 1e-12
PSD_TOL = -1e-10
BEHAVIOR_TOL = 1e-10


def is_hermitian(m: np.ndarray, tol: float = HERM_TOL) -> bool:
    m = np.asarray(m)
    return bool(np.abs(m - m.conj().T).max(initial=0.0) <= tol)


def is_projector(m: np.ndarray, tol: float = HERM_TOL) -> bool:
    m = np.asarray(m)
    return is_hermitian(m, tol) and bool(np.abs(m @ m - m).max() <= tol)


def check_density_matrix(rho: np.ndarray) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    if not is_hermitian(rho):
        raise ValueError("density matrix must be Hermitian")
    if abs(np.trace(rho).real - 1.0) > NORM_TOL:
        raise ValueError("density matrix must have unit trace")
    if np.linalg.eigvalsh(rho).min() < PSD_TOL:
        raise ValueError("density matrix must be positive semidefinite")
    return rho


def validate_measurements(bases) -> None:
    """Each setting's outcome operators are projectors summing to identity."""
    for p in range(2):
        for s in range(2):
            p0, p1 = bases.projectors[p, s]
            if not (is_projector(p0) and is_projector(p1)):
                raise ValueError("measurement operators must be projectors")
            if np.abs(p0 + p1 - np.eye(2)).max() > HERM_TOL:
                raise ValueError("outcome projectors must sum to identity")


def validate_behavior(behavior, tol: float = BEHAVIOR_TOL) -> None:
    """Cells in [0, 1], each setting pair normalized, no signaling."""
    p = behavior.p
    if (p < -tol).any() or (p > 1.0 + tol).any():
        raise ValueError("cell probabilities must lie in [0, 1]")
    totals = p.sum(axis=(0, 1))
    if np.abs(totals - 1.0).max() > tol:
        raise ValueError("each setting pair must be normalized")
    marg_a = p.sum(axis=1)  # [a, A, B]
    if np.abs(marg_a[:, :, 0] - marg_a[:, :, 1]).max() > tol:
        raise ValueError("signaling from Bob to Alice")
    marg_b = p.sum(axis=0)  # [b, A, B]
    if np.abs(marg_b[:, 0, :] - marg_b[:, 1, :]).max() > tol:
        raise ValueError("signaling from Alice to Bob")


def joint_settings_given_00(behavior, dist) -> np.ndarray:
    """P(A, B | a=0, b=0) of one behavior, as a (2, 2) table."""
    joint = behavior.p[0, 0] * dist.joint()  # [A, B]
    total = joint.sum()
    if total <= 0.0:
        raise ValueError("P(a=0, b=0) vanishes for this setup")
    return joint / total


def _entropy(p: np.ndarray) -> float:
    p = p[p > 0]
    return float(-(p * np.log2(p)).sum())


def conditional_entropy(behavior, dist, dropping: bool = False) -> float:
    """H(A|B) of the settings joint of one behavior conditioned on both
    outcomes being 0; with `dropping`, after Alice's majority setting value
    is removed at random down to her minority value."""
    joint = joint_settings_given_00(behavior, dist)
    if dropping:
        pa = joint.sum(axis=1)
        joint = joint * (pa.min() / pa)[:, None]
        joint = joint / joint.sum()
    return _entropy(joint.ravel()) - _entropy(joint.sum(axis=0))


def key_rate_rows(behavior, dist, guess) -> dict[str, np.ndarray]:
    """p00, priors, hab, the clamped key rates and where they were clamped,
    for one behavior, given the guesses (Pguess1, Pguess2) of its two
    strategies."""
    joint = joint_settings_given_00(behavior, dist)
    p00 = float((behavior.p[0, 0] * dist.joint()).sum())
    priors = joint.sum(axis=1)
    hab = [conditional_entropy(behavior, dist, dropping) for dropping in (False, True)]
    raw = [float(p00 * factor * (-np.log2(g) - h)) for factor, g, h in
           zip((1.0, 2.0 * priors.min()), guess, hab, strict=True)]
    return {"p00": p00, "priors": priors, "hab": np.array(hab),
            "key_rate": np.array([max(0.0, r) for r in raw]),
            "clamped": np.array([r < 0.0 for r in raw])}


def recompute_key_rate(rates: KeyRates) -> np.ndarray:
    """The (N, 2) clamped key rates from a table's own columns."""
    factor = np.stack([np.ones(len(rates.etas)), 2.0 * rates.priors.min(axis=1)], axis=1)
    raw = rates.p00[:, None] * factor * (-np.log2(rates.guess) - rates.hab)
    return np.maximum(raw, 0.0)
