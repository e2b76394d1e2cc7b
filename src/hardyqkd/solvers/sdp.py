"""Dense primal-dual interior-point solver for small semidefinite programs.

Solves the standard pair

    (P) minimize  <C, X>      subject to  <A_i, X> = b_i,  X >= 0 (PSD)
    (D) maximize  b' y        subject to  sum_i y_i A_i + Z = C,  Z >= 0

with a path-following method using Nesterov-Todd scaling and a Mehrotra
predictor-corrector step.  Everything is dense; the intended regime is
block sizes up to ~30 and up to a few hundred equality constraints, where
forming the Schur complement explicitly is by far the most robust choice.

The search direction solves

    A(dX) = rp,   A*(dy) + dZ = Rd,   dX + W dZ W = sigma*mu*inv(Z) - X - K,

where W is the NT scaling point (W Z W = X) and K is the Mehrotra
second-order correction.  Eliminating dX and dZ yields the Schur system
M dy = rhs with M_ij = <A_i, W A_j W>.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

_SYM_TOL = 1e-12


def _sym(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.T)


def _frob(m: np.ndarray) -> float:
    return float(np.linalg.norm(m))


def _svec(m: np.ndarray) -> np.ndarray:
    """Isometric vectorization of a symmetric matrix (off-diagonals * sqrt2)."""
    n = m.shape[0]
    iu = np.triu_indices(n, 1)
    return np.concatenate([np.diag(m), np.sqrt(2.0) * m[iu]])


@dataclass
class SDPProblem:
    """One PSD block, equality constraints, and an objective sense."""

    c: np.ndarray
    constraints: list[np.ndarray]
    b: np.ndarray
    maximize: bool = False

    def __post_init__(self) -> None:
        self.c = np.asarray(self.c, dtype=float)
        self.constraints = [np.asarray(a, dtype=float) for a in self.constraints]
        self.b = np.asarray(self.b, dtype=float).ravel()
        n = self.c.shape[0]
        if self.c.shape != (n, n):
            raise ValueError("objective matrix must be square")
        if len(self.constraints) != self.b.size:
            raise ValueError("constraint count must match right-hand side")
        for a in [self.c, *self.constraints]:
            if a.shape != (n, n):
                raise ValueError("all matrices must share the block dimension")
            if np.abs(a - a.T).max(initial=0.0) > _SYM_TOL * (1.0 + np.abs(a).max(initial=0.0)):
                raise ValueError("matrices must be symmetric")

    @property
    def dim(self) -> int:
        return self.c.shape[0]


@dataclass
class SDPSolution:
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    primal_objective: float
    dual_objective: float
    gap: float
    primal_residual: float
    dual_residual: float
    status: str  # optimal | infeasible | unbounded | max-iterations | numerical-breakdown
    iterations: int = 0
    history: list[tuple[float, float, float]] = field(default_factory=list, repr=False)

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


def prune_dependent_constraints(constraints: list[np.ndarray], b: np.ndarray,
                                tol: float = 1e-10) -> tuple[list[int], bool]:
    """Return indices of a maximal independent constraint subset.

    The second element is False when a dependent row is inconsistent with
    the retained rows (the problem is then infeasible).
    """
    kept: list[int] = []
    basis: list[np.ndarray] = []
    vecs = [_svec(a) for a in constraints]
    for i, v in enumerate(vecs):
        r = v.copy()
        coeff = np.zeros(len(basis))
        for j, q in enumerate(basis):
            coeff[j] = q @ r
            r -= coeff[j] * q
        nrm = np.linalg.norm(r)
        if nrm > tol * (1.0 + np.linalg.norm(v)):
            basis.append(r / nrm)
            kept.append(i)
        else:
            # dependent row: b_i must match the same combination of kept rows
            if not kept:
                predicted = 0.0
            else:
                sub = np.array([vecs[k] for k in kept]).T
                coef, *_ = np.linalg.lstsq(sub, v, rcond=None)
                predicted = float(coef @ b[kept])
            if abs(b[i] - predicted) > 1e-8 * (1.0 + np.abs(b).max(initial=0.0)):
                return kept, False
    return kept, True


def _step_max(s: np.ndarray, d: np.ndarray) -> float:
    """Largest t >= 0 with s + t*d PSD, for s positive (semi)definite."""
    try:
        length = np.linalg.cholesky(s)
        m = np.linalg.solve(length, d)
        m = np.linalg.solve(length, m.T).T
    except np.linalg.LinAlgError:
        # nearly singular iterate: fall back to a floored eigenbasis
        lam_s, q = np.linalg.eigh(_sym(s))
        floor = max(lam_s.max(), 1.0) * 1e-15
        inv_half = q / np.sqrt(np.clip(lam_s, floor, None))
        m = inv_half.T @ d @ inv_half
    if not np.isfinite(m).all():
        return 0.0
    try:
        lam = np.linalg.eigvalsh(_sym(m)).min()
    except np.linalg.LinAlgError:
        return 0.0
    if lam >= -1e-13:
        return np.inf
    return -1.0 / lam


def _is_pd(s: np.ndarray) -> bool:
    try:
        np.linalg.cholesky(s)
        return True
    except np.linalg.LinAlgError:
        return False


def _nt_scaling(x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """NT point W with W Z W = X, via symmetric square roots."""
    lam, q = np.linalg.eigh(z)
    lam = np.clip(lam, 1e-300, None)
    z_half = (q * np.sqrt(lam)) @ q.T
    z_ihalf = (q / np.sqrt(lam)) @ q.T
    t = _sym(z_half @ x @ z_half)
    mu_t, u = np.linalg.eigh(t)
    mu_t = np.clip(mu_t, 1e-300, None)
    t_half = (u * np.sqrt(mu_t)) @ u.T
    return _sym(z_ihalf @ t_half @ z_ihalf)


def sdp_solve(problem: SDPProblem, tol: float = 1e-8,
              max_iter: int = 200, stall_limit: int = 40) -> SDPSolution:
    """Solve the SDP to the requested relative gap/residual tolerance.

    Linearly dependent constraints are pruned with a warning; inconsistent
    dependent rows give an immediate `infeasible` status.  Divergence of the
    iterates (norms beyond 1e10 with non-shrinking residuals) is reported as
    `infeasible` or `unbounded` depending on which objective is escaping.
    """
    sense = -1.0 if problem.maximize else 1.0
    c = sense * problem.c
    n = problem.dim
    m_all = len(problem.constraints)

    kept, consistent = prune_dependent_constraints(problem.constraints, problem.b)
    if not consistent:
        return SDPSolution(np.zeros((n, n)), np.zeros(m_all), np.zeros((n, n)),
                           np.nan, np.nan, np.nan, np.inf, np.inf, "infeasible")
    if len(kept) < m_all:
        warnings.warn(
            f"pruned {m_all - len(kept)} linearly dependent constraint(s)",
            RuntimeWarning, stacklevel=2)
    a_stack = np.stack([problem.constraints[k] for k in kept]) if kept else \
        np.zeros((0, n, n))
    b = problem.b[np.asarray(kept, dtype=int)] if kept else np.zeros(0)
    m = len(kept)

    def a_op(mat: np.ndarray) -> np.ndarray:
        return np.einsum("kij,ij->k", a_stack, mat, optimize=True) if m else np.zeros(0)

    def at_op(y: np.ndarray) -> np.ndarray:
        return np.einsum("k,kij->ij", y, a_stack, optimize=True) if m else np.zeros((n, n))

    a_norms = np.array([max(1.0, _frob(a)) for a in a_stack]) if m else np.zeros(0)
    xi = max(10.0, np.sqrt(n),
             n * float(np.max((1.0 + np.abs(b)) / (1.0 + a_norms), initial=0.0)))
    eta = max(10.0, np.sqrt(n), _frob(c), float(np.max(a_norms, initial=0.0)))
    x = xi * np.eye(n)
    z = eta * np.eye(n)
    y = np.zeros(m)

    norm_b = 1.0 + np.linalg.norm(b)
    norm_c = 1.0 + _frob(c)
    history: list[tuple[float, float, float]] = []
    status = "max-iterations"
    it = 0

    best_score = np.inf
    best_iterate = (x, y, z)
    stall = 0

    old_err = np.seterr(over="ignore", invalid="ignore")
    for it in range(1, max_iter + 1):
        rp = b - a_op(x)
        rd = c - z - at_op(y)
        mu = float(np.sum(x * z)) / n
        pobj = float(np.sum(c * x))
        dobj = float(b @ y)
        pinf = np.linalg.norm(rp) / norm_b
        dinf = _frob(rd) / norm_c
        relgap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
        history.append((sense * pobj, sense * dobj, mu))
        score = max(pinf, dinf, relgap)
        if score < 0.99 * best_score:
            stall = 0
        else:
            stall += 1
        if score < best_score:
            best_score = score
            best_iterate = (x.copy(), y.copy(), z.copy())

        if pinf <= tol and dinf <= tol and relgap <= tol:
            status = "optimal"
            break
        if stall >= stall_limit:
            break  # no longer making progress; report the best iterate
        # step closer to the boundary once the iterates are nearly converged
        tau_step = 0.99 if score < 1e-4 else 0.98

        scale = max(_frob(x), np.linalg.norm(y) if m else 0.0, _frob(z))
        if scale > 1e10:
            # Divergence: decide which side is escaping.
            if dobj > 1e8 and dinf <= 1e-6:
                status = "infeasible"       # dual ray => primal infeasible
            elif pobj < -1e8 and pinf <= 1e-6:
                status = "unbounded"
            else:
                status = "infeasible" if pinf > dinf else "unbounded"
            break

        try:
            w = _nt_scaling(x, z)
            z_inv = _sym(np.linalg.inv(z))
        except np.linalg.LinAlgError:
            status = "numerical-breakdown"
            break
        if not (np.isfinite(w).all() and np.isfinite(z_inv).all()) \
                or max(np.abs(w).max(), np.abs(z_inv).max()) > 1e14:
            status = "numerical-breakdown"
            break

        wa = np.matmul(np.matmul(w, a_stack), w) if m else a_stack
        schur = np.einsum("kij,lij->kl", a_stack, wa, optimize=True) if m else np.zeros((0, 0))
        # Regularize mildly; the pruning pass guarantees full rank in exact arithmetic.
        if m:
            schur = schur + np.eye(m) * (1e-14 * np.trace(schur) / m + 1e-300)

        w_rd_w = _sym(w @ rd @ w)
        aw_rd = a_op(w_rd_w)
        az_inv = a_op(z_inv)
        ax = a_op(x)

        def direction(sigma_mu: float, k_corr: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
            rhs = rp + ax + a_op(k_corr) + aw_rd - sigma_mu * az_inv
            if m:
                try:
                    dy = np.linalg.solve(schur, rhs)
                    dy = dy + np.linalg.solve(schur, rhs - schur @ dy)
                except np.linalg.LinAlgError:
                    try:
                        dy, *_ = np.linalg.lstsq(schur, rhs, rcond=None)
                    except np.linalg.LinAlgError:
                        return None
            else:
                dy = np.zeros(0)
            dz = rd - at_op(dy)
            dx = _sym(sigma_mu * z_inv - x - k_corr - w @ dz @ w)
            if not (np.isfinite(dx).all() and np.isfinite(dy).all()
                    and np.isfinite(dz).all()):
                return None
            return dx, dy, dz

        def step_pair(d: tuple[np.ndarray, np.ndarray, np.ndarray]) -> tuple[float, float]:
            return (min(1.0, tau_step * _step_max(x, d[0])),
                    min(1.0, tau_step * _step_max(z, d[2])))

        zero = np.zeros((n, n))
        pred = direction(0.0, zero)
        if pred is None:
            status = "numerical-breakdown"
            break
        dx_a, dy_a, dz_a = pred
        alpha_a = min(1.0, _step_max(x, dx_a))
        beta_a = min(1.0, _step_max(z, dz_a))
        mu_aff = float(np.sum((x + alpha_a * dx_a) * (z + beta_a * dz_a))) / n
        sigma = float(np.clip((max(mu_aff, 0.0) / mu) ** 3, 1e-8, 1.0 - 1e-8))

        # Mehrotra corrector, safeguarded: the plain centered direction wins
        # whenever the second-order term spoils the achievable step.
        plain = direction(sigma * mu, zero)
        if plain is None:
            status = "numerical-breakdown"
            break
        k_corr = _sym(dx_a @ dz_a @ z_inv)
        corr = direction(sigma * mu, k_corr)

        def merit(d: tuple[np.ndarray, np.ndarray, np.ndarray]) -> float:
            a_s, b_s = step_pair(d)
            mu_new = float(np.sum((x + a_s * d[0]) * (z + b_s * d[2]))) / n
            return (1.0 - min(a_s, b_s)) * mu + mu_new

        chosen = plain
        if corr is not None and merit(corr) < merit(plain):
            chosen = corr
        dx, dy, dz = chosen

        alpha, beta = step_pair(chosen)
        if min(alpha, beta) < 1e-10:
            status = "numerical-breakdown"
            break
        x_new = _sym(x + alpha * dx)
        z_new = _sym(z + beta * dz)
        shrink = 0
        while (not _is_pd(x_new) or not _is_pd(z_new)) and shrink < 6:
            alpha *= 0.5
            beta *= 0.5
            x_new = _sym(x + alpha * dx)
            z_new = _sym(z + beta * dz)
            shrink += 1
        if shrink >= 6 and (not _is_pd(x_new) or not _is_pd(z_new)):
            status = "numerical-breakdown"
            break
        x = x_new
        y = y + beta * dy
        z = z_new

    np.seterr(**old_err)
    if status != "optimal":
        x, y, z = best_iterate

    y_full = np.zeros(m_all)
    if m:
        y_full[np.asarray(kept, dtype=int)] = sense * y
    rp = b - a_op(x)
    rd = c - z - at_op(y)
    pobj = float(np.sum(c * x))
    dobj = float(b @ y)
    if status in ("max-iterations", "numerical-breakdown"):
        # post-mortem: a primal residual stuck far from zero while the dual
        # side stays clean means no feasible point exists (and vice versa)
        pinf = np.linalg.norm(rp) / norm_b
        dinf = _frob(rd) / norm_c
        if pinf > 1e-3 and dinf < 1e-6:
            status = "infeasible"
        elif dinf > 1e-3 and pinf < 1e-6:
            status = "unbounded"
    return SDPSolution(
        x=x,
        y=y_full,
        z=z,
        primal_objective=sense * pobj,
        dual_objective=sense * dobj,
        gap=abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj)),
        primal_residual=float(np.linalg.norm(rp) / norm_b),
        dual_residual=float(_frob(rd) / norm_c),
        status=status,
        iterations=it,
        history=history,
    )


def verify_sdp_solution(problem: SDPProblem, sol: SDPSolution,
                        tol: float = 1e-6) -> bool:
    """Independent certificate check: residuals and eigenvalue floors.

    Recomputes everything from the raw problem data; does not trust any
    field of the solution except the matrices/vectors themselves.
    """
    if not sol.optimal:
        return False
    sense = -1.0 if problem.maximize else 1.0
    c = sense * problem.c
    x, z = sol.x, sol.z
    y = sense * sol.y
    if np.linalg.eigvalsh(_sym(x)).min() < -1e-8:
        return False
    if np.linalg.eigvalsh(_sym(z)).min() < -1e-8:
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
