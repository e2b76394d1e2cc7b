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

Problems are solved in stacks: `sdp_solve_batch` iterates all problems of
one block size and row count as (B, n, n) arrays through numpy's stacked
linear algebra.  Each member keeps its own step lengths, stall counter,
best iterate, history and stop status, and leaves the stack when it stops.
Every operation acts member by member, so a problem takes the same
iterates alone as in any batch; `sdp_solve` is the one-problem case.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

_SYM_TOL = 1e-12
# work-array budget of one stacked iteration (see `sdp_solve_batch`)
_STACK_BYTES = 1 << 20


def _sym(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + np.swapaxes(m, -1, -2))


def _frob(m: np.ndarray) -> np.ndarray:
    """Frobenius norms over the last two axes."""
    return np.linalg.norm(m, axis=(-2, -1))


def _svec(m: np.ndarray) -> np.ndarray:
    """Isometric vectorization of symmetric matrices (off-diagonals * sqrt2)."""
    i, j = np.triu_indices(m.shape[-1], 1)
    return np.concatenate([np.diagonal(m, axis1=-2, axis2=-1),
                           np.sqrt(2.0) * m[..., i, j]], axis=-1)


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
    # optimal | infeasible | unbounded | stalled (no 1% progress in
    # `stall_limit` iterations) | max-iterations | numerical-breakdown
    status: str
    iterations: int = 0
    history: list[tuple[float, float, float]] = field(default_factory=list, repr=False)

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


def prune_dependent_constraints(constraints: list[np.ndarray], b: np.ndarray,
                                tol: float = 1e-10) -> tuple[list[int], bool]:
    """Return indices of a maximal independent constraint subset.

    The second element is False when a dependent row is inconsistent with
    the retained rows (the problem is then infeasible).  A stack whose
    smallest singular value clears the threshold keeps every row at once:
    no Gram-Schmidt residual can then fall below it.
    """
    if not constraints:
        return [], True
    vecs = _svec(np.stack(constraints))
    if len(vecs) <= vecs.shape[1]:
        s_min = np.linalg.svd(vecs, compute_uv=False)[-1]
        if s_min > tol * (1.0 + np.linalg.norm(vecs, axis=1).max()):
            return list(range(len(vecs))), True
    kept: list[int] = []
    basis: list[np.ndarray] = []
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
                coef, *_ = np.linalg.lstsq(vecs[kept].T, v, rcond=None)
                predicted = float(coef @ b[kept])
            if abs(b[i] - predicted) > 1e-8 * (1.0 + np.abs(b).max(initial=0.0)):
                return kept, False
    return kept, True


def _guarded(fn, mats: np.ndarray, *args: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`fn(mats, *args)` over a stack, isolating members whose own call raises.

    numpy's stacked linear algebra raises `LinAlgError` for the whole stack
    when one member fails.  The failing members are then found one by one
    and replaced by the identity, so the others are computed exactly as they
    would be alone.  Returns the result and the mask of failed members,
    whose entries in the result are meaningless.
    """
    failed = np.zeros(len(mats), dtype=bool)
    try:
        return fn(mats, *args), failed
    except np.linalg.LinAlgError:
        pass
    for i in range(len(mats)):
        try:
            fn(mats[i:i + 1], *(a[i:i + 1] for a in args))
        except np.linalg.LinAlgError:
            failed[i] = True
    mats = mats.copy()
    mats[failed] = np.eye(mats.shape[-1])
    return fn(mats, *args), failed


def _step_max(g: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Largest t >= 0 with S + t*D PSD, from a whitener G of S (G S G' = I).

    `g` broadcasts against the stack of directions `d`; a non-finite
    whitened direction or a failed eigenvalue solve gives 0.
    """
    m = g @ d @ np.swapaxes(g, -1, -2)
    finite = np.isfinite(m).all(axis=(-2, -1))
    if not finite.all():
        m[~finite] = 0.0
    lam, failed = _guarded(np.linalg.eigvalsh, m.reshape(-1, *m.shape[-2:]))
    lam = lam[:, 0].reshape(finite.shape)  # eigenvalues come in ascending order
    step = np.where(lam >= -1e-13, np.inf, -1.0 / np.minimum(lam, -1e-13))
    step[~finite | failed.reshape(finite.shape)] = 0.0
    return step


def _nt_scaling(chol: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """NT points W with W Z W = X from Cholesky factors (X, Z) = (Lx Lx', Lz Lz').

    With Lx' Z Lx = V S^2 V', W = Lx V S^-1 V' Lx' (Todd, Toh and Tutuncu,
    SIAM J. Optim. 8(3), 1998).  Returns W and the mask of failed
    eigenvalue solves.
    """
    lx = chol[:, 0]
    r = np.swapaxes(chol[:, 1], -1, -2) @ lx
    (s2, v), failed = _guarded(np.linalg.eigh, np.swapaxes(r, -1, -2) @ r)
    g = lx @ (v / np.sqrt(np.sqrt(s2))[:, None, :])
    return _sym(g @ np.swapaxes(g, -1, -2)), failed


def _schur_solve(schur: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve M dy = rhs for each column of `rhs` (L, m, k), refined once.

    A singular member falls back to least squares; the mask marks members
    where that fails too.
    """
    dy, failed = _guarded(np.linalg.solve, schur, rhs)
    dy = dy + _guarded(np.linalg.solve, schur, rhs - schur @ dy)[0]
    for i in np.flatnonzero(failed):
        try:
            dy[i] = np.linalg.lstsq(schur[i], rhs[i], rcond=None)[0]
            failed[i] = False
        except np.linalg.LinAlgError:
            dy[i] = 0.0
    return dy, failed


class _Stack(SimpleNamespace):
    """Per-member arrays of the problems still iterating, along the first axis.

    ids, sense, c, a_index (which distinct constraint stack), b, norm_b,
    norm_c, the iterate x, y, z, chol (Cholesky factors of X and Z, shape
    (L, 2, n, n)), stall, and best_score, best_x, best_y, best_z and
    best_stats ((pobj, dobj, pinf, dinf, relgap)) of the best iterate.
    """

    def take(self, keep: np.ndarray) -> "_Stack":
        return _Stack(**{k: v[keep] for k, v in vars(self).items()})


def _iterate(st: _Stack, shared: np.ndarray, tol: float, max_iter: int, stall_limit: int):
    """Interior-point iterations for a stack of same-shape problems.

    `shared` holds the distinct constraint stacks (U, m, n, n).  Returns per
    member the final (or best) iterate, its objectives and residuals, the
    status, iteration count and history.
    """
    size = len(st.ids)
    m, n = shared.shape[1:3]
    out_x = np.empty((size, n, n))
    out_y = np.empty((size, m))
    out_z = np.empty((size, n, n))
    out_stats = np.empty((size, 5))
    status = np.full(size, "max-iterations", dtype=object)
    iterations = np.full(size, max_iter)
    history: list[list[tuple[float, float, float]]] = [[] for _ in range(size)]
    eye = np.eye(n)

    def finish(st: _Stack, stop: np.ndarray, it: int, stats: np.ndarray) -> _Stack:
        """Record the members with a nonempty stop status; drop them."""
        done = stop != ""
        ids = st.ids[done]
        status[ids] = stop[done]
        iterations[ids] = it
        opt = (stop[done] == "optimal")
        out_x[ids] = np.where(opt[:, None, None], st.x[done], st.best_x[done])
        out_y[ids] = np.where(opt[:, None], st.y[done], st.best_y[done])
        out_z[ids] = np.where(opt[:, None, None], st.z[done], st.best_z[done])
        out_stats[ids] = np.where(opt[:, None], stats[done], st.best_stats[done])
        return st.take(~done)

    for it in range(1, max_iter + 1):
        live = len(st.ids)
        if not live:
            break
        x, y, z = st.x, st.y, st.z
        # a single shared stack broadcasts against the members
        a = shared if len(shared) == 1 else shared[st.a_index]
        a_flat = a.reshape(len(a), m, n * n)
        rp = st.b - (a_flat @ x.reshape(live, n * n, 1))[..., 0]
        rd = st.c - z - (y[:, None] @ a_flat).reshape(live, n, n)
        mu = np.sum(x * z, axis=(1, 2)) / n
        pobj = np.sum(st.c * x, axis=(1, 2))
        dobj = np.sum(st.b * y, axis=1)
        pinf = np.sqrt(np.sum(rp * rp, axis=1)) / st.norm_b
        dinf = np.sqrt(np.sum(rd * rd, axis=(1, 2))) / st.norm_c
        relgap = np.abs(pobj - dobj) / (1.0 + np.abs(pobj) + np.abs(dobj))
        for i, rec in zip(st.ids.tolist(), zip((st.sense * pobj).tolist(),
                                               (st.sense * dobj).tolist(), mu.tolist())):
            history[i].append(rec)
        stats = np.stack([pobj, dobj, pinf, dinf, relgap], axis=1)
        score = np.maximum(np.maximum(pinf, dinf), relgap)
        st.stall = np.where(score < 0.99 * st.best_score, 0, st.stall + 1)
        better = score < st.best_score
        if better.any():
            st.best_score[better] = score[better]
            st.best_x[better] = x[better]
            st.best_y[better] = y[better]
            st.best_z[better] = z[better]
            st.best_stats[better] = stats[better]

        optimal = (pinf <= tol) & (dinf <= tol) & (relgap <= tol)
        stop = optimal | (st.stall >= stall_limit)  # a stall reports the best iterate
        diverged = ~stop & ((np.sum(x * x, axis=(1, 2)) > 1e20) | (np.sum(y * y, axis=1) > 1e20)
                            | (np.sum(z * z, axis=(1, 2)) > 1e20))
        if stop.any() or diverged.any():
            # Divergence: a dual ray means primal infeasibility, and vice versa.
            ray_d = (dobj > 1e8) & (dinf <= 1e-6)
            ray_p = (pobj < -1e8) & (pinf <= 1e-6)
            infeasible = ray_d | (~ray_p & (pinf > dinf))
            keep = ~(stop | diverged)
            st = finish(st, np.select([optimal, stop, diverged & infeasible, diverged],
                                      ["optimal", "stalled", "infeasible", "unbounded"], ""),
                        it, stats)
            live = len(st.ids)
            if not live:
                break
            x, y, z = st.x, st.y, st.z
            rp, rd, mu, score, stats = rp[keep], rd[keep], mu[keep], score[keep], stats[keep]
            if len(shared) > 1:
                a, a_flat = a[keep], a_flat[keep]
        # step closer to the boundary once the iterates are nearly converged
        tau = np.where(score < 1e-4, 0.99, 0.98)

        # Whiteners G = L^-1 (G S G' = I) of X and Z from the Cholesky
        # factors kept since the iterate was accepted: they serve every
        # step-length test below, and Z^-1 = Gz' Gz.  A member that breaks
        # down keeps iterating on safe stand-in values (identity scaling,
        # zero directions) until the end of this iteration, where it leaves
        # the stack with its best iterate.
        whiten, broken = _guarded(np.linalg.inv, st.chol.reshape(-1, n, n))
        whiten = whiten.reshape(live, 2, n, n)
        broken = broken.reshape(live, 2).any(axis=1)
        z_inv = _sym(np.swapaxes(whiten[:, 1], -1, -2) @ whiten[:, 1])
        w, failed = _nt_scaling(st.chol)
        # non-finite (NaN compares false) or huge scalings
        broken |= failed | ~(np.abs(w).max(axis=(1, 2)) <= 1e14) \
            | ~(np.abs(z_inv).max(axis=(1, 2)) <= 1e14)
        if broken.any():
            w[broken] = eye
            z_inv[broken] = eye
        whiten = whiten[:, :, None]

        # M_ij = <A_i, W A_j W> = vec(U_i) . vec(U_j') with U = A W
        u = a @ w[:, None]
        schur = u.reshape(live, m, n * n) @ np.swapaxes(
            np.swapaxes(u, -1, -2).reshape(live, m, n * n), 1, 2)
        if m:
            # Regularize mildly; the pruning pass guarantees full rank in exact arithmetic.
            trace = np.trace(schur, axis1=1, axis2=2)
            schur = schur + np.eye(m) * (1e-14 * trace / m + 1e-300)[:, None, None]
        # <A_i, M> sees only the symmetric part of M
        ax, aw_rd, az_inv = np.moveaxis(a_flat @ np.stack(
            [x.reshape(live, -1), (w @ rd @ w).reshape(live, -1), z_inv.reshape(live, -1)],
            axis=2), 2, 0)

        def directions(rhs: np.ndarray, sigma_mu: np.ndarray, k_corr):
            """(dx, dy, dz, failed) for each column of `rhs` (L, m, k)."""
            if m:
                dy, failed = _schur_solve(schur, rhs)
            else:
                dy, failed = np.zeros_like(rhs), np.zeros(live, dtype=bool)
            dy = np.swapaxes(dy, 1, 2)
            dz = rd[:, None] - (dy @ a_flat).reshape(live, -1, n, n)
            dx = _sym(sigma_mu[:, None, None, None] * z_inv[:, None] - x[:, None]
                      - k_corr - w[:, None] @ dz @ w[:, None])
            bad = failed[:, None] | ~(np.isfinite(dx).all(axis=(2, 3))
                                      & np.isfinite(dy).all(axis=2)
                                      & np.isfinite(dz).all(axis=(2, 3)))
            if bad.any():
                dx[bad], dy[bad], dz[bad] = 0.0, 0.0, 0.0
            return dx, dy, dz, bad

        base = rp + ax + aw_rd
        dx_a, _, dz_a, bad = directions(base[:, :, None], np.zeros(live), 0.0)
        broken |= bad[:, 0]
        steps = np.minimum(1.0, _step_max(whiten, np.stack([dx_a, dz_a], axis=1)))
        mu_aff = np.sum((x[:, None] + steps[:, 0, :, None, None] * dx_a)
                        * (z[:, None] + steps[:, 1, :, None, None] * dz_a), axis=(1, 2, 3)) / n
        sigma = np.clip((np.maximum(mu_aff, 0.0) / mu) ** 3, 1e-8, 1.0 - 1e-8)

        # Mehrotra corrector, safeguarded: the plain centered direction wins
        # whenever the second-order term spoils the achievable step.
        k_corr = dx_a[:, 0] @ dz_a[:, 0] @ z_inv
        plain_rhs = base - (sigma * mu)[:, None] * az_inv
        corr_rhs = plain_rhs + (a_flat @ k_corr.reshape(live, n * n, 1))[..., 0]
        dx, dy, dz, bad = directions(np.stack([plain_rhs, corr_rhs], axis=2), sigma * mu,
                                     np.stack([np.zeros_like(k_corr), k_corr], axis=1))
        broken |= bad[:, 0]

        # step lengths (L, X|Z, plain|corrector), reused for the chosen one
        pair = np.minimum(1.0, tau[:, None, None] * _step_max(whiten, np.stack([dx, dz], axis=1)))
        mu_new = np.sum((x[:, None] + pair[:, 0, :, None, None] * dx)
                        * (z[:, None] + pair[:, 1, :, None, None] * dz), axis=(2, 3)) / n
        merit = (1.0 - pair.min(axis=1)) * mu[:, None] + mu_new
        pick = (~bad[:, 1] & (merit[:, 1] < merit[:, 0])).astype(int)
        rows = np.arange(live)
        dy = dy[rows, pick]
        move = np.stack([dx[rows, pick], dz[rows, pick]], axis=1)
        step = pair[rows, :, pick]
        broken |= step.min(axis=1) < 1e-10
        step[broken] = 0.0

        # halve both steps until X and Z are positive definite (six times
        # at most); the factors serve as the next iteration's whiteners
        cur = np.stack([x, z], axis=1)
        new = cur + step[:, :, None, None] * move
        chol, failed = _guarded(np.linalg.cholesky, new.reshape(-1, n, n))
        chol = chol.reshape(new.shape)
        pending = failed.reshape(live, 2).any(axis=1)
        for _ in range(6):
            if not pending.any():
                break
            step[pending] *= 0.5
            new[pending] = cur[pending] + step[pending][:, :, None, None] * move[pending]
            retry, failed = _guarded(np.linalg.cholesky, new[pending].reshape(-1, n, n))
            chol[pending] = retry.reshape(-1, 2, n, n)
            pending[pending] = failed.reshape(-1, 2).any(axis=1)
        broken |= pending

        st.x, st.z = new[:, 0], new[:, 1]
        st.y = y + step[:, 1, None] * dy
        st.chol = chol
        if broken.any():
            st = finish(st, np.where(broken, "numerical-breakdown", ""), it, stats)

    if len(st.ids):
        finish(st, np.full(len(st.ids), "max-iterations", dtype=object), max_iter, st.best_stats)
    return out_x, out_y, out_z, out_stats, status, iterations, history


def sdp_solve(problem: SDPProblem, tol: float = 1e-8,
              max_iter: int = 200, stall_limit: int = 40) -> SDPSolution:
    """Solve one SDP: the one-problem case of `sdp_solve_batch`."""
    return sdp_solve_batch([problem], tol, max_iter, stall_limit)[0]


def sdp_solve_batch(problems: list[SDPProblem], tol: float = 1e-8,
                    max_iter: int = 200, stall_limit: int = 40) -> list[SDPSolution]:
    """Solve each SDP to the requested relative gap/residual tolerance.

    Problems sharing the block size and the row count left after pruning
    are iterated as one stack; the solutions come back in input order, each
    as it would be from a solve on its own.  Linearly dependent constraints
    are pruned with a warning; inconsistent dependent rows give an immediate
    `infeasible` status.  Divergence of the iterates (norms beyond 1e10 with
    non-shrinking residuals) is reported as `infeasible` or `unbounded`
    depending on which objective is escaping.
    """
    solutions: list[SDPSolution | None] = [None] * len(problems)
    groups: dict[tuple[int, int], list[tuple[int, list[int]]]] = {}
    for i, p in enumerate(problems):
        kept, consistent = prune_dependent_constraints(p.constraints, p.b)
        if not consistent:
            n = p.dim
            solutions[i] = SDPSolution(np.zeros((n, n)), np.zeros(p.b.size), np.zeros((n, n)),
                                       np.nan, np.nan, np.nan, np.inf, np.inf, "infeasible")
            continue
        if len(kept) < len(p.constraints):
            warnings.warn(
                f"pruned {len(p.constraints) - len(kept)} linearly dependent constraint(s)",
                RuntimeWarning, stacklevel=2)
        groups.setdefault((p.dim, len(kept)), []).append((i, kept))
    for (n, m), members in groups.items():
        # Stacks are split so that each iteration's work arrays, dominated
        # by U = A W and its transpose (2 m n^2 floats a member), stay near
        # _STACK_BYTES.
        cap = max(1, _STACK_BYTES // (8 * n * n * (2 * m + 40)))
        for chunk in np.array_split(np.arange(len(members)), -(-len(members) // cap)):
            part = [members[k] for k in chunk]
            for (i, _), sol in zip(part, _solve_stack(
                    [(problems[i], kept) for i, kept in part], n, m,
                    tol, max_iter, stall_limit), strict=True):
                solutions[i] = sol
    return solutions  # type: ignore[return-value]


def _solve_stack(members: list[tuple[SDPProblem, list[int]]], n: int, m: int,
                 tol: float, max_iter: int, stall_limit: int) -> list[SDPSolution]:
    """Stack same-shape problems (kept rows only), iterate, unpack."""
    size = len(members)
    sense = np.array([-1.0 if p.maximize else 1.0 for p, _ in members])
    c = sense[:, None, None] * np.stack([p.c for p, _ in members])
    b = np.zeros((size, m))
    # Problems may share one list of constraint matrices (the relaxations
    # of one template do); each shared list is stacked once.
    distinct: dict[int, int] = {}
    shared, a_index = [], np.zeros(size, dtype=int)
    for k, (p, kept) in enumerate(members):
        b[k] = p.b[kept]
        a_index[k] = distinct.setdefault(id(p.constraints), len(shared))
        if a_index[k] == len(shared):
            shared.append(np.stack([p.constraints[i] for i in kept]) if m
                          else np.zeros((0, n, n)))
    shared_flat = np.stack(shared).reshape(len(shared), m, n * n)
    a_norms = np.maximum(1.0, np.linalg.norm(shared_flat, axis=2))[a_index]
    xi = np.maximum(max(10.0, np.sqrt(n)),
                    n * np.max((1.0 + np.abs(b)) / (1.0 + a_norms), axis=1, initial=0.0))
    eta = np.maximum(max(10.0, np.sqrt(n)),
                     np.maximum(_frob(c), np.max(a_norms, axis=1, initial=0.0)))
    x = xi[:, None, None] * np.eye(n)
    z = eta[:, None, None] * np.eye(n)
    y = np.zeros((size, m))
    st = _Stack(ids=np.arange(size), sense=sense, c=c, a_index=a_index, b=b,
                norm_b=1.0 + np.linalg.norm(b, axis=1), norm_c=1.0 + _frob(c), x=x, y=y, z=z,
                chol=np.linalg.cholesky(np.stack([x, z], axis=1)),
                stall=np.zeros(size, dtype=int), best_score=np.full(size, np.inf),
                best_x=x.copy(), best_y=y.copy(), best_z=z.copy(),
                best_stats=np.full((size, 5), np.inf))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        x, y, z, stats, status, iterations, history = _iterate(
            st, shared_flat.reshape(len(shared), m, n, n), tol, max_iter, stall_limit)
    pobj, dobj, pinf, dinf, gap = stats.T
    solutions = []
    for k, (p, kept) in enumerate(members):
        st_k = status[k]
        if st_k in ("stalled", "max-iterations", "numerical-breakdown"):
            # post-mortem: a primal residual stuck far from zero while the dual
            # side stays clean means no feasible point exists (and vice versa)
            if pinf[k] > 1e-3 and dinf[k] < 1e-6:
                st_k = "infeasible"
            elif dinf[k] > 1e-3 and pinf[k] < 1e-6:
                st_k = "unbounded"
        y_full = np.zeros(p.b.size)
        y_full[kept] = sense[k] * y[k]
        solutions.append(SDPSolution(
            x=x[k], y=y_full, z=z[k],
            primal_objective=float(sense[k] * pobj[k]),
            dual_objective=float(sense[k] * dobj[k]),
            gap=float(gap[k]), primal_residual=float(pinf[k]),
            dual_residual=float(dinf[k]), status=st_k,
            iterations=int(iterations[k]), history=history[k]))
    return solutions


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
