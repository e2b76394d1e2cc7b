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

The constraint rows must be linearly independent: the Schur matrix is
then positive definite, and a problem with dependent rows raises
`ValueError` before any problem is iterated.  Moment relaxations built by
substitution meet this by construction.

Problems are solved in stacks: `sdp_solve_batch` iterates all problems of
one block size and row count as (B, n, n) arrays through numpy's stacked
linear algebra.  Each member keeps its own (m, n, n) constraint array,
step lengths, stall counter, best iterate and stop status, and leaves the
stack when it stops.
Every operation acts member by member, so a problem takes the same
iterates alone as in any batch; `sdp_solve` is the one-problem case.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

_SYM_TOL = 1e-12
# work-array budget of one stacked iteration (see `sdp_solve_batch`)
_STACK_BYTES = 1 << 20
_MAX_ITER = 200
# relative gap and residuals at which a solve ends `optimal`
_TOL = 1e-8
# iterations without 1% progress after which a solve stops as `stalled`
_STALL_LIMIT = 40


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


def _check_symmetric(mats: np.ndarray) -> None:
    """Raise unless every matrix of the (..., n, n) stack is symmetric."""
    asym = np.abs(mats - np.swapaxes(mats, -1, -2)).max(axis=(-2, -1), initial=0.0)
    if (asym > _SYM_TOL * (1.0 + np.abs(mats).max(axis=(-2, -1), initial=0.0))).any():
        raise ValueError("matrices must be symmetric")


@dataclass
class SDPProblem:
    """One PSD block and its equality constraints: the pair (P), (D) above.

    The objective and constraint matrices are checked for symmetry here.
    """

    c: np.ndarray
    constraints: np.ndarray  # (m, n, n); a list of (n, n) matrices is stacked
    b: np.ndarray

    def __post_init__(self) -> None:
        self.c = np.asarray(self.c, dtype=float)
        self.b = np.asarray(self.b, dtype=float).ravel()
        n = self.c.shape[0]
        if self.c.shape != (n, n):
            raise ValueError("objective matrix must be square")
        a = np.asarray(self.constraints, dtype=float)
        self.constraints = a.reshape(0, n, n) if a.shape == (0,) else a
        if self.constraints.ndim != 3 or self.constraints.shape[1:] != (n, n):
            raise ValueError("all matrices must share the block dimension")
        if len(self.constraints) != self.b.size:
            raise ValueError("constraint count must match right-hand side")
        _check_symmetric(self.c)
        _check_symmetric(self.constraints)

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
    # `_STALL_LIMIT` iterations) | max-iterations | numerical-breakdown
    status: str
    iterations: int = 0

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


def prune_dependent_constraints(constraints: np.ndarray) -> tuple[list[int], bool]:
    """Check that the constraint rows are linearly independent.

    Raises `ValueError` unless the smallest singular value of the svec'd
    rows exceeds 1e-10 (1 + the largest row norm).  Nothing is pruned: the
    name and the return, every row index and True, are those of the former
    pruning pass, which `bench/tracing.py` times and reads the row count of.
    """
    vecs = _svec(np.asarray(constraints))
    m, d = vecs.shape
    if m and (m > d or np.linalg.svd(vecs, compute_uv=False)[-1]
              <= 1e-10 * (1.0 + np.linalg.norm(vecs, axis=1).max())):
        raise ValueError("constraint rows must be linearly independent")
    return list(range(m)), True


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

    Returns dy and the mask of singular members, whose entries in dy are
    meaningless.
    """
    dy, failed = _guarded(np.linalg.solve, schur, rhs)
    return dy + _guarded(np.linalg.solve, schur, rhs - schur @ dy)[0], failed


class _Stack(SimpleNamespace):
    """Per-member arrays of the problems still iterating, along the first axis.

    ids, c, a (the constraint arrays, shape (L, m, n, n)), b, norm_b,
    norm_c, the iterate x, y, z, chol (Cholesky factors of X and Z, shape
    (L, 2, n, n)), stall, and best_score, best_x, best_y, best_z and
    best_stats ((pobj, dobj, pinf, dinf, relgap)) of the best iterate.
    """

    def take(self, keep: np.ndarray) -> "_Stack":
        return _Stack(**{k: v[keep] for k, v in vars(self).items()})


def _iterate(st: _Stack):
    """Interior-point iterations for a stack of same-shape problems.

    Returns per member the final (or best) iterate, its objectives and
    residuals, the status and the iteration count.
    """
    size, m, n = st.a.shape[:3]
    out_x = np.empty((size, n, n))
    out_y = np.empty((size, m))
    out_z = np.empty((size, n, n))
    out_stats = np.empty((size, 5))
    status = np.full(size, "max-iterations", dtype=object)
    iterations = np.full(size, _MAX_ITER)
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

    for it in range(1, _MAX_ITER + 1):
        live = len(st.ids)
        if not live:
            break
        x, y, z, a = st.x, st.y, st.z, st.a
        a_flat = a.reshape(live, m, n * n)
        rp = st.b - (a_flat @ x.reshape(live, n * n, 1))[..., 0]
        rd = st.c - z - (y[:, None] @ a_flat).reshape(live, n, n)
        mu = np.sum(x * z, axis=(1, 2)) / n
        pobj = np.sum(st.c * x, axis=(1, 2))
        dobj = np.sum(st.b * y, axis=1)
        pinf = np.sqrt(np.sum(rp * rp, axis=1)) / st.norm_b
        dinf = np.sqrt(np.sum(rd * rd, axis=(1, 2))) / st.norm_c
        relgap = np.abs(pobj - dobj) / (1.0 + np.abs(pobj) + np.abs(dobj))
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

        optimal = (pinf <= _TOL) & (dinf <= _TOL) & (relgap <= _TOL)
        stop = optimal | (st.stall >= _STALL_LIMIT)  # a stall reports the best iterate
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
            x, y, z, a = st.x, st.y, st.z, st.a
            a_flat = a.reshape(live, m, n * n)
            rp, rd, mu, score, stats = rp[keep], rd[keep], mu[keep], score[keep], stats[keep]
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
            # Regularize mildly; independent rows give full rank in exact arithmetic.
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
        finish(st, np.full(len(st.ids), "max-iterations", dtype=object), _MAX_ITER, st.best_stats)
    return out_x, out_y, out_z, out_stats, status, iterations


def sdp_solve(problem: SDPProblem) -> SDPSolution:
    """Solve one SDP: the one-problem case of `sdp_solve_batch`."""
    return sdp_solve_batch([problem])[0]


def sdp_solve_batch(problems: list[SDPProblem]) -> list[SDPSolution]:
    """Solve each SDP to the relative gap and residuals `_TOL`.

    Problems sharing the block size and the row count are iterated as one
    stack; the solutions come back in input order, each as it would be from
    a solve on its own.  Every problem's constraint rows are checked for
    linear independence (`prune_dependent_constraints`) before any problem
    is iterated: dependent rows, consistent or not, raise `ValueError`.
    Divergence of the iterates (norms beyond 1e10 with non-shrinking
    residuals) is reported as `infeasible` or `unbounded` depending on
    which objective is escaping.
    """
    groups: dict[tuple[int, int], list[int]] = {}
    for i, p in enumerate(problems):
        prune_dependent_constraints(p.constraints)
        groups.setdefault((p.dim, p.b.size), []).append(i)
    solutions: list[SDPSolution | None] = [None] * len(problems)
    for (n, m), members in groups.items():
        # Stacks are split so that each iteration's work arrays, dominated
        # by U = A W and its transpose (2 m n^2 floats a member), stay near
        # _STACK_BYTES.
        cap = max(1, _STACK_BYTES // (8 * n * n * (2 * m + 40)))
        for chunk in np.array_split(members, -(-len(members) // cap)):
            for i, sol in zip(chunk, _solve_stack([problems[i] for i in chunk], n, m),
                              strict=True):
                solutions[i] = sol
    return solutions  # type: ignore[return-value]


def _solve_stack(problems: list[SDPProblem], n: int, m: int) -> list[SDPSolution]:
    """Stack same-shape problems, iterate, unpack."""
    size = len(problems)
    c = np.stack([p.c for p in problems])
    a = np.stack([p.constraints for p in problems])
    b = np.stack([p.b for p in problems])
    a_norms = np.maximum(1.0, np.linalg.norm(a.reshape(size, m, n * n), axis=2))
    xi = np.maximum(max(10.0, np.sqrt(n)),
                    n * np.max((1.0 + np.abs(b)) / (1.0 + a_norms), axis=1, initial=0.0))
    eta = np.maximum(max(10.0, np.sqrt(n)),
                     np.maximum(_frob(c), np.max(a_norms, axis=1, initial=0.0)))
    x = xi[:, None, None] * np.eye(n)
    z = eta[:, None, None] * np.eye(n)
    y = np.zeros((size, m))
    st = _Stack(ids=np.arange(size), c=c, a=a, b=b,
                norm_b=1.0 + np.linalg.norm(b, axis=1), norm_c=1.0 + _frob(c), x=x, y=y, z=z,
                chol=np.linalg.cholesky(np.stack([x, z], axis=1)),
                stall=np.zeros(size, dtype=int), best_score=np.full(size, np.inf),
                best_x=x.copy(), best_y=y.copy(), best_z=z.copy(),
                best_stats=np.full((size, 5), np.inf))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        x, y, z, stats, status, iterations = _iterate(st)
    pobj, dobj, pinf, dinf, gap = stats.T
    solutions = []
    for k in range(size):
        st_k = status[k]
        if st_k in ("stalled", "max-iterations", "numerical-breakdown"):
            # post-mortem: a primal residual stuck far from zero while the dual
            # side stays clean means no feasible point exists (and vice versa);
            # a dual residual above 1e-5 already marks an empty LMI: moment
            # relaxations pinned just beyond their face stop at 3e-5 or more,
            # accepted solves off the faces at 5e-9 or less
            if pinf[k] > 1e-3 and dinf[k] < 1e-6:
                st_k = "infeasible"
            elif dinf[k] > 1e-5 and pinf[k] < 1e-6:
                st_k = "unbounded"
        solutions.append(SDPSolution(
            x=x[k], y=y[k], z=z[k],
            primal_objective=float(pobj[k]), dual_objective=float(dobj[k]),
            gap=float(gap[k]), primal_residual=float(pinf[k]),
            dual_residual=float(dinf[k]), status=st_k,
            iterations=int(iterations[k])))
    return solutions
