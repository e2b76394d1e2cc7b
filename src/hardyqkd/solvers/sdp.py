"""Dense primal-dual interior-point solver for small semidefinite programs.

Solves the standard pair

    (P) minimize  <C, X>      subject to  <A_i, X> = b_i,  X >= 0 (PSD)
    (D) maximize  b' y        subject to  sum_i y_i A_i + Z = C,  Z >= 0

with a path-following method using Nesterov-Todd scaling and a Mehrotra
predictor-corrector step.  Each step goes the fraction 0.9 + 0.09 min(a_p, a_d)
of the way to the PSD boundary, a_p and a_d being the member's last accepted
step lengths (0.9 at first): the iterates stay off the boundary until long
steps show they can go closer (Toh, Todd and Tutuncu, Optim. Methods Softw.
11, 545, 1999).  Everything is dense; the intended regime is
block sizes up to ~30 and up to a few hundred equality constraints, where
forming the Schur complement explicitly is by far the most robust choice.

The search direction solves

    A(dX) = rp,   A*(dy) + dZ = Rd,   dX + W dZ W = sigma*mu*inv(Z) - X - K,

where W is the NT scaling point (W Z W = X) and K is the Mehrotra
second-order correction.  Eliminating dX and dZ yields the Schur system
M dy = rhs with M_ij = <A_i, W A_j W>, solved as it stands (`_schur_solve`).

The constraint rows must be linearly independent: the Schur matrix is
then positive definite, and a problem with dependent rows raises
`ValueError` before any problem is iterated.  Moment relaxations built by
substitution meet this by construction.

Problems are solved in stacks: `sdp_solve_batch` iterates the problems of
one block size and row count together through numpy's stacked linear
algebra.  X and Z of the L members travel as one (L, 2, n, n) iterate
beside its Cholesky factors, and each set of search directions as one
(L, k, 2, n, n) array, so that a stacked iteration makes few array passes.
Each member keeps its own (m, n, n) constraint array, step lengths, stall
counter, best iterate and stop status, and leaves the stack when it stops.
Every operation acts member by member, in the same order of floating-point
operations whatever the stack, so a member's iterates do not depend on its
stack: a problem takes bit-for-bit the same iterates alone as in any batch,
and `sdp_solve` is the one-problem case.

A solve reports its best iterate and its stop reason, nothing more:
`infeasible` and `unbounded` come only from a diverging ray, and what a
stop short of `_TOL` means for the problem at hand the caller judges.
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
    return 0.5 * (m + m.swapaxes(-1, -2))


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
    # optimal | infeasible | unbounded (both only from a diverging ray) |
    # stalled (no 1% progress in `_STALL_LIMIT` iterations, the one
    # no-progress stop) | numerical-breakdown (a LAPACK call failed or a
    # direction went non-finite) | max-iterations; every stop reports the
    # best iterate
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

    `g` broadcasts against the stack of directions `d`, and the steps come
    in their stack shape; a non-finite whitened direction or a failed
    eigenvalue solve gives 0.
    """
    m = g @ d @ g.swapaxes(-1, -2)
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
    r = chol[:, 1].swapaxes(-1, -2) @ lx
    (s2, v), failed = _guarded(np.linalg.eigh, r.swapaxes(-1, -2) @ r)
    g = lx @ (v / np.sqrt(np.sqrt(s2))[:, None, :])
    return _sym(g @ g.swapaxes(-1, -2)), failed


def _schur_solve(schur: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve M dy = rhs for each column of `rhs` (L, m, k), refined once.

    M is not regularized: with a shifted M, A(dX) = rp would hold only up to
    the shift, and the primal residual would climb back near convergence.
    Returns dy and the mask of numerically singular members (they end as
    `numerical-breakdown`), whose entries in dy are meaningless.
    """
    dy, failed = _guarded(np.linalg.solve, schur, rhs)
    return dy + _guarded(np.linalg.solve, schur, rhs - schur @ dy)[0], failed


class _Stack(SimpleNamespace):
    """Per-member arrays of the problems still iterating, along the first axis.

    ids, c, a (the constraint arrays, shape (L, m, n, n)), b, norm_b, norm_c,
    the iterate xz (X and Z, shape (L, 2, n, n)) and y, chol (the Cholesky
    factors of xz, same shape), stall and alpha (the last accepted step
    length, the smaller of X's and Z's).
    """

    def take(self, keep: np.ndarray) -> "_Stack":
        return _Stack(**{k: v[keep] for k, v in vars(self).items()})


def _mu(xz: np.ndarray) -> np.ndarray:
    """<X, Z> / n of each (..., X|Z, n, n) pair."""
    return np.add.reduce(xz[..., 0, :, :] * xz[..., 1, :, :], axis=(-2, -1)) / xz.shape[-1]


def _iterate(st: _Stack):
    """Interior-point iterations for a stack of same-shape problems.

    X and Z travel as one (L, 2, n, n) iterate beside their Cholesky
    factors, and each set of k search directions as one (L, k, 2, n, n)
    array, so that step lengths, trial points and mu are one array pass
    each.  Every operation still acts member by member: a member's iterates
    do not depend on the stack it is in.

    Returns per member the best X|Z and y (least max of gap and residuals;
    an `optimal` iterate is the best, since every earlier one scored above
    `_TOL`), its objectives and residuals, the status and the iteration count.
    """
    size, m, n = st.a.shape[:3]
    best_xz, best_y = st.xz.copy(), st.y.copy()
    best_stats = np.full((size, 5), np.inf)  # pobj, dobj, relgap, pinf, dinf
    best_score = np.full(size, np.inf)
    status = np.full(size, "max-iterations", dtype=object)
    iterations = np.full(size, _MAX_ITER)
    eye = np.eye(n)

    def finish(st: _Stack, stop: np.ndarray, it: int) -> _Stack:
        """Record the members with a nonempty stop status; drop them."""
        done = stop != ""
        status[st.ids[done]] = stop[done]
        iterations[st.ids[done]] = it
        return st.take(~done)

    for it in range(1, _MAX_ITER + 1):
        live = len(st.ids)
        if not live:
            break
        xz, y, a = st.xz, st.y, st.a
        x, z = xz[:, 0], xz[:, 1]
        a_flat = a.reshape(live, m, n * n)
        rp = st.b - (a_flat @ x.reshape(live, n * n, 1))[..., 0]
        rd = st.c - z - (y[:, None] @ a_flat).reshape(live, n, n)
        mu = _mu(xz)
        pobj = np.add.reduce(st.c * x, axis=(1, 2))
        dobj = np.add.reduce(st.b * y, axis=1)
        pinf = np.sqrt(np.add.reduce(rp * rp, axis=1)) / st.norm_b
        dinf = np.sqrt(np.add.reduce(rd * rd, axis=(1, 2))) / st.norm_c
        relgap = np.abs(pobj - dobj) / (1.0 + np.abs(pobj) + np.abs(dobj))
        score = np.maximum(np.maximum(pinf, dinf), relgap)
        prev = best_score[st.ids]
        st.stall = np.where(score < 0.99 * prev, 0, st.stall + 1)
        better = score < prev
        if better.any():
            ids = st.ids[better]
            best_score[ids] = score[better]
            best_stats[ids] = np.array([pobj, dobj, relgap, pinf, dinf]).T[better]
            best_xz[ids], best_y[ids] = xz[better], y[better]

        optimal = score <= _TOL  # the gap and both residuals (a NaN is not)
        stop = optimal | (st.stall >= _STALL_LIMIT)
        diverged = ~stop & ((np.add.reduce(xz * xz, axis=(2, 3)) > 1e20).any(axis=1)
                            | (np.add.reduce(y * y, axis=1) > 1e20))
        leave = stop | diverged
        if leave.any():
            # Divergence: a dual ray means primal infeasibility, and vice versa.
            ray_d = (dobj > 1e8) & (dinf <= 1e-6)
            ray_p = (pobj < -1e8) & (pinf <= 1e-6)
            infeasible = ray_d | (~ray_p & (pinf > dinf))
            st = finish(st, np.select([optimal, stop, diverged & infeasible, diverged],
                                      ["optimal", "stalled", "infeasible", "unbounded"], ""),
                        it)
            live = len(st.ids)
            if not live:
                break
            xz, y, a = st.xz, st.y, st.a
            x, z = xz[:, 0], xz[:, 1]
            a_flat = a.reshape(live, m, n * n)
            keep = ~leave
            rp, rd, mu = rp[keep], rd[keep], mu[keep]
        # the fraction of the way to the boundary (module docstring)
        tau = 0.9 + 0.09 * st.alpha

        # Whiteners G = L^-1 (G S G' = I) of X and Z from the Cholesky
        # factors kept since the iterate was accepted: they serve every
        # step-length test below, and Z^-1 = Gz' Gz.  A member that breaks
        # down keeps iterating on safe stand-in values (identity scaling,
        # zero directions) until the end of this iteration, where it leaves
        # the stack with its best iterate.
        whiten, broken = _guarded(np.linalg.inv, st.chol.reshape(-1, n, n))
        whiten = whiten.reshape(live, 2, n, n)
        broken = broken.reshape(live, 2).any(axis=1)
        z_inv = _sym(whiten[:, 1].swapaxes(-1, -2) @ whiten[:, 1])
        w, failed = _nt_scaling(st.chol)
        broken |= failed
        if broken.any():
            w[broken] = eye
            z_inv[broken] = eye
        whiten = whiten[:, None]

        # M_ij = <A_i, W A_j W> = vec(U_i) . vec(U_j') with U = A W
        u = a @ w[:, None]
        schur = u.reshape(live, m, n * n) @ u.swapaxes(-1, -2).reshape(
            live, m, n * n).swapaxes(1, 2)
        # <A_i, M> sees only the symmetric part of M
        ax, aw_rd, az_inv = (a_flat @ np.stack(
            [x.reshape(live, -1), (w @ rd @ w).reshape(live, -1), z_inv.reshape(live, -1)],
            axis=2)).transpose(2, 0, 1)

        def directions(rhs: np.ndarray, sigma_mu: np.ndarray, k_corr=None):
            """(d, dy, failed) for each column of `rhs` (L, m, k): d holds
            (dX, dZ) as (L, k, 2, n, n), and `k_corr` is the last column's
            second-order term."""
            k = rhs.shape[2]
            dy, failed = _schur_solve(schur, rhs)  # m = 0 gives empty dy
            dy = dy.swapaxes(1, 2)
            d = np.empty((live, k, 2, n, n))
            dx, dz = d[:, :, 0], d[:, :, 1]
            np.subtract(rd[:, None], (dy @ a_flat).reshape(live, k, n, n), out=dz)
            dx[...] = (sigma_mu[:, None, None] * z_inv - x)[:, None]
            if k_corr is not None:
                dx[:, -1] -= k_corr
            dx -= w[:, None] @ dz @ w[:, None]
            np.multiply(0.5, dx + dx.swapaxes(-1, -2), out=dx)
            # no constraint row is zero (the rows are independent), so
            # dZ = Rd - A*(dy) is non-finite whenever dy is
            bad = failed[:, None] | ~np.isfinite(d).all(axis=(2, 3, 4))
            if bad.any():
                d[bad], dy[bad] = 0.0, 0.0
            return d, dy, bad

        base = rp + ax + aw_rd
        d, _, bad = directions(base[:, :, None], np.zeros(live))
        broken |= bad[:, 0]
        steps = np.minimum(1.0, _step_max(whiten, d))
        mu_aff = _mu(xz[:, None] + steps[..., None, None] * d)[:, 0]
        sigma_mu = np.clip((np.maximum(mu_aff, 0.0) / mu) ** 3, 1e-8, 1.0 - 1e-8) * mu

        # Mehrotra corrector, safeguarded: the plain centered direction wins
        # whenever the second-order term spoils the achievable step.
        k_corr = d[:, 0, 0] @ d[:, 0, 1] @ z_inv
        rhs = np.empty((live, m, 2))
        np.subtract(base, sigma_mu[:, None] * az_inv, out=rhs[..., 0])
        np.add(rhs[..., 0], (a_flat @ k_corr.reshape(live, n * n, 1))[..., 0], out=rhs[..., 1])
        d, dy, bad = directions(rhs, sigma_mu, k_corr)
        broken |= bad[:, 0]

        # step lengths (L, plain|corrector, X|Z), reused for the chosen one
        pair = np.minimum(1.0, tau[:, None, None] * _step_max(whiten, d))
        trial = xz[:, None] + pair[..., None, None] * d
        merit = (1.0 - pair.min(axis=2)) * mu[:, None] + _mu(trial)
        pick = (~bad[:, 1] & (merit[:, 1] < merit[:, 0])).astype(int)
        rows = np.arange(live)
        dy, step, new = dy[rows, pick], pair[rows, pick], trial[rows, pick]
        if broken.any():  # a broken member stays put until it leaves below
            step[broken] = 0.0
            new[broken] = xz[broken]

        # halve both steps until X and Z are positive definite (six times
        # at most); the factors serve as the next iteration's whiteners
        chol, failed = _guarded(np.linalg.cholesky, new.reshape(-1, n, n))
        chol = chol.reshape(new.shape)
        pending = failed.reshape(live, 2).any(axis=1)
        for _ in range(6):
            if not pending.any():
                break
            step[pending] *= 0.5
            move = d[pending, pick[pending]]
            new[pending] = xz[pending] + step[pending][:, :, None, None] * move
            retry, failed = _guarded(np.linalg.cholesky, new[pending].reshape(-1, n, n))
            chol[pending] = retry.reshape(-1, 2, n, n)
            pending[pending] = failed.reshape(-1, 2).any(axis=1)
        broken |= pending

        st.xz, st.chol = new, chol
        st.y = y + step[:, 1, None] * dy
        st.alpha = step.min(axis=1)
        if broken.any():
            st = finish(st, np.where(broken, "numerical-breakdown", ""), it)
    return best_xz, best_y, best_stats, status, iterations


def sdp_solve(problem: SDPProblem) -> SDPSolution:
    """Solve one SDP: the one-problem case of `sdp_solve_batch`."""
    return sdp_solve_batch([problem])[0]


def sdp_solve_batch(problems: list[SDPProblem]) -> list[SDPSolution]:
    """Solve each SDP to the relative gap and residuals `_TOL`.

    Problems sharing the block size and the row count are iterated as one
    stack; the solutions come back in input order, each as it would be from
    a solve on its own.  Every distinct constraint array of the call (the
    problems of one relaxation template share theirs) is checked once for
    linearly independent rows (`prune_dependent_constraints`) before any
    problem is iterated: dependent rows, consistent or not, raise
    `ValueError`.  Diverging iterates (norms beyond 1e10) end `infeasible`
    or `unbounded` by the escaping objective; other stops keep the solver's
    own status.
    """
    for constraints in {id(p.constraints): p.constraints for p in problems}.values():
        prune_dependent_constraints(constraints)
    groups: dict[tuple[int, int], list[int]] = {}
    for i, p in enumerate(problems):
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
    xz = np.stack([xi, eta], axis=1)[:, :, None, None] * np.eye(n)  # X = xi I, Z = eta I
    st = _Stack(ids=np.arange(size), c=c, a=a, b=b,
                norm_b=1.0 + np.linalg.norm(b, axis=1), norm_c=1.0 + _frob(c), xz=xz,
                y=np.zeros((size, m)), chol=np.linalg.cholesky(xz),
                stall=np.zeros(size, dtype=int), alpha=np.zeros(size))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        xz, y, stats, status, iterations = _iterate(st)
    # the stats come in the order of `SDPSolution`'s fields
    return [SDPSolution(xz[k, 0], y[k], xz[k, 1], *stats[k].tolist(), status[k],
                        int(iterations[k])) for k in range(size)]
