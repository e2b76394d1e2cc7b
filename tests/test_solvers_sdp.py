"""SDP solver tests: eigenvalue oracle, duality, statuses, determinism."""

import numpy as np
import pytest

from hardyqkd import npa, protocol as pr
from hardyqkd.protocol import H_CELLS, HVector
from hardyqkd.solvers import SDPProblem, sdp, sdp_solve, sdp_solve_batch
from oracles import nu_functional, verify_sdp_solution


def random_symmetric(rng, n):
    m = rng.normal(size=(n, n))
    return 0.5 * (m + m.T)


def unit(n, i, j):
    """Symmetric 0/1 matrix with ones at (i, j) and (j, i)."""
    m = np.zeros((n, n))
    m[i, j] = m[j, i] = 1.0
    return m


def pinned_point():
    """Minimize -X12 over X >= 0 with X11 = 0 and X22 = 1: the feasible set
    is the single point diag(0, 1), so the iterates have no interior to
    follow and stop improving after a few steps."""
    return SDPProblem(c=-unit(2, 0, 1), constraints=[unit(2, 0, 0), unit(2, 1, 1)],
                      b=np.array([0.0, 1.0]))


def test_scalar_equality():
    p = SDPProblem(c=np.array([[1.0]]), constraints=[np.array([[1.0]])],
                   b=np.array([3.0]))
    sol = sdp_solve(p)
    assert sol.optimal
    assert sol.primal_objective == pytest.approx(3.0, abs=1e-7)
    assert verify_sdp_solution(p, sol)


def test_lambda_max_oracle_50_instances():
    # lambda_max(C) = max <C, X> over tr X = 1, solved as min <-C, X>
    rng = np.random.default_rng(42)
    for _ in range(50):
        n = int(rng.integers(2, 10))
        c = random_symmetric(rng, n)
        p = SDPProblem(c=-c, constraints=[np.eye(n)], b=np.array([1.0]))
        sol = sdp_solve(p)
        assert sol.optimal
        lam_max = np.linalg.eigvalsh(c).max()
        assert -sol.primal_objective == pytest.approx(lam_max, abs=1e-7)
        assert verify_sdp_solution(p, sol)


def test_weak_duality_at_final_iterate():
    # pobj - dobj = <X, Z> - y'rp + <Rd, X>; with feasibility converging the
    # complementarity term <X, Z> stays nonnegative, so near convergence the
    # primal objective dominates the dual one (minimization).
    rng = np.random.default_rng(3)
    n = 6
    c = random_symmetric(rng, n)
    p = SDPProblem(c=c, constraints=[np.eye(n), random_symmetric(rng, n)],
                   b=np.array([1.0, 0.3]))
    sol = sdp_solve(p)
    assert sol.optimal
    mu = float(np.sum(sol.x * sol.z)) / n
    assert mu > -1e-10
    # complementarity falls by orders of magnitude from the start, whose
    # mu = xi * eta is at least 10 * 10 (X = xi I, Z = eta I)
    assert mu < 1e-8 * 100.0
    assert sol.primal_objective - sol.dual_objective >= -1e-8
    # the reported objectives are those of the returned iterate
    assert sol.primal_objective == pytest.approx(float(np.sum(c * sol.x)), abs=1e-12)
    assert sol.dual_objective == pytest.approx(float(p.b @ sol.y), abs=1e-12)


@pytest.mark.parametrize("b2", [2.0, 3.0], ids=["consistent", "inconsistent"])
def test_dependent_rows_raise_before_any_solve(monkeypatch, b2):
    # independent rows are the solver's contract: rows e and 2e raise whether
    # or not b agrees with them, and a batch raises before any member iterates
    e = np.zeros((2, 2))
    e[0, 0] = 1.0
    dependent = SDPProblem(c=np.eye(2), constraints=[e, 2 * e], b=np.array([1.0, b2]))
    with pytest.raises(ValueError, match="independent"):
        sdp_solve(dependent)
    iterated = []
    monkeypatch.setattr(sdp, "_iterate", lambda st: iterated.append(st))
    good = SDPProblem(c=np.array([[1.0]]), constraints=[np.array([[1.0]])], b=np.array([3.0]))
    with pytest.raises(ValueError, match="independent"):
        sdp_solve_batch([good, dependent])
    assert iterated == []


def test_negative_trace_infeasible():
    p = SDPProblem(c=np.eye(2), constraints=[np.eye(2)], b=np.array([-1.0]))
    assert sdp_solve(p).status == "infeasible"


def test_unbounded():
    p = SDPProblem(c=-np.eye(2), constraints=[], b=np.array([]))
    assert sdp_solve(p).status == "unbounded"


def test_determinism_identical_iterates():
    rng = np.random.default_rng(11)
    n = 5
    c = random_symmetric(rng, n)
    a1 = random_symmetric(rng, n)
    p = SDPProblem(c=c, constraints=[np.eye(n), a1], b=np.array([1.0, 0.1]))
    s1 = sdp_solve(p)
    s2 = sdp_solve(p)
    assert s1.iterations == s2.iterations
    assert np.array_equal(s1.x, s2.x)
    assert np.array_equal(s1.y, s2.y)
    assert np.array_equal(s1.z, s2.z)


def test_verify_rejects_tampered_solution():
    p = SDPProblem(c=np.array([[1.0]]), constraints=[np.array([[1.0]])],
                   b=np.array([3.0]))
    sol = sdp_solve(p)
    tampered = type(sol)(x=sol.x + 1.0, y=sol.y, z=sol.z,
                         primal_objective=sol.primal_objective,
                         dual_objective=sol.dual_objective, gap=sol.gap,
                         primal_residual=sol.primal_residual,
                         dual_residual=sol.dual_residual, status=sol.status)
    assert not verify_sdp_solution(p, tampered)


def test_symmetry_validation():
    bad = np.array([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="symmetric"):
        SDPProblem(c=bad, constraints=[], b=np.array([]))
    with pytest.raises(ValueError, match="symmetric"):
        SDPProblem(c=np.eye(2), constraints=[np.eye(2), bad], b=np.zeros(2))


def noiseless_hardy(dist, maximize):
    """The nu bound at the noiseless Hardy point, whose pins leave only a
    degenerate face: the iterates stop improving short of the tolerance."""
    h = HVector.from_eta(1.0).as_array()
    pins = [(npa.cell(*cell), float(v)) for cell, v in zip(H_CELLS, h)]
    return npa.build_moment_sdp(npa.moment_template(2, pins), h, nu_functional(dist), maximize)


def test_stall_reported_as_stalled():
    # at the default stall limit `pinned_point` breaks down first
    sol = sdp_solve(noiseless_hardy(pr.UNIFORM, maximize=False))
    assert sol.status == "stalled"
    assert sol.iterations < 200


def mixed_problems():
    """Oracle problems with every stop status, in several block sizes."""
    rng = np.random.default_rng(42)
    problems = [SDPProblem(c=np.array([[1.0]]), constraints=[np.array([[1.0]])],
                           b=np.array([3.0])),
                SDPProblem(c=np.eye(2), constraints=[np.eye(2)], b=np.array([-1.0])),
                SDPProblem(c=-np.eye(2), constraints=[], b=np.array([])),
                pinned_point()]
    for n in (3, 3, 5, 5, 5):
        # lambda_max as min <-C, X> over tr X = 1
        problems.append(SDPProblem(c=-random_symmetric(rng, n), constraints=[np.eye(n)],
                                   b=np.array([1.0])))
    # the noiseless Hardy point stalls on its degenerate face
    for dist in (pr.UNIFORM, pr.NONUNIFORM):
        for maximize in (False, True):
            problems.append(noiseless_hardy(dist, maximize))
    # the CHSH outcome bound at eps = 0.05 (point 10 of the 25-point bias sweep)
    eps = float(np.linspace(0.0, 0.12, 25)[10])
    branch = pr.biased_branches(pr.UNIFORM, eps).branches[0]
    expr = npa.chsh_functional(4.0 * branch.joint())
    for a in range(2):
        marg = npa.cell(a, 0, 0, 0) + npa.cell(a, 1, 0, 0)  # P(a | A=0)
        problems.append(npa.build_moment_sdp(npa.moment_template(2, [(expr, npa.TSIRELSON)]),
                                             [npa.TSIRELSON], marg, True))
    return problems


def test_batch_matches_solo_solves():
    problems = mixed_problems()
    solo = [sdp_solve(p) for p in problems]
    batch = sdp_solve_batch(problems)
    assert {s.status for s in solo} >= {"optimal", "infeasible", "unbounded", "stalled",
                                        "numerical-breakdown"}
    for one, many in zip(solo, batch, strict=True):
        assert (many.status, many.iterations) == (one.status, one.iterations)
        np.testing.assert_allclose(
            [many.primal_objective, many.dual_objective],
            [one.primal_objective, one.dual_objective], rtol=1e-9, atol=0.0)


def test_batch_order_changes_nothing():
    problems = mixed_problems()
    forward = sdp_solve_batch(problems)
    backward = sdp_solve_batch(problems[::-1])[::-1]
    for f, b in zip(forward, backward, strict=True):
        assert (f.status, f.iterations) == (b.status, b.iterations)
        assert np.array_equal(f.x, b.x) and np.array_equal(f.y, b.y)
        assert np.array_equal(f.z, b.z)


def test_failing_member_isolated():
    # one singular member makes numpy's stacked inverse raise for the whole
    # stack; the others must come out as they do alone
    rng = np.random.default_rng(5)
    good = [random_symmetric(rng, 4) + 4.0 * np.eye(4) for _ in range(2)]
    stack = np.stack([good[0], np.zeros((4, 4)), good[1]])
    inverse, failed = sdp._guarded(np.linalg.inv, stack)
    assert failed.tolist() == [False, True, False]
    for k, m in ((0, good[0]), (2, good[1])):
        assert np.array_equal(inverse[k], np.linalg.inv(m[None])[0])


def test_schur_solve_isolates_a_singular_member():
    # a singular Schur matrix marks its member failed, and the other
    # members' directions are those of a solve on their own
    rng = np.random.default_rng(7)
    good = [g @ g.T + np.eye(3) for g in rng.normal(size=(2, 3, 3))]
    schur = np.stack([good[0], np.zeros((3, 3)), good[1]])
    rhs = rng.normal(size=(3, 3, 2))
    dy, failed = sdp._schur_solve(schur, rhs)
    assert failed.tolist() == [False, True, False]
    for k in (0, 2):
        alone, alone_failed = sdp._schur_solve(schur[k:k + 1], rhs[k:k + 1])
        assert not alone_failed.any()
        assert np.array_equal(dy[k], alone[0])
