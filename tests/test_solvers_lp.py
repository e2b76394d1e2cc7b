"""LP solver tests against trivial cases and a vertex-enumeration oracle."""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hardyqkd.solvers import LPProblem, lp, lp_solve
from oracles import verify_lp_solution


def vertex_enumeration_optimum(c, a_eq, b_eq):
    """Brute-force optimum of max c'x s.t. A x = b, x >= 0.

    Enumerates all basic solutions (column subsets of size rank) and keeps
    the best feasible one.  Only viable for tiny instances.
    """
    a_eq = np.atleast_2d(np.asarray(a_eq, float))
    b_eq = np.asarray(b_eq, float)
    c = np.asarray(c, float)
    m, n = a_eq.shape
    best = None
    rank = np.linalg.matrix_rank(a_eq)
    for cols in itertools.combinations(range(n), rank):
        sub = a_eq[:, cols]
        if np.linalg.matrix_rank(sub) < rank:
            continue
        sol, residual, *_ = np.linalg.lstsq(sub, b_eq, rcond=None)
        x = np.zeros(n)
        x[list(cols)] = sol
        if (x < -1e-9).any():
            continue
        if np.linalg.norm(a_eq @ x - b_eq, ord=np.inf) > 1e-9:
            continue
        val = float(c @ x)
        if best is None or val > best:
            best = val
    return best


def either_sense(rng, n):
    """Random objective c ~ N(0, 1) of a maximization, or -c where the
    instance is the minimization of c, which is minus the maximum of -c'x."""
    c = rng.normal(size=n)
    return c if rng.integers(0, 2) else -c


def test_maximize_simple():
    sol = lp_solve(LPProblem(c=[1, 0], a_eq=[[1, 1]], b_eq=[1]))
    assert sol.optimal
    assert sol.value == pytest.approx(1.0, abs=1e-12)
    assert verify_lp_solution(LPProblem(c=[1, 0], a_eq=[[1, 1]], b_eq=[1]), sol)


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_dependent_rows_raise_and_inconsistent_ones_are_infeasible(warm):
    # the second row is twice the first.  With consistent right-hand sides,
    # phase 1 ends with an artificial at level zero and no column to pivot
    # in.  The final basis of a problem with independent rows is singular
    # on these rows, so a solve from it goes to phase 1 too.
    other = lp_solve(LPProblem(c=[1, 1, 0], a_eq=[[1, 1, 1], [1, -1, 0]], b_eq=[1, 0]))
    assert other.optimal and other.basis.size == 2
    basis = other.basis if warm else None
    problem = LPProblem(c=[1, 1, 0], a_eq=[[1, 1, 1], [2, 2, 2]], b_eq=[1, 2])
    with pytest.raises(ValueError, match="linearly independent"):
        lp_solve(problem, basis)
    # inconsistent dependent rows admit no x: infeasible, not an error
    sol = lp_solve(dataclasses.replace(problem, b_eq=[1, 3]), basis)
    assert sol.status == "infeasible" and sol.basis.size == 0 and sol.duals.size == 0


def test_infeasible():
    sol = lp_solve(LPProblem(c=[1, 1], a_eq=[[1, 1], [1, 1]], b_eq=[1, 2]))
    assert sol.status == "infeasible"
    assert sol.basis.size == 0 and sol.duals.size == 0


def test_unbounded():
    sol = lp_solve(LPProblem(c=[1, 0], a_eq=[[0, 1]], b_eq=[1]))
    assert sol.status == "unbounded"


def test_negative_rhs_handled():
    sol = lp_solve(LPProblem(c=[-1, -1], a_eq=[[-1, -1]], b_eq=[-1]))
    assert sol.optimal
    assert sol.value == pytest.approx(-1.0, abs=1e-10)


def test_vertex_enumeration_agreement_200_instances():
    rng = np.random.default_rng(20240915)
    checked = 0
    while checked < 200:
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, min(n, 5)))
        a = rng.normal(size=(m, n))
        x_feas = rng.uniform(0.0, 2.0, size=n)
        b = a @ x_feas  # guarantees feasibility
        c = either_sense(rng, n)
        oracle = vertex_enumeration_optimum(c, a, b)
        if oracle is None:
            continue
        sol = lp_solve(LPProblem(c=c, a_eq=a, b_eq=b))
        if sol.status == "unbounded":
            # oracle only sees vertices; re-check with a bounding box
            continue
        assert sol.optimal
        assert sol.value == pytest.approx(oracle, abs=1e-9)
        assert verify_lp_solution(LPProblem(c=c, a_eq=a, b_eq=b), sol)
        checked += 1


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_random_feasible_lp_is_solved_and_verified(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 8))
    m = int(rng.integers(1, 4))
    a = rng.normal(size=(m, n))
    b = a @ rng.uniform(0.0, 1.0, size=n)
    c = -rng.normal(size=n)
    if m > n:  # more rows than columns: dependent, and consistent by construction
        with pytest.raises(ValueError, match="linearly independent"):
            lp_solve(LPProblem(c=c, a_eq=a, b_eq=b))
        return
    sol = lp_solve(LPProblem(c=c, a_eq=a, b_eq=b))
    assert sol.status in ("optimal", "unbounded")
    if sol.optimal:
        assert verify_lp_solution(LPProblem(c=c, a_eq=a, b_eq=b), sol)


def test_determinism():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(3, 8))
    b = a @ rng.uniform(size=8)
    c = -rng.normal(size=8)
    s1 = lp_solve(LPProblem(c=c, a_eq=a, b_eq=b))
    s2 = lp_solve(LPProblem(c=c, a_eq=a, b_eq=b))
    assert s1.value == s2.value
    assert np.array_equal(s1.x, s2.x)
    assert s1.iterations == s2.iterations


def test_warm_start_from_perturbed_optimum_matches_vertex_enumeration():
    # the optimal basis at a perturbed b may be infeasible at b (dual simplex
    # then restarts from it) or feasible and non-optimal (phase 2 pivots
    # from it)
    rng = np.random.default_rng(20261018)
    checked = warm = 0
    while checked < 150:
        n = int(rng.integers(3, 8))
        m = int(rng.integers(1, min(n, 5)))
        a = rng.normal(size=(m, n))
        x_feas = rng.uniform(0.0, 2.0, size=n)
        b = a @ x_feas
        b_near = a @ (x_feas + rng.uniform(-0.3, 0.3, size=n))
        c = either_sense(rng, n)
        start = lp_solve(LPProblem(c=c, a_eq=a, b_eq=b_near))
        oracle = vertex_enumeration_optimum(c, a, b)
        if not start.optimal or oracle is None:
            continue
        sol = lp_solve(LPProblem(c=c, a_eq=a, b_eq=b), start.basis)
        if sol.status == "unbounded":
            continue
        assert sol.optimal
        assert sol.value == pytest.approx(oracle, abs=1e-9)
        assert verify_lp_solution(LPProblem(c=c, a_eq=a, b_eq=b), sol)
        warm += sol.iterations < lp_solve(LPProblem(c=c, a_eq=a, b_eq=b)).iterations
        checked += 1
    assert warm > 0  # some solves did start from the given basis


def test_optimal_start_needs_no_pivots():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(3, 9))
    b = a @ rng.uniform(size=9)
    problem = LPProblem(c=-rng.normal(size=9) ** 2, a_eq=a, b_eq=b)
    cold = lp_solve(problem)
    warm = lp_solve(problem, cold.basis)
    assert cold.optimal and warm.optimal and warm.iterations == 0
    assert warm.value == pytest.approx(cold.value, abs=1e-12)
    assert sorted(warm.basis) == sorted(cold.basis)


@pytest.mark.parametrize("basis", [[0, 0], [0], [0, 5], [-1, 1]],
                         ids=["repeated", "short", "out-of-range", "negative"])
def test_unusable_start_runs_both_phases(basis):
    problem = LPProblem(c=[-1.0, -2.0, -3.0], a_eq=[[1, 1, 1], [1, -1, 0]], b_eq=[1, 0])
    cold = lp_solve(problem)
    sol = lp_solve(problem, np.array(basis))
    assert sol.optimal and sol.value == cold.value and sol.iterations == cold.iterations


def test_optimal_duals_certify_the_value():
    # at an optimal basis y = B^-T c_B prices the basic columns exactly,
    # y.b is the value, and no reduced cost c_k - y.a_k improves on it
    rng = np.random.default_rng(20261019)
    checked = 0
    while checked < 100:
        n = int(rng.integers(3, 9))
        m = int(rng.integers(1, min(n, 5)))
        a = rng.normal(size=(m, n))
        b = a @ rng.uniform(0.0, 2.0, size=n)
        c = either_sense(rng, n)
        sol = lp_solve(LPProblem(c=c, a_eq=a, b_eq=b))
        if not sol.optimal:
            continue
        assert sol.basis.size == m and sol.duals.size == m
        assert np.abs(a[:, sol.basis].T @ sol.duals - c[sol.basis]).max() <= 1e-9
        assert sol.duals @ b == pytest.approx(sol.value, abs=1e-9)
        reduced = c - sol.duals @ a
        assert reduced.max() <= 1e-9
        checked += 1


def test_degraded_basis_is_numerical_breakdown():
    # the start basis is feasible and optimal but nearly singular: its
    # solution (~1e11 per entry) misses A x = b by ~7e-6
    problem = LPProblem(c=[0, 0, -1], a_eq=[[1, -1, 1], [1, -1 + 1e-14, 0]],
                        b_eq=[1, 1 + 1e-3])
    sol = lp_solve(problem, np.array([0, 1]))
    assert sol.status == "numerical-breakdown"
    assert sol.residual > 1e-6


def no_phase1(*args):
    raise AssertionError("phase 1 must not run")


def test_dual_restart_reaches_the_cold_optimum_without_phase1(monkeypatch):
    # an optimal basis at b_near stays dual feasible for the same c; where it
    # is primal infeasible at b, dual pivots alone reach b's optimum
    rng = np.random.default_rng(20261019)
    simplex_phase = lp._simplex_phase
    restarted = 0
    while restarted < 40:
        n = int(rng.integers(3, 9))
        m = int(rng.integers(1, min(n, 5)))
        a = rng.normal(size=(m, n))
        x_feas = rng.uniform(0.0, 2.0, size=n)
        b = a @ x_feas
        b_near = a @ (x_feas + rng.uniform(-0.5, 0.5, size=n))
        problem = LPProblem(c=either_sense(rng, n), a_eq=a, b_eq=b)
        start = lp_solve(dataclasses.replace(problem, b_eq=b_near))
        if not start.optimal:
            continue
        if (np.linalg.solve(a[:, start.basis], b) >= 0.0).all():
            continue  # primal feasible at b: phase 2 starts from it
        cold = lp_solve(problem)
        phase2 = []
        with monkeypatch.context() as patch:
            patch.setattr(lp, "_phase1", no_phase1)
            patch.setattr(lp, "_simplex_phase", lambda *args: phase2.append(
                simplex_phase(*args)) or phase2[-1])
            warm = lp_solve(problem, start.basis)
        # dual pivots keep the reduced costs >= 0, so phase 2 only confirms
        assert phase2 == [("optimal", 0)]
        assert cold.optimal and warm.optimal and warm.iterations > 0
        assert warm.value == pytest.approx(cold.value, abs=1e-9)
        assert warm.duals @ b == pytest.approx(warm.value, abs=1e-9)
        assert verify_lp_solution(problem, warm)
        restarted += 1


@pytest.mark.parametrize("a, b_eq", [
    ([[1, 1]], [-1]),
    ([[1, 1, 0], [0, 1, 1]], [1, -0.5]),
    ([[1, -1, 0], [1, 1, 1]], [2, 1]),
], ids=["negative-sum", "second-row", "bound-exceeded"])
def test_dual_ratio_test_proves_infeasibility(monkeypatch, a, b_eq):
    # the optimal basis at a feasible b is dual feasible; at b_eq one of its
    # rows is negative with no negative entry, so no x >= 0 meets it
    feasible = np.array(a, dtype=float) @ np.full(np.shape(a)[1], 0.5)
    problem = LPProblem(c=-np.arange(1.0, np.shape(a)[1] + 1.0), a_eq=a, b_eq=b_eq)
    start = lp_solve(dataclasses.replace(problem, b_eq=feasible))
    assert start.optimal
    assert lp_solve(problem).status == "infeasible"
    monkeypatch.setattr(lp, "_phase1", no_phase1)
    sol = lp_solve(problem, start.basis)
    assert sol.status == "infeasible" and np.isnan(sol.value)
    assert sol.basis.size == 0 and sol.duals.size == 0


def test_warm_and_cold_values_agree_on_random_lps():
    # any b, feasible or not, from the optimal basis of another b: both
    # solves end with the same status, and optimal values agree
    rng = np.random.default_rng(7)
    statuses = []
    for _ in range(300):
        n = int(rng.integers(2, 8))
        m = int(rng.integers(1, min(n, 4) + 1))
        a = rng.normal(size=(m, n))
        c, b_eq = rng.normal(size=n), a @ rng.uniform(-0.5, 1.5, size=n)
        problem = LPProblem(c=c if rng.integers(0, 2) else -c, a_eq=a, b_eq=b_eq)
        start = lp_solve(dataclasses.replace(problem, b_eq=a @ rng.uniform(0.0, 1.0, size=n)))
        if not start.optimal:
            continue
        cold, warm = lp_solve(problem), lp_solve(problem, start.basis)
        assert warm.status == cold.status
        if cold.optimal:
            assert warm.value == pytest.approx(cold.value, abs=1e-9)
        statuses.append(cold.status)
    assert statuses.count("optimal") > 50 and statuses.count("infeasible") > 10
