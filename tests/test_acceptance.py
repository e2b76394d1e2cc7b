"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Criterion 4 performs the full 201-point sweep at level 2
and shares its data with criterion 6.
"""

import itertools
import time

import numpy as np
import pytest

import hardyqkd.analysis as an
from hardyqkd import npa, protocol as pr, quantum as q
from hardyqkd.protocol import HVector
from hardyqkd.solvers import LPProblem, SDPProblem, lp_solve, sdp_solve

SQRT5 = np.sqrt(5.0)
Q_EXACT = (5 * SQRT5 - 11) / 2


def report(criterion, text, elapsed, budget):
    print(f"PASS criterion {criterion}: {text} [{elapsed:.1f}s < {budget:.0f}s]")


@pytest.fixture(scope="module")
def full_sweep():
    """Criterion 4 workload: 201-point eta sweep at level 2, both dists."""
    start = time.perf_counter()
    etas = np.linspace(0.0, 1.0, 201)
    reports = an.key_rate_sweep(etas, level=2, resolution=201)
    elapsed = time.perf_counter() - start
    return reports, elapsed


def test_criterion_1_hardy_maximum():
    start = time.perf_counter()
    val = q.q_value(q.ALPHA_OPT, q.ALPHA_OPT)
    assert abs(val - Q_EXACT) < 1e-9
    mags = np.linspace(0.01, 0.99, 100)
    grid_max = max(q.q_value(a, b) for a in mags for b in mags)
    assert grid_max <= val + 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, f"q = {val:.9f} is the grid maximum", elapsed, 1)


def test_criterion_2_hardy_zeros():
    start = time.perf_counter()
    beh = q.hardy_behavior(1.0)
    zeros = [beh.cell(0, 0, 1, 0), beh.cell(0, 0, 0, 1), beh.cell(1, 1, 1, 1)]
    assert max(abs(z) for z in zeros) <= 1e-10
    assert abs(beh.cell(0, 0, 1, 1) - (SQRT5 - 2)) < 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(2, f"zeros <= 1e-10 and P(0,0|1,1) = {beh.cell(0, 0, 1, 1):.9f}",
           elapsed, 1)


def test_criterion_3_npa_sdp_sanity():
    start = time.perf_counter()
    chsh = npa.bound_functional(1, [], npa.chsh_functional(), "max")
    assert abs(chsh - 2 * np.sqrt(2)) < 1e-4
    eqs = [(npa.LinearFunctional.from_cell(*cell), 0.0)
           for cell in ((0, 0, 1, 0), (0, 0, 0, 1), (1, 1, 1, 1))]
    hardy = npa.bound_functional(
        2, eqs, npa.LinearFunctional.from_cell(0, 0, 0, 0), "max")
    assert abs(hardy - Q_EXACT) < 2e-3
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(3, f"CHSH_1 = {chsh:.6f}, constrained Hardy max_2 = {hardy:.6f}",
           elapsed, 30)


def test_criterion_4_noiseless_key_rates(full_sweep):
    reports, elapsed = full_sweep
    by_key = {(r.dist_label, r.strategy, round(r.eta, 6)): r for r in reports}
    k2_u = by_key[("uniform", "dropping", 1.0)].key_rate
    k_n = by_key[("nonuniform", "basic", 1.0)].key_rate
    assert abs(k2_u - 0.045084) < 5e-3
    assert abs(k_n - 0.06888) < 5e-3
    ratio = an.nonuniform_ratio(q.Q_MAX, q.Q_TILDE)
    assert abs(ratio - (SQRT5 - 1) / 2) < 1e-9
    assert abs(ratio - 0.61803) < 1e-5
    assert elapsed < 300.0
    report(4, f"K2(1,u) = {k2_u:.6f}, K(1,n) = {k_n:.6f}, r = {ratio:.6f}",
           elapsed, 300)


def test_criterion_5_bias_robustness():
    start = time.perf_counter()
    rows = an.bias_compare([0.1], level=2)
    hardy, chsh = rows[0].hardy_guess, rows[0].chsh_guess
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    assert hardy <= 0.95, "Hardy guessing must leave key margin at eps = 0.1"
    if chsh >= 1.0 - 1e-3:
        report(5, f"CHSH bound {chsh:.6f} >= 0.999, Hardy {hardy:.6f} <= 0.95",
               elapsed, 120)
    else:
        print(f"FAIL criterion 5: averaged CHSH bound at eps = 0.1 is "
              f"{chsh:.6f} < 1 - 1e-3 (Hardy side passes: {hardy:.6f} <= 0.95) "
              f"[{elapsed:.1f}s < 120s]")
        print("  The requirement is unattainable: deterministic strategies "
              "only reach the constrained expression value 2*sqrt(2) for "
              "eps >= 1/2 - cos(3*pi/8) ~= 0.1173, so the bound at eps = 0.1 "
              "stays near 0.79 at every relaxation level; it saturates to 1 "
              "at eps ~= 0.117.")
    # the clause as stated:
    assert chsh >= 1.0 - 1e-3, (
        "unattainable as stated: the CHSH deterministic-attack threshold is "
        "eps ~= 0.1173 > 0.1")


def test_criterion_6_shape_properties(full_sweep):
    reports, _ = full_sweep
    start = time.perf_counter()
    curves: dict[tuple[str, str], list] = {}
    for r in reports:
        curves.setdefault((r.dist_label, r.strategy), []).append(r)
    for key, rows in curves.items():
        rows.sort(key=lambda r: r.eta)
        rates = [r.key_rate for r in rows]
        assert rates[0] == 0.0, f"{key}: rate at eta=0 must vanish"
        assert rates[-1] > 0.0, f"{key}: rate at eta=1 must be positive"
    # the guessing-probability curves plateau at 1 and never increase
    for dist_label in ("uniform", "nonuniform"):
        rows = curves[(dist_label, "basic")]
        guesses = [r.guess for r in rows]
        assert guesses[0] >= 1.0 - 1e-9
        assert all(b <= a + 1e-6 for a, b in zip(guesses, guesses[1:]))
        plateau = sum(1 for g in guesses if g >= 1.0 - 1e-9)
        assert 1 < plateau < len(guesses)  # a threshold exists strictly inside
    elapsed = time.perf_counter() - start
    report(6, "guess curves equal 1 below a threshold then decrease; rates 0 "
              "at eta=0, positive at eta=1", elapsed, 300)

    k1 = [r.key_rate for r in curves[("uniform", "basic")]]
    k2 = [r.key_rate for r in curves[("uniform", "dropping")]]
    etas = [r.eta for r in curves[("uniform", "basic")]]
    assert k2[-1] > k1[-1], "dropping must improve the noiseless uniform rate"
    violations = [(e, a, b) for e, a, b in zip(etas, k1, k2) if b < a - 1e-6]
    if violations:
        window = ", ".join(f"eta={e:.3f}" for e, _, _ in violations)
        print(f"FAIL criterion 6 (partial): K2 >= K1 pointwise fails at "
              f"{window}.")
        print("  The decomposition program for the dropping strategy carries "
              "only the statistics-matching rows, so just below eta = 1 its "
              "bound saturates to 1 and K2 clamps to zero while K1 is still "
              "positive; the improvement claim holds at eta = 1 "
              f"({k2[-1]:.4f} > {k1[-1]:.4f}).")
    assert not violations, (
        "K2 >= K1 pointwise is unattainable under the stated decomposition "
        "program; dominance holds at the noiseless endpoint only")


def test_criterion_7_monte_carlo_consistency():
    start = time.perf_counter()
    n = 1_000_000
    for eta in (0.9, 1.0):
        beh = q.hardy_behavior(eta)
        transcript = pr.simulate(n, beh, pr.UNIFORM, 0.5, seed=20250810)
        est = pr.estimate_h(transcript.revealed_rounds())
        expected = HVector.from_eta(eta).as_array()
        for k in range(4):
            sigma = np.sqrt(expected[k] * (1 - expected[k]) / est.counts[k])
            assert abs(est.h.as_array()[k] - expected[k]) <= 3 * sigma + 1e-12
        if eta == 1.0:
            alice, bob = pr.key_bits(pr.sift(transcript))
            assert len(alice) > 0
            assert np.array_equal(alice, bob)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(7, "empirical h within 3 sigma at eta in {0.9, 1.0}; keys agree",
           elapsed, 60)


def test_criterion_8_solver_oracles():
    start = time.perf_counter()
    rng = np.random.default_rng(12345)
    for _ in range(50):
        dim = int(rng.integers(2, 10))
        c = rng.normal(size=(dim, dim))
        c = 0.5 * (c + c.T)
        prob = SDPProblem(c=c, constraints=[np.eye(dim)], b=np.array([1.0]),
                          maximize=True)
        sol = sdp_solve(prob, tol=1e-9)
        assert sol.optimal
        assert abs(sol.primal_objective - np.linalg.eigvalsh(c).max()) < 1e-7

    checked = 0
    while checked < 200:
        nv = int(rng.integers(2, 7))
        mv = int(rng.integers(1, min(nv, 5)))
        a = rng.normal(size=(mv, nv))
        b = a @ rng.uniform(0.0, 2.0, size=nv)
        cvec = rng.normal(size=nv)
        best = None
        rank = np.linalg.matrix_rank(a)
        for cols in itertools.combinations(range(nv), rank):
            sub = a[:, cols]
            if np.linalg.matrix_rank(sub) < rank:
                continue
            xs, *_ = np.linalg.lstsq(sub, b, rcond=None)
            x = np.zeros(nv)
            x[list(cols)] = xs
            if (x < -1e-9).any() or np.linalg.norm(a @ x - b, np.inf) > 1e-9:
                continue
            val = float(cvec @ x)
            if best is None or val < best:
                best = val
        if best is None:
            continue
        sol = lp_solve(LPProblem(c=cvec, a_eq=a, b_eq=b))
        if sol.status == "unbounded":
            continue
        assert sol.optimal
        assert abs(sol.value - best) < 1e-9
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report(8, "50 lambda_max within 1e-7; 200 LPs match vertex enumeration",
           elapsed, 120)


def test_criterion_9_relaxation_soundness():
    start = time.perf_counter()
    for eta in np.linspace(0.0, 1.0, 20):
        beh = q.hardy_behavior(float(eta))
        pa0, pa1 = an.bayes_setting_posterior(beh, pr.UNIFORM)
        g0, g1 = an.gamma_tilde(HVector.from_eta(float(eta)), pr.UNIFORM)
        assert g0 >= pa0 - 1e-6
        assert g1 >= pa1 - 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(9, "gamma bounds dominate the realization posterior at 20 etas",
           elapsed, 60)
