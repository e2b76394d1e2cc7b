"""Relaxation tests: canonicalization, pinned bounds, soundness, LMI size."""

import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hardyqkd import cli, npa, quantum as q
from hardyqkd.analysis import DETERMINISTIC_H, bias_compare, build_gamma_grids
from hardyqkd.errors import InfeasibleHError, SolverFailure, UnsupportedLevelError
from hardyqkd.protocol import (H_CELLS, NONUNIFORM, UNIFORM, HVector, SettingsDistribution,
                               biased_branches, h_rows)
from hardyqkd.solvers import SDPSolution, sdp_solve_batch
from hardyqkd.solvers.sdp import _svec, prune_dependent_constraints
from oracles import (deterministic_behaviors, evaluate, noisy_state, nu_functional,
                     realization_moment_matrix)

SYMBOLS = [(0, 0), (0, 1), (1, 0), (1, 1)]  # (party, setting): outcome-0 projectors
HARDY_ZEROS = {(0, 0, 1, 0): 0.0, (0, 0, 0, 1): 0.0, (1, 1, 1, 1): 0.0}


def pins(cells):
    """Equality list pinning behavior cells (a, b, A, B) -> value."""
    return [(npa.cell(*cell), val) for cell, val in cells.items()]


def h_pins(h):
    return pins(dict(zip(H_CELLS, map(float, h.as_array()))))


def bias_branches(eps):
    """The (4, 2) (p_A, p_B) array of the four branches of UNIFORM biased by eps."""
    return np.array([(b.p_a, b.p_b) for b in biased_branches(UNIFORM, float(eps)).branches])


def oracle_reduce(word):
    """Independent reducer: bubble-sort commuting parties, collapse repeats."""
    w = list(word)
    changed = True
    while changed:
        changed = False
        for k in range(len(w) - 1):
            a, b = w[k], w[k + 1]
            if a[0] > b[0]:  # B before A: swap (different parties commute)
                w[k], w[k + 1] = b, a
                changed = True
            elif a == b:
                del w[k + 1]
                changed = True
                break
    return tuple(w)


class TestMonomials:
    def test_level_one_exact(self):
        assert npa.monomial_basis(1) == [
            (), ((0, 0),), ((0, 1),), ((1, 0),), ((1, 1),)]

    def test_level_two_matches_enumeration_oracle(self):
        expected = set()
        for length in range(3):
            for word in itertools.product(SYMBOLS, repeat=length):
                red = oracle_reduce(word)
                if len(red) <= 2:
                    expected.add(red)
        got = npa.monomial_basis(2)
        assert len(got) == len(set(got)) == 13
        assert set(got) == expected

    def test_level_three_count_and_identity_first(self):
        basis = npa.monomial_basis(3)
        assert len(basis) == 25
        assert basis[0] == ()

    def test_unsupported_level(self):
        with pytest.raises(UnsupportedLevelError):
            npa.monomial_basis(4)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from(SYMBOLS), max_size=6))
    def test_canonicalization_idempotent_and_matches_oracle(self, word):
        word = tuple(word)
        c1 = npa.canonical(word)
        assert c1 == npa.canonical(c1)
        assert c1 == oracle_reduce(word)

    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_basis_words_are_canonical_and_closed_under_products(self, level):
        # every entry adjoint(u) v of the moment matrix reduces to a word
        # whose class (up to adjoint) the layout holds
        layout = npa.get_layout(level)
        assert all(npa.canonical(w) == w for w in layout.monomials)
        for u, v in itertools.product(layout.monomials, repeat=2):
            w = npa.canonical(npa.adjoint(u) + v)
            assert w == oracle_reduce(npa.adjoint(u) + v)
            assert min(w, npa.canonical(npa.adjoint(w))) in layout.class_index


class TestMomentMatrix:
    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=10 ** 6))
    def test_realization_is_feasible(self, seed):
        # moment matrix of any explicit realization is PSD and respects all
        # entry identifications
        rng = np.random.default_rng(seed)
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        bases = q.local_bases(rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9))
        gamma = realization_moment_matrix(rho, bases, level=2)
        assert np.linalg.eigvalsh(gamma).min() > -1e-10
        layout = npa.get_layout(2)
        assert gamma[0, 0] == pytest.approx(1.0, abs=1e-12)
        for entries in layout.classes.values():
            vals = [gamma[i, j] for (i, j) in entries]
            assert max(vals) - min(vals) < 1e-10


class TestBounds:
    def test_tsirelson_level_one(self):
        val = npa.bound_functional(1, [], npa.chsh_functional(), "max")
        assert val == pytest.approx(2 * np.sqrt(2), abs=1e-4)

    def test_probability_bounds_unconstrained(self):
        obj = npa.cell(0, 0, 0, 0)
        hi = npa.bound_functional(2, [], obj, "max")
        lo = npa.bound_functional(2, [], obj, "min")
        assert hi <= 1 + 1e-6
        assert hi >= 1 - 1e-4
        assert abs(lo) <= 1e-6

    def test_hardy_maximum_level_two(self):
        eqs = pins(HARDY_ZEROS)
        obj = npa.cell(0, 0, 0, 0)
        hi = npa.bound_functional(2, eqs, obj, "max")
        assert hi == pytest.approx(q.Q_MAX, abs=2e-3)
        assert hi >= q.Q_MAX - 1e-6  # must dominate the explicit realization
        lo = npa.bound_functional(2, eqs, obj, "min")
        assert abs(lo) <= 1e-6

    def test_fully_pinned_behavior(self):
        # normalization makes some of the 16 cell pins redundant; moment
        # substitution absorbs them, so the solver, which raises on dependent
        # rows, receives independent ones
        cells = {(a, b, sa, sb): 0.25 for a in range(2) for b in range(2)
                 for sa in range(2) for sb in range(2)}
        eqs = pins(cells)
        obj = npa.cell(0, 0, 0, 0)
        hi = npa.bound_functional(1, eqs, obj, "max")
        lo = npa.bound_functional(1, eqs, obj, "min")
        assert hi == pytest.approx(0.25, abs=1e-6)
        assert lo == pytest.approx(0.25, abs=1e-6)

    def test_hardy_nu_pinned_at_eta_one(self):
        # the unique behavior forces P(0,0|1,1) = sqrt(5) - 2, but its zero
        # pins leave the relaxation without interior, so a direct solve stops
        # short of `optimal`: it must raise or return a bound on the safe side
        eqs = pins({(0, 0, 0, 0): q.Q_MAX, **HARDY_ZEROS})
        obj = npa.cell(0, 0, 1, 1)
        for level, (direction, sign) in itertools.product((2, 3), (("min", -1), ("max", 1))):
            try:
                bound = npa.bound_functional(level, eqs, obj, direction)
            except SolverFailure:
                continue
            assert sign * (bound - q.Q_TILDE) >= -1e-6

    def test_bounds_monotone_in_level(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            obj = rng.normal(size=(2, 2, 2, 2))
            b1 = npa.bound_functional(1, [], obj, "max")
            b2 = npa.bound_functional(2, [], obj, "max")
            assert b2 <= b1 + 1e-6
        # levels 2 and 3 under the Hardy pins: the bracket on nu only narrows
        nu = nu_functional(UNIFORM)
        for eta in (0.3, 0.8, 0.95):
            eqs = h_pins(HVector.from_eta(eta))
            hi2, hi3 = (npa.bound_functional(lv, eqs, nu, "max") for lv in (2, 3))
            lo2, lo3 = (npa.bound_functional(lv, eqs, nu, "min") for lv in (2, 3))
            assert hi3 <= hi2 + 1e-6
            assert lo3 >= lo2 - 1e-6

    def test_bounds_dominate_hardy_realization(self):
        beh = q.hardy_behavior(1.0)
        rng = np.random.default_rng(4)
        for _ in range(10):
            obj = rng.normal(size=(2, 2, 2, 2))
            value = evaluate(obj, beh)
            assert npa.bound_functional(2, [], obj, "max") >= value - 1e-6
            assert npa.bound_functional(2, [], obj, "min") <= value + 1e-6

    def test_infeasible_h_detected(self):
        # P(0,0|0,0) = 0.2 with the three Hardy zeros exceeds the quantum max
        eqs = pins({(0, 0, 0, 0): 0.2, **HARDY_ZEROS})
        obj = npa.cell(0, 0, 1, 1)
        with pytest.raises(InfeasibleHError):
            npa.bound_functional(2, eqs, obj, "max")

    @pytest.mark.parametrize("excess", [1e-3, 3e-4])
    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_pin_beyond_tsirelson_raises(self, level, excess):
        # both pinned solves end with a dual residual of 3e-5 or more and a
        # clean primal side, which `bound_functionals` takes for an empty
        # LMI: no moment matrix meets the pin
        eqs = [(npa.chsh_functional(), npa.TSIRELSON + excess)]
        marginal = npa.cell(0, 0, 0, 0) + npa.cell(0, 1, 0, 0)
        for direction in ("max", "min"):
            with pytest.raises(InfeasibleHError):
                npa.bound_functional(level, eqs, marginal, direction)

    @pytest.mark.parametrize("deficit", [1e-4, 1e-3])
    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_pin_below_tsirelson_gives_values(self, level, deficit):
        # just inside the quantum set the same solves must not be taken for
        # infeasible; from level 2 on they reach the one-sided guessing bound
        # 1/2 + sqrt(2 - S^2 / 4) / 2 at CHSH value S (Pironio et al., Nature
        # 464, 1021, 2010), at level 1 P(a=0 | A=0) stays free
        value = npa.TSIRELSON - deficit
        eqs = [(npa.chsh_functional(), value)]
        marginal = npa.cell(0, 0, 0, 0) + npa.cell(0, 1, 0, 0)
        hi = npa.bound_functional(level, eqs, marginal, "max")
        lo = npa.bound_functional(level, eqs, marginal, "min")
        if level == 1:
            assert lo <= 0.5 <= hi
        else:
            exact = 0.5 + 0.5 * np.sqrt(2.0 - value ** 2 / 4.0)
            assert hi == pytest.approx(exact, abs=1e-5)
            assert lo == pytest.approx(1.0 - exact, abs=1e-5)


@pytest.fixture
def solved(monkeypatch):
    """Every problem handed to the SDP solver through `npa`."""
    problems = []
    batch, solve = npa.sdp_solve_batch, npa.sdp_solve
    monkeypatch.setattr(npa, "sdp_solve_batch",
                        lambda ps, **kw: problems.extend(ps) or batch(ps, **kw))
    monkeypatch.setattr(npa, "sdp_solve",
                        lambda p, **kw: problems.append(p) or solve(p, **kw))
    return problems


@pytest.fixture
def solutions(monkeypatch):
    """The solutions of every `sdp_solve_batch` call through `npa`, one list a call."""
    calls = []
    batch = npa.sdp_solve_batch
    monkeypatch.setattr(npa, "sdp_solve_batch",
                        lambda ps, **kw: calls.append(batch(ps, **kw)) or calls[-1])
    return calls


class TestChshGuess:
    def test_unbiased_tsirelson_gives_half(self):
        val = npa.chsh_outcome_guess_bound((0.5, 0.5), npa.TSIRELSON, level=2)
        assert val == pytest.approx(0.5, abs=1e-3)

    @pytest.mark.parametrize("level", [2, 3])
    def test_tsirelson_face_settled_without_sdp(self, level, solved):
        # plain CHSH at +-2*sqrt(2) self-tests the maximally entangled state,
        # whose marginals are 1/2; just inside the face the pin is solved
        for value in (npa.TSIRELSON, -npa.TSIRELSON):
            assert npa.chsh_outcome_guess_bounds([(0.5, 0.5)], value, level).tolist() == [0.5]
        assert solved == []
        assert npa.chsh_outcome_guess_bounds([(0.5, 0.5)], npa.TSIRELSON - 1e-9, level)[0] >= 0.5
        assert len(solved) == 1

    def test_classical_value_gives_one(self):
        val = npa.chsh_outcome_guess_bound((0.5, 0.5), 2.0, level=2)
        assert val == pytest.approx(1.0, abs=1e-6)

    def test_biased_branch_strictly_worse(self):
        val = npa.chsh_outcome_guess_bound(bias_branches(0.05)[0], npa.TSIRELSON, level=2)
        base = npa.chsh_outcome_guess_bound((0.5, 0.5), npa.TSIRELSON, level=2)
        assert 0.5 < val < 1.0
        assert val > base + 1e-3

    def test_tsirelson_face_bound_never_below_half(self):
        # at 2*sqrt(2) both outcomes have P(a | A=0) = 1/2 exactly: the
        # guess is settled there, and the accepted bound of each direct
        # pinned solve must stay a bound
        val = npa.chsh_outcome_guess_bound((0.5, 0.5), npa.TSIRELSON, level=2)
        assert 0.5 <= val <= 0.50003
        jobs = [([(npa.chsh_functional(), npa.TSIRELSON)], marg, "max")
                for marg in chsh_marginals()]
        for bound in npa.bound_functionals(2, jobs):
            assert bound >= 0.5

    def test_observed_above_quantum_max_rejected(self):
        with pytest.raises(InfeasibleHError):
            npa.chsh_outcome_guess_bound((0.5, 0.5), 2 * np.sqrt(2) + 0.01,
                                         level=2)

    @pytest.mark.parametrize("excess", [1e-7, 5e-7, 1e-6])
    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_pin_just_above_tsirelson_raises(self, level, excess):
        # with the exact maximum such a pin fails the maximum check; against
        # solved maxima with a 1e-6 slack it gave 0.999999 at level 1, guesses
        # below 1/2 or 0.500022 at levels 2 and 3, and a solver failure at
        # level 3 with excess 1e-6
        with pytest.raises(InfeasibleHError, match="quantum maximum"):
            npa.chsh_outcome_guess_bounds([(0.5, 0.5)], npa.TSIRELSON + excess, level)
        with pytest.raises(InfeasibleHError, match="quantum maximum"):
            npa.chsh_outcome_guess_bounds([(0.5, 0.5)], -npa.TSIRELSON - excess, level)

    def test_guess_below_half_raises(self, monkeypatch):
        # P(0 | A=0) + P(1 | A=0) = 1, so a solved guess below 1/2 means no
        # behavior meets the pin; a branch biased by 0.05 is neither on the
        # Tsirelson face nor settled locally, so it reaches the solve
        monkeypatch.setattr(npa, "bound_functionals",
                            lambda level, jobs: np.full(len(jobs), 0.49))
        with pytest.raises(InfeasibleHError, match="below 1/2"):
            npa.chsh_outcome_guess_bounds(bias_branches(0.05)[:1], npa.TSIRELSON, 2)

    @pytest.mark.parametrize("level", [2, 3])
    def test_saturated_classes_need_no_sdp(self, level, solved):
        # at eps = 0.12 a mixture of deterministic strategies with a_0 = 0
        # meets 2*sqrt(2) in every branch; at eps = 0.115 none does
        saturated = npa.chsh_outcome_guess_bounds(bias_branches(0.12), npa.TSIRELSON, level)
        assert saturated.tolist() == [1.0] * 4
        assert solved == []
        assert npa.chsh_outcome_guess_bounds(bias_branches(0.115), npa.TSIRELSON,
                                             level).max() < 0.97
        assert len(solved) >= 2  # one pinned job per class, no quantum maxima

    def test_biased_solves_converge(self, solutions):
        # the pinned level-2 jobs of the four points of the 25-point bias
        # sweep that the `bias-l2` benchmark workload solves, one batch a
        # point: 73 stack iterations, where a step fraction fixed near the
        # boundary (0.98, then 0.99) took 177 and broke two solves down
        for eps in np.linspace(0.0, 0.12, 25)[[5, 10, 15, 20]]:
            npa.chsh_outcome_guess_bounds(bias_branches(eps), npa.TSIRELSON, 2)
        assert [len(sols) for sols in solutions] == [2] * 4
        assert [s.status for sols in solutions for s in sols] == ["optimal"] * 8
        # one stack a batch: it iterates until its last member stops
        assert sum(max(s.iterations for s in sols) for sols in solutions) <= 100

    def test_level_one_is_vacuous(self, solved):
        branches = np.concatenate([[(0.5, 0.5)], bias_branches(0.05)])
        assert npa.chsh_outcome_guess_bounds(branches, npa.TSIRELSON, 1).tolist() == [1.0] * 5
        assert npa.chsh_outcome_guess_bounds(branches, -npa.TSIRELSON, 1).tolist() == [1.0] * 5
        assert solved == []

    def test_unsupported_level_raises_without_a_solve(self):
        with pytest.raises(UnsupportedLevelError):
            npa.chsh_outcome_guess_bounds(bias_branches(0.12), npa.TSIRELSON, 4)

    @pytest.mark.parametrize("level", [1, 2])
    def test_bounds_are_plain_floats(self, level):
        # one float per branch, in a (B,) array
        branches = np.concatenate([[(0.5, 0.5)], bias_branches(0.05)])
        vals = npa.chsh_outcome_guess_bounds(branches, npa.TSIRELSON, level)
        assert vals.dtype == np.float64 and vals.shape == (len(branches),)
        assert npa.chsh_outcome_guess_bounds(branches[:0], npa.TSIRELSON, level).shape == (0,)


class TestChshQuantumMax:
    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_closed_form_matches_sdp_maxima(self, level):
        rng = np.random.default_rng(11 + level)
        weights = [np.ones((2, 2)), np.diag([1.0, 0.0]), np.array([[2.0, -1.0], [0.0, 0.0]]),
                   4.0 * SettingsDistribution(0.6, 0.45).joint()]
        weights += [rng.normal(size=(2, 2)) for _ in range(6)]
        weights += [rng.uniform(size=(2, 2)) * [[1.0, 1.0], [0.0, 0.0]] for _ in range(2)]
        sdp = npa.bound_functionals(
            level, [([], npa.chsh_functional(w), "max") for w in weights])
        exact = [npa.chsh_quantum_max(w) for w in weights]
        # the solver's gap is relative: a level-3 maximum of 4.17 lies 2.5e-7 off
        assert exact == pytest.approx(sdp, rel=1e-7, abs=2e-7)
        assert exact[0] == npa.TSIRELSON

    def test_closed_form_is_the_vector_value(self):
        # an independent check on a grid of c = u_0 . u_1: never below any
        # grid value, and within the grid's resolution of the best one
        rng = np.random.default_rng(3)
        c = np.linspace(-1.0, 1.0, 200001)
        for _ in range(20):
            w = rng.normal(size=(2, 2))
            m = np.array([[1.0, 1.0], [1.0, -1.0]]) * w  # the correlator matrix
            f = sum(np.sqrt(np.maximum(m[0, y] ** 2 + m[1, y] ** 2 + 2 * m[0, y] * m[1, y] * c,
                                       0.0)) for y in range(2))
            exact = npa.chsh_quantum_max(w)
            assert f.max() - 1e-12 <= exact <= f.max() + 1e-6

    def test_deterministic_table_matches_oracle(self):
        assert np.array_equal(npa.DETERMINISTIC_BEHAVIORS, deterministic_behaviors())
        # the first eight have a_0 = 0: P(0 | A=0) = 1
        margs = np.einsum("kabAB->kaA", npa.DETERMINISTIC_BEHAVIORS)[:, :, 0] / 2
        assert margs[:8, 0].tolist() == [1.0] * 8 and margs[8:, 0].tolist() == [0.0] * 8


def chsh_marginals():
    """P(a | A=0) = sum_b p(a, b | 0, 0) for a = 0, 1 as cell tables."""
    margs = []
    for a in range(2):
        marg = np.zeros((2, 2, 2, 2))
        marg[a, :, 0, 0] = 1.0
        margs.append(marg)
    return margs


def random_born_behavior(rng):
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = g @ g.conj().T
    alphas = rng.uniform(0.05, 0.95, size=2) * np.exp(2j * np.pi * rng.uniform(size=2))
    return q.born_behavior(rho / np.trace(rho).real, q.local_bases(*alphas))


class TestBranchSymmetry:
    """Branch (p_A, 1 - p_B) is the image of (p_A, p_B) under swapping Bob's
    settings and flipping Alice's outcome for setting 1."""

    @staticmethod
    def relabel(p):
        out = p[:, :, :, ::-1].copy()
        out[:, :, 1] = p[::-1, :, 1, ::-1]
        return out

    def test_relabeling_maps_functional_and_keeps_marginal(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            beh = random_born_behavior(rng)
            image = q.Behavior(p=self.relabel(beh.p))
            p_a, p_b = rng.uniform(size=2)
            value = npa.chsh_functional(4.0 * SettingsDistribution(p_a, p_b).joint())
            mirror = npa.chsh_functional(4.0 * SettingsDistribution(p_a, 1.0 - p_b).joint())
            assert abs(evaluate(mirror, image) - evaluate(value, beh)) <= 1e-14
            for marg in chsh_marginals():
                assert abs(evaluate(marg, image) - evaluate(marg, beh)) <= 1e-14

    def test_outcome_flip_keeps_values_and_swaps_marginals(self):
        # flipping every outcome of both parties keeps every correlator
        rng = np.random.default_rng(8)
        for _ in range(20):
            beh = random_born_behavior(rng)
            image = q.Behavior(p=beh.p[::-1, ::-1].copy())
            expr = npa.chsh_functional(rng.normal(size=(2, 2)))
            assert abs(evaluate(expr, image) - evaluate(expr, beh)) <= 1e-14
            margs = chsh_marginals()
            for marg, other in zip(margs, margs[::-1]):
                assert abs(evaluate(marg, image) - evaluate(other, beh)) <= 1e-14

    @pytest.mark.parametrize("level, tol", [(1, 1e-7), (2, 1e-7), (3, 1e-6)])
    def test_outcome_flip_pair_bounds_agree(self, level, tol):
        # the pinned maxima of P(0 | A=0) and P(1 | A=0) are equal, so one
        # job per class suffices; off the Tsirelson face they agree within
        # solver accuracy
        jobs = [([(npa.chsh_functional(4.0 * SettingsDistribution(p_a, p_b).joint()),
                   npa.TSIRELSON)], marg, "max")
                for p_a, p_b in ((0.55, 0.55), (0.45, 0.525), (0.6, 0.45))
                for marg in chsh_marginals()]
        bounds = npa.bound_functionals(level, jobs)
        assert bounds[::2] == pytest.approx(bounds[1::2], abs=tol)

    @pytest.mark.parametrize("p_a, p_b", [(0.55, 0.55), (0.45, 0.525), (0.6, 0.45)])
    def test_mirror_pair_bounds_agree(self, p_a, p_b):
        # built here, not through the reduction, so that both members are solved
        exprs = [npa.chsh_functional(4.0 * SettingsDistribution(p_a, pb).joint())
                 for pb in (p_b, 1.0 - p_b)]
        qmax = npa.bound_functionals(2, [([], expr, "max") for expr in exprs])
        pinned = npa.bound_functionals(2, [
            ([(expr, npa.TSIRELSON)], marg, "max")
            for expr in exprs for marg in chsh_marginals()])
        # penalized bounds scale with rho, so they are compared relative to size
        penalized = npa.bound_functionals(2, [
            ([], marg + rho * expr, "max")
            for expr in exprs for marg in chsh_marginals() for rho in (1e2, 1e3, 1e4)])
        assert qmax[0] == pytest.approx(qmax[1], abs=1e-7)
        assert pinned[:2] == pytest.approx(pinned[2:], abs=1e-7)
        assert penalized[:6] == pytest.approx(penalized[6:], rel=1e-7)

    def test_classes_get_their_representative_value(self, solved):
        # duplicates and mirror branches (p_B -> 1 - p_B) share one class, whose
        # first branch is solved for all of them
        plus, minus = 0.5 + 0.05, 0.5 - 0.05
        branches = np.array([(plus, plus), (plus, minus), (plus, plus), (0.5, 0.5),
                             (minus, minus), (minus, 1.0 - minus)])
        vals = npa.chsh_outcome_guess_bounds(branches, npa.TSIRELSON, level=2)
        assert len(solved) == 2  # (plus, plus) and (minus, minus); (0.5, 0.5) self-tests
        for val, rep in zip(vals, branches[[0, 0, 0, 3, 4, 4]], strict=True):
            one = npa.chsh_outcome_guess_bound(rep, npa.TSIRELSON, level=2)
            assert val == pytest.approx(one, abs=1e-9)
        with pytest.raises(InfeasibleHError):
            npa.chsh_outcome_guess_bounds(branches, npa.TSIRELSON + 0.01, level=2)


class TestBatchedBounds:
    def test_mixed_templates_match_per_template_calls(self):
        nu = nu_functional(UNIFORM)
        hs = [HVector.from_eta(eta) for eta in (0.3, 0.8, 1.0)]
        hs += [HVector(*h) for h in DETERMINISTIC_H[:3]]
        calls = [[(h_pins(h), nu, direction) for direction in ("min", "max")] for h in hs]
        expr = npa.chsh_functional(4.0 * SettingsDistribution(0.55, 0.45).joint())
        calls.append([([(expr, npa.TSIRELSON)], marg, "max") for marg in chsh_marginals()])
        calls.append([([], npa.chsh_functional(), "max"), ([], expr, "max")])
        mixed = npa.bound_functionals(2, sum(calls, []))
        alone = np.concatenate([npa.bound_functionals(2, jobs) for jobs in calls])
        assert mixed == pytest.approx(alone, abs=1e-9)


def crafted(status, gap=0.0, primal_residual=0.0, dual_residual=0.0, primal_objective=0.7):
    """A stand-in for `sdp_solve_batch` whose every solution is the one given."""
    sol = SDPSolution(x=np.zeros((1, 1)), y=np.zeros(0), z=np.zeros((1, 1)),
                      primal_objective=primal_objective, dual_objective=primal_objective,
                      gap=gap, primal_residual=primal_residual,
                      dual_residual=dual_residual, status=status)
    return lambda problems: [sol] * len(problems)


class TestVerdicts:
    @pytest.mark.parametrize("sol, verdict", [
        (crafted("stalled", primal_residual=1e-3), SolverFailure),
        # a dirty dual side with a clean primal one marks an empty LMI even
        # within `_ACCEPT_TOL`: the emptiness check comes first
        (crafted("stalled", primal_residual=1e-10, dual_residual=1.5e-4), InfeasibleHError),
        (crafted("stalled", gap=1e-4, primal_residual=1e-5, dual_residual=1e-9), None),
        # P(0,0|0,0) >= 0 over every behavior, so an optimal max below it is empty
        (crafted("optimal", primal_objective=-1e-2), InfeasibleHError),
    ], ids=["beyond-accept-tol", "empty-lmi", "accepted", "beyond-extreme"])
    def test_each_verdict_of_a_solve(self, monkeypatch, sol, verdict):
        objective = npa.cell(0, 0, 0, 0)
        offset = npa.build_moment_sdp(npa.moment_template(2, []), [], objective, True).offset
        monkeypatch.setattr(npa, "sdp_solve_batch", sol)
        if verdict is None:
            bound = npa.bound_functional(2, [], objective, "max")
            assert bound == offset + 0.7
        else:
            with pytest.raises(verdict):
                npa.bound_functional(2, [], objective, "max")

    def test_bias_sweeps_end_optimal(self, solutions):
        # every pinned CHSH solve of the 25-point level-2 bias sweep and of
        # every fifth point at level 3 ends `optimal`, so none reaches the
        # verdicts of a short stop (most iterations: 18 and 27)
        eps = np.linspace(0.0, 0.12, 25)
        for level, points, most in ((2, eps, 20), (3, eps[::5], 30)):
            branches = np.concatenate([bias_branches(e) for e in points])
            npa.chsh_outcome_guess_bounds(branches, npa.TSIRELSON, level)
            sols = [s for batch in solutions for s in batch]
            assert sols
            assert all(s.optimal for s in sols)
            assert max(s.iterations for s in sols) <= most
            solutions.clear()

    def test_gamma_grids_end_optimal(self, solutions):
        # the gamma tables' solves (12 jobs a level, most iterations 17 and
        # 20) end `optimal` too, so no pipeline solve reaches a short stop
        for level, most in ((2, 25), (3, 30)):
            build_gamma_grids([UNIFORM, NONUNIFORM], 41, level)
            sols = [s for batch in solutions for s in batch]
            assert len(sols) == 12
            assert all(s.optimal for s in sols)
            assert max(s.iterations for s in sols) <= most
            solutions.clear()

    def test_solver_failure_exits_3_with_one_line(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(npa, "sdp_solve_batch", crafted("stalled", primal_residual=1e-3))
        assert cli.main(["gamma", "--grid-res", "15", "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ") and err.count("\n") == 1
        assert not (tmp_path / "gamma.csv").exists()


class TestFunctional:
    def test_cell_expansion_against_behavior(self):
        # the moment expansion evaluated with the realization's moments must
        # agree with the cell table evaluated on its behavior
        rng = np.random.default_rng(2)
        beh = q.hardy_behavior(0.7)
        bases = q.local_bases(q.ALPHA_OPT, q.ALPHA_OPT)
        rho = noisy_state(0.7, q.hardy_state(q.ALPHA_OPT, q.ALPHA_OPT))
        gamma = realization_moment_matrix(rho, bases, 2)
        layout = npa.get_layout(2)
        y = np.array([gamma[entries[0]] for entries in layout.classes.values()])
        for _ in range(5):
            cells = rng.normal(size=(2, 2, 2, 2))
            g, const = layout.moment_vector(cells)
            assert const + g @ y == pytest.approx(evaluate(cells, beh), abs=1e-9)

    def test_marginal_as_cell_sum_expands_to_one_moment(self):
        # P(a | A=0) = sum_b p(a, b | 0, 0): the A0 B0 terms cancel exactly
        layout = npa.get_layout(2)
        a0 = list(layout.classes).index(((0, 0),))
        for a, marg in enumerate(chsh_marginals()):
            g, const = layout.moment_vector(marg)
            expected = np.zeros(len(layout.classes))
            expected[a0] = 1.0 if a == 0 else -1.0
            assert np.array_equal(g, expected)
            assert const == float(a)


class TestLmiSize:
    @staticmethod
    def free_moments(level, eqs):
        """Dimension of the moment vectors meeting y_id = 1 and the pins."""
        layout = npa.get_layout(level)
        rows = [np.eye(1, len(layout.classes))[0]]
        rows += [layout.moment_vector(f)[0] for f, _ in eqs]
        return len(layout.classes) - np.linalg.matrix_rank(np.array(rows))

    @pytest.mark.parametrize("level", [2, 3])
    def test_one_row_per_free_moment(self, level):
        points = [HVector.from_eta(eta) for eta in (0.0, 0.5, 0.9, 1.0)]
        points += [HVector(*h) for h in DETERMINISTIC_H]
        nu = nu_functional(UNIFORM)
        for h in points:
            eqs = h_pins(h)
            problem = npa.build_moment_sdp(npa.moment_template(level, eqs), h.as_array(), nu,
                                           maximize=True)
            rows = len(problem.constraints)
            assert rows == self.free_moments(level, eqs)
            assert rows <= (31 if level == 2 else 61)
            assert prune_dependent_constraints(problem.constraints) \
                == (list(range(rows)), True)

    @pytest.mark.parametrize("kind, level", [("segment", 1), ("segment", 2), ("segment", 3),
                                             ("noiseless", 1), ("noiseless", 2),
                                             ("noiseless", 3), ("chsh", 2), ("chsh", 3)])
    def test_cli_stacks_clear_the_independence_check(self, kind, level):
        # the solver takes independent rows only: every constraint stack the
        # CLI can build must clear its check by a wide margin.  Templates
        # depend on the pinned functionals and the tie flag alone, so every
        # segment point, eta = 1 included, shares one tied template (and an
        # untied one for other objectives); eta = 1 is solved at level 1 and
        # by direct calls at levels 2 and 3; the CHSH pins are those of every
        # branch of both bias-compare grids, whose jobs are never tied
        if kind == "chsh":
            epsilons = np.concatenate([np.linspace(0.0, 0.12, k) for k in (13, 25)])
            pinned = [[(npa.chsh_functional(4.0 * branch.joint()), npa.TSIRELSON)]
                      for eps in epsilons
                      for branch in biased_branches(UNIFORM, float(eps)).branches]
        else:
            etas = (0.0, 0.5, 0.9, 0.99) if kind == "segment" else (1.0,)
            pinned = [h_pins(HVector.from_eta(eta)) for eta in etas]
        for eqs, tied in itertools.product(pinned, (False,) if kind == "chsh" else (False, True)):
            vecs = _svec(npa.moment_template(level, eqs, tied).constraints)
            s_min = np.linalg.svd(vecs, compute_uv=False)[-1]
            assert s_min / (1.0 + np.linalg.norm(vecs, axis=1).max()) >= 0.1


class TestTemplates:
    def test_one_template_per_key_and_call(self, monkeypatch):
        # record the jobs of every `bound_functionals` call of a grid-15
        # table, the templates it builds and the problems it hands to the solver
        calls = []
        bounds, template = npa.bound_functionals, npa.moment_template
        solve, solve_batch = npa.sdp_solve, npa.sdp_solve_batch

        def record_jobs(level, jobs):
            calls.append(SimpleNamespace(level=level, jobs=jobs, built=0, problems=None))
            return bounds(level, jobs)

        def record_template(level, equalities, tied):
            calls[-1].built += 1
            return template(level, equalities, tied)

        def record_solve(problem, **kw):
            calls[-1].problems = [problem]
            return solve(problem, **kw)

        def record_batch(problems, **kw):
            calls[-1].problems = problems
            return solve_batch(problems, **kw)

        monkeypatch.setattr(npa, "bound_functionals", record_jobs)
        monkeypatch.setattr(npa, "moment_template", record_template)
        monkeypatch.setattr(npa, "sdp_solve", record_solve)
        monkeypatch.setattr(npa, "sdp_solve_batch", record_batch)
        # at level 2 the two unsettled points below eta = 1 share a template;
        # level 1 also solves eta = 1, which shares it too
        build_gamma_grids([UNIFORM, NONUNIFORM], 15, 2)
        build_gamma_grids([UNIFORM, NONUNIFORM], 15, 1)
        assert [len(c.jobs) for c in calls] == [4, 6]
        assert [c.built for c in calls] == [1, 1]
        # no job from level 2 on pins a single cell to exactly 0, which would
        # leave its relaxation without interior (self-testing and the LP
        # settle every such point first)
        build_gamma_grids([UNIFORM, NONUNIFORM], 15, 3)
        bias_compare([0.0, 0.05, 0.1], 2)
        assert [c.level for c in calls] == [2, 1, 3, 2] and all(c.jobs for c in calls)
        assert not [(cells, value) for c in calls if c.level >= 2
                    for equalities, _, _ in c.jobs for cells, value in equalities
                    if value == 0.0 and np.count_nonzero(cells) == 1]
        for c in calls:
            keys = [npa._template_key(equalities, objective)
                    for equalities, objective, _ in c.jobs]
            assert c.built == len(set(keys))
            # one constraint array per key, the same object for all its jobs
            assert len({(key, id(p.constraints)) for key, p in zip(keys, c.problems)}) \
                == len({id(p.constraints) for p in c.problems}) == len(set(keys))
            for (equalities, objective, direction), key, problem in zip(
                    c.jobs, keys, c.problems, strict=True):
                alone = npa.build_moment_sdp(template(c.level, equalities, key[0]),
                                             [value for _, value in equalities], objective,
                                             direction == "max")
                for name in ("c", "constraints", "b", "offset"):
                    assert np.asarray(getattr(problem, name)).tobytes() \
                        == np.asarray(getattr(alone, name)).tobytes()


def q_jobs(hs):
    """Both ends of q = P(0,0|1,1) at each h row, min before max."""
    return [(h_pins(HVector(*h)), npa.cell(0, 0, 1, 1), direction)
            for h in hs for direction in ("min", "max")]


@pytest.fixture
def built(monkeypatch):
    """The tie flag of every template `bound_functionals` builds."""
    flags = []
    template = npa.moment_template

    def record(level, equalities, tied):
        flags.append(tied)
        return template(level, equalities, tied)

    monkeypatch.setattr(npa, "moment_template", record)
    return flags


class TestPartySwap:
    @staticmethod
    def template_bounds(level, jobs, tied):
        """Bounds of jobs solved on tied or untied templates, and the row counts."""
        problems = [npa.build_moment_sdp(npa.moment_template(level, eqs, tied),
                                         [value for _, value in eqs], objective,
                                         direction == "max")
                    for eqs, objective, direction in jobs]
        sols = sdp_solve_batch(problems)
        assert all(sol.optimal for sol in sols)
        bounds = [p.offset + (1.0 if direction == "max" else -1.0) * sol.primal_objective
                  for (_, _, direction), p, sol in zip(jobs, problems, sols, strict=True)]
        return np.array(bounds), {len(p.constraints) for p in problems}

    def test_segment_h2_equals_h3_bitwise(self):
        # the ties of every segment q job rest on this
        assert all(np.array_equal(hs[:, 1], hs[:, 2])
                   for hs in (h_rows(np.linspace(0.0, 1.0, n)) for n in (21, 41, 201)))

    @pytest.mark.parametrize("level, untied_rows, tied_rows", [(2, 26, 14), (3, 56, 30)])
    def test_tied_templates_match_untied_on_the_segment(self, level, untied_rows, tied_rows):
        jobs = q_jobs(h_rows(np.linspace(0.85, 0.999, 6)))
        assert all(npa._template_key(eqs, objective)[0] for eqs, objective, _ in jobs)
        tied, rows = self.template_bounds(level, jobs, True)
        assert rows == {tied_rows}
        untied, rows = self.template_bounds(level, jobs, False)
        assert rows == {untied_rows}
        assert tied == pytest.approx(untied, abs=1e-7)
        assert npa.bound_functionals(level, jobs) == pytest.approx(tied, abs=1e-12)

    def test_swap_odd_jobs_are_never_tied(self, built):
        h = h_rows([0.95])[0] + [0.0, 0.0, 2e-3, 0.0]  # h2 != h3
        uniform = npa.chsh_functional(4.0 * UNIFORM.joint())  # swap-invariant pin
        jobs = [(h_pins(HVector(*h)), npa.cell(0, 0, 1, 1), "max"),
                ([(uniform, 2.6)], chsh_marginals()[0], "max"),  # P(0 | A=0)
                (h_pins(HVector.from_eta(0.95)), nu_functional(NONUNIFORM), "max")]
        assert not any(npa._template_key(eqs, objective)[0] for eqs, objective, _ in jobs)
        npa.bound_functionals(2, jobs)
        assert built and not any(built)

    def test_tied_and_untied_jobs_build_two_templates(self, built):
        pinned = h_pins(HVector.from_eta(0.95))
        jobs = [(pinned, objective, direction) for objective in
                (npa.cell(0, 0, 1, 1), nu_functional(UNIFORM)) for direction in ("min", "max")]
        npa.bound_functionals(2, jobs)
        assert sorted(built) == [False, True]

    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_unpinned_chsh_max_is_tied_and_exact(self, level, built):
        assert npa.bound_functional(level, [], npa.chsh_functional(), "max") \
            == pytest.approx(npa.TSIRELSON, abs=1e-8)
        assert built == [True]
