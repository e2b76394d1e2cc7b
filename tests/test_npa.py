"""Relaxation tests: canonicalization, pinned bounds, soundness, LMI size."""

import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hardyqkd import npa, quantum as q
from hardyqkd.analysis import DETERMINISTIC_H_POINTS, nu_functional
from hardyqkd.errors import InfeasibleHError, UnsupportedLevelError
from hardyqkd.npa import LinearFunctional
from hardyqkd.protocol import H_CELLS, UNIFORM, HVector, SettingsDistribution
from hardyqkd.solvers.sdp import prune_dependent_constraints

SYMBOLS = [(0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 0)]
HARDY_ZEROS = {(0, 0, 1, 0): 0.0, (0, 0, 0, 1): 0.0, (1, 1, 1, 1): 0.0}


def pins(cells):
    """Equality list pinning behavior cells (a, b, A, B) -> value."""
    return [(LinearFunctional.from_cell(*cell), val) for cell, val in cells.items()]


def h_pins(h):
    return pins(dict(zip(H_CELLS, map(float, h.as_array()))))


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
            elif a[0] == b[0] and a[1] == b[1] and a[2] != b[2]:
                return None  # orthogonal projectors annihilate
    return tuple(w)


class TestMonomials:
    def test_level_one_exact(self):
        assert npa.monomial_basis(1) == [
            (), ((0, 0, 0),), ((0, 1, 0),), ((1, 0, 0),), ((1, 1, 0),)]

    def test_level_two_matches_enumeration_oracle(self):
        expected = set()
        for length in range(3):
            for word in itertools.product(SYMBOLS, repeat=length):
                red = oracle_reduce(word)
                if red is not None and len(red) <= 2:
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

    def test_orthogonal_pair_annihilates(self):
        word = ((0, 0, 0), (0, 0, 1))
        assert npa.canonical(word) is None


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
        gamma = npa.realization_moment_matrix(rho, bases, level=2)
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
        obj = LinearFunctional.from_cell(0, 0, 0, 0)
        hi = npa.bound_functional(2, [], obj, "max")
        lo = npa.bound_functional(2, [], obj, "min")
        assert hi <= 1 + 1e-6
        assert hi >= 1 - 1e-4
        assert abs(lo) <= 1e-6

    def test_hardy_maximum_level_two(self):
        eqs = pins(HARDY_ZEROS)
        obj = LinearFunctional.from_cell(0, 0, 0, 0)
        hi = npa.bound_functional(2, eqs, obj, "max")
        assert hi == pytest.approx(q.Q_MAX, abs=2e-3)
        assert hi >= q.Q_MAX - 1e-6  # must dominate the explicit realization
        lo = npa.bound_functional(2, eqs, obj, "min")
        assert abs(lo) <= 1e-6

    def test_fully_pinned_behavior(self):
        # normalization makes some of the 16 cell pins redundant; moment
        # substitution absorbs them, so the solver must never prune a row
        cells = {(a, b, sa, sb): 0.25 for a in range(2) for b in range(2)
                 for sa in range(2) for sb in range(2)}
        eqs = pins(cells)
        obj = LinearFunctional.from_cell(0, 0, 0, 0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            hi = npa.bound_functional(1, eqs, obj, "max")
            lo = npa.bound_functional(1, eqs, obj, "min")
        assert not [w for w in caught if "pruned" in str(w.message)]
        assert hi == pytest.approx(0.25, abs=1e-6)
        assert lo == pytest.approx(0.25, abs=1e-6)

    def test_hardy_nu_pinned_at_eta_one(self):
        # the unique behavior forces P(0,0|1,1) = sqrt(5) - 2
        eqs = pins({(0, 0, 0, 0): q.Q_MAX, **HARDY_ZEROS})
        obj = LinearFunctional.from_cell(0, 0, 1, 1)
        hi = npa.bound_functional(2, eqs, obj, "max")
        lo = npa.bound_functional(2, eqs, obj, "min")
        assert hi == pytest.approx(q.Q_TILDE, abs=1e-3)
        assert lo == pytest.approx(q.Q_TILDE, abs=1e-3)
        assert lo - 1e-6 <= q.Q_TILDE <= hi + 1e-6

    def test_bounds_monotone_in_level(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            cells = rng.normal(size=(2, 2, 2, 2))
            obj = LinearFunctional(cells=cells)
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
            cells = rng.normal(size=(2, 2, 2, 2))
            obj = LinearFunctional(cells=cells)
            value = obj.evaluate(beh)
            assert npa.bound_functional(2, [], obj, "max") >= value - 1e-6
            assert npa.bound_functional(2, [], obj, "min") <= value + 1e-6

    def test_infeasible_h_detected(self):
        # P(0,0|0,0) = 0.2 with the three Hardy zeros exceeds the quantum max
        eqs = pins({(0, 0, 0, 0): 0.2, **HARDY_ZEROS})
        obj = LinearFunctional.from_cell(0, 0, 1, 1)
        with pytest.raises(InfeasibleHError):
            npa.bound_functional(2, eqs, obj, "max")


class TestChshGuess:
    def test_unbiased_tsirelson_gives_half(self):
        val = npa.chsh_outcome_guess_bound(UNIFORM, npa.TSIRELSON, level=2)
        assert val == pytest.approx(0.5, abs=1e-3)

    def test_classical_value_gives_one(self):
        val = npa.chsh_outcome_guess_bound(UNIFORM, 2.0, level=2)
        assert val == pytest.approx(1.0, abs=1e-6)

    def test_biased_branch_strictly_worse(self):
        from hardyqkd.protocol import biased_branches
        branch = biased_branches(UNIFORM, 0.05).branches[0]
        val = npa.chsh_outcome_guess_bound(branch, npa.TSIRELSON, level=2)
        base = npa.chsh_outcome_guess_bound(UNIFORM, npa.TSIRELSON, level=2)
        assert 0.5 < val < 1.0
        assert val > base + 1e-3

    def test_observed_above_quantum_max_rejected(self):
        with pytest.raises(InfeasibleHError):
            npa.chsh_outcome_guess_bound(UNIFORM, 2 * np.sqrt(2) + 0.01,
                                         level=2)


def chsh_marginals():
    """P(a | A=0) for a = 0, 1 as functionals."""
    margs = []
    for a in range(2):
        marg = np.zeros((2, 2))
        marg[a, 0] = 1.0
        margs.append(LinearFunctional(marg_a=marg))
    return margs


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
            g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            rho = g @ g.conj().T
            alphas = rng.uniform(0.05, 0.95, size=2) * np.exp(2j * np.pi * rng.uniform(size=2))
            beh = q.born_behavior(rho / np.trace(rho).real, q.local_bases(*alphas))
            image = q.Behavior(p=self.relabel(beh.p))
            p_a, p_b = rng.uniform(size=2)
            value = npa.chsh_functional(4.0 * SettingsDistribution(p_a, p_b).joint())
            mirror = npa.chsh_functional(4.0 * SettingsDistribution(p_a, 1.0 - p_b).joint())
            assert abs(mirror.evaluate(image) - value.evaluate(beh)) <= 1e-14
            for marg in chsh_marginals():
                assert abs(marg.evaluate(image) - marg.evaluate(beh)) <= 1e-14

    @pytest.mark.parametrize("p_a, p_b", [(0.55, 0.55), (0.45, 0.525), (0.6, 0.45)])
    def test_mirror_pair_bounds_agree(self, p_a, p_b):
        # built here, not through the reduction, so that both members are solved
        exprs = [npa.chsh_functional(4.0 * SettingsDistribution(p_a, pb).joint())
                 for pb in (p_b, 1.0 - p_b)]
        qmax = [b for b, _ in npa.bound_functionals(
            2, [([], expr, "max") for expr in exprs], tol=1e-10)]
        pinned = [b for b, _ in npa.bound_functionals(2, [
            ([(expr, npa.TSIRELSON)], marg, "max")
            for expr in exprs for marg in chsh_marginals()])]
        # penalized bounds scale with rho, so they are compared relative to size
        penalized = [b for b, _ in npa.bound_functionals(2, [
            ([], LinearFunctional(cells=rho * expr.cells, marg_a=marg.marg_a), "max")
            for expr in exprs for marg in chsh_marginals() for rho in (1e2, 1e3, 1e4)],
            tol=1e-10)]
        assert qmax[0] == pytest.approx(qmax[1], abs=1e-7)
        assert pinned[:2] == pytest.approx(pinned[2:], abs=1e-7)
        assert penalized[:6] == pytest.approx(penalized[6:], rel=1e-7)

    def test_classes_get_their_representative_value(self):
        plus, minus = 0.5 + 0.05, 0.5 - 0.05
        branches = [SettingsDistribution(plus, plus), SettingsDistribution(plus, minus),
                    SettingsDistribution(plus, plus), UNIFORM,
                    SettingsDistribution(minus, minus), SettingsDistribution(minus, 1.0 - minus)]
        reps, index = npa._symmetry_classes(branches)
        assert index == [0, 0, 0, 1, 2, 2]
        assert [(r.p_a, r.p_b) for r in reps] == [(plus, plus), (0.5, 0.5), (minus, minus)]
        vals = npa.chsh_outcome_guess_bounds(branches, npa.TSIRELSON, level=2)
        for k, val in zip(index, vals, strict=True):
            one = npa.chsh_outcome_guess_bound(reps[k], npa.TSIRELSON, level=2)
            assert val == pytest.approx(one, abs=1e-9)
        with pytest.raises(InfeasibleHError):
            npa.chsh_outcome_guess_bounds(branches, npa.TSIRELSON + 0.01, level=2)


class TestBatchedBounds:
    def test_mixed_templates_match_per_template_calls(self):
        nu = nu_functional(UNIFORM)
        hs = [HVector.from_eta(eta) for eta in (0.3, 0.8, 1.0)] + list(DETERMINISTIC_H_POINTS[:3])
        calls = [[(h_pins(h), nu, direction) for direction in ("min", "max")] for h in hs]
        expr = npa.chsh_functional(4.0 * SettingsDistribution(0.55, 0.45).joint())
        calls.append([([(expr, npa.TSIRELSON)], marg, "max") for marg in chsh_marginals()])
        calls.append([([], npa.chsh_functional(), "max"), ([], expr, "max")])
        mixed = [bound for bound, _ in npa.bound_functionals(2, sum(calls, []))]
        alone = [bound for jobs in calls for bound, _ in npa.bound_functionals(2, jobs)]
        assert mixed == pytest.approx(alone, abs=1e-9)


class TestFunctional:
    def test_cell_expansion_against_behavior(self):
        rng = np.random.default_rng(2)
        beh = q.hardy_behavior(0.7)
        cells = rng.normal(size=(2, 2, 2, 2))
        marg_a = rng.normal(size=(2, 2))
        marg_b = rng.normal(size=(2, 2))
        func = LinearFunctional(cells=cells, marg_a=marg_a, marg_b=marg_b,
                                const=0.3)
        # moment expansion evaluated with the realization's moments must agree
        bases = q.local_bases(q.ALPHA_OPT, q.ALPHA_OPT)
        rho = q.noisy_state(0.7, q.hardy_state(q.ALPHA_OPT, q.ALPHA_OPT))
        gamma = npa.realization_moment_matrix(rho, bases, 2)
        layout = npa.get_layout(2)
        coeffs, const = func.moment_coefficients()
        total = const
        for word, cc in coeffs.items():
            key = layout.class_key(npa.canonical(word))
            i, j = layout.classes[key][0]
            total += cc * gamma[i, j]
        assert total == pytest.approx(func.evaluate(beh), abs=1e-9)


class TestLmiSize:
    @staticmethod
    def free_moments(level, eqs):
        """Dimension of the moment vectors meeting y_id = 1, the pins and
        Gamma(y) v = 0 for each cell pinned to zero, from the class entries."""
        layout = npa.get_layout(level)
        n, keys = layout.dim, list(layout.classes)
        index = {w: k for k, w in enumerate(layout.monomials)}
        rows = [np.eye(1, len(keys))[0]]
        rows += [layout.moment_vector(f)[0] for f, _ in eqs]
        for f, val in eqs:
            if val != 0.0:
                continue
            a, b, sa, sb = map(int, np.argwhere(f.cells)[0])
            # the product projector of the zero cell over {1, A, B, AB}
            v = np.zeros(n)
            for wa, ca in ([(((0, sa, 0),), 1.0)] if a == 0
                           else [((), 1.0), (((0, sa, 0),), -1.0)]):
                for wb, cb in ([(((1, sb, 0),), 1.0)] if b == 0
                               else [((), 1.0), (((1, sb, 0),), -1.0)]):
                    v[index[wa + wb]] += ca * cb
            # (Gamma(y) v)_i = sum over entries (i, j) of y_class(i, j) v_j
            tie = np.zeros((n, len(keys)))
            for k, entries in enumerate(layout.classes.values()):
                for i, j in set(entries) | {(j, i) for i, j in entries}:
                    tie[i, k] += v[j]
            rows += list(tie)
        return len(keys) - np.linalg.matrix_rank(np.array(rows))

    @pytest.mark.parametrize("level", [2, 3])
    def test_one_row_per_free_moment(self, level):
        points = [HVector.from_eta(eta) for eta in (0.0, 0.5, 0.9, 1.0)]
        points += list(DETERMINISTIC_H_POINTS)
        nu = nu_functional(UNIFORM)
        for h in points:
            eqs = h_pins(h)
            problem = npa.build_moment_sdp(level, eqs, nu, maximize=True)
            rows = len(problem.constraints)
            assert rows == self.free_moments(level, eqs)
            assert rows <= (31 if level == 2 else 61)
            kept, consistent = prune_dependent_constraints(problem.constraints,
                                                           problem.b)
            assert consistent and len(kept) == rows
