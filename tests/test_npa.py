"""Relaxation tests: canonicalization, pinned bounds, soundness, dumps."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hardyqkd import npa, quantum as q
from hardyqkd.errors import InfeasibleHError, UnsupportedLevelError
from hardyqkd.npa import LinearFunctional
from hardyqkd.protocol import UNIFORM

SYMBOLS = [(0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 0)]


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
        eqs = npa.cell_equalities({(0, 0, 1, 0): 0.0, (0, 0, 0, 1): 0.0,
                                   (1, 1, 1, 1): 0.0})
        obj = LinearFunctional.from_cell(0, 0, 0, 0)
        hi = npa.bound_functional(2, eqs, obj, "max")
        assert hi == pytest.approx(q.Q_MAX, abs=2e-3)
        assert hi >= q.Q_MAX - 1e-6  # must dominate the explicit realization
        lo = npa.bound_functional(2, eqs, obj, "min")
        assert abs(lo) <= 1e-6

    @pytest.mark.filterwarnings("ignore:pruned:RuntimeWarning")
    def test_fully_pinned_behavior(self):
        # normalization makes some of the 16 cell pins redundant; the solver
        # prunes them (with its warning) and must still solve
        cells = {(a, b, sa, sb): 0.25 for a in range(2) for b in range(2)
                 for sa in range(2) for sb in range(2)}
        eqs = npa.cell_equalities(cells)
        obj = LinearFunctional.from_cell(0, 0, 0, 0)
        assert npa.bound_functional(1, eqs, obj, "max") == pytest.approx(
            0.25, abs=1e-6)
        assert npa.bound_functional(1, eqs, obj, "min") == pytest.approx(
            0.25, abs=1e-6)

    def test_hardy_nu_pinned_at_eta_one(self):
        # the unique behavior forces P(0,0|1,1) = sqrt(5) - 2
        eqs = npa.cell_equalities({(0, 0, 0, 0): q.Q_MAX, (0, 0, 1, 0): 0.0,
                                   (0, 0, 0, 1): 0.0, (1, 1, 1, 1): 0.0})
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
        eqs = npa.cell_equalities({(0, 0, 0, 0): 0.2, (0, 0, 1, 0): 0.0,
                                   (0, 0, 0, 1): 0.0, (1, 1, 1, 1): 0.0})
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
            i, j = layout.representative[key]
            total += cc * gamma[i, j]
        assert total == pytest.approx(func.evaluate(beh), abs=1e-9)
