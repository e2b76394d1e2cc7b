"""Hardy-state construction tests: pinned values, closed forms, properties."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hardyqkd import quantum as q
from hardyqkd.errors import ParameterRangeError
from oracles import (born_behavior_loop, check_density_matrix, is_hermitian, is_projector,
                     noisy_state, validate_behavior, validate_measurements)

SQRT5 = np.sqrt(5.0)
# pairs of bases (alpha_A, alpha_B), one with a complex alpha
BASES = ((q.ALPHA_OPT, q.ALPHA_OPT), (0.3, 0.8), (0.6 * np.exp(1j * 0.4), 0.45))


class TestLocalBases:
    def test_optimum_rotated_projector(self):
        alpha = q.ALPHA_OPT
        bases = q.local_bases(alpha, alpha)
        beta = np.sqrt(1.0 - alpha ** 2)
        v = np.array([alpha, beta])
        expected = np.outer(v, v.conj())
        assert np.allclose(bases.projectors[0, 1, 0], expected, atol=1e-12)
        validate_measurements(bases)

    def test_hadamard_case_idempotent_complete(self):
        bases = q.local_bases(2 ** -0.5, 2 ** -0.5)
        validate_measurements(bases)
        p0 = bases.projectors[1, 1, 0]
        assert np.allclose(p0, np.full((2, 2), 0.5), atol=1e-12)

    @pytest.mark.parametrize("alpha", [1.0, 0.0, 0.99999999999, 1e-12])
    def test_degenerate_alpha_rejected(self, alpha):
        with pytest.raises(ParameterRangeError):
            q.local_bases(alpha, 0.5)

    def test_complex_alpha_allowed(self):
        bases = q.local_bases(0.6 * np.exp(1j * 0.3), 0.7)
        validate_measurements(bases)


class TestProductStates:
    def test_phi3_is_00(self):
        bases = q.local_bases(0.41, 0.87)
        phi = q.hardy_product_states(bases)
        assert np.allclose(phi[3], [1, 0, 0, 0], atol=1e-15)

    def test_phi0_hadamard_expansion(self):
        # |1'> = (|0> - |1>)/sqrt2 on both sides; tensor gives (.5,-.5,-.5,.5)
        bases = q.local_bases(2 ** -0.5, 2 ** -0.5)
        phi = q.hardy_product_states(bases)
        assert np.allclose(phi[0], [0.5, -0.5, -0.5, 0.5], atol=1e-12)

    def test_linear_independence_at_optimum(self):
        bases = q.local_bases(q.ALPHA_OPT, q.ALPHA_OPT)
        gram = np.array([[np.vdot(a, b) for b in q.hardy_product_states(bases)]
                         for a in q.hardy_product_states(bases)])
        assert abs(np.linalg.det(gram)) > 1e-6


class TestHardyState:
    def test_hardy_overlap_is_q(self):
        # psi is orthogonal to phi0..phi2 and phased so that <phi3|psi> > 0
        for alpha_a, alpha_b in BASES:
            psi = q.hardy_state(alpha_a, alpha_b)
            phi = q.hardy_product_states(q.local_bases(alpha_a, alpha_b))
            assert max(abs(np.vdot(v, psi)) for v in phi[:3]) <= 1e-15
            overlap = np.vdot(phi[3], psi)
            assert overlap.real > 0.0 and abs(overlap.imag) <= 1e-15
            assert abs(overlap) ** 2 == pytest.approx(q.q_value(alpha_a, alpha_b), abs=1e-15)

    def test_pinned_probabilities_at_optimum(self):
        beh = q.hardy_behavior(1.0)
        assert beh.cell(0, 0, 0, 0) == pytest.approx((5 * SQRT5 - 11) / 2,
                                                     abs=1e-10)
        assert beh.cell(0, 0, 1, 1) == pytest.approx(SQRT5 - 2, abs=1e-10)
        for cell in [(0, 0, 1, 0), (0, 0, 0, 1), (1, 1, 1, 1)]:
            assert abs(beh.cell(*cell)) <= 1e-10

    def test_balanced_alphas_give_one_twelfth(self):
        beh = q.hardy_behavior(1.0, 2 ** -0.5, 2 ** -0.5)
        assert beh.cell(0, 0, 0, 0) == pytest.approx(1.0 / 12.0, abs=1e-10)

    def test_zero_conditions_on_alpha_grid(self):
        mags = np.linspace(0.05, 0.95, 20)
        for aa in mags:
            for ab in mags:
                beh = q.hardy_behavior(1.0, aa, ab)
                for cell in [(0, 0, 1, 0), (0, 0, 0, 1), (1, 1, 1, 1)]:
                    assert abs(beh.cell(*cell)) <= 1e-10

    def test_closed_form_matches_born_rule_on_grid(self):
        mags = np.linspace(0.05, 0.95, 20)
        for aa in mags:
            for ab in mags:
                born = q.hardy_behavior(1.0, aa, ab).cell(0, 0, 0, 0)
                assert born == pytest.approx(q.q_value(aa, ab), abs=1e-10)


class TestQValue:
    def test_maximum_value(self):
        val = q.q_value(q.ALPHA_OPT, q.ALPHA_OPT)
        assert val == pytest.approx((5 * SQRT5 - 11) / 2, abs=1e-12)

    def test_balanced(self):
        assert q.q_value(2 ** -0.5, 2 ** -0.5) == pytest.approx(1 / 12, abs=1e-12)

    def test_grid_sweep_maximum_at_golden_point(self):
        mags = np.linspace(0.01, 0.99, 100)
        best = max((q.q_value(a, b), a, b) for a in mags for b in mags)
        assert best[0] <= (5 * SQRT5 - 11) / 2 + 1e-12
        assert abs(best[1] - q.ALPHA_OPT) < 0.01
        assert abs(best[2] - q.ALPHA_OPT) < 0.01


class TestUniquenessAndNoise:
    def test_orthocomplement_dimension_one(self):
        for alpha in (q.ALPHA_OPT, 2 ** -0.5, 0.3):
            assert q.uniqueness_check(q.local_bases(alpha, alpha)) == 1

    def test_dependent_vectors_rejected(self, monkeypatch):
        e = np.eye(4, dtype=complex)
        monkeypatch.setattr(q, "hardy_product_states", lambda bases: [e[1], e[1], e[2], e[0]])
        assert q.uniqueness_check(q.local_bases(0.5, 0.5)) == 2

    @pytest.mark.parametrize("phase", [1.0, np.exp(0.7j)], ids=["real", "complex"])
    def test_phi0_to_phi2_independent_at_the_alpha_limits(self, phase):
        # the rank of phi0, phi1, phi2 is 3 for every admissible pair of
        # bases, closest to 2 with both |alpha| near 1; the limits lie just
        # inside the open range (1e-10, 1 - 1e-10) that local_bases accepts
        limits = (2e-10, 0.5, 1.0 - 2e-10)
        for alpha_a, alpha_b in itertools.product(limits, repeat=2):
            bases = q.local_bases(alpha_a * phase, alpha_b * phase)
            assert q.uniqueness_check(bases) == 1
            smallest = np.linalg.svd(np.stack(q.hardy_product_states(bases)[:3]),
                                     compute_uv=False).min()
            assert smallest > 1e-6

    def test_noisy_state_limits(self):
        psi = q.hardy_state(q.ALPHA_OPT, q.ALPHA_OPT)
        mixed = noisy_state(0.0, psi)
        assert np.allclose(np.linalg.eigvalsh(mixed), 0.25, atol=1e-12)
        pure = noisy_state(1.0, psi)
        assert np.trace(pure @ pure).real == pytest.approx(1.0, abs=1e-12)

    def test_noisy_state_spectrum_half(self):
        psi = q.hardy_state(q.ALPHA_OPT, q.ALPHA_OPT)
        eigs = np.linalg.eigvalsh(noisy_state(0.5, psi))
        assert np.allclose(sorted(eigs), [0.125, 0.125, 0.125, 0.625],
                           atol=1e-10)

    def test_eta_out_of_range(self):
        with pytest.raises(ParameterRangeError):
            q.hardy_behavior(1.5)
        # one bad visibility of a sweep is enough
        for etas in ([0.5, 1.5], [0.0, -0.1], [np.nan]):
            with pytest.raises(ParameterRangeError):
                q.hardy_tables(etas)


class TestBornBehavior:
    @pytest.mark.parametrize("bad", [-0.3, float("nan")])
    def test_negative_or_nan_cell_rejected(self, bad):
        # simulate counts three CDF rows, which equals the capped count of
        # four only where the CDF never decreases
        p = np.full((2, 2, 2, 2), 0.25)
        p[1, 0, 1, 0] = bad
        with pytest.raises(ParameterRangeError, match="nonnegative"):
            q.Behavior(p=p)

    def test_maximally_mixed_flat(self):
        bases = q.local_bases(0.6, 0.7)
        beh = q.born_behavior(np.eye(4) / 4.0, bases)
        assert np.allclose(beh.p, 0.25, atol=1e-12)

    def test_noisy_cell_formula(self):
        # P(0,0|1,0) = (1 - eta)/4 on the noise family
        for eta in (0.0, 0.3, 0.8, 1.0):
            beh = q.hardy_behavior(eta)
            assert beh.cell(0, 0, 1, 0) == pytest.approx((1 - eta) / 4,
                                                         abs=1e-10)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=10 ** 6))
    def test_no_signaling_for_random_realizations(self, seed):
        rng = np.random.default_rng(seed)
        # random density matrix and random projective measurements
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        bases = q.local_bases(rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9))
        beh = q.born_behavior(rho, bases)
        validate_behavior(beh, tol=1e-10)

    def test_matches_cell_by_cell_loop(self):
        for alpha_a, alpha_b in BASES:
            bases = q.local_bases(alpha_a, alpha_b)
            psi = q.hardy_state(alpha_a, alpha_b)
            for eta in (0.0, 0.35, 0.7, 0.95, 1.0):
                rho = noisy_state(eta, psi)
                beh = q.born_behavior(rho, bases)
                assert np.abs(beh.p - born_behavior_loop(rho, bases)).max() <= 1e-15

    def test_noisy_linearity(self):
        # hardy_behavior is affine in eta by construction, and agrees with
        # the Born rule of the mixed state rho(eta) up to rounding
        for alpha_a, alpha_b in BASES:
            bases = q.local_bases(alpha_a, alpha_b)
            psi = q.hardy_state(alpha_a, alpha_b)
            pure = q.hardy_behavior(1.0, alpha_a, alpha_b).p
            etas = (0.0, 0.2, 0.35, 0.5, 0.9, 1.0)
            assert np.array_equal(q.hardy_tables(etas, alpha_a, alpha_b),
                                  [q.hardy_behavior(eta, alpha_a, alpha_b).p for eta in etas])
            for eta in etas:
                mixed = q.hardy_behavior(eta, alpha_a, alpha_b).p
                assert np.array_equal(mixed, (1 - eta) / 4 + eta * pure)
                assert np.abs(mixed - born_behavior_loop(noisy_state(eta, psi), bases)).max() \
                    <= 1e-15


class TestPredicates:
    def test_hermitian_unitary_projector(self):
        h = np.array([[1.0, 1j], [-1j, 0.5]])
        assert is_hermitian(h)
        assert not is_hermitian(h + np.array([[0, 1e-9], [0, 0]]))
        assert is_projector(np.outer([1, 0], [1, 0]))

    def test_density_matrix_checks(self):
        with pytest.raises(ValueError):
            check_density_matrix(np.eye(4))  # trace 4
        check_density_matrix(np.eye(4) / 4)
