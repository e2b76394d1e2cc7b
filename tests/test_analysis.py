"""Guessing-bound and key-rate tests against known endpoint values."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hardyqkd.analysis as an
from hardyqkd import npa, protocol as pr, quantum as q
from hardyqkd.errors import ZeroPosteriorError
from hardyqkd.protocol import HVector

POSTERIOR0 = q.Q_MAX / (q.Q_MAX + q.Q_TILDE)  # 0.2763932...


@pytest.fixture(scope="module")
def grid_uniform():
    return an.build_gamma_grid(pr.UNIFORM, resolution=41)


@pytest.fixture(scope="module")
def grid_nonuniform():
    return an.build_gamma_grid(pr.NONUNIFORM, resolution=41)


class TestBayesPosterior:
    def test_noiseless_uniform(self):
        beh = q.hardy_behavior(1.0)
        pa0, pa1 = an.bayes_setting_posterior(beh, pr.UNIFORM)
        assert pa0 == pytest.approx(POSTERIOR0, abs=1e-10)
        assert pa1 == pytest.approx(1.0 - POSTERIOR0, abs=1e-10)

    def test_noiseless_nonuniform_balanced(self):
        beh = q.hardy_behavior(1.0)
        pa0, pa1 = an.bayes_setting_posterior(beh, pr.NONUNIFORM)
        assert pa0 == pytest.approx(0.5, abs=1e-10)
        assert pa1 == pytest.approx(0.5, abs=1e-10)

    def test_flat_behavior_symmetric(self):
        flat = q.Behavior(p=np.full((2, 2, 2, 2), 0.25))
        assert an.bayes_setting_posterior(flat, pr.UNIFORM) == (
            pytest.approx(0.5), pytest.approx(0.5))

    def test_zero_posterior(self):
        parr = np.zeros((2, 2, 2, 2))
        parr[1, 1] = 1.0
        with pytest.raises(ZeroPosteriorError):
            an.bayes_setting_posterior(q.Behavior(p=parr), pr.UNIFORM)


class TestGammaTilde:
    def test_noiseless_uniform(self):
        g0, g1 = an.gamma_tilde(HVector.from_eta(1.0), pr.UNIFORM)
        assert g1 == pytest.approx(1.0 - POSTERIOR0, abs=2e-3)
        assert g0 == pytest.approx(POSTERIOR0, abs=2e-3)

    def test_noiseless_nonuniform(self):
        g0, g1 = an.gamma_tilde(HVector.from_eta(1.0), pr.NONUNIFORM)
        assert g0 == pytest.approx(0.5, abs=2e-3)
        assert g1 == pytest.approx(0.5, abs=2e-3)

    def test_noiseless_nu_max_ratio(self):
        # maximizing nu under the pinned noiseless statistics reproduces the
        # posterior ratio gamma1 = nu_max / (sigma + nu_max) = 0.72361 to
        # three decimals
        _, g1 = an.gamma_tilde(HVector.from_eta(1.0), pr.UNIFORM)
        assert g1 == pytest.approx(0.72361, abs=1e-3)

    def test_flat_point_value(self):
        # With all four cells pinned to 1/4 the ratio bounds are 2/3: sigma
        # is 1/8 and nu ranges over [1/16, 1/4] (classical decompositions
        # attain both ends, e.g. mixtures of the strategies with ruled-out
        # or perfectly correlated setting-1 outcomes).
        g0, g1 = an.gamma_tilde(HVector.from_eta(0.0), pr.UNIFORM)
        assert g0 == pytest.approx(2.0 / 3.0, abs=2e-3)
        assert g1 == pytest.approx(2.0 / 3.0, abs=2e-3)

    def test_corner_values(self):
        # (1,0,1,0): both-zero outcomes identify A=0; (0,1,0,0): identify A=1
        g0, g1 = an.gamma_tilde(HVector(1, 0, 1, 0), pr.UNIFORM)
        assert g0 == pytest.approx(1.0, abs=1e-9)
        g0, g1 = an.gamma_tilde(HVector(0, 1, 0, 0), pr.UNIFORM)
        assert (g0, g1) == (0.0, 1.0)
        # never-sifted corner is vacuous
        assert an.gamma_tilde(HVector(0, 0, 0, 1), pr.UNIFORM) == (1.0, 1.0)

    @pytest.mark.parametrize("dist", [pr.UNIFORM, pr.NONUNIFORM],
                             ids=["uniform", "nonuniform"])
    def test_bounds_dominate_realization_posterior(self, dist):
        # relaxation soundness along the noise family
        for eta in np.linspace(0.0, 1.0, 9):
            beh = q.hardy_behavior(float(eta))
            pa0, pa1 = an.bayes_setting_posterior(beh, dist)
            g0, g1 = an.gamma_tilde(HVector.from_eta(float(eta)), dist)
            assert g0 >= pa0 - 1e-3
            assert g1 >= pa1 - 1e-3

    def test_sigma_is_pinned_by_h(self):
        # gamma_tilde evaluates sigma from h instead of bounding it; the SDP
        # range of sigma under the four h pins must collapse to that value
        h = HVector.from_eta(0.6)
        joint = pr.UNIFORM.joint()
        cells = np.zeros((2, 2, 2, 2))
        cells[0, 0, 0, 0] = joint[0, 0]
        cells[0, 0, 0, 1] = joint[0, 1]
        sigma = npa.LinearFunctional(cells=cells)
        pins = [(npa.LinearFunctional.from_cell(*cell), float(v))
                for cell, v in zip(pr.H_CELLS, h.as_array())]
        lo = npa.bound_functional(2, pins, sigma, "min")
        hi = npa.bound_functional(2, pins, sigma, "max")
        expected = an.sigma_from_h(h, pr.UNIFORM)
        assert lo == pytest.approx(expected, abs=1e-4)
        assert hi == pytest.approx(expected, abs=1e-4)


class TestGammaGrid:
    def test_segment_metadata(self, grid_uniform):
        seg = grid_uniform.segment_points()
        assert len(seg) == 41
        assert seg[0].eta == 0.0 and seg[-1].eta == 1.0

    def test_guess_curve_monotone_nonincreasing(self, grid_uniform):
        # The raw gamma ratios are not monotone along the noise family (the
        # pinned zero cells relax faster than sigma shrinks); the decomposed
        # guessing probability is, being concave in h with its maximum at
        # full noise.
        values = [an.guess1(HVector.from_eta(float(e)), grid_uniform)
                  for e in np.linspace(0.0, 1.0, 11)]
        assert values[0] == pytest.approx(1.0, abs=1e-9)
        assert all(b <= a + 1e-7 for a, b in zip(values, values[1:]))

    def test_bounds_in_unit_interval(self, grid_uniform):
        for p in grid_uniform.points:
            assert -1e-12 <= p.gamma0 <= 1.0 + 1e-12
            assert -1e-12 <= p.gamma1 <= 1.0 + 1e-12

    def test_csv_schema(self, grid_uniform):
        text = grid_uniform.to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "eta,h1,h2,h3,h4,gamma0,gamma1"
        assert len(lines) == 1 + len(grid_uniform.points)

    @pytest.mark.parametrize("dist", [pr.UNIFORM, pr.NONUNIFORM],
                             ids=["uniform", "nonuniform"])
    def test_batched_grid_matches_pointwise_bounds(self, dist):
        # the grid solves all its bounds in batches; each point must get the
        # values of its own one-point computation
        grid = an.build_gamma_grid(dist, resolution=15, level=2)
        for p in grid.points:
            g0, g1 = an.gamma_tilde(p.h, dist, level=2)
            assert p.gamma0 == pytest.approx(g0, abs=1e-9)
            assert p.gamma1 == pytest.approx(g1, abs=1e-9)

    def test_sweep_grids_match_per_distribution_grids(self, monkeypatch):
        # key_rate_sweep solves the grids of all distributions in one batch;
        # each must equal the grid built for its distribution alone
        build, built = an.build_gamma_grids, []

        def capture(*args, **kwargs):
            built.extend(grids := build(*args, **kwargs))
            return grids

        monkeypatch.setattr(an, "build_gamma_grids", capture)
        an.key_rate_sweep(np.array([0.9, 1.0]), resolution=15, level=2)
        assert [g.dist_label for g in built] == ["uniform", "nonuniform"]
        for grid, dist in zip(built, (pr.UNIFORM, pr.NONUNIFORM)):
            alone = an.build_gamma_grid(dist, resolution=15, level=2)
            assert [(p.gamma0, p.gamma1) for p in grid.points] == \
                [(p.gamma0, p.gamma1) for p in alone.points]

    def test_single_point_grid_degenerates(self):
        h = HVector.from_eta(1.0)
        g0, g1 = an.gamma_tilde(h, pr.UNIFORM)
        grid = an.GammaGrid(points=[an.GammaPoint(h=h, gamma0=g0, gamma1=g1,
                                                  eta=1.0)],
                            level=2, dist_label="uniform")
        assert an.guess1(h, grid) == pytest.approx(max(g0, g1), abs=1e-9)


class TestGuessPrograms:
    def test_guess1_noiseless_uniform(self, grid_uniform):
        val = an.guess1(HVector.from_eta(1.0), grid_uniform)
        assert val == pytest.approx(1.0 - POSTERIOR0, abs=5e-3)

    def test_guess1_flat_is_one(self, grid_uniform):
        assert an.guess1(HVector.from_eta(0.0), grid_uniform) == pytest.approx(
            1.0, abs=1e-9)

    def test_guess1_concave_on_segment(self, grid_uniform):
        for eta_a, eta_b in ((0.1, 0.9), (0.5, 1.0)):
            mid = 0.5 * (eta_a + eta_b)
            va = an.guess1(HVector.from_eta(eta_a), grid_uniform)
            vb = an.guess1(HVector.from_eta(eta_b), grid_uniform)
            vm = an.guess1(HVector.from_eta(mid), grid_uniform)
            assert vm >= 0.5 * (va + vb) - 1e-8

    def test_guess1_at_least_pointwise_gamma(self, grid_uniform):
        for eta in (0.0, 0.5, 1.0):
            h = HVector.from_eta(eta)
            g0, g1 = an.gamma_tilde(h, pr.UNIFORM)
            assert an.guess1(h, grid_uniform) >= max(g0, g1) - 1e-6

    def test_guess2_noiseless_uniform_is_half(self, grid_uniform):
        beh = q.hardy_behavior(1.0)
        pa0, pa1 = an.bayes_setting_posterior(beh, pr.UNIFORM)
        val = an.guess2(HVector.from_eta(1.0), grid_uniform, pa0, pa1)
        assert val == pytest.approx(0.5, abs=5e-3)

    def test_guess2_balanced_equals_guess1(self, grid_uniform):
        h = HVector.from_eta(0.8)
        assert an.guess2(h, grid_uniform, 0.5, 0.5) == pytest.approx(
            an.guess1(h, grid_uniform), abs=1e-9)

    def test_guess2_flat_is_one(self, grid_uniform):
        assert an.guess2(HVector.from_eta(0.0), grid_uniform, 0.5, 0.5) == \
            pytest.approx(1.0, abs=1e-9)

    def test_guess_lower_bound_half(self, grid_uniform):
        beh = q.hardy_behavior(0.6)
        pa0, pa1 = an.bayes_setting_posterior(beh, pr.UNIFORM)
        for eta in (0.0, 0.4, 0.8, 1.0):
            h = HVector.from_eta(eta)
            assert an.guess2(h, grid_uniform, pa0, pa1) >= 0.5 - 1e-9
            assert an.guess1(h, grid_uniform) >= 0.5 - 1e-9


class TestKeyRates:
    def test_noiseless_uniform_rates(self, grid_uniform):
        r1 = an.key_rate_basic(1.0, pr.UNIFORM, grid_uniform)
        r2 = an.key_rate_dropping(1.0, pr.UNIFORM, grid_uniform)
        # noiseless K1: P(00) * (-log2(q~/(q+q~))) with H(A|B) = 0
        k1_expected = (q.Q_MAX + q.Q_TILDE) / 4 * (
            -np.log2(1.0 - POSTERIOR0))
        assert r1.key_rate == pytest.approx(k1_expected, abs=5e-3)
        assert r2.key_rate == pytest.approx((5 * np.sqrt(5) - 11) / 4,
                                            abs=5e-3)
        assert r2.key_rate > r1.key_rate  # dropping strictly improves

    def test_noiseless_nonuniform_rates(self, grid_nonuniform):
        r1 = an.key_rate_basic(1.0, pr.NONUNIFORM, grid_nonuniform)
        r2 = an.key_rate_dropping(1.0, pr.NONUNIFORM, grid_nonuniform)
        assert r1.key_rate == pytest.approx(0.06888, abs=5e-3)
        assert r2.key_rate == pytest.approx(0.06888, abs=5e-3)

    def test_flat_rate_clamped_to_zero(self, grid_uniform):
        r = an.key_rate_basic(0.0, pr.UNIFORM, grid_uniform)
        assert r.key_rate == 0.0
        assert r.clamped

    def test_report_recompute_identity(self, grid_uniform):
        for eta in (0.0, 0.5, 1.0):
            for fn in (an.key_rate_basic, an.key_rate_dropping):
                r = fn(eta, pr.UNIFORM, grid_uniform)
                assert r.recompute() == pytest.approx(r.key_rate, abs=1e-12)

    def test_rates_nonincreasing_with_noise(self, grid_uniform):
        rates = [an.key_rate_dropping(e, pr.UNIFORM, grid_uniform).key_rate
                 for e in np.linspace(1.0, 0.8, 5)]
        assert all(b <= a + 1e-6 for a, b in zip(rates, rates[1:]))

    def test_csv_writer(self, grid_uniform):
        rows = [an.key_rate_basic(1.0, pr.UNIFORM, grid_uniform)]
        text = an.key_rates_to_csv(rows)
        assert text.startswith("eta,dist,strategy,p00,guess,hab,keyrate\n")
        assert "uniform,basic" in text


class TestNonuniformRatio:
    def test_golden_ratio_value(self):
        r = an.nonuniform_ratio(q.Q_MAX, q.Q_TILDE)
        assert r == pytest.approx((np.sqrt(5) - 1) / 2, abs=1e-9)
        assert r == pytest.approx(0.61803, abs=1e-5)

    def test_symmetric(self):
        assert an.nonuniform_ratio(0.37, 0.37) == pytest.approx(0.5, abs=1e-15)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(min_value=1e-6, max_value=1.0),
           st.floats(min_value=1e-6, max_value=1.0))
    def test_balance_identity(self, x, y):
        r = an.nonuniform_ratio(x, y)
        assert x * r ** 2 == pytest.approx(y * (1 - r) ** 2, abs=1e-12)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            an.nonuniform_ratio(0.0, 0.5)


class TestBiasCompare:
    def test_unbiased_endpoints(self):
        rows = an.bias_compare([0.0])
        assert rows[0].hardy_guess == pytest.approx(0.5, abs=1e-12)
        assert rows[0].chsh_guess == pytest.approx(0.5, abs=1e-3)

    def test_columns_nondecreasing_and_chsh_saturates(self):
        rows = an.bias_compare([0.0, 0.06, 0.12])
        hardy = [r.hardy_guess for r in rows]
        chsh = [r.chsh_guess for r in rows]
        assert all(b >= a - 1e-9 for a, b in zip(hardy, hardy[1:]))
        assert all(b >= a - 1e-6 for a, b in zip(chsh, chsh[1:]))
        assert chsh[-1] >= 1.0 - 1e-3  # deterministic attack fits at 0.12
        assert hardy[-1] <= 0.95

    def test_single_thread_breakdown_point_is_solved(self):
        # With one BLAS thread an iterate at eps = 0.05 (point 10 of the
        # 25-point sweep) has a singular dual matrix Z; the solve must end as
        # a numerical breakdown and still give a bound between the values at
        # eps = 0.045 and 0.055.
        env = {**os.environ, "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
               "PYTHONPATH": str(Path(an.__file__).parents[1])}
        code = ("from hardyqkd import analysis; import numpy as np; "
                "eps = float(np.linspace(0, 0.12, 25)[10]); "
                "print(repr(analysis.bias_compare([eps])[0].chsh_guess))")
        run = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        assert 0.59375 < float(run.stdout) < 0.61716

    def test_csv(self):
        rows = an.bias_compare([0.0])
        text = an.bias_compare_to_csv(rows)
        assert text.startswith("epsilon,hardy_guess,chsh_guess\n")
