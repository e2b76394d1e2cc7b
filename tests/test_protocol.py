"""Protocol simulation tests: sampling statistics, sifting, entropies, bias."""

import csv
import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hardyqkd import protocol as pr, quantum as q
from hardyqkd.errors import (
    EpsilonTooLargeError,
    InsufficientDataError,
    ParameterRangeError,
    ZeroPosteriorError,
)
from hardyqkd.quantum import Behavior

FLAT = Behavior(p=np.full((2, 2, 2, 2), 0.25))


class TestSettingsDistribution:
    def test_joint_table(self):
        d = pr.SettingsDistribution(0.3, 0.8)
        joint = d.joint()
        assert joint[0, 0] == pytest.approx(0.24)
        assert joint.sum() == pytest.approx(1.0, abs=1e-12)

    def test_nonuniform_ratio_value(self):
        assert pr.NONUNIFORM.p_a == pytest.approx((np.sqrt(5) - 1) / 2,
                                                  abs=1e-12)

    def test_invalid_probability(self):
        with pytest.raises(ParameterRangeError):
            pr.SettingsDistribution(1.2, 0.5)


class TestBiasModel:
    def test_zero_epsilon_identical_branches(self):
        model = pr.biased_branches(pr.UNIFORM, 0.0)
        assert len(model.branches) == 4
        for b in model.branches:
            assert b.p_a == 0.5 and b.p_b == 0.5

    def test_plus_plus_branch_cell(self):
        model = pr.biased_branches(pr.UNIFORM, 0.1)
        assert model.branches[0].joint()[0, 0] == pytest.approx(0.36, abs=1e-12)

    def test_too_large_epsilon(self):
        with pytest.raises(EpsilonTooLargeError):
            pr.biased_branches(pr.UNIFORM, 0.6)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(min_value=0.05, max_value=0.95),
           st.floats(min_value=0.05, max_value=0.95),
           st.floats(min_value=0.0, max_value=0.04))
    def test_branch_average_recovers_base(self, pa, pb, eps):
        base = pr.SettingsDistribution(pa, pb)
        model = pr.biased_branches(base, eps)
        avg = np.stack([b.joint() for b in model.branches]).mean(axis=0)
        assert np.abs(avg - base.joint()).max() < 1e-14


class TestSimulate:
    def test_deterministic_given_seed(self):
        beh = q.hardy_behavior(0.9)
        t1 = pr.simulate(5000, beh, pr.UNIFORM, 0.2, seed=99)
        t2 = pr.simulate(5000, beh, pr.UNIFORM, 0.2, seed=99)
        assert t1.to_csv() == t2.to_csv()
        t3 = pr.simulate(5000, beh, pr.UNIFORM, 0.2, seed=100)
        assert t1.to_csv() != t3.to_csv()

    def test_zero_probability_cells_never_sampled(self):
        beh = q.hardy_behavior(1.0)
        t = pr.simulate(100_000, beh, pr.UNIFORM, 0.0, seed=5)
        mask = (t.setting_a == 1) & (t.setting_b == 0) \
            & (t.outcome_a == 0) & (t.outcome_b == 0)
        assert mask.sum() == 0

    def test_flat_behavior_cell_frequencies(self):
        n = 1_000_000
        t = pr.simulate(n, FLAT, pr.UNIFORM, 0.0, seed=11)
        for sa in range(2):
            for sb in range(2):
                for a in range(2):
                    for b in range(2):
                        count = int(((t.setting_a == sa) & (t.setting_b == sb)
                                     & (t.outcome_a == a)
                                     & (t.outcome_b == b)).sum())
                        p = 0.25 * 0.25  # settings pair * outcome cell
                        sigma = np.sqrt(p * (1 - p) / n)
                        assert abs(count / n - p) <= 3 * sigma + 1e-9

    def test_empirical_behavior_converges(self):
        n = 10_000
        beh = q.hardy_behavior(1.0)
        joint_settings = pr.UNIFORM.joint()
        target = beh.p * joint_settings[None, None, :, :]
        for seed in range(100):
            t = pr.simulate(n, beh, pr.UNIFORM, 0.0, seed=seed)
            counts = np.zeros((2, 2, 2, 2))
            np.add.at(counts, (t.outcome_a, t.outcome_b,
                               t.setting_a, t.setting_b), 1.0)
            tv = 0.5 * np.abs(counts / n - target).sum()
            assert tv <= 5.0 / np.sqrt(n)

    def test_bias_model_branch_sampling(self):
        model = pr.biased_branches(pr.UNIFORM, 0.4)
        n = 200_000
        t = pr.simulate(n, FLAT, model, 0.0, seed=3)
        # averaged over branches the settings stay uniform
        for sa in range(2):
            for sb in range(2):
                frac = ((t.setting_a == sa) & (t.setting_b == sb)).mean()
                assert abs(frac - 0.25) <= 3 * np.sqrt(0.25 * 0.75 / n)
        # per-branch bias shows up in the settings-pair variance:
        # P(A=0,B=0) per branch in {0.81, 0.09, 0.09, 0.01}, mean 0.25
        cell00 = float(np.mean([
            ((tt.setting_a == 0) & (tt.setting_b == 0)).mean() ** 2
            for tt in [pr.simulate(2000, FLAT, model, 0.0, seed=s)
                       for s in range(40)]]))
        assert cell00 > 0.25 ** 2  # strictly larger spread than unbiased

    def test_csv_matches_csv_writer(self):
        # 70k rounds cross a 64k-row chunk boundary of the CSV writer
        t = pr.simulate(70_000, FLAT, pr.biased_branches(pr.UNIFORM, 0.1),
                        0.3, seed=17)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["index", "settingA", "settingB", "outcomeA",
                         "outcomeB", "revealed"])
        for i in range(len(t)):
            writer.writerow([i, int(t.setting_a[i]), int(t.setting_b[i]),
                             int(t.outcome_a[i]), int(t.outcome_b[i]),
                             int(t.revealed[i])])
        assert t.to_csv() == buf.getvalue()

    def test_invalid_parameters(self):
        with pytest.raises(ParameterRangeError):
            pr.simulate(0, FLAT, pr.UNIFORM, 0.5, seed=1)
        with pytest.raises(ParameterRangeError):
            pr.simulate(10, FLAT, pr.UNIFORM, 1.5, seed=1)


class TestSiftAndKeys:
    def test_empty_when_no_double_zero(self):
        # all outcomes are (1,1), so nothing survives sifting
        parr = np.zeros((2, 2, 2, 2))
        parr[1, 1] = 1.0
        t = pr.simulate(1000, Behavior(p=parr), pr.UNIFORM, 0.0, seed=2)
        assert len(pr.sift(t)) == 0

    def test_retained_fraction_matches_sifting_probability(self):
        n = 400_000
        beh = q.hardy_behavior(1.0)
        t = pr.simulate(n, beh, pr.UNIFORM, 0.0, seed=8)
        sifted = pr.sift(t)
        p_keep = (q.Q_MAX + q.Q_TILDE) / 4.0
        assert p_keep == pytest.approx(0.08156, abs=5e-5)
        assert abs(len(sifted) / n - p_keep) <= 3 * np.sqrt(p_keep * (1 - p_keep) / n)

    def test_noiseless_keys_identical(self):
        beh = q.hardy_behavior(1.0)
        for seed in range(10):
            t = pr.simulate(20_000, beh, pr.UNIFORM, 0.3, seed=seed)
            sifted = pr.sift(t)
            assert np.array_equal(sifted.setting_a, sifted.setting_b)
            alice, bob = pr.key_bits(sifted)
            assert np.array_equal(alice, bob)

    def test_revealed_rounds_excluded(self):
        beh = q.hardy_behavior(1.0)
        t = pr.simulate(5000, beh, pr.UNIFORM, 1.0, seed=4)
        assert len(pr.sift(t)) == 0  # everything was revealed


class TestEstimateH:
    def test_noiseless_estimate(self):
        beh = q.hardy_behavior(1.0)
        t = pr.simulate(200_000, beh, pr.UNIFORM, 1.0, seed=21)
        est = pr.estimate_h(t.revealed_rounds())
        expected = pr.HVector.from_eta(1.0).as_array()
        for k in range(4):
            sigma = np.sqrt(expected[k] * (1 - expected[k]) / est.counts[k])
            assert abs(est.h.as_array()[k] - expected[k]) <= 3 * sigma + 1e-12

    def test_noisy_estimate_eta_08(self):
        beh = q.hardy_behavior(0.8)
        t = pr.simulate(400_000, beh, pr.UNIFORM, 1.0, seed=22)
        est = pr.estimate_h(t.revealed_rounds())
        expected = np.array([0.8 * q.Q_MAX + 0.05, 0.05, 0.05, 0.05])
        for k in range(4):
            sigma = np.sqrt(expected[k] * (1 - expected[k]) / est.counts[k])
            assert abs(est.h.as_array()[k] - expected[k]) <= 3 * sigma

    def test_matches_per_round_count(self):
        t = pr.simulate(20_000, q.hardy_behavior(0.7), pr.NONUNIFORM, 0.4,
                        seed=23)
        hits, totals = np.zeros(4), np.zeros(4)
        for i in np.flatnonzero(t.revealed):
            for k, (a, b, sa, sb) in enumerate(pr.H_CELLS):
                if (t.setting_a[i], t.setting_b[i]) == (sa, sb):
                    totals[k] += 1
                    hits[k] += (t.outcome_a[i], t.outcome_b[i]) == (a, b)
        est = pr.estimate_h(t.revealed_rounds())
        assert np.array_equal(est.counts, totals)
        assert np.array_equal(est.h.as_array(), hits / totals)

    def test_insufficient_data(self):
        one = np.zeros(1, dtype=np.int8)
        t = pr.Transcript(seed=0, behavior=FLAT, distribution=pr.UNIFORM,
                          setting_a=one, setting_b=one, outcome_a=one,
                          outcome_b=one, revealed=np.ones(1, dtype=bool))
        with pytest.raises(InsufficientDataError):
            pr.estimate_h(t.revealed_rounds())


def entropy_oracle(joint):
    """Direct H(A|B) = H(A,B) - H(B) summation, written independently."""
    h_joint = 0.0
    for val in joint.ravel():
        if val > 0:
            h_joint -= val * np.log2(val)
    h_b = 0.0
    for val in joint.sum(axis=0):
        if val > 0:
            h_b -= val * np.log2(val)
    return h_joint - h_b


class TestConditionalEntropy:
    def test_noiseless_perfect_correlation(self):
        beh = q.hardy_behavior(1.0)
        assert pr.conditional_entropy(beh, pr.UNIFORM) == pytest.approx(
            0.0, abs=1e-12)

    def test_flat_behavior_gives_one_bit(self):
        assert pr.conditional_entropy(FLAT, pr.UNIFORM) == pytest.approx(
            1.0, abs=1e-12)

    def test_matches_direct_summation_oracle(self):
        for eta in (0.9, 0.6, 0.3):
            for dist in (pr.UNIFORM, pr.NONUNIFORM):
                beh = q.hardy_behavior(eta)
                joint = beh.p[0, 0] * dist.joint()
                joint = joint / joint.sum()
                assert pr.conditional_entropy(beh, dist) == pytest.approx(
                    entropy_oracle(joint), abs=1e-12)

    def test_relabeling_symmetry(self):
        beh = q.hardy_behavior(0.7)
        val = pr.conditional_entropy(beh, pr.UNIFORM)
        flipped = Behavior(p=beh.p[:, :, ::-1, ::-1])
        assert pr.conditional_entropy(flipped, pr.UNIFORM) == pytest.approx(
            val, abs=1e-12)

    def test_dropping_balances_marginal(self):
        beh = q.hardy_behavior(0.9)
        joint = pr.joint_settings_given_00(beh, pr.UNIFORM)
        pa = joint.sum(axis=1)
        assert abs(pa[0] - pa[1]) > 1e-3  # unbalanced before dropping
        val = pr.conditional_entropy(beh, pr.UNIFORM, dropping=True)
        oracle_joint = joint * (pa.min() / pa)[:, None]
        oracle_joint /= oracle_joint.sum()
        assert val == pytest.approx(entropy_oracle(oracle_joint), abs=1e-12)

    def test_balanced_posterior_dropping_is_noop(self):
        beh = q.hardy_behavior(1.0)
        plain = pr.conditional_entropy(beh, pr.NONUNIFORM, dropping=False)
        dropped = pr.conditional_entropy(beh, pr.NONUNIFORM, dropping=True)
        assert dropped == pytest.approx(plain, abs=1e-9)

    def test_zero_posterior_error(self):
        parr = np.zeros((2, 2, 2, 2))
        parr[1, 1] = 1.0
        with pytest.raises(ZeroPosteriorError):
            pr.conditional_entropy(Behavior(p=parr), pr.UNIFORM)


class TestNoiselessBiasGuess:
    def test_balanced_nonuniform(self):
        assert pr.noiseless_bias_guess(0.0, pr.NONUNIFORM) == pytest.approx(
            0.5, abs=1e-12)

    def test_uniform_baseline(self):
        expected = q.Q_TILDE / (q.Q_MAX + q.Q_TILDE)
        assert pr.noiseless_bias_guess(0.0, pr.UNIFORM) == pytest.approx(
            expected, abs=1e-12)
        assert expected == pytest.approx(0.72361, abs=1e-5)

    def test_monotone_in_epsilon(self):
        vals = [pr.noiseless_bias_guess(e, pr.NONUNIFORM)
                for e in np.linspace(0.0, 0.2, 11)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
        assert 0.5 < vals[5] < 1.0

    def test_depends_only_on_weighted_masses(self):
        # guess per branch is max(u, v)/(u + v) with u = q P(0,0), v = q~ P(1,1)
        rng = np.random.default_rng(0)
        for _ in range(20):
            dist = pr.SettingsDistribution(rng.uniform(0.2, 0.8),
                                           rng.uniform(0.2, 0.8))
            joint = dist.joint()
            u = q.Q_MAX * joint[0, 0]
            v = q.Q_TILDE * joint[1, 1]
            expected = max(u, v) / (u + v)
            assert pr.noiseless_bias_guess(0.0, dist) == pytest.approx(
                expected, abs=1e-12)
            # scale invariance of the ratio form
            s = rng.uniform(0.1, 5.0)
            assert max(s * u, s * v) / (s * u + s * v) == pytest.approx(
                expected, abs=1e-12)
