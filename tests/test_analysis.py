"""Guessing-bound and key-rate tests against known endpoint values."""

import dataclasses
import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hardyqkd.analysis as an
from hardyqkd import npa, protocol as pr, quantum as q
from hardyqkd.errors import SolverFailure, ZeroPosteriorError
from hardyqkd.protocol import HVector
from hardyqkd.solvers import LPProblem, lp, lp_solve
from oracles import (deterministic_behaviors, gamma_point, key_rate_rows, nu_functional,
                     recompute_key_rate, sigma_from_h)

POSTERIOR0 = q.Q_MAX / (q.Q_MAX + q.Q_TILDE)  # 0.2763932...


@pytest.fixture(scope="module")
def grid_uniform():
    return an.build_gamma_grid(pr.UNIFORM, resolution=41)


@pytest.fixture(scope="module")
def grid_nonuniform():
    return an.build_gamma_grid(pr.NONUNIFORM, resolution=41)


@pytest.fixture(scope="module")
def grids15():
    grids = an.build_gamma_grids([pr.UNIFORM, pr.NONUNIFORM], resolution=15, level=2)
    return {grid.dist_label: grid for grid in grids}


def decomposition_lp(grid, eta, prior=None):
    """(coeff, a_eq, b_eq) of the decomposition LP at h(eta), from the grid's
    own arrays."""
    a_eq = np.vstack([grid.hs.T, np.ones(len(grid.hs))])
    gammas = grid.gammas
    coeff = gammas.max(axis=1) if prior is None else (gammas / (2.0 * np.array(prior))).max(axis=1)
    return coeff, a_eq, np.append(HVector.from_eta(eta).as_array(), 1.0)


def posterior(behavior, dist):
    """(P(A=0 | a=b=0), P(A=1 | a=b=0)), the priors of `key_rates`."""
    return tuple(pr.joint_settings_given_00(behavior.p[0, 0], dist).sum(axis=1))


def cold_value(coeff, a_eq, b_eq):
    sol = lp_solve(LPProblem(c=coeff, a_eq=a_eq, b_eq=b_eq, maximize=True))
    assert sol.optimal
    return sol.value


class TestBayesPosterior:
    def test_noiseless_uniform(self):
        beh = q.hardy_behavior(1.0)
        pa0, pa1 = posterior(beh, pr.UNIFORM)
        assert pa0 == pytest.approx(POSTERIOR0, abs=1e-10)
        assert pa1 == pytest.approx(1.0 - POSTERIOR0, abs=1e-10)

    def test_noiseless_nonuniform_balanced(self):
        beh = q.hardy_behavior(1.0)
        pa0, pa1 = posterior(beh, pr.NONUNIFORM)
        assert pa0 == pytest.approx(0.5, abs=1e-10)
        assert pa1 == pytest.approx(0.5, abs=1e-10)

    def test_flat_behavior_symmetric(self):
        flat = q.Behavior(p=np.full((2, 2, 2, 2), 0.25))
        assert posterior(flat, pr.UNIFORM) == (
            pytest.approx(0.5), pytest.approx(0.5))

    def test_zero_posterior(self):
        parr = np.zeros((2, 2, 2, 2))
        parr[1, 1] = 1.0
        with pytest.raises(ZeroPosteriorError):
            posterior(q.Behavior(p=parr), pr.UNIFORM)


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
        # relaxation soundness along the noise family, at every level
        etas = [float(eta) for eta in np.linspace(0.0, 1.0, 9)]
        posteriors = [posterior(q.hardy_behavior(eta), dist) for eta in etas]
        for level in (1, 2, 3):
            hs = pr.h_rows(etas)
            bounds = an._gamma_table(hs, an._q_brackets(hs, level), dist)
            for (pa0, pa1), (g0, g1) in zip(posteriors, bounds, strict=True):
                assert g0 >= pa0 - 1e-3
                assert g1 >= pa1 - 1e-3

    def test_nu_brackets_match_direct_nu_solves(self):
        # one q bracket serves both distributions: it must give the nu
        # brackets of solving each distribution's nu functional directly
        hs = np.vstack([pr.h_rows((0.0, 0.3, 0.6, 0.9, 0.95, 0.99)), an.DETERMINISTIC_H])
        dists = [pr.UNIFORM, pr.NONUNIFORM]
        qs = an._q_brackets(hs, 2)
        shared = [dist.joint()[1, 0] * hs[:, 1:2] + dist.joint()[1, 1] * qs for dist in dists]
        for dist, brackets in zip(dists, shared, strict=True):
            jobs = [(an._h_equalities(h), nu_functional(dist), direction)
                    for h in hs for direction in ("min", "max")]
            direct = npa.bound_functionals(2, jobs)
            assert [b for bracket in brackets for b in bracket] == \
                pytest.approx(direct, abs=1e-7)

    @pytest.mark.parametrize("level", [2, 3])
    def test_noiseless_bounds_never_below_exact(self, level):
        # at eta = 1 the posterior is exact; the bounds may only lie above it
        hs = pr.h_rows([1.0])
        qs = an._q_brackets(hs, level)
        [(u0, u1)], [(n0, n1)] = (an._gamma_table(hs, qs, dist)
                                  for dist in (pr.UNIFORM, pr.NONUNIFORM))
        assert u0 >= POSTERIOR0 and u1 >= 1.0 - POSTERIOR0
        assert n0 >= 0.5 and n1 >= 0.5

    def test_sigma_is_pinned_by_h(self):
        # gamma_tilde evaluates sigma from h instead of bounding it; the SDP
        # range of sigma under the four h pins must collapse to that value
        h = HVector.from_eta(0.6)
        joint = pr.UNIFORM.joint()
        sigma = np.zeros((2, 2, 2, 2))
        sigma[0, 0, 0, 0] = joint[0, 0]
        sigma[0, 0, 0, 1] = joint[0, 1]
        pins = [(npa.cell(*cell), float(v))
                for cell, v in zip(pr.H_CELLS, h.as_array())]
        lo = npa.bound_functional(2, pins, sigma, "min")
        hi = npa.bound_functional(2, pins, sigma, "max")
        expected = sigma_from_h(h.as_array(), pr.UNIFORM)
        assert lo == pytest.approx(expected, abs=1e-4)
        assert hi == pytest.approx(expected, abs=1e-4)


class TestGammaTable:
    def test_matches_pointwise_reference(self):
        # the array formula gives the per-point one exactly, on random rows
        # and on both vacuous kinds: sigma <= 1e-7, and nu_max <= 1e-7 too
        rng = np.random.default_rng(11)
        hs = rng.uniform(size=(60, 4))
        hs[20:40, [0, 2]] *= 1e-8
        hs[30:40, 1] *= 1e-8
        qs = rng.uniform(-0.1, 1.0, size=(60, 2))
        qs[30:40] *= 1e-8
        dists = [pr.UNIFORM, pr.NONUNIFORM, pr.SettingsDistribution(0.3, 0.6),
                 pr.SettingsDistribution(1.0, 0.0)]
        dists += [pr.SettingsDistribution(*rng.uniform(size=2)) for _ in range(4)]
        kinds = set()
        for dist in dists:
            reference = [gamma_point(h, q, dist) for h, q in zip(hs, qs, strict=True)]
            assert [tuple(row) for row in an._gamma_table(hs, qs, dist).tolist()] == reference
            kinds.update(reference)
        assert {(0.0, 1.0), (1.0, 1.0)} <= kinds

    def test_corner_rows_are_the_deterministic_h_images(self):
        images = {tuple(b[cell] for cell in pr.H_CELLS) for b in deterministic_behaviors()}
        assert an.DETERMINISTIC_H.shape == (8, 4)
        assert an.DETERMINISTIC_H.tolist() == [list(h) for h in sorted(images)]


class TestRelaxedBounds:
    """The noiseless point: exact by self-testing in `an._q_brackets`."""

    @pytest.mark.parametrize("dist, exact, level", [
        (pr.UNIFORM, q.Q_TILDE / 4, 2),
        (pr.NONUNIFORM, q.Q_TILDE * (1.0 - pr.NONUNIFORM_RATIO) ** 2, 2),
        (pr.UNIFORM, q.Q_TILDE / 4, 3),
        (pr.NONUNIFORM, q.Q_TILDE * (1.0 - pr.NONUNIFORM_RATIO) ** 2, 3)],
        ids=["uniform", "nonuniform", "uniform-level3", "nonuniform-level3"])
    def test_polished_noiseless_nu_brackets_exact(self, dist, exact, level):
        # the Hardy realization is the only behavior at eta = 1, so nu is
        # pinned to q~ P(A=1, B=1): the pipeline's bracket on q = P(0,0|1,1),
        # mapped to nu = P(A=1,B=0) h2 + P(A=1,B=1) q, is that value alone
        assert exact == pytest.approx(0.0590170 if dist is pr.UNIFORM else 0.0344419,
                                      abs=5e-8)
        h = HVector.from_eta(1.0)
        joint = dist.joint()
        lo, hi = joint[1, 0] * h.h2 + joint[1, 1] * an._q_brackets(h.as_array()[None], level)[0]
        assert lo == hi == pytest.approx(exact, rel=1e-14)


class TestLevelMonotonicity:
    """A level-3 bound is never looser than the level-2 one."""

    def test_noiseless_faces_agree_at_levels_2_and_3(self):
        # on both faces a direct relaxation has no interior and stops short
        # of `optimal` with no usable bracket: at eta = 1 both q ends raise
        # at level 2, and at level 3 the min is a loose 0.2079 and the max
        # raises; the self-tested values are exact at both levels
        h = HVector.from_eta(1.0)
        gammas = [an.gamma_tilde(h, pr.UNIFORM, level) for level in (2, 3)]
        assert gammas[0] == gammas[1] == pytest.approx((POSTERIOR0, 1.0 - POSTERIOR0),
                                                       abs=1e-15)
        assert [an.bias_compare([0.0], level)[0].chsh_guess for level in (2, 3)] == [0.5, 0.5]

    def test_level_3_never_looser_than_level_2(self):
        # grid 15 with eta = 1 and the corners, and CHSH guesses on and off
        # the Tsirelson face; the slack is the accuracy of accepted solves
        dists = [pr.UNIFORM, pr.NONUNIFORM]
        for two, three in zip(an.build_gamma_grids(dists, 15, 2),
                              an.build_gamma_grids(dists, 15, 3), strict=True):
            assert (three.gammas <= two.gammas + 1e-8).all()
        rows = [an.bias_compare([0.0, 0.05, 0.1], level) for level in (2, 3)]
        for two, three in zip(*rows, strict=True):
            assert three.chsh_guess <= two.chsh_guess + 1e-6


class TestGammaGrid:
    def test_segment_metadata(self, grid_uniform):
        seg = grid_uniform.etas[~np.isnan(grid_uniform.etas)]
        assert len(seg) == 41
        assert seg[0] == 0.0 and seg[-1] == 1.0

    def test_guess_curve_monotone_nonincreasing(self, grid_uniform):
        # The raw gamma ratios are not monotone along the noise family (the
        # pinned zero cells relax faster than sigma shrinks); the decomposed
        # guessing probability is, being concave in h with its maximum at
        # full noise.
        values = [an.guesses(pr.h_rows([e]), grid_uniform)[0]
                  for e in np.linspace(0.0, 1.0, 11)]
        assert values[0] == pytest.approx(1.0, abs=1e-9)
        assert all(b <= a + 1e-7 for a, b in zip(values, values[1:]))

    def test_bounds_in_unit_interval(self, grid_uniform):
        for gamma0, gamma1 in grid_uniform.gammas:
            assert -1e-12 <= gamma0 <= 1.0 + 1e-12
            assert -1e-12 <= gamma1 <= 1.0 + 1e-12

    def test_csv_schema(self, grid_uniform):
        text = grid_uniform.to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "eta,h1,h2,h3,h4,gamma0,gamma1"
        assert len(lines) == 1 + len(grid_uniform.hs)

    @pytest.mark.parametrize("dist", [pr.UNIFORM, pr.NONUNIFORM],
                             ids=["uniform", "nonuniform"])
    def test_batched_grid_matches_pointwise_bounds(self, dist):
        # the grid solves all its bounds in batches; each point must get the
        # values of its own one-point computation
        grid = an.build_gamma_grid(dist, resolution=15, level=2)
        for h, (gamma0, gamma1) in zip(grid.hs, grid.gammas, strict=True):
            g0, g1 = an.gamma_tilde(HVector(*h), dist, level=2)
            assert gamma0 == pytest.approx(g0, abs=1e-9)
            assert gamma1 == pytest.approx(g1, abs=1e-9)

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
            assert grid.gammas.tolist() == alone.gammas.tolist()

    def test_one_q_solve_per_bound_for_both_distributions(self, monkeypatch):
        # both distributions share one pinned bound on q per (h, direction)
        bound, jobs_per_call = npa.bound_functionals, []

        def counting(level, jobs, *args, **kwargs):
            jobs_per_call.append(len(jobs))
            return bound(level, jobs, *args, **kwargs)

        monkeypatch.setattr(npa, "bound_functionals", counting)
        an.build_gamma_grids([pr.UNIFORM, pr.NONUNIFORM], 15, 2)
        # linear programs settle both ends of q at 20 of the 23 points and
        # self-testing settles eta = 1, so only the 2 segment points with
        # 0.845 < eta < 1 need a min and a max solve
        assert jobs_per_call == [4]

    def test_single_point_grid_degenerates(self):
        h = HVector.from_eta(1.0)
        g0, g1 = an.gamma_tilde(h, pr.UNIFORM)
        grid = an.GammaGrid(h.as_array()[None], np.array([[g0, g1]]), np.array([1.0]),
                            dist_label="uniform")
        assert an.guesses(h.as_array()[None], grid)[0] == pytest.approx(max(g0, g1), abs=1e-9)


def grid_points(resolution):
    """The h rows of a gamma grid: the noise segment, then the corners."""
    return np.vstack([pr.h_rows(np.linspace(0.0, 1.0, resolution)), an.DETERMINISTIC_H])


def settle_lps(h, sign):
    """The no-signalling LP of one end of q at h, maximizing sign * q, as
    (coeff, a_eq, b_eq)."""
    return sign * an._NS_Q, an._NS_LP, np.concatenate([np.ones(4), np.zeros(4), h])


def chsh_values(x):
    """The eight CHSH expressions of a behavior given as its 16 cells
    p[a, b, A, B]: each correlator sum with an odd number of minus signs."""
    p = np.reshape(x, (2, 2, 2, 2))
    corr = p[0, 0] + p[1, 1] - p[0, 1] - p[1, 0]
    return [float((np.reshape(signs, (2, 2)) * corr).sum())
            for signs in itertools.product((1, -1), repeat=4) if np.prod(signs) < 0]


class TestSettledEnds:
    def test_settles_grid_15(self):
        # a local model reproduces h up to eta ~ 0.845 and at every corner,
        # and there it attains the no-signalling bound at both ends of q
        ends = an._settled_q_ends(grid_points(15))
        settled = [not np.isnan(pair).any() for pair in ends]
        assert settled == [True] * 12 + [False] * 3 + [True] * 8
        assert np.isnan(ends[12:15]).all()

    @pytest.mark.parametrize("resolution", [15, 3])
    def test_fewer_lp_solves_than_ends_and_points(self, grids15, monkeypatch, resolution):
        # every LP of both families goes through the name the tracer patches;
        # one basis settles a run of points, and the ends it settles are
        # those of a separate solve per point
        made = []
        solve = an.lp_solve
        monkeypatch.setattr(an, "lp_solve", lambda *args: made.append(1) or solve(*args))
        points = grid_points(resolution)
        ends = an._settled_q_ends(points)
        assert 0 < len(made) < 2 * len(points)
        one_by_one = np.vstack([an._settled_q_ends(h[None]) for h in points])
        assert np.array_equal(np.isnan(ends), np.isnan(one_by_one))
        assert np.nanmax(np.abs(ends - one_by_one)) <= 1e-12
        hs = pr.h_rows(ETAS51)
        for priors in (None, [(0.4, 0.6)] * len(hs)):
            made.clear()
            an.guesses(hs, grids15["uniform"], priors)
            assert 0 < len(made) < len(hs)

    def test_failed_certificate_leaves_end_to_sdp(self, monkeypatch):
        # a dual bound off its basis' primal value settles nothing, not even
        # an end at the trivial bound 0 or 1
        bound = an._dual_bound
        monkeypatch.setattr(an, "_dual_bound", lambda *args: bound(*args) + 1e-6)
        ends = an._settled_q_ends(grid_points(15))
        assert np.isnan(ends).all()

    @pytest.mark.parametrize("level", [2, 3])
    def test_settled_ends_match_direct_sdp(self, level):
        # no relaxation tightens a settled end: a direct pinned SDP agrees
        # with it and, up to that solve's tolerance of 1e-8, lies on its
        # outer side (a relaxation contains the quantum set, and a settled
        # end is the quantum value)
        points = grid_points(15)
        jobs, settled = [], []
        for h, pair in zip(points, an._settled_q_ends(points), strict=True):
            for direction, end in zip(("min", "max"), pair):
                if not np.isnan(end):
                    jobs.append((an._h_equalities(h), npa.cell(0, 0, 1, 1), direction))
                    settled.append(end)
        assert len(jobs) == 40
        for (_, _, direction), end, bound in zip(
                jobs, settled, npa.bound_functionals(level, jobs), strict=True):
            assert abs(end - bound) <= 1e-7
            if direction == "max":
                assert bound >= end - 1e-8
            else:
                assert bound <= end + 1e-8

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["max", "min"])
    def test_ns_dual_bound_never_below_optimum(self, sign):
        rng = np.random.default_rng(29)
        for h in np.vstack([pr.h_rows((0.0, 0.4, 0.8, 1.0)), an.DETERMINISTIC_H]):
            coeff, a_eq, b_eq = settle_lps(h, sign)
            optimum = cold_value(coeff, a_eq, b_eq)
            for _ in range(200):
                y = rng.normal(size=12) * 10.0 ** rng.uniform(-3.0, 2.0)
                assert an._dual_bound(y, coeff, a_eq, b_eq) >= optimum - 1e-12

    def test_realizations_meet_the_no_signalling_rows(self):
        for eta in (0.0, 0.5, 1.0):
            behavior = q.hardy_behavior(eta)
            _, a_eq, b_eq = settle_lps(pr.h_rows([eta])[0], 1.0)
            assert np.abs(a_eq @ behavior.p.ravel() - b_eq).max() <= 1e-12

    @pytest.mark.parametrize("resolution", [15, 41])
    def test_settling_vertex_is_a_local_mixture(self, resolution):
        # at every settled end the cold no-signalling vertex attains the end
        # and a mixture of the deterministic strategies, found by an LP over
        # their own tables, reproduces all 16 of its cells; where no end
        # settles (eta > 0.845) the vertex violates CHSH and no mixture
        # exists
        strategies = deterministic_behaviors().reshape(16, 16)
        mixture = np.vstack([strategies.T, np.ones(16)])
        points = grid_points(resolution)
        for h, pair in zip(points, an._settled_q_ends(points), strict=True):
            for sign, end in zip((-1.0, 1.0), pair):
                coeff, a_eq, b_eq = settle_lps(h, sign)
                vertex = lp_solve(LPProblem(c=coeff, a_eq=a_eq, b_eq=b_eq, maximize=True))
                assert vertex.optimal
                local = lp_solve(LPProblem(c=np.zeros(16), a_eq=mixture,
                                           b_eq=np.append(vertex.x, 1.0)))
                if np.isnan(end):
                    assert max(chsh_values(vertex.x)) > 2.0 + 1e-9
                    assert local.status == "infeasible"
                    continue
                assert abs(sign * vertex.value - end) <= 1e-9
                assert local.optimal and (local.x >= 0.0).all()
                assert np.abs(local.x @ strategies - vertex.x).max() <= 1e-9

    def test_chsh_rows_are_the_eight_inequalities(self):
        assert len({tuple(row) for row in an._CHSH}) == 8
        for x in np.random.default_rng(3).uniform(size=(20, 16)):
            assert sorted(an._CHSH @ x) == pytest.approx(sorted(chsh_values(x)), abs=1e-12)

    def test_settled_tables_match_sdp_tables(self, monkeypatch):
        # against the tables with every end of q solved by its relaxation
        dists = [pr.UNIFORM, pr.NONUNIFORM]
        settled = an.build_gamma_grids(dists, 15, 2)
        monkeypatch.setattr(an, "_settled_q_ends", lambda hs: np.full((len(hs), 2), np.nan))
        solved = an.build_gamma_grids(dists, 15, 2)
        for new, old in zip(settled, solved, strict=True):
            assert np.abs(new.gammas - old.gammas).max() <= 1e-7

    def test_level_1_ends_clipped_to_unit_interval(self):
        # at level 1 q is not a diagonal moment and its relaxation min falls
        # below 0; every reported end lies in [0, 1], so gamma0 only falls
        # against the relaxation's own q_min (up to its tolerance of 1e-8)
        points = grid_points(15)
        brackets = an._q_brackets(points, 1)
        assert all(0.0 <= end <= 1.0 for bracket in brackets for end in bracket)
        jobs = [(an._h_equalities(h), npa.cell(0, 0, 1, 1), "min") for h in points]
        lows = npa.bound_functionals(1, jobs)
        assert min(lows) < -0.03
        skewed = pr.SettingsDistribution(0.5, 0.1)
        tables = [an._gamma_table(points, brackets, dist) for dist in (pr.UNIFORM, skewed)]
        for dist, table in zip((pr.UNIFORM, skewed), tables, strict=True):
            p10, p11 = dist.joint()[1]
            drops = []
            for h, (g0, _), low in zip(points, table, lows, strict=True):
                sigma = sigma_from_h(h, dist)
                if sigma > an._VACUOUS_TOL:
                    unclipped = min(sigma / (sigma + max(0.0, p10 * h[1] + p11 * low)), 1.0)
                    assert g0 <= unclipped + 1e-8
                    drops.append(unclipped - g0)
            assert max(drops) > 1e-2

    @pytest.mark.parametrize("h", [HVector(1, 0, 1, 0), HVector.from_eta(0.5)],
                             ids=["corner", "eta-0.5"])
    def test_settled_point_runs_no_sdp(self, monkeypatch, h):
        def forbidden(*args, **kwargs):
            raise AssertionError("no SDP may be built or solved")

        for name in ("moment_template", "sdp_solve_batch", "sdp_solve"):
            monkeypatch.setattr(npa, name, forbidden)
        g0, g1 = an.gamma_tilde(h, pr.UNIFORM)
        assert 0.0 <= g0 <= 1.0 and 0.0 <= g1 <= 1.0


class TestGuessPrograms:
    def test_guess1_noiseless_uniform(self, grid_uniform):
        val = an.guesses(pr.h_rows([1.0]), grid_uniform)[0]
        assert val == pytest.approx(1.0 - POSTERIOR0, abs=5e-3)

    def test_guess1_flat_is_one(self, grid_uniform):
        assert an.guesses(pr.h_rows([0.0]), grid_uniform)[0] == pytest.approx(
            1.0, abs=1e-9)

    def test_guess1_concave_on_segment(self, grid_uniform):
        for eta_a, eta_b in ((0.1, 0.9), (0.5, 1.0)):
            mid = 0.5 * (eta_a + eta_b)
            va = an.guesses(pr.h_rows([eta_a]), grid_uniform)[0]
            vb = an.guesses(pr.h_rows([eta_b]), grid_uniform)[0]
            vm = an.guesses(pr.h_rows([mid]), grid_uniform)[0]
            assert vm >= 0.5 * (va + vb) - 1e-8

    def test_guess1_at_least_pointwise_gamma(self, grid_uniform):
        for eta in (0.0, 0.5, 1.0):
            h = HVector.from_eta(eta)
            g0, g1 = an.gamma_tilde(h, pr.UNIFORM)
            assert an.guesses(h.as_array()[None], grid_uniform)[0] >= max(g0, g1) - 1e-6

    def test_guess2_noiseless_uniform_is_half(self, grid_uniform):
        beh = q.hardy_behavior(1.0)
        pa0, pa1 = posterior(beh, pr.UNIFORM)
        val = an.guesses(pr.h_rows([1.0]), grid_uniform, [(pa0, pa1)])[0]
        assert val == pytest.approx(0.5, abs=5e-3)

    def test_guess2_balanced_equals_guess1(self, grid_uniform):
        h = pr.h_rows([0.8])
        assert an.guesses(h, grid_uniform, [(0.5, 0.5)])[0] == pytest.approx(
            an.guesses(h, grid_uniform)[0], abs=1e-9)

    def test_guess2_flat_is_one(self, grid_uniform):
        assert an.guesses(pr.h_rows([0.0]), grid_uniform, [(0.5, 0.5)])[0] == \
            pytest.approx(1.0, abs=1e-9)

    def test_guess_lower_bound_half(self, grid_uniform):
        beh = q.hardy_behavior(0.6)
        pa0, pa1 = posterior(beh, pr.UNIFORM)
        for eta in (0.0, 0.4, 0.8, 1.0):
            h = pr.h_rows([eta])
            assert an.guesses(h, grid_uniform, [(pa0, pa1)])[0] >= 0.5 - 1e-9
            assert an.guesses(h, grid_uniform)[0] >= 0.5 - 1e-9


ETAS51 = np.linspace(0.0, 1.0, 51)


class TestWarmSweep:
    @pytest.mark.parametrize("order", ["ascending", "reversed", "shuffled"])
    @pytest.mark.parametrize("dropping", [False, True], ids=["basic", "dropping"])
    @pytest.mark.parametrize("label", ["uniform", "nonuniform"])
    def test_sweep_matches_cold_solves(self, grids15, monkeypatch, label, dropping, order):
        etas = {"ascending": ETAS51, "reversed": ETAS51[::-1],
                "shuffled": np.random.default_rng(3).permutation(ETAS51)}[order]
        dist = pr.UNIFORM if label == "uniform" else pr.NONUNIFORM
        grid = grids15[label]
        solve, sweep, phase1 = an.lp_solve, an._sweep, lp._phase1
        cold_starts, swept = [], []

        def recording_phase1(*args):
            cold_starts[-1] += 1
            return phase1(*args)

        def recording_solve(problem, basis=None):
            cold_starts.append(0)
            return solve(problem, basis)

        def recording_sweep(*args):
            swept.append(sweep(*args))
            return swept[-1]

        priors = [posterior(q.hardy_behavior(eta), dist) for eta in etas] if dropping else None
        monkeypatch.setattr(lp, "_phase1", recording_phase1)
        monkeypatch.setattr(an, "lp_solve", recording_solve)
        monkeypatch.setattr(an, "_sweep", recording_sweep)
        guess = an.guesses(pr.h_rows(etas), grid, priors)
        monkeypatch.undo()
        assert 0 < len(cold_starts) <= len(etas)
        if not dropping:
            # one objective: each final basis stays dual feasible, so a point
            # it does not settle restarts from it by dual simplex
            assert len(cold_starts) < len(etas)
            assert cold_starts[0] == 1 and sum(cold_starts[1:]) == 0
        (_, value, _, status, bound), = swept
        assert (status == "optimal").all() and (bound <= value + an._CERT_TOL).all()
        # the dropping LP is solved times the largest power of two <= 2 min(pa)
        scale = 2.0 ** np.floor(np.log2(2.0 * np.min(priors, axis=1))) if dropping else 1.0
        assert guess.tolist() == np.minimum(1.0, bound / scale).tolist()
        assert an.key_rates(etas, dist, grid).guess[:, int(dropping)].tolist() == guess.tolist()
        for k, eta in enumerate(etas):
            prior = priors[k] if dropping else None
            cold = min(1.0, cold_value(*decomposition_lp(grid, float(eta), prior)))
            assert abs(guess[k] - cold) <= 1e-12


def stale_solve(monkeypatch, **changes):
    """Route `analysis.lp_solve` to a solve of the problem with `changes`
    applied: a solver that returns a basis and duals of another program."""
    solve = an.lp_solve
    monkeypatch.setattr(an, "lp_solve", lambda problem, basis=None: solve(
        dataclasses.replace(problem, **changes), basis))


class TestDualCertificate:
    @pytest.mark.parametrize("label", ["uniform", "nonuniform"])
    def test_random_duals_never_below_optimum(self, grids15, label):
        rng = np.random.default_rng(17)
        for eta in (0.3, 0.85, 0.97, 1.0):
            coeff, a_eq, b_eq = decomposition_lp(grids15[label], eta)
            optimum = cold_value(coeff, a_eq, b_eq)
            for _ in range(200):
                y = rng.normal(size=5) * 10.0 ** rng.uniform(-3.0, 2.0)
                assert an._dual_bound(y, coeff, a_eq, b_eq) >= optimum - 1e-12

    def test_nonoptimal_start_ends_at_cold_value(self, grids15, monkeypatch):
        coeff, a_eq, b_eq = decomposition_lp(grids15["nonuniform"], 0.9, (0.3, 0.7))
        solve, made = an.lp_solve, []
        monkeypatch.setattr(an, "lp_solve", lambda *args: made.append(solve(*args)) or made[-1])
        # the first LP's (minimizing) basis is feasible at b but not optimal
        # for the maximum, so it settles nothing and its bound with coeff is
        # not certified
        _, value, _, _, bound = an._sweep(a_eq, [b_eq, b_eq], np.stack([-coeff, coeff]))
        low, sol = made
        assert an._dual_bound(-low.duals, coeff, a_eq, b_eq) > -low.value + 1e-3
        assert sol.iterations > 0
        cold = cold_value(coeff, a_eq, b_eq)
        assert cold > -low.value + 1e-3
        assert bound[1] <= value[1] + an._CERT_TOL
        assert abs(bound[1] - cold) <= 1e-12

    def test_nonoptimal_basis_is_rejected(self, grids15, monkeypatch):
        stale_solve(monkeypatch, maximize=False)
        with pytest.raises(SolverFailure, match="dual bound"):
            an.guesses(pr.h_rows([0.9]), grids15["nonuniform"], [(0.3, 0.7)])

    @pytest.mark.parametrize("label", ["uniform", "nonuniform"])
    def test_tampered_coefficient_is_rejected(self, grids15, monkeypatch, label):
        grid = grids15[label]
        coeff, a_eq, b_eq = decomposition_lp(grid, 0.95)
        sol = lp_solve(LPProblem(c=coeff, a_eq=a_eq, b_eq=b_eq, maximize=True))
        assert an._dual_bound(sol.duals, coeff, a_eq, b_eq) == \
            pytest.approx(sol.value, abs=1e-12)
        k = np.setdiff1d(np.arange(coeff.size), sol.basis)[0]
        worth = float(sol.duals @ a_eq[:, k]) + 1e-6  # now worth a positive weight
        gammas = grid.gammas.copy()
        gammas[k] = worth
        tampered = dataclasses.replace(grid, gammas=gammas)
        # the solve still sees the true coefficients and stops at their optimum
        stale_solve(monkeypatch, c=coeff)
        with pytest.raises(SolverFailure, match="dual bound"):
            an.guesses(pr.h_rows([0.95]), tampered)

    def test_hull_violation_is_named(self, grids15):
        with pytest.raises(SolverFailure, match="convex hull"):
            an.guesses(np.array([[2.0, 0.0, 0.0, 0.0]]), grids15["uniform"])

    def test_segment_grid_drops_rows_and_matches_cold_solves(self, grids15, monkeypatch):
        # h(eta) is affine in eta, so the segment-only LP matrix has rank 2
        # of 5 rows: phase 1 drops three, the duals are least-squares, and
        # a basis that short settles no other point
        full = grids15["nonuniform"]
        seg = ~np.isnan(full.etas)
        grid = an.GammaGrid(full.hs[seg], full.gammas[seg], full.etas[seg], full.dist_label)
        assert np.linalg.matrix_rank(grid.lp_matrix) == 2
        etas = [float(eta) for eta in np.linspace(0.0, 1.0, 21)]
        hs = pr.h_rows(etas)
        coeffs = np.broadcast_to(grid.gammas.max(axis=1), (len(hs), len(grid.hs)))
        solve, made = an.lp_solve, []
        monkeypatch.setattr(an, "lp_solve", lambda *args: made.append(solve(*args)) or made[-1])
        an._sweep(grid.lp_matrix, [np.append(h, 1.0) for h in hs], coeffs)
        assert len(made) == len(hs)
        assert all(sol.basis.size == 2 and sol.duals.size == 5 for sol in made)
        monkeypatch.undo()
        for eta, value in zip(etas, an.guesses(hs, grid), strict=True):
            assert abs(value - min(1.0, cold_value(*decomposition_lp(grid, eta)))) <= 1e-12


class TestKeyRates:
    def test_noiseless_uniform_rates(self, grid_uniform):
        g1, k1 = an.key_rate_basic(1.0, pr.UNIFORM, grid_uniform)
        g2, k2 = an.key_rate_dropping(1.0, pr.UNIFORM, grid_uniform)
        rates = an.key_rates([1.0], pr.UNIFORM, grid_uniform)
        assert [[g1, g2], [k1, k2]] == [rates.guess[0].tolist(), rates.key_rate[0].tolist()]
        # noiseless K1: P(00) * (-log2(q~/(q+q~))) with H(A|B) = 0
        k1_expected = (q.Q_MAX + q.Q_TILDE) / 4 * (
            -np.log2(1.0 - POSTERIOR0))
        assert k1 == pytest.approx(k1_expected, abs=5e-3)
        assert k2 == pytest.approx((5 * np.sqrt(5) - 11) / 4, abs=5e-3)
        assert k2 > k1  # dropping strictly improves

    def test_noiseless_nonuniform_rates(self, grid_nonuniform):
        rates = an.key_rates([1.0], pr.NONUNIFORM, grid_nonuniform)
        assert rates.key_rate[0] == pytest.approx([0.06888, 0.06888], abs=5e-3)

    def test_flat_rate_clamped_to_zero(self, grid_uniform):
        rates = an.key_rates([0.0], pr.UNIFORM, grid_uniform)
        assert rates.key_rate.tolist() == [[0.0, 0.0]]
        assert rates.clamped.tolist() == [[True, True]]

    def test_report_recompute_identity(self, grid_uniform):
        rates = an.key_rates([0.0, 0.5, 1.0], pr.UNIFORM, grid_uniform)
        assert np.abs(recompute_key_rate(rates) - rates.key_rate).max() <= 1e-12

    @pytest.mark.parametrize("dist", [pr.UNIFORM, pr.NONUNIFORM, pr.SettingsDistribution(0.3, 0.6)],
                             ids=["uniform", "nonuniform", "custom"])
    def test_rows_match_pointwise_oracle(self, dist):
        # every row of the table is the point-by-point formula of its eta,
        # both strategies, the faces eta = 0 and eta = 1 included
        grid = an.build_gamma_grid(dist, resolution=15, level=2)
        etas = np.linspace(0.0, 1.0, 21)
        rates = an.key_rates(etas, dist, grid)
        assert rates.etas.tolist() == etas.tolist()
        for k, eta in enumerate(etas):
            rows = key_rate_rows(q.hardy_behavior(eta), dist, rates.guess[k])
            for name, expected in rows.items():
                assert np.allclose(getattr(rates, name)[k], expected, rtol=0.0, atol=1e-15), \
                    (eta, name)

    def test_rates_nonincreasing_with_noise(self, grid_uniform):
        rates = an.key_rates(np.linspace(1.0, 0.8, 5), pr.UNIFORM, grid_uniform).key_rate[:, 1]
        assert all(b <= a + 1e-6 for a, b in zip(rates, rates[1:]))

    def test_sweep_builds_the_hardy_state_once(self, monkeypatch):
        # every behavior of a sweep is affine in eta around one pure state
        state, built = q.hardy_state, []

        def counting(*alphas):
            built.append(alphas)
            return state(*alphas)

        monkeypatch.setattr(q, "hardy_state", counting)
        q._pure_behavior.cache_clear()
        an.key_rate_sweep(ETAS51, resolution=15, level=2)
        assert len(built) == 1

    def test_csv_writer(self, grid_uniform):
        rates = an.key_rates([0.5, 1.0], pr.UNIFORM, grid_uniform)
        lines = an.key_rates_to_csv([rates]).splitlines()
        assert lines[0] == "eta,dist,strategy,p00,guess,hab,keyrate"
        # rows in (eta, strategy) order
        assert [line.split(",")[:3] for line in lines[1:]] == [
            ["0.5", "uniform", "basic"], ["0.5", "uniform", "dropping"],
            ["1", "uniform", "basic"], ["1", "uniform", "dropping"]]
        assert lines[4].split(",")[3:] == [
            f"{v:.12g}" for v in (rates.p00[1], rates.guess[1, 1], rates.hab[1, 1],
                                  rates.key_rate[1, 1])]


class TestNonuniformRatio:
    def test_golden_ratio_value(self):
        r = pr.nonuniform_ratio(q.Q_MAX, q.Q_TILDE)
        assert r == pytest.approx((np.sqrt(5) - 1) / 2, abs=1e-9)
        assert r == pytest.approx(0.61803, abs=1e-5)

    def test_symmetric(self):
        assert pr.nonuniform_ratio(0.37, 0.37) == pytest.approx(0.5, abs=1e-15)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(min_value=1e-6, max_value=1.0),
           st.floats(min_value=1e-6, max_value=1.0))
    def test_balance_identity(self, x, y):
        r = pr.nonuniform_ratio(x, y)
        assert x * r ** 2 == pytest.approx(y * (1 - r) ** 2, abs=1e-12)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            pr.nonuniform_ratio(0.0, 0.5)


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
        # 25-point sweep) once had a singular dual matrix Z and ended as a
        # numerical breakdown; the solve now ends `optimal`, and with one
        # thread it must still give a bound between the values at eps = 0.045
        # and 0.055.
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
