"""Protocol simulation tests: sampling statistics, sifting, entropies, bias."""

import csv
import io
import os
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hardyqkd import cli, protocol as pr, quantum as q
from hardyqkd.errors import (
    EpsilonTooLargeError,
    InsufficientDataError,
    ParameterRangeError,
    ZeroPosteriorError,
)
from hardyqkd.quantum import Behavior

import oracles

FLAT = Behavior(p=np.full((2, 2, 2, 2), 0.25))
CSV_HEADER = b"index,settingA,settingB,outcomeA,outcomeB,revealed\n"


def columns(t):
    """settingA, settingB, outcomeA, outcomeB and revealed of each round,
    read from the binary digits of its code (CSV column order)."""
    bits = np.array([[int(d) for d in format(c, "05b")] for c in range(32)])
    return tuple(bits[t.code].T)


def csv_writer_rows(t, rows: range) -> bytes:
    cols = [col[rows.start:rows.stop].tolist() for col in columns(t)]
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(zip(rows, *cols))
    return buf.getvalue().encode("ascii")


def per_round_counts(t):
    """Hits and totals of each Hardy cell, counted round by round over the
    revealed rounds."""
    hits, totals = np.zeros(4), np.zeros(4)
    for sa, sb, oa, ob, rev in zip(*(col.tolist() for col in columns(t))):
        for k, (a, b, set_a, set_b) in enumerate(pr.H_CELLS):
            if rev and (sa, sb) == (set_a, set_b):
                totals[k] += 1
                hits[k] += (oa, ob) == (a, b)
    return hits, totals


def reference_columns(n, behavior, source, reveal, seed):
    """The five columns by the documented rule, from one (n, 5) Philox block."""
    u = np.random.Generator(np.random.Philox(key=seed)).random((n, 5))
    if isinstance(source, pr.BiasModel):
        branch = np.minimum((u[:, 0] * 4).astype(int), 3)
        pa = np.array([b.p_a for b in source.branches])[branch]
        pb = np.array([b.p_b for b in source.branches])[branch]
    else:
        pa, pb = source.p_a, source.p_b
    sa = (u[:, 1] >= pa).astype(int)
    sb = (u[:, 2] >= pb).astype(int)
    cdf = np.cumsum(behavior.p.reshape(4, 2, 2), axis=0)[:, sa, sb]
    cell = np.minimum((u[:, 3] >= cdf).sum(axis=0), 3)
    return sa, sb, cell // 2, cell % 2, u[:, 4] < reveal


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

    @pytest.mark.parametrize("epsilon", [float("nan"), -0.01])
    def test_nan_or_negative_epsilon_rejected(self, epsilon):
        with pytest.raises(ParameterRangeError, match="nonnegative"):
            pr.biased_branches(pr.UNIFORM, epsilon)
        with pytest.raises(ParameterRangeError, match="nonnegative"):
            pr.noiseless_bias_guess(epsilon, pr.NONUNIFORM)

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
        sa, sb, oa, ob, _ = columns(pr.simulate(100_000, beh, pr.UNIFORM, 0.0, seed=5))
        mask = (sa == 1) & (sb == 0) & (oa == 0) & (ob == 0)
        assert mask.sum() == 0

    def test_flat_behavior_cell_frequencies(self):
        n = 1_000_000
        set_a, set_b, out_a, out_b, _ = columns(pr.simulate(n, FLAT, pr.UNIFORM, 0.0, seed=11))
        for sa in range(2):
            for sb in range(2):
                for a in range(2):
                    for b in range(2):
                        count = int(((set_a == sa) & (set_b == sb)
                                     & (out_a == a) & (out_b == b)).sum())
                        p = 0.25 * 0.25  # settings pair * outcome cell
                        sigma = np.sqrt(p * (1 - p) / n)
                        assert abs(count / n - p) <= 3 * sigma + 1e-9

    def test_empirical_behavior_converges(self):
        n = 10_000
        beh = q.hardy_behavior(1.0)
        joint_settings = pr.UNIFORM.joint()
        target = beh.p * joint_settings[None, None, :, :]
        for seed in range(100):
            sa, sb, oa, ob, _ = columns(pr.simulate(n, beh, pr.UNIFORM, 0.0, seed=seed))
            counts = np.zeros((2, 2, 2, 2))
            np.add.at(counts, (oa, ob, sa, sb), 1.0)
            tv = 0.5 * np.abs(counts / n - target).sum()
            assert tv <= 5.0 / np.sqrt(n)

    def test_bias_model_branch_sampling(self):
        model = pr.biased_branches(pr.UNIFORM, 0.4)
        n = 200_000
        set_a, set_b, *_ = columns(pr.simulate(n, FLAT, model, 0.0, seed=3))
        # averaged over branches the settings stay uniform
        for sa in range(2):
            for sb in range(2):
                frac = ((set_a == sa) & (set_b == sb)).mean()
                assert abs(frac - 0.25) <= 3 * np.sqrt(0.25 * 0.75 / n)
        # per-branch bias shows up in the settings-pair variance:
        # P(A=0,B=0) per branch in {0.81, 0.09, 0.09, 0.01}, mean 0.25
        cell00 = float(np.mean([
            ((sa == 0) & (sb == 0)).mean() ** 2
            for sa, sb, *_ in [columns(pr.simulate(2000, FLAT, model, 0.0, seed=s))
                               for s in range(40)]]))
        assert cell00 > 0.25 ** 2  # strictly larger spread than unbiased

    def test_csv_matches_csv_writer(self, monkeypatch, tmp_path):
        # each n ends on or just past a change in the index's digit count or
        # a chunk boundary; 100,001 gains a digit inside a chunk, and
        # 5 chunk + 3 has more chunks than workers, whose count moves no byte;
        # the file the CLI streams block by block holds the same bytes
        model = pr.biased_branches(pr.UNIFORM, 0.1)
        chunk = pr._ROW_CHUNK
        path = tmp_path / "transcript.csv"
        for n in (10, 11, 100, 101, 1001, chunk - 1, chunk + 1, 100_001, 5 * chunk + 3):
            t = pr.simulate(n, FLAT, model, 0.3, seed=17)
            want = CSV_HEADER + csv_writer_rows(t, range(n))
            for cpus in (1, 3):
                monkeypatch.setattr(os, "sched_getaffinity", lambda pid, k=cpus: set(range(k)))
                assert t.to_csv() == want
                cli._write(path, t.csv_blocks())
                assert path.read_bytes() == want

    @pytest.mark.parametrize("chunk", [1004, 12])
    def test_csv_block_edges_inside_a_thousand(self, chunk, monkeypatch, tmp_path):
        # blocks of 1004 or 12 rows (multiples of 4, like the real chunk)
        # start at every offset within a thousand rows, so the digit table
        # is entered mid-period and the higher digits change mid-block; each
        # n ends on or just past a change in the index's digit count
        monkeypatch.setattr(pr, "_ROW_CHUNK", chunk)
        path = tmp_path / "transcript.csv"
        codes = np.random.default_rng(3).integers(0, 32, size=12_345, dtype=np.uint8)
        for n in (1, 9, 10, 999, 1000, 1001, 10_007, 12_345):
            t = pr.Transcript(codes[:n])
            want = CSV_HEADER + csv_writer_rows(t, range(n))
            for cpus in (1, 3):
                monkeypatch.setattr(os, "sched_getaffinity", lambda pid, k=cpus: set(range(k)))
                assert t.to_csv() == want
                cli._write(path, t.csv_blocks())
                assert path.read_bytes() == want

    @pytest.mark.parametrize("cpus", [1, 3])
    def test_stream_holds_at_most_two_blocks_per_worker(self, monkeypatch, cpus):
        # a slow writer must not let rendered blocks pile up: at most two per
        # worker are rendered and not yet written, the one being written
        # included
        monkeypatch.setattr(pr, "_ROW_CHUNK", 1024)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        lock = threading.Lock()
        rendered, written, peak = [0], [0], [0]
        run_chunks = pr._run_chunks

        def recorded(job, n):
            def render(lo, hi):
                block = job(lo, hi)
                with lock:
                    rendered[0] += 1
                    peak[0] = max(peak[0], rendered[0] - written[0])
                return block

            for block in run_chunks(render, n):
                yield block
                with lock:
                    written[0] += 1  # the writer asked for the next block

        monkeypatch.setattr(pr, "_run_chunks", recorded)
        t = pr.Transcript(np.random.default_rng(5).integers(0, 32, size=40 * 1024 + 7,
                                                            dtype=np.uint8))
        blocks = []
        for block in t.csv_blocks():
            time.sleep(0.002)
            blocks.append(bytes(block))
        assert rendered[0] == written[0] == 41
        assert 1 <= peak[0] <= 2 * cpus
        assert b"".join(blocks) == CSV_HEADER + csv_writer_rows(t, range(len(t)))

    def test_csv_of_empty_transcript_is_header(self):
        parr = np.zeros((2, 2, 2, 2))
        parr[1, 1] = 1.0  # no round survives sifting
        t = pr.simulate(50, Behavior(p=parr), pr.UNIFORM, 0.0, seed=2)
        assert pr.sift(t).to_csv() == CSV_HEADER

    def test_csv_across_a_million_rows(self):
        n = 1_000_001
        t = pr.Transcript(np.random.default_rng(0).integers(0, 32, size=n, dtype=np.uint8))
        text = t.to_csv()
        # row i takes digits(i) + 11 bytes; digits(i) = 1 + #{k >= 1: i >= 10^k}
        digits = n + sum(n - 10 ** k for k in range(1, 7))
        assert len(text) == len(CSV_HEADER) + 11 * n + digits
        assert text.endswith(csv_writer_rows(t, range(n - 8, n)))
        assert b"\n" + csv_writer_rows(t, range(99_998, 100_002)) in text

    def test_row_chunk_starts_a_philox_counter(self):
        # Philox yields 4 doubles per counter value, so a chunk's first row
        # lo starts at counter 5 lo / 4 only when lo is a multiple of 4
        assert pr._ROW_CHUNK % 4 == 0

    @pytest.mark.parametrize("source", [
        pr.NONUNIFORM, pr.biased_branches(pr.NONUNIFORM, 0.05)])
    def test_chunked_draws_equal_one_block(self, source, monkeypatch):
        # each chunk draws from its own advanced Philox stream and may run on
        # its own thread: neither the chunking nor the worker count may move
        # a round (5 chunk + 3 has more chunks than workers)
        chunk = pr._ROW_CHUNK
        beh = q.hardy_behavior(0.9)
        for n in (chunk - 1, chunk, chunk + 1, 2 * chunk + 3, 5 * chunk + 3):
            want = reference_columns(n, beh, source, 0.25, seed=n)
            for cpus in (1, 3):
                monkeypatch.setattr(os, "sched_getaffinity", lambda pid, k=cpus: set(range(k)))
                got = columns(pr.simulate(n, beh, source, 0.25, seed=n))
                for g, w in zip(got, want, strict=True):
                    assert np.array_equal(g, w)

    @pytest.mark.parametrize("source", [pr.UNIFORM, pr.biased_branches(pr.UNIFORM, 0.1)])
    def test_sub_normalised_column_ends_in_cell_3(self, source):
        # setting pair (1, 0)'s outcome CDF ends at 0.9: a draw at or above
        # 0.9 passes every CDF row, and the documented rule caps its count
        # of four rows at 3
        p = FLAT.p.copy()
        p[:, :, 1, 0] *= 0.9
        beh = Behavior(p=p)
        n = 20_000
        u = np.random.Generator(np.random.Philox(key=8)).random((n, 5))
        want = reference_columns(n, beh, source, 0.25, seed=8)
        sa, sb = want[0], want[1]
        assert ((sa == 1) & (sb == 0) & (u[:, 3] >= 0.9)).sum() > 100
        got = columns(pr.simulate(n, beh, source, 0.25, seed=8))
        for g, w in zip(got, want, strict=True):
            assert np.array_equal(g, w)

    def test_invalid_parameters(self):
        with pytest.raises(ParameterRangeError):
            pr.simulate(0, FLAT, pr.UNIFORM, 0.5, seed=1)
        with pytest.raises(ParameterRangeError):
            pr.simulate(10, FLAT, pr.UNIFORM, 1.5, seed=1)


class TestEveryCode:
    @pytest.mark.parametrize("order", ["sorted", "shuffled"])
    def test_every_stage_against_the_decoded_bits(self, order):
        # code c appears c + 1 times, so that no two cells count alike
        codes = np.repeat(np.arange(32, dtype=np.uint8), np.arange(1, 33))
        if order == "shuffled":
            codes = np.random.default_rng(32).permutation(codes)
        t = pr.Transcript(codes)
        sa, sb, oa, ob, rev = columns(t)
        assert t.to_csv() == CSV_HEADER + csv_writer_rows(t, range(len(codes)))
        # revealed is bit 0; a key round is unrevealed with outcomes (0, 0)
        kept = t.revealed_rounds().code.tolist()
        assert kept == codes[rev == 1].tolist() == [c for c in codes.tolist() if c % 2]
        key = (rev == 0) & (oa == 0) & (ob == 0)
        sifted = pr.sift(t)
        assert sifted.code.tolist() == codes[key].tolist() == [c for c in codes.tolist()
                                                             if c % 8 == 0]
        hits, totals = per_round_counts(t)
        est = pr.estimate_h(t.revealed_rounds())
        assert np.array_equal(est.counts, totals)
        assert np.array_equal(est.h, hits / totals)
        for keys, want in ((pr.key_bits(t), (sa, sb)), (pr.key_bits(sifted), (sa[key], sb[key]))):
            for got, bits in zip(keys, want, strict=True):
                assert got.tolist() == bits.tolist()


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
            sa, sb, *_ = columns(sifted)
            assert np.array_equal(sa, sb)
            alice, bob = pr.key_bits(sifted)
            assert np.array_equal(alice, bob)

    def test_revealed_rounds_excluded(self):
        beh = q.hardy_behavior(1.0)
        t = pr.simulate(5000, beh, pr.UNIFORM, 1.0, seed=4)
        assert len(pr.sift(t)) == 0  # everything was revealed


class TestHRows:
    def test_rows_are_the_pointwise_formula(self):
        etas = np.linspace(0.0, 1.0, 201).tolist()
        assert pr.h_rows(etas).tolist() == [
            [eta * q.Q_MAX + (1.0 - eta) / 4.0] + [(1.0 - eta) / 4.0] * 3 for eta in etas]
        assert pr.HVector.from_eta(0.3).as_array().tolist() == pr.h_rows([0.3])[0].tolist()
        with pytest.raises(ParameterRangeError):
            pr.h_rows([0.2, 1.01])


class TestEstimateH:
    def test_noiseless_estimate(self):
        beh = q.hardy_behavior(1.0)
        t = pr.simulate(200_000, beh, pr.UNIFORM, 1.0, seed=21)
        est = pr.estimate_h(t.revealed_rounds())
        expected = pr.HVector.from_eta(1.0).as_array()
        for k in range(4):
            sigma = np.sqrt(expected[k] * (1 - expected[k]) / est.counts[k])
            assert abs(est.h[k] - expected[k]) <= 3 * sigma + 1e-12

    def test_noisy_estimate_eta_08(self):
        beh = q.hardy_behavior(0.8)
        t = pr.simulate(400_000, beh, pr.UNIFORM, 1.0, seed=22)
        est = pr.estimate_h(t.revealed_rounds())
        expected = np.array([0.8 * q.Q_MAX + 0.05, 0.05, 0.05, 0.05])
        for k in range(4):
            sigma = np.sqrt(expected[k] * (1 - expected[k]) / est.counts[k])
            assert abs(est.h[k] - expected[k]) <= 3 * sigma

    def test_matches_per_round_count(self):
        t = pr.simulate(20_000, q.hardy_behavior(0.7), pr.NONUNIFORM, 0.4,
                        seed=23)
        hits, totals = per_round_counts(t)
        est = pr.estimate_h(t.revealed_rounds())
        assert np.array_equal(est.counts, totals)
        assert np.array_equal(est.h, hits / totals)

    def test_insufficient_data(self):
        t = pr.Transcript(np.ones(1, dtype=np.uint8))  # one revealed round, all else 0
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
        assert pr.conditional_entropy(beh.p[0, 0], pr.UNIFORM) == pytest.approx(
            0.0, abs=1e-12)

    def test_flat_behavior_gives_one_bit(self):
        assert pr.conditional_entropy(FLAT.p[0, 0], pr.UNIFORM) == pytest.approx(
            1.0, abs=1e-12)

    def test_matches_direct_summation_oracle(self):
        for eta in (0.9, 0.6, 0.3):
            for dist in (pr.UNIFORM, pr.NONUNIFORM):
                beh = q.hardy_behavior(eta)
                joint = beh.p[0, 0] * dist.joint()
                joint = joint / joint.sum()
                assert pr.conditional_entropy(beh.p[0, 0], dist) == pytest.approx(
                    entropy_oracle(joint), abs=1e-12)

    def test_relabeling_symmetry(self):
        beh = q.hardy_behavior(0.7)
        val = pr.conditional_entropy(beh.p[0, 0], pr.UNIFORM)
        flipped = Behavior(p=beh.p[:, :, ::-1, ::-1])
        assert pr.conditional_entropy(flipped.p[0, 0], pr.UNIFORM) == pytest.approx(
            val, abs=1e-12)

    def test_dropping_balances_marginal(self):
        beh = q.hardy_behavior(0.9)
        joint = pr.joint_settings_given_00(beh.p[0, 0], pr.UNIFORM)
        pa = joint.sum(axis=1)
        assert abs(pa[0] - pa[1]) > 1e-3  # unbalanced before dropping
        val = pr.conditional_entropy(beh.p[0, 0], pr.UNIFORM, dropping=True)
        oracle_joint = joint * (pa.min() / pa)[:, None]
        oracle_joint /= oracle_joint.sum()
        assert val == pytest.approx(entropy_oracle(oracle_joint), abs=1e-12)

    def test_balanced_posterior_dropping_is_noop(self):
        beh = q.hardy_behavior(1.0)
        plain = pr.conditional_entropy(beh.p[0, 0], pr.NONUNIFORM, dropping=False)
        dropped = pr.conditional_entropy(beh.p[0, 0], pr.NONUNIFORM, dropping=True)
        assert dropped == pytest.approx(plain, abs=1e-9)

    @pytest.mark.parametrize("dropping", [False, True], ids=["basic", "dropping"])
    def test_sweep_axis_matches_scalar_oracle(self, dropping):
        # a leading sweep axis changes no value: each row is bitwise the
        # scalar definition at its eta
        etas = np.linspace(0.0, 1.0, 201)
        p00 = q.hardy_tables(etas)[:, 0, 0]
        for dist in (pr.UNIFORM, pr.NONUNIFORM, pr.SettingsDistribution(0.3, 0.6)):
            swept = pr.conditional_entropy(p00, dist, dropping)
            assert swept.tolist() == [oracles.conditional_entropy(q.hardy_behavior(eta), dist,
                                                                  dropping) for eta in etas]
            assert pr.joint_settings_given_00(p00, dist).tolist() == [
                oracles.joint_settings_given_00(q.hardy_behavior(eta), dist).tolist()
                for eta in etas]

    def test_zero_posterior_error(self):
        parr = np.zeros((2, 2, 2, 2))
        parr[1, 1] = 1.0
        with pytest.raises(ZeroPosteriorError):
            pr.conditional_entropy(parr[0, 0], pr.UNIFORM)
        # one vanishing row of a sweep is enough
        with pytest.raises(ZeroPosteriorError):
            pr.conditional_entropy(np.stack([FLAT.p[0, 0], parr[0, 0]]), pr.UNIFORM)
        # Alice always measures setting 0: nothing is left to drop down to
        one_setting = pr.SettingsDistribution(1.0, 0.5)
        pr.conditional_entropy(FLAT.p[0, 0], one_setting)
        with pytest.raises(ZeroPosteriorError):
            pr.conditional_entropy(FLAT.p[0, 0], one_setting, dropping=True)


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
