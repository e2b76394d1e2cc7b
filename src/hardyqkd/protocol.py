"""Protocol simulation: settings distributions, RNG bias, sifting, entropies.

A `Transcript` holds one code byte per round,
settingA<<4 | settingB<<3 | outcomeA<<2 | outcomeB<<1 | revealed: its bits,
high to low, are the CSV columns, and every stage reads them from the code.
Randomness comes from numpy's Philox generator, a seedable counter-based
RNG.  Round i is driven by row i of the (n, 5) block of uniforms that one
Philox(key=seed) stream yields.  Philox turns each counter value into 4
doubles, so row lo of that block starts at counter 5 lo / 4 whenever lo is
a multiple of 4.  `simulate` draws the block in `_ROW_CHUNK`-row chunks,
each from its own Philox(key=seed) advanced to its first row, and runs the
chunks on up to one thread per available CPU.  So round i's randomness is a
fixed function of (seed, i): transcripts are reproducible byte-for-byte,
whatever the thread count.  The CSV is streamed the same way, as ordered
blocks of `_ROW_CHUNK` rows with at most two rendered but unconsumed blocks
per thread, so memory beyond the code bytes stays bounded (a 1M-round
`simulate` CLI run peaks at about 54 MB on 2 CPUs).  A block is rendered
without per-row formatting: the last three index digits come from one
(1000, 3) table of "000" to "999", the higher ones are worked out once per
thousand rows, and each row's five fields come from a 32-row table of the
codes.
"""

from __future__ import annotations

import os
from collections import deque
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from typing import TypeVar

import numpy as np

from .errors import (
    EpsilonTooLargeError,
    InsufficientDataError,
    ParameterRangeError,
    ZeroPosteriorError,
)
from .quantum import Behavior, Q_MAX, Q_TILDE, check_etas

T = TypeVar("T")

# Columns of the per-round uniform deviate block.
_U_BRANCH, _U_SET_A, _U_SET_B, _U_OUTCOME, _U_REVEAL = range(5)


@dataclass(frozen=True)
class SettingsDistribution:
    """Product distribution over settings; pA = P(A=0), pB = P(B=0)."""

    p_a: float
    p_b: float
    label: str = ""

    def __post_init__(self) -> None:
        if not (0.0 <= self.p_a <= 1.0 and 0.0 <= self.p_b <= 1.0):
            raise ParameterRangeError("setting probabilities must lie in [0, 1]")

    def joint(self) -> np.ndarray:
        """Joint table P[A, B]."""
        pa = np.array([self.p_a, 1.0 - self.p_a])
        pb = np.array([self.p_b, 1.0 - self.p_b])
        return np.outer(pa, pb)


#: Uniform choice of settings.
UNIFORM = SettingsDistribution(0.5, 0.5, label="uniform")


def nonuniform_ratio(x: float, y: float) -> float:
    """r = sqrt(y) / (sqrt(x) + sqrt(y)), balancing x r^2 = y (1-r)^2."""
    if x <= 0.0 or y <= 0.0:
        raise ValueError("both success probabilities must be positive")
    return float(np.sqrt(y) / (np.sqrt(x) + np.sqrt(y)))


#: Ratio balancing the noiseless sifted key of the Hardy test.
NONUNIFORM_RATIO = nonuniform_ratio(Q_MAX, Q_TILDE)

#: Setting-0-heavy distribution that balances the key without dropping.
NONUNIFORM = SettingsDistribution(NONUNIFORM_RATIO, NONUNIFORM_RATIO,
                                  label="nonuniform")


@dataclass(frozen=True)
class BiasModel:
    """Four equally likely product distributions (pA +- eps, pB +- eps)."""

    epsilon: float
    branches: tuple[SettingsDistribution, ...]


def biased_branches(base: SettingsDistribution, epsilon: float) -> BiasModel:
    """The four sign combinations of the bias, each with weight 1/4."""
    if not epsilon >= 0:  # NaN too
        raise ParameterRangeError("epsilon must be nonnegative")
    branches = []
    for sa in (+1.0, -1.0):
        for sb in (+1.0, -1.0):
            pa = base.p_a + sa * epsilon
            pb = base.p_b + sb * epsilon
            if not (0.0 <= pa <= 1.0 and 0.0 <= pb <= 1.0):
                raise EpsilonTooLargeError(
                    f"epsilon = {epsilon} pushes a branch probability outside [0, 1]")
            branches.append(SettingsDistribution(pa, pb))
    return BiasModel(epsilon=epsilon, branches=tuple(branches))


_CSV_HEADER = b"index,settingA,settingB,outcomeA,outcomeB,revealed\n"
# The 11 bytes that follow the index in the CSV row of each of the 32 codes:
# ",b4,b3,b2,b1,b0\n", where bk is bit k of the code.
_CSV_TAILS = np.array([list(b"".join(b",%d" % (c >> k & 1) for k in (4, 3, 2, 1, 0)) + b"\n")
                       for c in range(32)], dtype=np.uint8)
# "000" to "999": row i's index ends in the last min(digits(i), 3) bytes of
# row i % 1000.
_DIGITS = np.frombuffer(b"".join(b"%03d" % i for i in range(1000)), np.uint8).reshape(1000, 3)


def _items(a: np.ndarray) -> np.ndarray:
    """The rows of a uint8 array with a contiguous last axis, as one opaque
    item each: a view, which copies a row as one unit instead of byte by
    byte."""
    return a.view(f"V{a.shape[-1]}")[..., 0]


_TAIL_ITEMS = _items(_CSV_TAILS)
# Rows per job of `simulate` and `Transcript.csv_blocks`.  A multiple of 4, so
# that each chunk's first row starts a Philox counter value (5 lo / 4 is exact).
_ROW_CHUNK = 1 << 16


def _run_chunks(job: Callable[[int, int], T], n: int) -> Iterator[T]:
    """Yield job(lo, hi) for each `_ROW_CHUNK` block [lo, hi) of range(n), in order.

    The blocks run on up to one thread per available CPU (numpy releases the
    interpreter lock inside its loops), inline when there is one block or
    one CPU.  At most two jobs per thread are queued, running or done but
    not yet consumed, the result the caller holds included, so memory stays
    bounded whatever n is.  Each job must write only its own rows.
    """
    blocks = [(lo, min(lo + _ROW_CHUNK, n)) for lo in range(0, n, _ROW_CHUNK)]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count() or 1  # macOS and Windows have no affinity call
    workers = min(cpus, len(blocks))
    if workers <= 1:
        for lo, hi in blocks:
            yield job(lo, hi)
        return
    from concurrent.futures import ThreadPoolExecutor  # only runs that use threads load it
    with ThreadPoolExecutor(workers) as pool:
        pending = deque()
        for lo, hi in blocks:
            if len(pending) == 2 * workers:
                yield pending.popleft().result()  # reading each result raises a job's error
            pending.append(pool.submit(job, lo, hi))
        while pending:
            yield pending.popleft().result()


def _csv_offset(i: int) -> int:
    """Byte offset of CSV row i: the header, then digits(j) + 11 bytes per
    row j < i, where digits(j) = 1 + #{p = 10, 100, ...: p <= j}."""
    return len(_CSV_HEADER) + 12 * i + sum(i - 10 ** k for k in range(1, len(str(i))))


@dataclass
class Transcript:
    """Array-backed log of a simulated protocol run: the (n,) uint8 round
    codes in the bit layout of the module docstring."""

    code: np.ndarray

    def __len__(self) -> int:
        return self.code.size

    def revealed_rounds(self) -> "Transcript":
        # a bool view: nonzero scans bools several times faster than uint8
        return Transcript(self.code.take(np.flatnonzero((self.code & 1).view(bool))))

    def csv_blocks(self) -> Iterator[bytes | np.ndarray]:
        """The CSV (ASCII) in order: the header, then one uint8 block per
        `_ROW_CHUNK` rows, each rendered as its own job (`_run_chunks`).

        Row i takes digits(i) + 11 bytes: the index, then the code's five
        ',0' or ',1' fields and a newline from `_CSV_TAILS`, so a block's
        size has a closed form (`_csv_offset`) and the block is filled in
        place, within each run of rows whose index has the same number of
        digits.  The index's last min(digits, 3) bytes are rows of
        `_DIGITS`, which repeat every thousand rows; the bytes before them
        change once per thousand rows and are repeated down the run.
        """
        yield _CSV_HEADER

        def render(lo: int, hi: int) -> np.ndarray:
            out = np.empty(_csv_offset(hi) - _csv_offset(lo), dtype=np.uint8)
            at = 0
            while lo < hi:
                d = len(str(lo))
                end = min(hi, 10 ** d)
                rows = out[at:at + (end - lo) * (d + 11)].reshape(end - lo, d + 11)
                # the last w digits of row i are those of i % 1000: the
                # table, rotated to start at lo, repeats down the run
                w = min(d, 3)
                low = np.roll(_DIGITS[:, 3 - w:], -(lo % 1000), axis=0)
                periods = -(-(end - lo) // 1000)
                _items(rows[:, d - w:d])[:] = np.tile(_items(low), periods)[:end - lo]
                if d > w:  # the higher digits, once per thousand rows
                    thousands = np.arange(lo // 1000, (end - 1) // 1000 + 1)
                    high = np.empty((thousands.size, d - 3), dtype=np.uint8)
                    for k in range(d - 3):
                        high[:, -1 - k] = thousands // 10 ** k % 10 + 48
                    edges = np.clip(1000 * np.append(thousands, thousands[-1] + 1), lo, end)
                    _items(rows[:, :d - 3])[:] = np.repeat(_items(high), np.diff(edges))
                _items(rows[:, d:])[:] = _TAIL_ITEMS.take(self.code[lo:end])
                at += rows.size
                lo = end
            return out

        yield from _run_chunks(render, len(self))

    def to_csv(self) -> bytes:
        """The whole CSV (ASCII) as one bytes object: the joined `csv_blocks`."""
        return b"".join(self.csv_blocks())


def simulate(n: int, behavior: Behavior,
             dist_or_bias: SettingsDistribution | BiasModel,
             reveal_fraction: float, seed: int) -> Transcript:
    """Run n protocol rounds and log settings, outcomes and reveal marks.

    Each round independently draws a bias branch (when a `BiasModel` is
    given), settings from that branch, outcomes from the behavior via its
    conditional CDF, and a Bernoulli(reveal_fraction) estimation mark.
    The uniforms are drawn `_ROW_CHUNK` rounds at a time, each chunk from
    its own Philox stream advanced to the chunk's first row, so memory
    beyond the one code byte per round does not grow with n.
    """
    if n <= 0:
        raise ParameterRangeError("round count must be positive")
    if not 0.0 <= reveal_fraction <= 1.0:
        raise ParameterRangeError("reveal fraction must lie in [0, 1]")
    biased = isinstance(dist_or_bias, BiasModel)
    branches = dist_or_bias.branches if biased else (dist_or_bias,)
    branch_pa = np.array([b.p_a for b in branches])
    branch_pb = np.array([b.p_b for b in branches])
    # Outcome pair via the CDF of p(.,.|A,B) in the fixed order
    # (0,0), (0,1), (1,0), (1,1); zero-probability cells are never hit.  The
    # documented cell is the number of the four CDF rows at or below the
    # draw, capped at 3.  The cells are nonnegative, so no CDF column
    # decreases: a draw at or above the last row is at or above the first
    # three too, and counting those three alone gives the same cell (3 also
    # where a column sums to less than 1).
    cdf = np.cumsum(behavior.p.reshape(4, 4), axis=0)  # [cell, 2A + B]
    code = np.empty(n, dtype=np.uint8)

    def draw(lo: int, hi: int) -> None:
        bits = np.random.Philox(key=seed)
        bits.advance(5 * lo // 4)  # 4 doubles per counter value
        u = np.random.Generator(bits).random((hi - lo, 5))  # rows lo..hi of the (n, 5) block
        if biased:
            # u < 1 is a multiple of 2^-53 and u * 4 is exact, so the branch
            # is at most 3 without the rule's cap at 3
            branch = (u[:, _U_BRANCH] * 4).astype(np.intp)
            pa, pb = branch_pa.take(branch), branch_pb.take(branch)
        else:
            pa, pb = branch_pa[0], branch_pb[0]
        pair = (u[:, _U_SET_A] >= pa).view(np.uint8) << 1  # 2A + B
        pair |= u[:, _U_SET_B] >= pb
        # freed before the comparisons allocate: a thread's heap then stays
        # below glibc's trim threshold, which a 1-CPU biased run otherwise
        # crosses on every chunk, faulting its pages back in (1M rounds:
        # 21,000 minor faults and 71 ms instead of 1,100 and 44 ms)
        del pa, pb
        outcome = u[:, _U_OUTCOME].copy()  # contiguous, compared three times
        index = pair.astype(np.intp)
        cell = (outcome >= cdf[0].take(index)).view(np.uint8)  # 2a + b
        cell += outcome >= cdf[1].take(index)
        cell += outcome >= cdf[2].take(index)
        code[lo:hi] = pair << 3 | cell << 1 | (u[:, _U_REVEAL] < reveal_fraction)

    for _ in _run_chunks(draw, n):  # each job fills its own slice of code
        pass
    return Transcript(code)


def sift(transcript: Transcript) -> Transcript:
    """Key rounds: unrevealed with both outcomes 0 (key bit = Alice's setting)."""
    return Transcript(transcript.code.take(np.flatnonzero(transcript.code & 0b111 == 0)))


def key_bits(sifted: Transcript) -> tuple[np.ndarray, np.ndarray]:
    """Alice's and Bob's key strings for a sifted transcript: the setting bits."""
    return sifted.code >> 4, sifted.code >> 3 & 1


@dataclass(frozen=True)
class HVector:
    """Security parameters: the four Hardy cells as raw probabilities.

    h1 = P(0,0|0,0), h2 = P(0,0|1,0), h3 = P(0,0|0,1), h4 = P(1,1|1,1).
    """

    h1: float
    h2: float
    h3: float
    h4: float

    def as_array(self) -> np.ndarray:
        return np.array([self.h1, self.h2, self.h3, self.h4])

    @staticmethod
    def from_eta(eta: float) -> "HVector":
        """Expected parameters of the isotropic-noise setup at visibility eta."""
        return HVector(*h_rows([eta])[0].tolist())


def h_rows(etas: np.ndarray | list[float]) -> np.ndarray:
    """(N, 4) rows of h(eta), the expected parameters of the isotropic-noise
    setup, one per visibility.

    h2, h3 and h4 are written from one array, so h2 == h3 bitwise: every
    segment q job is invariant under the party swap and gets a tied
    template (`npa.moment_template`).
    """
    etas = check_etas(etas)
    off = (1.0 - etas) / 4.0
    return np.stack([etas * Q_MAX + off, off, off, off], axis=-1)


# Cell coordinates (a, b, A, B) of the four Hardy parameters.
H_CELLS: tuple[tuple[int, int, int, int], ...] = (
    (0, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 1, 1, 1))


@dataclass(frozen=True)
class HEstimate:
    h: np.ndarray  # (4,) estimated h1..h4
    stderr: np.ndarray
    counts: np.ndarray  # rounds per setting pair used for each component


def estimate_h(revealed: Transcript) -> HEstimate:
    """Empirical Hardy parameters with binomial standard errors."""
    table = np.bincount(revealed.code >> 1, minlength=16).reshape(4, 4)  # [2A + B, 2a + b]
    pairs = [2 * sa + sb for _, _, sa, sb in H_CELLS]
    hits = table[pairs, [2 * a + b for a, b, _, _ in H_CELLS]]
    totals = table[pairs].sum(axis=1)
    if (totals == 0).any():
        missing = [H_CELLS[k][2:] for k in np.flatnonzero(totals == 0)]
        raise InsufficientDataError(
            f"no revealed rounds for setting pair(s) {missing}")
    p = hits / totals
    se = np.sqrt(p * (1.0 - p) / totals)
    return HEstimate(h=p, stderr=se, counts=totals)


def joint_settings_given_00(p00: np.ndarray, dist: SettingsDistribution) -> np.ndarray:
    """P(A, B | a=0, b=0) from (..., 2, 2) tables of P(a=0, b=0 | A, B)."""
    joint = p00 * dist.joint()  # [..., A, B]
    total = joint.sum(axis=(-2, -1), keepdims=True)
    if (total <= 0.0).any():
        raise ZeroPosteriorError("P(a=0, b=0) vanishes for this setup")
    return joint / total


def _entropy(p: np.ndarray) -> np.ndarray:
    """Entropy in bits of each distribution along the last axis."""
    return -(p * np.log2(np.where(p > 0.0, p, 1.0))).sum(axis=-1)


def conditional_entropy(p00: np.ndarray, dist: SettingsDistribution,
                        dropping: bool = False) -> np.ndarray:
    """H(A|B) of the settings joint conditioned on both outcomes being 0,
    from (..., 2, 2) tables of P(a=0, b=0 | A, B).

    With `dropping`, Alice's marginal is first rebalanced by uniform random
    removal of her majority setting value.
    """
    joint = joint_settings_given_00(p00, dist)
    if dropping:
        pa = joint.sum(axis=-1)
        m = pa.min(axis=-1, keepdims=True)
        if (m <= 0.0).any():
            raise ZeroPosteriorError("dropping undefined: one key value never occurs")
        joint = joint * (m / pa)[..., None]
        joint = joint / joint.sum(axis=(-2, -1), keepdims=True)
    return _entropy(joint.reshape(*joint.shape[:-2], 4)) - _entropy(joint.sum(axis=-2))


def noiseless_bias_guess(epsilon: float, dist: SettingsDistribution) -> float:
    """Average guessing probability of the noiseless Hardy key under bias.

    For each branch the key-0 probability is q P(0,0) / (q P(0,0) + q~ P(1,1));
    the eavesdropper guesses the likelier value and the four branches are
    averaged with equal weight.
    """
    pa, pb = np.array([(b.p_a, b.p_b) for b in biased_branches(dist, epsilon).branches]).T
    num = Q_MAX * (pa * pb)
    den = num + Q_TILDE * ((1.0 - pa) * (1.0 - pb))
    if (den <= 0.0).any():
        raise ZeroPosteriorError("branch never produces a key round")
    p0 = num / den
    return float(np.maximum(p0, 1.0 - p0).mean())
