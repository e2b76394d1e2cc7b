"""Protocol simulation: settings distributions, RNG bias, sifting, entropies.

Randomness comes from numpy's Philox generator, a seedable counter-based
RNG.  All per-round deviates are one (n, 5) block computed up front from
the seed, so round i's randomness is a fixed function of (seed, i):
transcripts are reproducible byte-for-byte and independent of how the
derived quantities are later evaluated.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .errors import (
    EpsilonTooLargeError,
    InsufficientDataError,
    ParameterRangeError,
    ZeroPosteriorError,
)
from .quantum import Behavior, Q_MAX, Q_TILDE

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

#: Ratio r = sqrt(y) / (sqrt(x) + sqrt(y)) balancing the noiseless sifted key.
NONUNIFORM_RATIO = float(np.sqrt(Q_TILDE) / (np.sqrt(Q_MAX) + np.sqrt(Q_TILDE)))

#: Setting-0-heavy distribution that balances the key without dropping.
NONUNIFORM = SettingsDistribution(NONUNIFORM_RATIO, NONUNIFORM_RATIO,
                                  label="nonuniform")


@dataclass(frozen=True)
class BiasModel:
    """Four equally likely product distributions (pA +- eps, pB +- eps)."""

    base: SettingsDistribution
    epsilon: float
    branches: tuple[SettingsDistribution, ...]


def biased_branches(base: SettingsDistribution, epsilon: float) -> BiasModel:
    """The four sign combinations of the bias, each with weight 1/4."""
    if epsilon < 0:
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
    return BiasModel(base=base, epsilon=epsilon, branches=tuple(branches))


_CSV_HEADER = "index,settingA,settingB,outcomeA,outcomeB,revealed\n"
_CSV_CHUNK = 1 << 16  # rows per join; bounds the row strings held at once


@dataclass
class Transcript:
    """Array-backed log of a simulated protocol run."""

    seed: int
    behavior: Behavior
    distribution: SettingsDistribution | BiasModel
    setting_a: np.ndarray
    setting_b: np.ndarray
    outcome_a: np.ndarray
    outcome_b: np.ndarray
    revealed: np.ndarray

    def __len__(self) -> int:
        return self.setting_a.size

    def _restrict(self, mask: np.ndarray) -> "Transcript":
        return dataclasses.replace(
            self, setting_a=self.setting_a[mask], setting_b=self.setting_b[mask],
            outcome_a=self.outcome_a[mask], outcome_b=self.outcome_b[mask],
            revealed=self.revealed[mask])

    def revealed_rounds(self) -> "Transcript":
        return self._restrict(self.revealed)

    def to_csv(self) -> str:
        chunks = [_CSV_HEADER]
        for start in range(0, len(self), _CSV_CHUNK):
            stop = min(start + _CSV_CHUNK, len(self))
            columns = [range(start, stop)] + [
                col[start:stop].tolist() for col in (
                    self.setting_a, self.setting_b, self.outcome_a,
                    self.outcome_b, self.revealed)]
            chunks.append("".join("%d,%d,%d,%d,%d,%d\n" % row
                                  for row in zip(*columns)))
        return "".join(chunks)


def _round_uniforms(seed: int, n: int) -> np.ndarray:
    """Deterministic (n, 5) block of uniforms; row i drives round i."""
    gen = np.random.Generator(np.random.Philox(key=seed))
    return gen.random((n, 5))


def simulate(n: int, behavior: Behavior,
             dist_or_bias: SettingsDistribution | BiasModel,
             reveal_fraction: float, seed: int) -> Transcript:
    """Run n protocol rounds and log settings, outcomes and reveal marks.

    Each round independently draws a bias branch (when a `BiasModel` is
    given), settings from that branch, outcomes from the behavior via its
    conditional CDF, and a Bernoulli(reveal_fraction) estimation mark.
    """
    if n <= 0:
        raise ParameterRangeError("round count must be positive")
    if not 0.0 <= reveal_fraction <= 1.0:
        raise ParameterRangeError("reveal fraction must lie in [0, 1]")
    u = _round_uniforms(seed, n)

    if isinstance(dist_or_bias, BiasModel):
        branch = np.minimum((u[:, _U_BRANCH] * 4).astype(np.int64), 3)
        pa = np.array([b.p_a for b in dist_or_bias.branches])[branch]
        pb = np.array([b.p_b for b in dist_or_bias.branches])[branch]
    else:
        pa = np.full(n, dist_or_bias.p_a)
        pb = np.full(n, dist_or_bias.p_b)

    setting_a = (u[:, _U_SET_A] >= pa).astype(np.int8)
    setting_b = (u[:, _U_SET_B] >= pb).astype(np.int8)

    # Outcome pair via the CDF of p(.,.|A,B) in the fixed order
    # (0,0), (0,1), (1,0), (1,1); zero-probability cells are never hit.
    cdf = np.cumsum(behavior.p.reshape(4, 2, 2), axis=0)  # [cell, A, B]
    cell_cdf = cdf[:, setting_a, setting_b]  # (4, n)
    outcome_cell = (u[:, _U_OUTCOME][None, :] >= cell_cdf).sum(axis=0)
    outcome_cell = np.minimum(outcome_cell, 3)
    outcome_a = (outcome_cell // 2).astype(np.int8)
    outcome_b = (outcome_cell % 2).astype(np.int8)

    revealed = u[:, _U_REVEAL] < reveal_fraction
    return Transcript(seed=seed, behavior=behavior, distribution=dist_or_bias,
                      setting_a=setting_a, setting_b=setting_b,
                      outcome_a=outcome_a, outcome_b=outcome_b,
                      revealed=revealed)


def sift(transcript: Transcript) -> Transcript:
    """Key rounds: unrevealed with both outcomes 0 (key bit = Alice's setting)."""
    return transcript._restrict(~transcript.revealed & (transcript.outcome_a == 0)
                                & (transcript.outcome_b == 0))


def key_bits(sifted: Transcript) -> tuple[np.ndarray, np.ndarray]:
    """Alice's and Bob's key strings for a sifted transcript."""
    return sifted.setting_a, sifted.setting_b


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
        if not 0.0 <= eta <= 1.0:
            raise ParameterRangeError(f"eta = {eta} outside [0, 1]")
        off = (1.0 - eta) / 4.0
        return HVector(eta * Q_MAX + off, off, off, off)

    @staticmethod
    def from_behavior(behavior: Behavior) -> "HVector":
        return HVector(behavior.cell(0, 0, 0, 0), behavior.cell(0, 0, 1, 0),
                       behavior.cell(0, 0, 0, 1), behavior.cell(1, 1, 1, 1))


# Cell coordinates (a, b, A, B) of the four Hardy parameters.
H_CELLS: tuple[tuple[int, int, int, int], ...] = (
    (0, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 1, 1, 1))


@dataclass(frozen=True)
class HEstimate:
    h: HVector
    stderr: np.ndarray
    counts: np.ndarray  # rounds per setting pair used for each component


def estimate_h(revealed: Transcript) -> HEstimate:
    """Empirical Hardy parameters with binomial standard errors."""
    hits = np.zeros(4)
    totals = np.zeros(4)
    for k, (a, b, sa, sb) in enumerate(H_CELLS):
        pair = (revealed.setting_a == sa) & (revealed.setting_b == sb)
        totals[k] = np.count_nonzero(pair)
        hits[k] = np.count_nonzero(pair & (revealed.outcome_a == a)
                                   & (revealed.outcome_b == b))
    if (totals == 0).any():
        missing = [H_CELLS[k][2:] for k in np.flatnonzero(totals == 0)]
        raise InsufficientDataError(
            f"no revealed rounds for setting pair(s) {missing}")
    p = hits / totals
    se = np.sqrt(p * (1.0 - p) / totals)
    return HEstimate(h=HVector(*p), stderr=se, counts=totals)


def joint_settings_given_00(behavior: Behavior,
                            dist: SettingsDistribution) -> np.ndarray:
    """P(A, B | a=0, b=0) over the four setting pairs."""
    joint = behavior.p[0, 0] * dist.joint()  # [A, B]
    total = joint.sum()
    if total <= 0.0:
        raise ZeroPosteriorError("P(a=0, b=0) vanishes for this setup")
    return joint / total


def _entropy(p: np.ndarray) -> float:
    p = p[p > 0]
    return float(-(p * np.log2(p)).sum())


def conditional_entropy(behavior: Behavior, dist: SettingsDistribution,
                        dropping: bool = False) -> float:
    """H(A|B) of the settings joint conditioned on both outcomes being 0.

    With `dropping`, Alice's marginal is first rebalanced by uniform random
    removal of her majority setting value.
    """
    joint = joint_settings_given_00(behavior, dist)
    if dropping:
        pa = joint.sum(axis=1)
        m = pa.min()
        if m <= 0.0:
            raise ZeroPosteriorError("dropping undefined: one key value never occurs")
        keep = m / pa
        joint = joint * keep[:, None]
        joint = joint / joint.sum()
    return _entropy(joint.ravel()) - _entropy(joint.sum(axis=0))


def noiseless_bias_guess(epsilon: float, dist: SettingsDistribution) -> float:
    """Average guessing probability of the noiseless Hardy key under bias.

    For each branch the key-0 probability is q P(0,0) / (q P(0,0) + q~ P(1,1));
    the eavesdropper guesses the likelier value and the four branches are
    averaged with equal weight.
    """
    model = biased_branches(dist, epsilon)
    total = 0.0
    for branch in model.branches:
        joint = branch.joint()
        num = Q_MAX * joint[0, 0]
        den = num + Q_TILDE * joint[1, 1]
        if den <= 0.0:
            raise ZeroPosteriorError("branch never produces a key round")
        p0 = num / den
        total += max(p0, 1.0 - p0)
    return total / 4.0
