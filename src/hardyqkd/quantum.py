"""Two-qubit linear algebra: Hardy-state construction and Born-rule behaviors.

The Hardy state is the null vector of the SVD of <phi0|, <phi1|, <phi2|,
the same SVD that gives the uniqueness dimension.  Its noisy behavior is
affine in the visibility: p(eta) = (1 - eta)/4 + eta p(1), with p(1) the
Born rule of the pure state, built once per pair of bases and evaluated
for a whole array of visibilities at once.

Conventions
-----------
Local bases follow

    |0'> = alpha |0> + beta |1>,      |1'> = beta* |0> - alpha* |1>,

with |alpha|^2 + |beta|^2 = 1 and 0 < |alpha| < 1 (the two settings must not
commute).  beta is always taken real nonnegative, so every constructed
vector is reproducible exactly.  Product vectors live in C^4 with index
2*i_A + i_B.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ParameterRangeError

# |alpha|^2 at the Hardy optimum, and the two pinned probabilities.
ALPHA_SQ_OPT = (np.sqrt(5.0) - 1.0) / 2.0
ALPHA_OPT = float(np.sqrt(ALPHA_SQ_OPT))
Q_MAX = (5.0 * np.sqrt(5.0) - 11.0) / 2.0
Q_TILDE = np.sqrt(5.0) - 2.0


@dataclass(frozen=True)
class MeasurementSet:
    """Rank-1 projective measurements indexed by (party, setting, outcome).

    `vectors[p, s, o]` is the basis vector of party p (0 = Alice, 1 = Bob),
    setting s and outcome o, and `projectors[p, s, o]` its 2x2 projector.
    """

    vectors: np.ndarray  # shape (2, 2, 2, 2), complex
    projectors: np.ndarray  # shape (2, 2, 2, 2, 2), complex


@dataclass(frozen=True)
class Behavior:
    """Conditional probability table p[a, b, A, B] for the 2x2x2x2 scenario."""

    p: np.ndarray  # shape (2, 2, 2, 2), float

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", np.asarray(self.p, dtype=float))
        if self.p.shape != (2, 2, 2, 2):
            raise ValueError("behavior table must have shape (2, 2, 2, 2)")
        if not (self.p >= 0.0).all():  # NaN too; `protocol.simulate` relies on it
            raise ParameterRangeError("behavior cells must be nonnegative")

    def cell(self, a: int, b: int, setting_a: int, setting_b: int) -> float:
        return float(self.p[a, b, setting_a, setting_b])


def _check_alpha(alpha: complex) -> complex:
    mag = abs(alpha)
    if not (1e-10 < mag < 1.0 - 1e-10):
        raise ParameterRangeError(
            f"|alpha| = {mag:.3g} must lie strictly inside (0, 1); "
            "the boundary makes the two settings commute")
    return complex(alpha)


def local_bases(alpha_a: complex, alpha_b: complex) -> MeasurementSet:
    """Projective measurements for both parties.

    Setting 0 measures in the computational basis; setting 1 in the rotated
    basis {|0'>, |1'>} determined by the party's alpha.
    """
    vectors = np.zeros((2, 2, 2, 2), dtype=complex)
    e0 = np.array([1.0, 0.0], dtype=complex)
    e1 = np.array([0.0, 1.0], dtype=complex)
    for party, alpha in enumerate((_check_alpha(alpha_a), _check_alpha(alpha_b))):
        beta = np.sqrt(1.0 - abs(alpha) ** 2)  # real nonnegative by convention
        vectors[party, 0] = e0, e1
        vectors[party, 1] = alpha * e0 + beta * e1, np.conj(beta) * e0 - np.conj(alpha) * e1
    return MeasurementSet(vectors, vectors[..., :, None] * vectors[..., None, :].conj())


def hardy_product_states(bases: MeasurementSet) -> list[np.ndarray]:
    """The four product vectors [phi0, phi1, phi2, phi3] attached to the test.

    phi0 = |1'>_A |1'>_B, phi1 = |0>_A |0'>_B, phi2 = |0'>_A |0>_B,
    phi3 = |0>_A |0>_B.
    """
    alice, bob = bases.vectors  # [setting, outcome]
    return [np.kron(alice[1, 1], bob[1, 1]), np.kron(alice[0, 0], bob[1, 0]),
            np.kron(alice[1, 0], bob[0, 0]), np.kron(alice[0, 0], bob[0, 0])]


def _hardy_svd(bases: MeasurementSet) -> tuple[np.ndarray, int]:
    """(Vh, rank) of the SVD of the rows <phi0|, <phi1|, <phi2|.

    The conjugates of the rows of Vh beyond the rank span the vectors
    orthogonal to all three.
    """
    rows = np.stack(hardy_product_states(bases)[:3]).conj()
    _, s, vh = np.linalg.svd(rows)
    return vh, int(np.sum(s > 1e-10))


def hardy_state(alpha_a: complex, alpha_b: complex) -> np.ndarray:
    """The unique pure two-qubit state passing the test for these bases.

    It is the unit vector orthogonal to phi0, phi1 and phi2, phased so that
    <phi3|psi> = psi[0] is real and positive.  The three vectors are
    independent for every admissible pair of bases: for |alpha| < 1,
    phi1 = |0>_A |0'>_B and phi2 = |0'>_A |0>_B share no factor, so the only
    product vectors in their span are multiples of phi1 or phi2, and
    phi0 = |1'>_A |1'>_B is neither, since |1'> is orthogonal to |0'> on
    each side.  At the limits of |alpha| that `local_bases` accepts, the
    smallest singular value is still 1.4e-5, far above the rank threshold
    of `_hardy_svd`.
    """
    psi = _hardy_svd(local_bases(alpha_a, alpha_b))[0][3].conj()
    return psi * psi[0].conj() / abs(psi[0])


def q_value(alpha_a: complex, alpha_b: complex) -> float:
    """Closed-form success probability |<psi|phi3>|^2.

    Equals |alpha_A alpha_B|^2 |beta_A beta_B|^2 / (1 - |alpha_A alpha_B|^2);
    its maximum over admissible alphas is (5*sqrt(5) - 11) / 2.
    """
    _check_alpha(alpha_a)
    _check_alpha(alpha_b)
    aa = abs(alpha_a) ** 2 * abs(alpha_b) ** 2
    bb = (1.0 - abs(alpha_a) ** 2) * (1.0 - abs(alpha_b) ** 2)
    return float(aa * bb / (1.0 - aa))


def uniqueness_check(bases: MeasurementSet) -> int:
    """Dimension of the orthocomplement of span{phi0, phi1, phi2} in C^4."""
    return 4 - _hardy_svd(bases)[1]


def born_behavior(rho: np.ndarray, bases: MeasurementSet) -> Behavior:
    """p(a, b | A, B) = Tr[(Pi^A_{A,a} x Pi^B_{B,b}) rho]."""
    rho = np.asarray(rho, dtype=complex).reshape(2, 2, 2, 2)  # [iA, iB, jA, jB]
    p = np.einsum("xaik,ybjl,klij->abxy", bases.projectors[0],
                  bases.projectors[1], rho).real
    return Behavior(p=np.clip(p, 0.0, 1.0))


@functools.cache
def _pure_behavior(alpha_a: complex, alpha_b: complex) -> np.ndarray:
    """Read-only Born-rule table of |psi><psi| for `hardy_state`'s bases."""
    psi = hardy_state(alpha_a, alpha_b)
    p = born_behavior(np.outer(psi, psi.conj()), local_bases(alpha_a, alpha_b)).p
    p.flags.writeable = False
    return p


def check_etas(etas: np.ndarray | list[float]) -> np.ndarray:
    """The visibilities as a float array, each checked to lie in [0, 1]."""
    etas = np.asarray(etas, dtype=float)
    outside = ~((etas >= 0.0) & (etas <= 1.0))
    if outside.any():
        raise ParameterRangeError(f"eta = {etas[outside][0]} outside [0, 1]")
    return etas


def hardy_tables(etas: np.ndarray | list[float],
                 alpha_a: complex = ALPHA_OPT,
                 alpha_b: complex = ALPHA_OPT) -> np.ndarray:
    """(N, 2, 2, 2, 2) tables p[a, b, A, B] of the noisy Hardy setup with the
    matching bases, one per visibility.

    The state is rho(eta) = (1 - eta) I/4 + eta |psi><psi|.  Every product
    of rank-1 projectors has trace 1, so each cell is (1 - eta)/4 plus eta
    times the cell of the pure state, which is built once per pair of bases.
    """
    etas = check_etas(etas)[:, None, None, None, None]
    return (1.0 - etas) / 4.0 + etas * _pure_behavior(alpha_a, alpha_b)


def hardy_behavior(eta: float = 1.0,
                   alpha_a: complex = ALPHA_OPT,
                   alpha_b: complex = ALPHA_OPT) -> Behavior:
    """Behavior of the noisy Hardy setup: the one-point case of `hardy_tables`."""
    return Behavior(p=hardy_tables([eta], alpha_a, alpha_b)[0])
