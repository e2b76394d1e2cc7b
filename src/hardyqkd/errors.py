"""Exception types shared across the package."""


class InputError(ValueError):
    """Input the pipeline cannot work with; the CLI exits with code 2."""


class ParameterRangeError(InputError):
    """A numeric parameter is outside its admissible range."""


class EpsilonTooLargeError(ParameterRangeError):
    """A bias epsilon pushes a branch probability outside [0, 1]."""


class InsufficientDataError(InputError):
    """An estimator has no samples for at least one required cell."""


class ZeroPosteriorError(InputError):
    """Conditioning event P(a=0, b=0) has probability zero."""


class UnsupportedLevelError(InputError):
    """Requested relaxation level is not supported."""


class SolverFailure(RuntimeError):
    """An optimization backend did not return an optimal certificate."""


class InfeasibleHError(SolverFailure):
    """The security-parameter vector h admits no quantum model at this level."""


class DecompositionInfeasibleError(SolverFailure):
    """A decomposition LP has no certified value: the target h lies outside
    the convex hull of the tabulated grid, or the dual bound of the final
    basis exceeds its primal value."""
