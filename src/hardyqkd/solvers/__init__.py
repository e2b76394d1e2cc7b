"""In-repo dense SDP and LP solvers."""

from .lp import LPProblem, LPSolution, lp_solve
from .sdp import SDPProblem, SDPSolution, sdp_solve, sdp_solve_batch

__all__ = [
    "LPProblem",
    "LPSolution",
    "lp_solve",
    "SDPProblem",
    "SDPSolution",
    "sdp_solve",
    "sdp_solve_batch",
]
