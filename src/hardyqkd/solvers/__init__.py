"""In-repo dense SDP and LP solvers."""

from .lp import LPProblem, LPSolution, lp_solve, verify_lp_solution
from .sdp import SDPProblem, SDPSolution, sdp_solve, sdp_solve_batch, verify_sdp_solution

__all__ = [
    "LPProblem",
    "LPSolution",
    "lp_solve",
    "verify_lp_solution",
    "SDPProblem",
    "SDPSolution",
    "sdp_solve",
    "sdp_solve_batch",
    "verify_sdp_solution",
]
