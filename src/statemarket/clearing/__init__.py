"""Market clearing: LP substrate, branch and bound over commitments (ties to
the lex-smallest cell, as enumeration would pick), verification."""

from .simplex import LinearProgram, LPResult, LPRow, solve_lp
from .core import (
    DEFAULT_TOL,
    ClearingResult,
    VerificationReport,
    best_response_value,
    build_lp,
    clear,
    clear_bids,
    sweep_two_state_beliefs,
    verify_equilibrium,
    welfare_equivalence_check,
)

__all__ = [
    "DEFAULT_TOL",
    "LinearProgram",
    "LPRow",
    "LPResult",
    "solve_lp",
    "ClearingResult",
    "VerificationReport",
    "build_lp",
    "clear",
    "clear_bids",
    "best_response_value",
    "sweep_two_state_beliefs",
    "verify_equilibrium",
    "welfare_equivalence_check",
]
