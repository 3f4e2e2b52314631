"""ProbFOL solver abstraction: interfaces, capabilities, results."""

from .base import MAPSolution, MAPSolver, SolverStats
from .capabilities import (
    MLN_CAPABILITIES,
    PSL_CAPABILITIES,
    SolverCapabilities,
    check_expressivity,
)
from .decomposed import DecomposedSolver
from .factory import instantiate_solver

__all__ = [
    "DecomposedSolver",
    "MAPSolution",
    "MAPSolver",
    "MLN_CAPABILITIES",
    "PSL_CAPABILITIES",
    "SolverCapabilities",
    "SolverStats",
    "check_expressivity",
    "instantiate_solver",
]
