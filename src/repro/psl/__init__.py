"""Probabilistic Soft Logic engine over hinge-loss MRFs (the nPSL path)."""

from .admm import ADMMSolver
from .hlmrf import HingeLossMRF
from .lukasiewicz import (
    HingePotential,
    PotentialMatrix,
    clause_to_potential,
    program_to_potentials,
    total_penalty,
)
from .model import PSLProgram
from .rounding import repair_hard, round_solution, threshold

__all__ = [
    "ADMMSolver",
    "HingeLossMRF",
    "HingePotential",
    "PSLProgram",
    "PotentialMatrix",
    "clause_to_potential",
    "program_to_potentials",
    "repair_hard",
    "round_solution",
    "threshold",
    "total_penalty",
]
