"""Markov Logic Network engine with numerical constraints (the nRockIt path)."""

from .ilp import ILPEncoding, encode
from .marginal import GibbsSampler, MarginalResult, marginals
from .model import MarkovLogicNetwork, WeightedFormula
from .solvers import (
    ArrayMaxWalkSATSolver,
    BranchAndBoundSolver,
    CuttingPlaneSolver,
    ILPMapSolver,
    MaxWalkSATSolver,
)

__all__ = [
    "ArrayMaxWalkSATSolver",
    "BranchAndBoundSolver",
    "CuttingPlaneSolver",
    "GibbsSampler",
    "ILPEncoding",
    "ILPMapSolver",
    "MarginalResult",
    "MarkovLogicNetwork",
    "MaxWalkSATSolver",
    "WeightedFormula",
    "encode",
    "marginals",
]
