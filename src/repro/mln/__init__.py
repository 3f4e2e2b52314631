"""Markov Logic Network engine with numerical constraints (the nRockIt path)."""

from .ilp import ILPEncoding
from .model import MarkovLogicNetwork, WeightedFormula
from .solvers import ILPMapSolver

__all__ = [
    "ILPEncoding",
    "ILPMapSolver",
    "MarkovLogicNetwork",
    "WeightedFormula",
]
