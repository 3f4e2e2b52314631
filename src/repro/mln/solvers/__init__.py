"""MAP back-end for the MLN path."""

from .milp_backend import ILPMapSolver

__all__ = ["ILPMapSolver"]
