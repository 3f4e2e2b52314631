"""Łukasiewicz relaxation of ground clauses.

PSL interprets logical formulas over soft truth values in ``[0, 1]`` using the
Łukasiewicz t-(co)norms.  A ground clause ``l₁ ∨ … ∨ lₖ`` has truth value
``min(1, Σ value(lᵢ))`` and its *distance to satisfaction* is the hinge

    d(y) = max(0, 1 − Σ_{i∈C⁺} yᵢ − Σ_{i∈C⁻} (1 − yᵢ))
         = max(0, coefficients · y + constant)

which is the linear hinge potential of the corresponding hinge-loss Markov
random field.  This module converts ground clauses into those potentials.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..logic.arrays import GroundProgramArrays
from ..logic.ground import GroundClause, GroundProgram


@dataclass(frozen=True, slots=True)
class HingePotential:
    """One hinge-loss potential ``weight · max(0, coefficients·y + constant)ᵖ``.

    ``indexes``/``coefficients`` give the sparse linear form; ``hard`` marks
    potentials that must be exactly zero at a feasible point (the relaxation
    of hard clauses).  ``squared`` selects the squared hinge (p = 2).
    """

    indexes: tuple[int, ...]
    coefficients: tuple[float, ...]
    constant: float
    weight: float
    hard: bool
    squared: bool = False
    origin: str = ""

    def distance(self, truth_values: Sequence[float]) -> float:
        """Distance to satisfaction at ``truth_values``."""
        total = self.constant
        for index, coefficient in zip(self.indexes, self.coefficients):
            total += coefficient * truth_values[index]
        value = max(0.0, total)
        return value * value if self.squared else value

    def penalty(self, truth_values: Sequence[float]) -> float:
        """Weighted distance (the potential's contribution to the MAP objective)."""
        return self.weight * self.distance(truth_values)


def clause_to_potential(
    clause: GroundClause, hard_weight: float, squared: bool = False
) -> HingePotential:
    """Convert one ground clause into its Łukasiewicz hinge potential."""
    indexes: list[int] = []
    coefficients: list[float] = []
    constant = 1.0
    for index, positive in clause.literals:
        indexes.append(index)
        if positive:
            coefficients.append(-1.0)
        else:
            coefficients.append(1.0)
            constant -= 1.0
    return HingePotential(
        indexes=tuple(indexes),
        coefficients=tuple(coefficients),
        constant=constant,
        weight=hard_weight if clause.is_hard else float(clause.weight or 0.0),
        hard=clause.is_hard,
        squared=squared,
        origin=clause.origin,
    )


def program_to_potentials(
    program: GroundProgram, hard_weight: float = 1_000.0, squared: bool = False
) -> list[HingePotential]:
    """Convert every ground clause of ``program`` into a hinge potential."""
    return [clause_to_potential(clause, hard_weight, squared) for clause in program.clauses]


def total_penalty(potentials: Sequence[HingePotential], truth_values: Sequence[float]) -> float:
    """Σ weight·distance over all potentials (the HL-MRF energy)."""
    return float(sum(potential.penalty(truth_values) for potential in potentials))


class PotentialMatrix:
    """Vectorised (flat-array) view of a set of hinge potentials.

    The ADMM optimiser iterates many times over all potentials; doing that in
    Python is what makes naive implementations slow.  This helper flattens the
    sparse potential structure into numpy arrays once, so each iteration is a
    handful of vectorised operations:

    * ``literal_potential`` / ``literal_variable`` / ``literal_coefficient`` —
      one entry per (potential, variable) incidence;
    * ``constants`` / ``weights`` / ``hard`` / ``squared`` / ``norms`` — one
      entry per potential.
    """

    def __init__(self, potentials: Sequence[HingePotential], num_variables: int) -> None:
        self.potentials = list(potentials)
        self.num_variables = num_variables
        self.num_potentials = len(self.potentials)
        literal_potential: list[int] = []
        literal_variable: list[int] = []
        literal_coefficient: list[float] = []
        for position, potential in enumerate(self.potentials):
            for index, coefficient in zip(potential.indexes, potential.coefficients):
                literal_potential.append(position)
                literal_variable.append(index)
                literal_coefficient.append(coefficient)
        self.literal_potential = np.asarray(literal_potential, dtype=np.int64)
        self.literal_variable = np.asarray(literal_variable, dtype=np.int64)
        self.literal_coefficient = np.asarray(literal_coefficient, dtype=float)
        self.constants = np.asarray(
            [potential.constant for potential in self.potentials], dtype=float
        )
        self.weights = np.asarray([potential.weight for potential in self.potentials], dtype=float)
        self.hard = np.asarray([potential.hard for potential in self.potentials], dtype=bool)
        self.squared = np.asarray([potential.squared for potential in self.potentials], dtype=bool)
        self.norms = np.bincount(
            self.literal_potential,
            weights=self.literal_coefficient**2,
            minlength=self.num_potentials,
        )
        #: How many potentials touch each variable (for consensus averaging).
        self.variable_counts = np.bincount(
            self.literal_variable, minlength=num_variables
        ).astype(float)

    @classmethod
    def from_arrays(
        cls,
        arrays: GroundProgramArrays,
        hard_weight: float = 1_000.0,
        squared: bool = False,
    ) -> "PotentialMatrix":
        """Build the flat-array view straight from :class:`GroundProgramArrays`.

        This skips the per-clause :class:`HingePotential` object explosion
        entirely: every field is derived from the CSR blocks with the same
        values, in the same order, as ``PotentialMatrix(program_to_potentials
        (program, ...), ...)`` would produce — so the downstream optimisers
        are bit-identical between the object and array paths.  ``squared``
        follows :meth:`HingeLossMRF.from_program`: soft potentials switch to
        squared hinges, hard potentials always stay linear.  The
        ``potentials`` object list is empty on this path.
        """
        matrix = cls.__new__(cls)
        matrix.potentials = []
        matrix.num_variables = arrays.num_atoms
        matrix.num_potentials = arrays.num_clauses
        matrix.literal_potential = arrays.literal_clauses
        matrix.literal_variable = arrays.literal_atoms
        # Positive literal → coefficient −1; negative → +1 and the constant
        # drops by 1 (the clause_to_potential normalisation, vectorized).
        matrix.literal_coefficient = np.where(arrays.literal_signs, -1.0, 1.0)
        negatives = np.bincount(
            arrays.literal_clauses,
            weights=(~arrays.literal_signs).astype(float),
            minlength=arrays.num_clauses,
        )
        matrix.constants = 1.0 - negatives
        matrix.weights = np.where(arrays.is_hard, hard_weight, arrays.weights)
        matrix.hard = arrays.is_hard.copy()
        matrix.squared = ~arrays.is_hard if squared else np.zeros(arrays.num_clauses, dtype=bool)
        matrix.norms = np.bincount(
            matrix.literal_potential,
            weights=matrix.literal_coefficient**2,
            minlength=matrix.num_potentials,
        )
        matrix.variable_counts = np.bincount(
            matrix.literal_variable, minlength=matrix.num_variables
        ).astype(float)
        return matrix

    def values(self, truth_values: np.ndarray) -> np.ndarray:
        """Per-potential linear values ``cᵀy + b``."""
        if self.num_potentials == 0:
            return np.zeros(0)
        products = self.literal_coefficient * truth_values[self.literal_variable]
        return (
            np.bincount(self.literal_potential, weights=products, minlength=self.num_potentials)
            + self.constants
        )

    def penalties(self, truth_values: np.ndarray) -> np.ndarray:
        """Per-potential weighted hinge losses."""
        hinges = np.maximum(0.0, self.values(truth_values))
        hinges = np.where(self.squared, hinges**2, hinges)
        return self.weights * hinges
