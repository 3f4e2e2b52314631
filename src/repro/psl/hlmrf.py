"""Hinge-loss Markov random fields (HL-MRFs).

A HL-MRF defines a density over continuous variables ``y ∈ [0, 1]ⁿ``:

    P(y) ∝ exp( − Σₖ wₖ · max(0, ℓₖ(y))^{pₖ} )

with linear functions ``ℓₖ``.  MAP inference is the convex program of
minimising the weighted sum of hinges subject to the hard constraints being
exactly satisfied.  This module builds the HL-MRF for a ground program and
evaluates its energy; the actual optimisation lives in :mod:`repro.psl.admm`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..errors import SolverError
from ..logic.ground import GroundProgram
from .lukasiewicz import HingePotential, program_to_potentials, total_penalty


@dataclass
class HingeLossMRF:
    """The ground HL-MRF of a program: potentials over ``[0,1]`` variables."""

    num_variables: int
    potentials: list[HingePotential] = field(default_factory=list)

    @classmethod
    def from_program(
        cls,
        program: GroundProgram,
        hard_weight: float = 1_000.0,
        squared: bool = False,
    ) -> "HingeLossMRF":
        """Build the HL-MRF for ``program``.

        ``squared`` switches the soft potentials to squared hinges (PSL's
        default is linear; squared trades sparsity of the solution for
        smoothness).  Hard clauses always stay linear so feasibility is a
        polyhedral condition.
        """
        potentials = program_to_potentials(program, hard_weight=hard_weight, squared=False)
        if squared:
            potentials = [
                HingePotential(
                    indexes=potential.indexes,
                    coefficients=potential.coefficients,
                    constant=potential.constant,
                    weight=potential.weight,
                    hard=potential.hard,
                    squared=not potential.hard,
                    origin=potential.origin,
                )
                for potential in potentials
            ]
        return cls(num_variables=program.num_atoms, potentials=potentials)

    # ------------------------------------------------------------------ #
    def soft_potentials(self) -> list[HingePotential]:
        return [potential for potential in self.potentials if not potential.hard]

    def hard_potentials(self) -> list[HingePotential]:
        return [potential for potential in self.potentials if potential.hard]

    def energy(self, truth_values: Sequence[float]) -> float:
        """Total weighted distance to satisfaction (lower is better)."""
        self._check_state(truth_values)
        return total_penalty(self.potentials, truth_values)

    def soft_energy(self, truth_values: Sequence[float]) -> float:
        """Weighted distance of the *soft* potentials only."""
        self._check_state(truth_values)
        return total_penalty(self.soft_potentials(), truth_values)

    def hard_violation(self, truth_values: Sequence[float]) -> float:
        """Maximum distance to satisfaction over the hard potentials."""
        self._check_state(truth_values)
        hard = self.hard_potentials()
        if not hard:
            return 0.0
        return max(potential.distance(truth_values) for potential in hard)

    def is_feasible(self, truth_values: Sequence[float], tolerance: float = 1e-6) -> bool:
        """True when every hard potential is (numerically) satisfied."""
        return self.hard_violation(truth_values) <= tolerance

    def initial_state(self) -> np.ndarray:
        """Starting point for the optimisers: everything fully true."""
        return np.ones(self.num_variables, dtype=float)

    def _check_state(self, truth_values: Sequence[float]) -> None:
        if len(truth_values) != self.num_variables:
            raise SolverError(
                f"state has {len(truth_values)} values for {self.num_variables} variables"
            )
