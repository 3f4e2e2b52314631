"""Consensus ADMM for HL-MRF MAP inference.

This is the optimisation algorithm of the PSL reference implementation
(Bach et al., 2015): every hinge potential gets a local copy of the variables
it touches, an augmented-Lagrangian term ties the copies to a global consensus
vector, and the three ADMM steps alternate until the primal and dual residuals
are small:

1. **local step** — each potential minimises
   ``w·max(0, cᵀy + b) + (ρ/2)·‖y − (z − u)‖²`` in closed form;
2. **consensus step** — ``z`` is the average of ``y + u`` over the potentials
   touching each variable, clipped to ``[0, 1]``;
3. **dual step** — ``u ← u + y − z``.

Hard potentials are handled as indicator functions (projection onto the
half-space ``cᵀy + b ≤ 0``).
"""

from __future__ import annotations

import time

import numpy as np

from ..logic.arrays import GroundProgramArrays
from ..logic.ground import GroundProgram
from ..solvers import MAPSolution, MAPSolver, PSL_CAPABILITIES, SolverCapabilities, SolverStats
from .lukasiewicz import PotentialMatrix
from .rounding import round_solution


class ADMMSolver(MAPSolver):
    """The nPSL MAP solver: consensus ADMM over the hinge-loss MRF.

    Parameters
    ----------
    rho:
        Augmented-Lagrangian penalty (step size).
    max_iterations:
        Iteration cap.
    tolerance:
        Convergence threshold on the primal and dual residual norms.
    squared:
        Use squared hinges for soft potentials.
    hard_weight:
        Only used when rounding needs to rank residual conflicts.
    """

    name = "npsl-admm"
    supports_warm_start = True

    def __init__(
        self,
        rho: float = 1.0,
        max_iterations: int = 500,
        tolerance: float = 1e-4,
        squared: bool = False,
        hard_weight: float = 1_000.0,
    ) -> None:
        self.rho = rho
        self.max_iterations = max_iterations
        self.tolerance = tolerance
        self.squared = squared
        self.hard_weight = hard_weight

    @property
    def capabilities(self) -> SolverCapabilities:
        return PSL_CAPABILITIES

    # ------------------------------------------------------------------ #
    def solve(self, program: GroundProgram, warm_start=None) -> MAPSolution:
        """Lower ``program`` to a :class:`PotentialMatrix` through the
        columnar arrays, run ADMM from all-ones (or the warm start) and round.

        The matrix holds the same values in the same order as one built from
        :meth:`HingeLossMRF.from_program`'s potentials (see
        :meth:`PotentialMatrix.from_arrays`), without materialising a
        per-clause :class:`HingePotential`.
        """
        if program.num_atoms == 0:
            return self._empty_solution()
        started = time.perf_counter()
        arrays = GroundProgramArrays.from_program(program)
        matrix = PotentialMatrix.from_arrays(
            arrays, hard_weight=self.hard_weight, squared=self.squared
        )
        if warm_start is not None and len(warm_start) == program.num_atoms:
            # Warm start: seed the consensus vector with the previous soft
            # truth values so ADMM begins near the old optimum.
            consensus = np.clip(np.asarray(warm_start, dtype=float), 0.0, 1.0)
        else:
            consensus = np.ones(program.num_atoms, dtype=float)
        truth_values, iterations = self._admm(matrix, consensus)
        assignment = round_solution(program, truth_values)
        elapsed = time.perf_counter() - started
        soft_energy = float(matrix.penalties(truth_values)[~matrix.hard].sum())
        stats = SolverStats(
            solver=self.name,
            runtime_seconds=elapsed,
            iterations=iterations,
            atoms=program.num_atoms,
            clauses=program.num_clauses,
            optimal=False,
            objective_bound=float(program.max_soft_weight() - soft_energy),
        )
        return MAPSolution(
            assignment=assignment,
            objective=arrays.objective(assignment),
            stats=stats,
            truth_values=tuple(float(value) for value in truth_values),
        )

    # ------------------------------------------------------------------ #
    # ADMM machinery (vectorised across potentials)
    # ------------------------------------------------------------------ #
    def _admm(self, matrix: PotentialMatrix, consensus: np.ndarray) -> tuple[np.ndarray, int]:
        """Run the ADMM iterations over a prebuilt :class:`PotentialMatrix`.

        The loop touches only the matrix's flat arrays, so object-built and
        array-lowered matrices with equal contents produce bit-identical
        iterates (the differential tests build the matrix from
        :class:`HingeLossMRF` potentials and compare).
        """
        if matrix.num_potentials == 0:
            return consensus, 0

        # Flat per-literal state: each potential's local copy of the variables
        # it touches, plus the corresponding scaled dual variables.
        num_literals = matrix.literal_variable.shape[0]
        local = consensus[matrix.literal_variable].copy()
        duals = np.zeros(num_literals, dtype=float)
        counts = np.maximum(matrix.variable_counts, 1.0)
        norms = np.maximum(matrix.norms, 1e-12)
        weights = matrix.weights

        iterations_run = 0
        for iteration in range(1, self.max_iterations + 1):
            iterations_run = iteration

            # 1. Local steps: y_k = v_k − scale_k · c_k with v_k = z_k − u_k.
            reference = consensus[matrix.literal_variable] - duals
            reference_values = (
                np.bincount(
                    matrix.literal_potential,
                    weights=matrix.literal_coefficient * reference,
                    minlength=matrix.num_potentials,
                )
                + matrix.constants
            )
            projection_scale = reference_values / norms
            # Linear hinge interior candidate: scale = w/ρ, valid only while the
            # hinge stays active there; otherwise project onto the boundary.
            interior_scale = weights / self.rho
            interior_values = reference_values - interior_scale * norms
            linear_case = np.where(interior_values >= 0.0, interior_scale, projection_scale)
            squared_case = (2.0 * weights * reference_values) / (self.rho + 2.0 * weights * norms)
            scale = np.where(
                matrix.hard, projection_scale, np.where(matrix.squared, squared_case, linear_case)
            )
            scale = np.where(reference_values <= 0.0, 0.0, scale)
            local = reference - scale[matrix.literal_potential] * matrix.literal_coefficient

            # 2. Consensus step: average of (local + dual) per variable, clipped.
            previous_consensus = consensus.copy()
            accumulator = np.bincount(
                matrix.literal_variable, weights=local + duals, minlength=matrix.num_variables
            )
            consensus = np.clip(accumulator / counts, 0.0, 1.0)

            # 3. Dual updates and residuals (standard ADMM absolute+relative
            # stopping criteria, so convergence detection scales with problem
            # size instead of requiring the full iteration budget).
            consensus_slice = consensus[matrix.literal_variable]
            difference = local - consensus_slice
            duals += difference
            primal_residual = float(np.linalg.norm(difference))
            dual_residual = float(self.rho * np.linalg.norm(consensus - previous_consensus))
            size = np.sqrt(max(num_literals, 1))
            primal_epsilon = size * self.tolerance + 1e-3 * max(
                float(np.linalg.norm(local)), float(np.linalg.norm(consensus_slice))
            )
            dual_epsilon = size * self.tolerance + 1e-3 * float(self.rho * np.linalg.norm(duals))
            if primal_residual < primal_epsilon and dual_residual < dual_epsilon:
                break
        return consensus, iterations_run
