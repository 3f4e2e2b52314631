"""RockIt-style cutting-plane MAP inference.

RockIt (and its temporal extension nRockIt, used by the paper) does not hand
the full ground network to the ILP solver at once.  It starts from the soft
unit clauses (the evidence), solves that relaxed ILP, then *separates*: it
finds the ground clauses violated by the current solution, adds only those to
the ILP, and repeats until no violated clause remains.  On programs where most
constraints are satisfied by the evidence-optimal solution — exactly the
situation in KG debugging, where conflicts are sparse — this keeps the ILP far
smaller than full grounding.

This driver reproduces that loop on top of any exact inner solver (the HiGHS
back-end by default).
"""

from __future__ import annotations

import time

from ...errors import SolverError
from ...logic.ground import ClauseKind, GroundProgram
from ...solvers import MAPSolution, MAPSolver, MLN_CAPABILITIES, SolverCapabilities, SolverStats
from .milp_backend import ILPMapSolver


class CuttingPlaneSolver(MAPSolver):
    """Cutting-plane aggregation around an exact inner MAP solver.

    Parameters
    ----------
    inner:
        Exact solver used for the growing partial programs (defaults to the
        HiGHS ILP back-end).
    max_iterations:
        Safety bound on separation rounds.
    """

    name = "nrockit-cpa"

    def __init__(self, inner: MAPSolver | None = None, max_iterations: int = 50) -> None:
        self.inner = inner or ILPMapSolver()
        self.max_iterations = max_iterations

    @property
    def capabilities(self) -> SolverCapabilities:
        return MLN_CAPABILITIES

    def solve(self, program: GroundProgram) -> MAPSolution:
        if program.num_atoms == 0:
            return self._empty_solution()
        started = time.perf_counter()

        # Active set: evidence unit clauses (and any other unit/prior clauses).
        active = [
            index
            for index, clause in enumerate(program.clauses)
            if clause.is_unit or clause.kind is ClauseKind.EVIDENCE
        ]
        active_set = set(active)
        inactive = [index for index in range(program.num_clauses) if index not in active_set]

        solution: MAPSolution | None = None
        iterations = 0
        for iterations in range(1, self.max_iterations + 1):
            partial = self._subprogram(program, active)
            solution = self.inner.solve(partial)
            violated = [
                index
                for index in inactive
                if not program.clauses[index].satisfied_by(solution.assignment)
            ]
            if not violated:
                break
            active.extend(violated)
            active_set.update(violated)
            inactive = [index for index in inactive if index not in active_set]
        if solution is None:  # pragma: no cover - max_iterations >= 1 always
            raise SolverError("cutting-plane loop did not run")

        objective = program.objective(solution.assignment)
        self._check_feasibility(program, solution.assignment)
        elapsed = time.perf_counter() - started
        stats = SolverStats(
            solver=self.name,
            runtime_seconds=elapsed,
            iterations=iterations,
            atoms=program.num_atoms,
            clauses=program.num_clauses,
            optimal=solution.stats.optimal,
            extra=(("active_clauses", float(len(active))),),
        )
        return MAPSolution(
            assignment=solution.assignment,
            objective=objective,
            stats=stats,
            truth_values=solution.truth_values,
        )

    # ------------------------------------------------------------------ #
    def _subprogram(self, program: GroundProgram, clause_indexes: list[int]) -> GroundProgram:
        """A program with all atoms but only the selected clauses."""
        partial = GroundProgram()
        for atom in program.atoms:
            partial.add_atom(atom.fact, atom.is_evidence, atom.derived_by)
        for index in clause_indexes:
            clause = program.clauses[index]
            partial.add_clause(clause.literals, clause.weight, clause.kind, clause.origin)
        return partial
