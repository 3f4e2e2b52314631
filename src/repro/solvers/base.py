"""The ProbFOL solver abstraction.

The TeCoRe architecture runs on top of interchangeable probabilistic
first-order-logic (ProbFOL) systems — the demo uses nRockIt (MLNs) and the PSL
solver, and notes that "any off-the-shelf probabilistic first-order logic
system ... can be seamlessly integrated ... by extending the translator".

This module defines what such a back-end must provide: a
:class:`MAPSolver` that takes a ground program and returns a
:class:`MAPSolution` (the most probable world), plus the
:class:`SolverCapabilities` descriptor the translator uses to verify that the
input fits the solver's expressivity.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ..errors import SolverError
from ..kg import TemporalFact
from ..logic.arrays import GroundProgramArrays
from ..logic.ground import GroundProgram
from .capabilities import SolverCapabilities


@dataclass(frozen=True, slots=True)
class SolverStats:
    """Diagnostics reported by a MAP run."""

    solver: str
    runtime_seconds: float
    iterations: int = 0
    atoms: int = 0
    clauses: int = 0
    optimal: bool = False
    objective_bound: Optional[float] = None
    extra: tuple[tuple[str, float], ...] = field(default_factory=tuple)


@dataclass(frozen=True)
class MAPSolution:
    """The most probable world returned by a solver.

    Attributes
    ----------
    assignment:
        One Boolean per ground atom, indexed like ``program.atoms``.
    objective:
        Total satisfied soft weight of the assignment.
    truth_values:
        For continuous solvers (PSL), the pre-rounding soft truth values;
        Boolean solvers repeat the assignment as 0.0/1.0.
    stats:
        Runtime / iteration diagnostics.
    """

    assignment: tuple[bool, ...]
    objective: float
    stats: SolverStats
    truth_values: tuple[float, ...] = ()

    def kept_facts(self, program: GroundProgram) -> list[TemporalFact]:
        """Facts set to true in the MAP state."""
        return [atom.fact for atom, value in zip(program.atoms, self.assignment) if value]

    def removed_facts(self, program: GroundProgram) -> list[TemporalFact]:
        """Evidence facts set to false in the MAP state (the repairs)."""
        return [
            atom.fact
            for atom, value in zip(program.atoms, self.assignment)
            if not value and atom.is_evidence
        ]

    def derived_kept_facts(self, program: GroundProgram) -> list[TemporalFact]:
        """Non-evidence (rule-derived) facts set to true in the MAP state."""
        return [
            atom.fact
            for atom, value in zip(program.atoms, self.assignment)
            if value and not atom.is_evidence
        ]


class MAPSolver(abc.ABC):
    """Interface every MAP back-end implements."""

    #: Short identifier used by the solver registry and reports.
    name: str = "abstract"

    #: True when :meth:`solve` accepts a ``warm_start`` keyword — a sequence
    #: of soft truth values in ``[0, 1]`` (one per atom) used to seed the
    #: search (``npsl``: the initial consensus vector).  Warm starts never
    #: change what a solver *accepts*, only where it starts.
    supports_warm_start: bool = False

    @property
    @abc.abstractmethod
    def capabilities(self) -> SolverCapabilities:
        """Expressivity descriptor used by the translator's input checks."""

    @abc.abstractmethod
    def solve(self, program: GroundProgram) -> MAPSolution:
        """Compute the MAP state of ``program``."""

    def solve_components(self, programs: Sequence[GroundProgram]) -> list[MAPSolution]:
        """MAP states of independent programs, one solution per program, in order.

        Callers that split a program into components (``DecomposedSolver``,
        sessions) hand all of them over in one call.  This default solves
        each in turn; a back-end with a fixed cost per call stacks them and
        solves once (:func:`split_stacked_solution`).  Summing the runtime
        and iterations of one call's solutions counts the call once.
        """
        return [self.solve(program) for program in programs]

    # ------------------------------------------------------------------ #
    # Shared helpers
    # ------------------------------------------------------------------ #
    def _empty_solution(self) -> MAPSolution:
        """The MAP state of a program without atoms: the empty world, optimal."""
        return MAPSolution(
            assignment=(),
            objective=0.0,
            stats=SolverStats(solver=self.name, runtime_seconds=0.0, optimal=True),
        )

    def _check_feasibility(self, program: GroundProgram, assignment: Sequence[bool]) -> None:
        violations = program.hard_violations(assignment)
        if violations:
            raise SolverError(
                f"{self.name}: produced an assignment violating "
                f"{len(violations)} hard clause(s); first: {violations[0]}"
            )

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


def split_stacked_solution(
    programs: Sequence[GroundProgram], stacked: GroundProgram, solution: MAPSolution
) -> list[MAPSolution]:
    """Split a solution of ``GroundProgram.stack(programs)`` into one per program.

    Each program gets its slice of the assignment and truth values, and its
    own objective: the correctly rounded sum of its satisfied soft weights,
    as :meth:`GroundProgram.objective` reports it.  The stack's stats are
    shared: runtime and iterations are divided evenly (so summing the
    solutions counts the stacked solve once), ``optimal`` is the stack's,
    and a program's bound is its objective plus the stack's gap.
    """
    stats = solution.stats
    arrays = GroundProgramArrays.from_program(stacked)
    soft = np.flatnonzero(arrays.satisfied_mask(solution.assignment) & ~arrays.is_hard)
    soft_weights = arrays.weights[soft].tolist()
    atom_ends = np.cumsum([program.num_atoms for program in programs]).tolist()
    clause_ends = np.cumsum([program.num_clauses for program in programs])
    soft_ends = np.searchsorted(soft, clause_ends).tolist()
    gap = None if stats.objective_bound is None else stats.objective_bound - solution.objective
    share, remainder = divmod(stats.iterations, len(programs))
    truth = solution.truth_values or tuple(1.0 if value else 0.0 for value in solution.assignment)
    solutions = []
    atom_start = soft_start = 0
    for index, (program, atom_end, soft_end) in enumerate(zip(programs, atom_ends, soft_ends)):
        objective = math.fsum(soft_weights[soft_start:soft_end])
        solutions.append(
            MAPSolution(
                assignment=solution.assignment[atom_start:atom_end],
                objective=objective,
                stats=SolverStats(
                    solver=stats.solver,
                    runtime_seconds=stats.runtime_seconds / len(programs),
                    iterations=share + (index < remainder),
                    atoms=program.num_atoms,
                    clauses=program.num_clauses,
                    optimal=stats.optimal,
                    objective_bound=None if gap is None else objective + gap,
                ),
                truth_values=truth[atom_start:atom_end],
            )
        )
        atom_start, soft_start = atom_end, soft_end
    return solutions
