"""MaxWalkSAT: stochastic local search for MAP inference.

The classic weighted-satisfiability local search used by Alchemy-style MLN
systems.  It is approximate and anytime: useful as a scalable fallback and as
a baseline in the solver ablation (benchmark A2).

The implementation keeps incremental state — per-clause satisfied-literal
counts and the set of unsatisfied clauses — so a flip costs time proportional
to the flipped atom's number of clause occurrences rather than to the whole
program.

Hard clauses are handled with a large finite penalty so the search is always
well-defined; the returned solution is checked for hard feasibility and, if
necessary, repaired greedily before being returned.
"""

from __future__ import annotations

import math
import random
import time
from typing import Optional, Sequence

from ...errors import InfeasibleProgramError
from ...logic.ground import GroundProgram
from ...solvers import (
    LOCAL_SEARCH_CAPABILITIES,
    MAPSolution,
    MAPSolver,
    SolverCapabilities,
    SolverStats,
)


class _SearchState:
    """Incremental bookkeeping for one restart of the local search."""

    def __init__(
        self,
        program: GroundProgram,
        assignment: list[bool],
        hard_weight: float,
        debug: bool = False,
    ) -> None:
        self.program = program
        self.assignment = assignment
        self.hard_weight = hard_weight
        self.debug = debug
        self.weights = [
            hard_weight if clause.is_hard else float(clause.weight or 0.0)
            for clause in program.clauses
        ]
        # Clause index -> number of satisfied literals.
        self.satisfied_counts = [0] * program.num_clauses
        # Atom index -> list of (clause index, literal sign).
        self.occurrences: dict[int, list[tuple[int, bool]]] = {
            index: [] for index in range(program.num_atoms)
        }
        self.unsatisfied: set[int] = set()
        self.unsatisfied_hard: set[int] = set()
        self.penalty = 0.0
        for clause_index, clause in enumerate(program.clauses):
            count = 0
            for atom_index, positive in clause.literals:
                self.occurrences[atom_index].append((clause_index, positive))
                if assignment[atom_index] == positive:
                    count += 1
            self.satisfied_counts[clause_index] = count
            if count == 0:
                self._mark_unsatisfied(clause_index)

    def _mark_unsatisfied(self, clause_index: int) -> None:
        # Membership guard: only clauses not already tracked contribute to
        # the penalty, so a repeated call cannot double-add.
        if clause_index in self.unsatisfied:
            return
        self.unsatisfied.add(clause_index)
        if self.program.clauses[clause_index].is_hard:
            self.unsatisfied_hard.add(clause_index)
        self.penalty += self.weights[clause_index]

    def _mark_satisfied(self, clause_index: int) -> None:
        # Symmetric guard: ``discard`` tolerates absent members but the
        # unconditional subtraction did not — a second call for the same
        # clause silently corrupted the penalty.  Only subtract when the
        # clause was actually tracked as unsatisfied.
        if clause_index not in self.unsatisfied:
            return
        self.unsatisfied.remove(clause_index)
        self.unsatisfied_hard.discard(clause_index)
        self.penalty -= self.weights[clause_index]

    def check_invariant(self) -> None:
        """Assert ``penalty == sum(weights of unsatisfied)`` (debug only).

        Incremental float accumulation can drift from the exact sum, so the
        comparison is ``math.isclose`` rather than equality.
        """
        expected = sum(self.weights[index] for index in sorted(self.unsatisfied))
        if not math.isclose(self.penalty, expected, rel_tol=1e-9, abs_tol=1e-6):
            raise AssertionError(
                f"penalty bookkeeping drifted: tracked {self.penalty!r}, "
                f"recomputed {expected!r} over {len(self.unsatisfied)} unsatisfied clauses"
            )

    # ------------------------------------------------------------------ #
    def flip(self, atom_index: int) -> None:
        """Flip one atom, updating counts, the unsatisfied set and the penalty."""
        new_value = not self.assignment[atom_index]
        self.assignment[atom_index] = new_value
        for clause_index, positive in self.occurrences[atom_index]:
            was_satisfied = self.satisfied_counts[clause_index] > 0
            if new_value == positive:
                self.satisfied_counts[clause_index] += 1
            else:
                self.satisfied_counts[clause_index] -= 1
            now_satisfied = self.satisfied_counts[clause_index] > 0
            if was_satisfied and not now_satisfied:
                self._mark_unsatisfied(clause_index)
            elif not was_satisfied and now_satisfied:
                self._mark_satisfied(clause_index)
        if self.debug:
            self.check_invariant()

    def flip_delta(self, atom_index: int) -> float:
        """Penalty reduction achieved by flipping ``atom_index`` (higher is better)."""
        new_value = not self.assignment[atom_index]
        delta = 0.0
        for clause_index, positive in self.occurrences[atom_index]:
            count = self.satisfied_counts[clause_index]
            if new_value == positive:  # literal becomes satisfied
                if count == 0:
                    delta += self.weights[clause_index]
            else:  # literal becomes unsatisfied
                if count == 1:
                    delta -= self.weights[clause_index]
        return delta


class MaxWalkSATSolver(MAPSolver):
    """Weighted MaxSAT local search (WalkSAT with weights).

    Parameters
    ----------
    max_flips:
        Flips per restart.
    max_restarts:
        Independent restarts; the best state across restarts is returned.
    noise:
        Probability of a random walk move instead of a greedy move.
    hard_weight:
        Penalty used for hard clauses during the search.
    seed:
        RNG seed (runs are deterministic given the seed).
    debug:
        Re-check the penalty bookkeeping invariant after every flip
        (``penalty == sum(weights of unsatisfied)``); O(clauses) per flip,
        for tests and debugging only.
    """

    name = "maxwalksat"
    supports_warm_start = True

    def __init__(
        self,
        max_flips: int = 20_000,
        max_restarts: int = 3,
        noise: float = 0.2,
        hard_weight: float = 1_000.0,
        seed: int = 2017,
        debug: bool = False,
    ) -> None:
        self.max_flips = max_flips
        self.max_restarts = max_restarts
        self.noise = noise
        self.hard_weight = hard_weight
        self.seed = seed
        self.debug = debug

    @property
    def capabilities(self) -> SolverCapabilities:
        return LOCAL_SEARCH_CAPABILITIES

    # ------------------------------------------------------------------ #
    def solve(
        self, program: GroundProgram, warm_start: Optional[Sequence[float]] = None
    ) -> MAPSolution:
        if program.num_atoms == 0:
            return self._empty_solution()
        started = time.perf_counter()
        rng = random.Random(self.seed)

        warm: Optional[list[bool]] = None
        if warm_start is not None and len(warm_start) == program.num_atoms:
            warm = [value >= 0.5 for value in warm_start]

        best_assignment: Optional[list[bool]] = None
        best_penalty = float("inf")
        flips_done = 0

        for restart in range(self.max_restarts):
            assignment = self._initial_assignment(program, rng, restart, warm)
            state = _SearchState(program, assignment, self.hard_weight, debug=self.debug)
            if state.penalty < best_penalty:
                best_assignment, best_penalty = list(state.assignment), state.penalty
            for _ in range(self.max_flips):
                if not state.unsatisfied:
                    break  # every clause satisfied — cannot improve further
                flips_done += 1
                pool = state.unsatisfied_hard or state.unsatisfied
                clause = program.clauses[rng.choice(tuple(pool))]
                candidates = [index for index, _ in clause.literals]
                if rng.random() < self.noise:
                    flip_index = rng.choice(candidates)
                else:
                    flip_index = max(candidates, key=state.flip_delta)
                state.flip(flip_index)
                if state.penalty < best_penalty:
                    best_assignment, best_penalty = list(state.assignment), state.penalty

        assert best_assignment is not None
        repaired = program.repair_hard_violations(best_assignment)
        if repaired is None:
            raise InfeasibleProgramError(
                "MaxWalkSAT could not find an assignment satisfying all hard constraints"
            )
        final = tuple(repaired)
        self._check_feasibility(program, final)
        elapsed = time.perf_counter() - started
        stats = SolverStats(
            solver=self.name,
            runtime_seconds=elapsed,
            iterations=flips_done,
            atoms=program.num_atoms,
            clauses=program.num_clauses,
            optimal=False,
        )
        return MAPSolution(
            assignment=final,
            objective=program.objective(final),
            stats=stats,
            truth_values=tuple(1.0 if value else 0.0 for value in final),
        )

    # ------------------------------------------------------------------ #
    def _initial_assignment(
        self,
        program: GroundProgram,
        rng: random.Random,
        restart: int,
        warm: Optional[list[bool]] = None,
    ) -> list[bool]:
        if restart == 0:
            if warm is not None:
                # Warm start: resume the search from the previous MAP state.
                return list(warm)
            # Informed start: believe all evidence, accept all derivations.
            return [True] * program.num_atoms
        return [rng.random() < 0.5 for _ in range(program.num_atoms)]
