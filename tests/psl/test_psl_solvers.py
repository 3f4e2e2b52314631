"""Unit tests for the PSL MAP solver (ADMM) and rounding."""

import pytest

from repro.core import describe_solvers, make_solver, solve_map
from repro.errors import InfeasibleProgramError, SolverNotAvailableError
from repro.kg import make_fact
from repro.logic import ClauseKind, GroundProgram
from repro.mln import ILPMapSolver
from repro.psl import (
    ADMMSolver,
    HingeLossMRF,
    PotentialMatrix,
    repair_hard,
    round_solution,
    threshold,
)

#: Registered PSL solvers, keyed by the algorithm each runs (the test ids).
PSL_BACKENDS = {"admm": "npsl"}


def _conflict_program():
    program = GroundProgram()
    strong = program.add_atom(make_fact("x", "coach", "A", (1, 5), 0.9), is_evidence=True)
    weak = program.add_atom(make_fact("x", "coach", "B", (2, 4), 0.6), is_evidence=True)
    free = program.add_atom(make_fact("x", "birthDate", 1950, (1950, 2000), 0.8), is_evidence=True)
    for atom in (strong, weak, free):
        program.add_clause([(atom.index, True)], atom.fact.log_weight, ClauseKind.EVIDENCE, "e")
    program.add_clause(
        [(strong.index, False), (weak.index, False)], None, ClauseKind.CONSTRAINT, "c2"
    )
    return program, strong, weak, free


class TestRegistry:
    def test_backends(self):
        psl = {entry.name for entry in describe_solvers() if entry.family == "psl"}
        assert psl == {"npsl"}

    def test_unknown_backend(self):
        with pytest.raises(SolverNotAvailableError):
            make_solver("exact")


@pytest.mark.parametrize("backend", list(PSL_BACKENDS.values()), ids=list(PSL_BACKENDS))
class TestPSLBackends:
    def test_conflict_resolution(self, backend):
        program, strong, weak, free = _conflict_program()
        solution = solve_map(program, backend)
        assert solution.assignment[strong.index] is True
        assert solution.assignment[weak.index] is False
        assert solution.assignment[free.index] is True
        assert program.is_feasible(solution.assignment)

    def test_truth_values_in_unit_interval(self, backend):
        program, *_ = _conflict_program()
        solution = solve_map(program, backend)
        assert all(0.0 <= value <= 1.0 for value in solution.truth_values)
        assert len(solution.truth_values) == program.num_atoms

    def test_running_example_matches_exact_repair(self, backend, running_example_grounding):
        program = running_example_grounding.program
        solution = solve_map(program, backend)
        removed = {str(fact.object) for fact in solution.removed_facts(program)}
        assert removed == {"Napoli"}

    def test_objective_close_to_exact(self, backend, running_example_grounding):
        program = running_example_grounding.program
        exact = ILPMapSolver().solve(program).objective
        approximate = solve_map(program, backend).objective
        assert approximate >= exact - 0.5


class TestADMMInternals:
    def test_converges_before_iteration_cap(self, running_example_grounding):
        solution = ADMMSolver(max_iterations=2000).solve(running_example_grounding.program)
        assert solution.stats.iterations < 2000

    def test_squared_hinge_variant(self, running_example_grounding):
        program = running_example_grounding.program
        solution = ADMMSolver(squared=True).solve(program)
        removed = {str(fact.object) for fact in solution.removed_facts(program)}
        assert removed == {"Napoli"}

    def test_empty_potentials(self):
        program = GroundProgram()
        program.add_atom(make_fact("a", "p", "b", (1, 2), 0.9), is_evidence=True)
        mrf = HingeLossMRF.from_program(program)
        # No clauses: the solver should return without iterating.
        matrix = PotentialMatrix(mrf.potentials, mrf.num_variables)
        truth_values, iterations = ADMMSolver()._admm(matrix, mrf.initial_state())
        assert iterations == 0
        assert len(truth_values) == 1
        solution = ADMMSolver().solve(program)
        assert solution.stats.iterations == 0
        assert solution.truth_values == (1.0,)


class TestHingeLossMRF:
    def test_energy_and_feasibility(self, running_example_grounding):
        mrf = HingeLossMRF.from_program(running_example_grounding.program)
        keep_all = mrf.initial_state()
        assert mrf.hard_violation(keep_all) > 0.0
        assert not mrf.is_feasible(keep_all)
        assert mrf.energy(keep_all) > mrf.soft_energy(keep_all)

    def test_state_size_checked(self, running_example_grounding):
        mrf = HingeLossMRF.from_program(running_example_grounding.program)
        with pytest.raises(Exception):
            mrf.energy([0.5])


class TestRounding:
    def test_threshold(self):
        assert threshold([0.9, 0.4, 0.5]) == [True, False, True]
        assert threshold([0.9, 0.4], cutoff=0.3) == [True, True]

    def test_repair_drops_weakest_fact(self):
        program, strong, weak, _ = _conflict_program()
        repaired = repair_hard(program, [True, True, True])
        assert repaired[strong.index] is True
        assert repaired[weak.index] is False

    def test_round_solution_end_to_end(self):
        program, strong, weak, free = _conflict_program()
        assignment = round_solution(program, [0.9, 0.8, 0.7])
        assert assignment == (True, False, True)

    def test_repair_coupled_hard_clauses_does_not_ping_pong(self, coupled_hard_program):
        # Regression: the old greedy (cheapest atom first) kept flipping the
        # low-weight shared atom back and forth until the iteration bound
        # and raised InfeasibleProgramError on this feasible program.
        program, _, _ = coupled_hard_program
        repaired = repair_hard(program, [True, True])
        assert repaired == [True, False]
        assert program.is_feasible(repaired)

    def test_repair_impossible_raises(self):
        program = GroundProgram()
        atom = program.add_atom(make_fact("x", "p", "A", (1, 5), 0.9), is_evidence=True)
        program.add_clause([(atom.index, True)], None, ClauseKind.CONSTRAINT, "must-true")
        program.add_clause([(atom.index, False)], None, ClauseKind.CONSTRAINT, "must-false")
        with pytest.raises(InfeasibleProgramError):
            round_solution(program, [0.5])
