"""Unit tests for the MAP back-ends on small programs.

The exact ``nrockit`` must reach the optimum a brute-force search finds; the
approximate ``npsl`` must resolve the plain conflict program the same way.
"""

import itertools

import pytest

from repro.core import describe_solvers, make_solver, solve_map
from repro.errors import InfeasibleProgramError, SolverNotAvailableError
from repro.kg import make_fact
from repro.logic import ClauseKind, GroundProgram

#: Registered solvers, keyed by the algorithm each runs (the test ids).
EXACT_BACKENDS = {"ilp": "nrockit"}
ALL_BACKENDS = {**EXACT_BACKENDS, "admm": "npsl"}


def _conflict_program():
    """Three facts, two of which conflict (the stronger one should win)."""
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


def _infeasible_program():
    """A single certain fact that a hard constraint forbids on both branches."""
    program = GroundProgram()
    atom = program.add_atom(make_fact("x", "p", "A", (1, 5), 0.9), is_evidence=True)
    program.add_clause([(atom.index, True)], None, ClauseKind.CONSTRAINT, "must-be-true")
    program.add_clause([(atom.index, False)], None, ClauseKind.CONSTRAINT, "must-be-false")
    return program


class TestRegistry:
    def test_available_backends(self):
        assert [entry.name for entry in describe_solvers() if entry.family == "mln"] == ["nrockit"]

    def test_make_solver_unknown(self):
        with pytest.raises(SolverNotAvailableError):
            make_solver("gurobi")

    def test_make_solver_kwargs(self):
        solver = make_solver("nrockit", time_limit=10.0)
        assert solver.time_limit == 10.0


@pytest.mark.parametrize("backend", list(ALL_BACKENDS.values()), ids=list(ALL_BACKENDS))
class TestAllBackendsOnConflict:
    def test_resolves_conflict_keeping_stronger_fact(self, backend):
        program, strong, weak, free = _conflict_program()
        solution = solve_map(program, backend)
        assert solution.assignment[strong.index] is True
        assert solution.assignment[weak.index] is False
        assert solution.assignment[free.index] is True

    def test_solution_is_feasible(self, backend):
        program, *_ = _conflict_program()
        solution = solve_map(program, backend)
        assert program.is_feasible(solution.assignment)

    def test_stats_populated(self, backend):
        program, *_ = _conflict_program()
        solution = solve_map(program, backend)
        assert solution.stats.atoms == program.num_atoms
        assert solution.stats.clauses == program.num_clauses
        assert solution.stats.runtime_seconds >= 0.0


@pytest.mark.parametrize("backend", list(EXACT_BACKENDS.values()), ids=list(EXACT_BACKENDS))
class TestExactBackends:
    def test_optimal_objective_agrees(self, backend, running_example_grounding):
        program = running_example_grounding.program
        reference = max(
            program.objective(assignment)
            for assignment in itertools.product((False, True), repeat=program.num_atoms)
            if program.is_feasible(assignment)
        )
        solution = solve_map(program, backend)
        assert solution.objective == pytest.approx(reference, abs=1e-6)

    def test_running_example_removes_napoli(self, backend, running_example_grounding):
        program = running_example_grounding.program
        solution = solve_map(program, backend)
        removed = {str(fact.object) for fact in solution.removed_facts(program)}
        assert removed == {"Napoli"}

    def test_infeasible_program_raises(self, backend):
        with pytest.raises(InfeasibleProgramError):
            solve_map(_infeasible_program(), backend)


class TestDerivedFactsInSolution:
    def test_derived_kept_facts_listed(self, running_example_grounding):
        program = running_example_grounding.program
        solution = solve_map(program, "nrockit")
        derived = {str(fact.predicate) for fact in solution.derived_kept_facts(program)}
        assert "worksFor" in derived

    def test_kept_plus_removed_covers_evidence(self, running_example_grounding):
        program = running_example_grounding.program
        solution = solve_map(program, "nrockit")
        kept_keys = {fact.statement_key for fact in solution.kept_facts(program)}
        removed_keys = {fact.statement_key for fact in solution.removed_facts(program)}
        evidence_keys = {atom.fact.statement_key for atom in program.evidence_atoms()}
        assert evidence_keys <= (kept_keys | removed_keys)
        assert not (kept_keys & removed_keys)
