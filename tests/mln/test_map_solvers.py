"""Unit tests for the MLN MAP back-ends (exact and approximate).

All back-ends are exercised on the same small programs so their answers can be
compared: the exact solvers must agree on the optimal objective, and the
approximate ones must produce feasible states that are not wildly worse.
"""

import pytest

from repro.core import describe_solvers, make_solver, solve_map
from repro.errors import InfeasibleProgramError, SolverNotAvailableError
from repro.kg import make_fact
from repro.logic import ClauseKind, GroundProgram, ground
from repro.mln import (
    ArrayMaxWalkSATSolver,
    BranchAndBoundSolver,
    CuttingPlaneSolver,
    ILPMapSolver,
    MaxWalkSATSolver,
)

#: Registered MLN solvers, keyed by the algorithm each runs (the test ids).
EXACT_BACKENDS = {
    "ilp": "nrockit",
    "cutting-plane": "nrockit-cpa",
    "branch-and-bound": "nrockit-bnb",
}
ALL_BACKENDS = {**EXACT_BACKENDS, "maxwalksat": "maxwalksat"}


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
        assert {entry.name for entry in describe_solvers() if entry.family == "mln"} == {
            "nrockit",
            "nrockit-cpa",
            "nrockit-bnb",
            "maxwalksat",
            "maxwalksat-array",
        }

    def test_make_solver_unknown(self):
        with pytest.raises(SolverNotAvailableError):
            make_solver("gurobi")

    def test_make_solver_kwargs(self):
        solver = make_solver("maxwalksat", max_flips=10, seed=1)
        assert solver.max_flips == 10


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
        reference = solve_map(program, "nrockit").objective
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


class TestMaxWalkSAT:
    def test_deterministic_given_seed(self, running_example_grounding):
        program = running_example_grounding.program
        first = MaxWalkSATSolver(seed=42).solve(program)
        second = MaxWalkSATSolver(seed=42).solve(program)
        assert first.assignment == second.assignment

    def test_close_to_optimal_on_running_example(self, running_example_grounding):
        program = running_example_grounding.program
        optimal = ILPMapSolver().solve(program).objective
        approximate = MaxWalkSATSolver(seed=1).solve(program).objective
        assert approximate >= optimal - 1.0

    def test_not_marked_optimal(self, running_example_grounding):
        solution = MaxWalkSATSolver().solve(running_example_grounding.program)
        assert solution.stats.optimal is False


class TestCoupledHardRepair:
    """Regression: a greedy hard repair that flips the cheapest atom of the
    first violated clause ping-pongs on the coupled-hard-clause program until
    its iteration bound runs out, although the program is feasible."""

    @pytest.mark.parametrize("solver_class", [MaxWalkSATSolver, ArrayMaxWalkSATSolver])
    def test_maxwalksat_repairs_search_leftover(self, solver_class, coupled_hard_program):
        program, shared, other = coupled_hard_program
        # No flips: the all-true start, which violates the conflict clause,
        # goes straight to the repair.
        solution = solver_class(max_flips=0, max_restarts=1).solve(program)
        assert solution.assignment[shared.index] is True
        assert solution.assignment[other.index] is False

    def test_branch_and_bound_greedy_incumbent(self, coupled_hard_program):
        program, _, _ = coupled_hard_program
        incumbent, value = BranchAndBoundSolver()._greedy_incumbent(program)
        assert incumbent == (True, False)
        assert value == program.objective(incumbent)


class TestCuttingPlane:
    def test_matches_full_ilp_on_larger_graph(self, small_noisy_footballdb):
        from repro.logic import sports_pack

        pack = sports_pack()
        result = ground(small_noisy_footballdb.graph, pack.rules, pack.constraints)
        full = ILPMapSolver().solve(result.program)
        cpa = CuttingPlaneSolver().solve(result.program)
        assert cpa.objective == pytest.approx(full.objective, rel=1e-6)

    def test_reports_active_clause_count(self, running_example_grounding):
        solution = CuttingPlaneSolver().solve(running_example_grounding.program)
        extras = dict(solution.stats.extra)
        assert "active_clauses" in extras
        assert extras["active_clauses"] <= running_example_grounding.program.num_clauses


class TestBranchAndBound:
    def test_additive_bound_mode(self, running_example_grounding):
        program = running_example_grounding.program
        solver = BranchAndBoundSolver(use_lp_bound=False)
        reference = ILPMapSolver().solve(program).objective
        assert solver.solve(program).objective == pytest.approx(reference, abs=1e-6)

    def test_respects_node_budget(self, running_example_grounding):
        solver = BranchAndBoundSolver(max_nodes=1)
        solution = solver.solve(running_example_grounding.program)
        # With an exhausted budget the solver still returns a feasible incumbent.
        assert running_example_grounding.program.is_feasible(solution.assignment)


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
