"""Differential suite: decomposed MAP solve versus monolithic solve.

MAP inference factorises over the connected components of the ground
program's interaction graph, so for the *exact* MLN back-end the decomposed
objective must equal the monolithic one bit-for-bit (both sides are the
exact sum of the satisfied soft weights).  The approximate PSL relaxation
only promises closeness, pinned here by tolerances against the exact
optimum.

The randomized programs come from the seeded generator in
``tests/properties/program_generators.py``; seeds are fixed, so every run
checks the same programs.
"""

import pytest
from program_generators import random_ground_program

from repro.core import make_solver, solve_map
from repro.logic import decompose
from repro.solvers import DecomposedSolver

SEEDS = range(10)

#: Registered exact MLN solvers, keyed by the algorithm each runs (the test ids).
EXACT_MLN_BACKENDS = {"ilp": "nrockit"}
#: Registered PSL solvers, keyed the same way.
PSL_BACKENDS = {"admm": "npsl"}


def solve_decomposed(program, solver, **options):
    """The decomposed oracle: ``solver`` run component by component."""
    return DecomposedSolver(make_solver(solver, **options)).solve(program)


def programs():
    return [random_ground_program(seed) for seed in SEEDS]


@pytest.fixture(scope="module", name="suite")
def suite_fixture():
    """Generated programs plus their exact (ILP) monolithic optima."""
    generated = programs()
    optima = [solve_map(program, "nrockit").objective for program in generated]
    return list(zip(generated, optima))


class TestExactBackends:
    @pytest.mark.parametrize(
        "backend", list(EXACT_MLN_BACKENDS.values()), ids=list(EXACT_MLN_BACKENDS)
    )
    def test_decomposed_objective_is_bit_identical(self, backend, suite):
        for program, _ in suite:
            monolithic = solve_map(program, backend)
            decomposed = solve_decomposed(program, backend)
            assert decomposed.objective == monolithic.objective
            assert program.is_feasible(decomposed.assignment)
            assert len(decomposed.assignment) == program.num_atoms

    def test_decomposed_matches_across_exact_backends(self, suite):
        for program, optimum in suite:
            for backend in EXACT_MLN_BACKENDS.values():
                decomposed = solve_decomposed(program, backend)
                assert decomposed.objective == pytest.approx(optimum, abs=1e-9)

    def test_merged_stats_report_components(self, suite):
        program, _ = suite[0]
        decomposition = decompose(program)
        solution = solve_decomposed(program, "nrockit")
        extra = dict(solution.stats.extra)
        assert extra["components"] == decomposition.num_components
        assert extra["unconstrained_atoms"] == len(decomposition.unconstrained)
        assert solution.stats.solver == "decomposed(nrockit-ilp)"


class TestApproximateBackends:
    @pytest.mark.parametrize("backend", list(PSL_BACKENDS.values()), ids=list(PSL_BACKENDS))
    def test_psl_path_within_tolerance(self, backend, suite):
        for program, optimum in suite:
            monolithic = solve_map(program, backend)
            decomposed = solve_decomposed(program, backend)
            assert program.is_feasible(decomposed.assignment)
            # The relaxation rounds per component; empirically that lands at
            # or above the monolithic rounding, so the bound is one-sided.
            assert decomposed.objective >= 0.85 * optimum
            assert decomposed.objective >= monolithic.objective - 0.1 * optimum
            assert all(0.0 <= value <= 1.0 for value in decomposed.truth_values)
