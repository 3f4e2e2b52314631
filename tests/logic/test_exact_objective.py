"""The objective is the correctly rounded exact sum of the satisfied soft weights.

Every path that reports an objective — :meth:`GroundProgram.objective`,
:meth:`GroundProgramArrays.objective`, :class:`DecomposedSolver`'s merge,
:func:`split_stacked_solution` and sessions — returns what :func:`math.fsum`
returns over the satisfied soft weights, so the float does not depend on
clause order and a program's objective is the exact sum of any split of it.
"""

from __future__ import annotations

import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from repro.core import make_solver
from repro.logic import GroundProgram
from repro.logic.arrays import GroundProgramArrays
from repro.logic.decompose import decompose
from repro.logic.ground import exact_units, units_to_float
from repro.solvers import DecomposedSolver
from repro.solvers.base import split_stacked_solution

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "properties"))
from program_generators import random_ground_program  # noqa: E402

SEEDS = range(40)


def _satisfied_weights(program: GroundProgram, assignment) -> list[float]:
    """The oracle: satisfied soft weights through the clause objects."""
    return [
        clause.weight
        for clause in program.clauses
        if clause.weight is not None and clause.satisfied_by(assignment)
    ]


def _permuted(program: GroundProgram, rng: random.Random) -> GroundProgram:
    """The same atoms and clauses, with the clauses in another order."""
    shuffled = GroundProgram()
    for atom in program.atoms:
        shuffled.add_atom(atom.fact, atom.is_evidence, atom.derived_by)
    clauses = list(program.clauses)
    rng.shuffle(clauses)
    for clause in clauses:
        shuffled.add_clause(clause.literals, clause.weight, clause.kind, clause.origin)
    return shuffled


def _random_assignment(program: GroundProgram, rng: random.Random) -> tuple[bool, ...]:
    return tuple(rng.random() < 0.5 for _ in range(program.num_atoms))


@pytest.mark.parametrize("seed", SEEDS)
def test_every_evaluation_is_the_correctly_rounded_sum(seed):
    rng = random.Random(seed)
    program = random_ground_program(seed, entities=8)
    arrays = GroundProgramArrays.from_program(program)
    for _ in range(5):
        assignment = _random_assignment(program, rng)
        weights = _satisfied_weights(program, assignment)
        expected = math.fsum(weights)
        assert expected == float(sum(map(Fraction, weights), Fraction(0)))
        assert program.satisfied_soft_weights(assignment) == weights
        assert program.objective(assignment) == expected
        assert arrays.objective(assignment) == expected
        assert units_to_float(exact_units(weights)) == expected


@pytest.mark.parametrize(
    "weights",
    [
        [1e100, 1.0, -1e100],
        [0.1] * 10,
        [5e-324, 5e-324, -1e-320],
        [2.0**52, 0.5, 0.5 + 2.0**-52],
        [1.0, 1e-300, -0.75, 3.5e300],
        [],
    ],
)
def test_units_round_like_fsum_where_float_sums_do_not(weights):
    units = exact_units(weights)
    assert units_to_float(units) == math.fsum(weights)
    # Parts add up exactly in any split and order.
    middle = len(weights) // 2
    assert exact_units(weights[middle:]) + exact_units(weights[:middle][::-1]) == units


@pytest.mark.parametrize("seed", SEEDS)
def test_clause_order_does_not_move_the_objective(seed):
    rng = random.Random(1000 + seed)
    program = random_ground_program(seed, entities=8)
    assignment = _random_assignment(program, rng)
    expected = program.objective(assignment)
    for _ in range(3):
        shuffled = _permuted(program, rng)
        assert shuffled.objective(assignment) == expected
        assert GroundProgramArrays.from_program(shuffled).objective(assignment) == expected


@pytest.mark.parametrize("seed", SEEDS[:15])
def test_objective_is_the_exact_sum_of_the_component_parts(seed):
    program = random_ground_program(seed, entities=8)
    solution = DecomposedSolver(make_solver("nrockit")).solve(program)
    decomposition = decompose(program)
    units = 0
    for component in decomposition.components:
        local = tuple(solution.assignment[index] for index in component.atom_indices)
        units += exact_units(component.program.satisfied_soft_weights(local))
    # Unconstrained atoms sit in no clause, so they add nothing.
    assert solution.objective == units_to_float(units) == program.objective(solution.assignment)


@pytest.mark.parametrize("seed", SEEDS[:10])
def test_split_stacked_solution_gives_each_program_its_own_objective(seed):
    rng = random.Random(seed)
    programs = [random_ground_program(seed * 10 + part, entities=3) for part in range(4)]
    stacked = GroundProgram.stack(programs)
    assignment = _random_assignment(stacked, rng)
    stacked_solution = make_solver("nrockit").solve(stacked)
    parts = split_stacked_solution(programs, stacked, stacked_solution)
    for program, part in zip(programs, parts):
        assert part.objective == program.objective(part.assignment)
    # Any assignment of the stack, not only an optimal one.
    forced = type(stacked_solution)(assignment, 0.0, stacked_solution.stats)
    for program, part in zip(programs, split_stacked_solution(programs, stacked, forced)):
        assert part.objective == program.objective(part.assignment)
