"""Unit tests for the Łukasiewicz relaxation and hinge potentials."""

import numpy as np
import pytest

from repro.kg import make_fact
from repro.logic import ClauseKind, GroundProgram
from repro.psl.lukasiewicz import (
    PotentialMatrix,
    clause_to_potential,
    program_to_potentials,
    total_penalty,
)


def _program():
    program = GroundProgram()
    a = program.add_atom(make_fact("a", "p", "b", (1, 2), 0.9), is_evidence=True)
    b = program.add_atom(make_fact("c", "p", "d", (1, 2), 0.6), is_evidence=True)
    program.add_clause([(a.index, True)], 2.0, ClauseKind.EVIDENCE, "e1")
    program.add_clause([(b.index, True)], 0.5, ClauseKind.EVIDENCE, "e2")
    program.add_clause([(a.index, False), (b.index, False)], None, ClauseKind.CONSTRAINT, "c")
    return program


class TestClauseToPotential:
    def test_positive_unit_clause(self):
        program = _program()
        potential = clause_to_potential(program.clauses[0], hard_weight=100.0)
        # d(y) = max(0, 1 - y_a): zero when true, one when false.
        assert potential.distance([1.0, 0.0]) == pytest.approx(0.0)
        assert potential.distance([0.0, 0.0]) == pytest.approx(1.0)
        assert potential.distance([0.25, 0.0]) == pytest.approx(0.75)
        assert potential.weight == 2.0
        assert not potential.hard

    def test_conflict_clause(self):
        program = _program()
        potential = clause_to_potential(program.clauses[2], hard_weight=100.0)
        # d(y) = max(0, y_a + y_b - 1).
        assert potential.distance([1.0, 1.0]) == pytest.approx(1.0)
        assert potential.distance([1.0, 0.0]) == pytest.approx(0.0)
        assert potential.distance([0.7, 0.6]) == pytest.approx(0.3)
        assert potential.hard
        assert potential.weight == 100.0

    def test_squared_distance(self):
        program = _program()
        potential = clause_to_potential(program.clauses[0], hard_weight=100.0, squared=True)
        assert potential.distance([0.5, 0.0]) == pytest.approx(0.25)

    def test_penalty_scaling(self):
        program = _program()
        potential = clause_to_potential(program.clauses[1], hard_weight=1.0)
        assert potential.penalty([0.0, 0.0]) == pytest.approx(0.5)


class TestProgramConversion:
    def test_every_clause_becomes_a_potential(self):
        program = _program()
        potentials = program_to_potentials(program)
        assert len(potentials) == program.num_clauses

    def test_total_penalty_of_boolean_states(self):
        program = _program()
        potentials = program_to_potentials(program, hard_weight=100.0)
        # Keeping both facts violates the hard constraint.
        assert total_penalty(potentials, [1.0, 1.0]) == pytest.approx(100.0)
        # Dropping the weak fact costs only its evidence weight.
        assert total_penalty(potentials, [1.0, 0.0]) == pytest.approx(0.5)


class TestPotentialMatrix:
    def test_values_match_scalar_potentials(self):
        program = _program()
        potentials = program_to_potentials(program, hard_weight=50.0)
        matrix = PotentialMatrix(potentials, program.num_atoms)
        state = np.array([0.8, 0.4])
        values = matrix.values(state)
        for position, potential in enumerate(potentials):
            expected = potential.constant + sum(
                coefficient * state[index]
                for index, coefficient in zip(potential.indexes, potential.coefficients)
            )
            assert values[position] == pytest.approx(expected)

    def test_penalties_match_scalar_potentials(self):
        program = _program()
        potentials = program_to_potentials(program, hard_weight=50.0)
        matrix = PotentialMatrix(potentials, program.num_atoms)
        state = np.array([0.9, 0.7])
        assert matrix.penalties(state).sum() == pytest.approx(total_penalty(potentials, state))

    def test_variable_counts(self):
        program = _program()
        matrix = PotentialMatrix(program_to_potentials(program), program.num_atoms)
        assert list(matrix.variable_counts) == [2.0, 2.0]
