"""Unit tests for the ILP encoding of MAP inference."""

import numpy as np
import pytest

from repro.errors import GroundingError
from repro.kg import make_fact
from repro.logic import ClauseKind, GroundProgram
from test_enumeration import whole_program_ilp


def _simple_program():
    """Two evidence atoms, a hard conflict and a soft rule clause."""
    program = GroundProgram()
    a = program.add_atom(make_fact("a", "p", "b", (1, 2), 0.9), is_evidence=True)
    b = program.add_atom(make_fact("c", "p", "d", (1, 2), 0.6), is_evidence=True)
    h = program.add_atom(make_fact("a", "q", "b", (1, 2), 0.9), is_evidence=False, derived_by="r")
    program.add_clause([(a.index, True)], a.fact.log_weight, ClauseKind.EVIDENCE, "evidence")
    program.add_clause([(b.index, True)], b.fact.log_weight, ClauseKind.EVIDENCE, "evidence")
    program.add_clause([(a.index, False), (b.index, False)], None, ClauseKind.CONSTRAINT, "c")
    program.add_clause([(a.index, False), (h.index, True)], 2.5, ClauseKind.RULE, "r")
    return program, (a, b, h)


class TestEncoding:
    def test_variable_layout(self):
        program, _ = _simple_program()
        encoding = whole_program_ilp(program)
        assert encoding.num_atoms == 3
        assert encoding.num_aux == 1  # only the non-unit soft rule clause
        assert encoding.num_variables == 4

    def test_unit_clauses_fold_into_objective(self):
        program, (a, b, _) = _simple_program()
        encoding = whole_program_ilp(program)
        assert encoding.objective[a.index] == pytest.approx(a.fact.log_weight)
        assert encoding.objective[b.index] == pytest.approx(b.fact.log_weight)

    def test_aux_weight_in_objective(self):
        program, _ = _simple_program()
        encoding = whole_program_ilp(program)
        assert encoding.objective[3] == pytest.approx(2.5)

    def test_hard_clause_row(self):
        program, (a, b, _) = _simple_program()
        encoding = whole_program_ilp(program)
        dense = encoding.constraint_matrix.toarray()
        # Hard clause (¬a ∨ ¬b): -x_a - x_b >= -1.
        hard_rows = [row for row, bound in zip(dense, encoding.lower_bounds) if bound == -1.0]
        assert any(row[a.index] == -1.0 and row[b.index] == -1.0 for row in hard_rows)

    def test_objective_value_matches_program_objective(self):
        program, _ = _simple_program()
        encoding = whole_program_ilp(program)
        for assignment in [(True, False, True), (True, False, False), (False, True, True)]:
            # Auxiliary variable value = clause satisfaction indicator.
            rule_clause_satisfied = (not assignment[0]) or assignment[2]
            vector = np.array([*map(float, assignment), float(rule_clause_satisfied)])
            # The objective row plus the offset is the satisfied soft weight.
            value = float(np.dot(encoding.objective, vector)) + encoding.offset
            assert value == pytest.approx(program.objective(list(assignment)))

    def test_negative_unit_weight_handled_via_offset(self):
        program = GroundProgram()
        atom = program.add_atom(make_fact("a", "p", "b", (1, 2), 0.2), is_evidence=True)
        program.add_clause([(atom.index, True)], atom.fact.log_weight, ClauseKind.EVIDENCE, "e")
        encoding = whole_program_ilp(program)
        for value in (True, False):
            ilp_value = encoding.objective[0] * value + encoding.offset
            assert ilp_value == pytest.approx(program.objective([value]))

    def test_empty_program_rejected(self):
        with pytest.raises(GroundingError):
            whole_program_ilp(GroundProgram())

    def test_assignment_rounding(self):
        program, _ = _simple_program()
        encoding = whole_program_ilp(program)
        assert encoding.assignment_from([0.99, 0.01, 1.0, 0.7]) == (True, False, True)
