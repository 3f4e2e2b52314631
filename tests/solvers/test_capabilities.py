"""Unit tests for solver capabilities and expressivity checks."""

import numpy as np
import pytest

from repro.core.registry import solver_capabilities
from repro.errors import ExpressivityError
from repro.kg import make_fact
from repro.logic import ClauseKind, GroundProgram
from repro.solvers import (
    MLN_CAPABILITIES,
    PSL_CAPABILITIES,
    SolverCapabilities,
    check_expressivity,
)


def _program_with_clause(literals, weight):
    program = GroundProgram()
    for index in range(max(i for i, _ in literals) + 1):
        program.add_atom(make_fact(f"s{index}", "p", "o", (1, 2), 0.9), is_evidence=True)
    program.add_clause(literals, weight, ClauseKind.RULE, "test")
    return program


class TestBuiltinCapabilities:
    def test_mln_is_exact_and_expressive(self):
        assert MLN_CAPABILITIES.exact
        assert MLN_CAPABILITIES.max_positive_literals_per_clause is None

    def test_psl_is_scalable_but_restricted(self):
        assert PSL_CAPABILITIES.scalable
        assert not PSL_CAPABILITIES.exact
        assert PSL_CAPABILITIES.max_positive_literals_per_clause == 1


class TestCheckExpressivity:
    def test_conflict_clause_fits_psl(self):
        program = _program_with_clause([(0, False), (1, False)], None)
        check_expressivity(program, PSL_CAPABILITIES)  # no error

    def test_rule_clause_fits_psl(self):
        program = _program_with_clause([(0, False), (1, True)], 2.5)
        check_expressivity(program, PSL_CAPABILITIES)

    def test_two_positive_literals_rejected_by_psl(self):
        program = _program_with_clause([(0, True), (1, True)], 2.5)
        with pytest.raises(ExpressivityError):
            check_expressivity(program, PSL_CAPABILITIES)
        check_expressivity(program, MLN_CAPABILITIES)  # fine for MLN

    def test_hard_clause_rejected_when_unsupported(self):
        no_hard = SolverCapabilities(name="nohard", exact=False, supports_hard_constraints=False)
        program = _program_with_clause([(0, False), (1, False)], None)
        with pytest.raises(ExpressivityError):
            check_expressivity(program, no_hard)

    def test_negative_literals_rejected_when_unsupported(self):
        positive_only = SolverCapabilities(
            name="positive", exact=False, supports_negative_clauses=False
        )
        program = _program_with_clause([(0, False), (1, True)], 1.0)
        with pytest.raises(ExpressivityError):
            check_expressivity(program, positive_only)

    def test_clause_length_bound(self):
        short_only = SolverCapabilities(name="short", exact=False, max_clause_length=2)
        program = _program_with_clause([(0, False), (1, False), (2, False)], None)
        with pytest.raises(ExpressivityError):
            check_expressivity(program, short_only)

    def test_running_example_fits_both_families(self, running_example_grounding):
        check_expressivity(running_example_grounding.program, MLN_CAPABILITIES)
        check_expressivity(running_example_grounding.program, PSL_CAPABILITIES)

    def test_unbounded_capabilities_skip_the_clause_walk(self, built_clauses):
        # Nothing in MLN_CAPABILITIES can reject a clause, so the check
        # builds no clause object; PSL tests the program's CSR and builds
        # only the clause it rejects, to word the error.
        program = GroundProgram()
        for index in range(2):
            program.add_atom(make_fact(f"s{index}", "p", "o", (1, 2), 0.9), is_evidence=True)
        code = program.origin_code(ClauseKind.RULE, "test")
        program.extend_clauses(
            np.array([2, 2]),
            np.array([0, 1, 0, 1]),
            np.array([False, True, True, True]),
            [1.0, 2.5],
            np.array([code, code]),
        )
        check_expressivity(program, MLN_CAPABILITIES)
        check_expressivity(program, solver_capabilities("nrockit"))
        assert built_clauses == []
        with pytest.raises(ExpressivityError, match="clause from 'test' has 2"):
            check_expressivity(program, PSL_CAPABILITIES)
        assert [clause.literals for clause in built_clauses] == [((0, True), (1, True))]
