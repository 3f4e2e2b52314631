"""E403 differential tests: flagged ⟹ every MAP solver raises.

Unit propagation is sound but incomplete, so the contract runs one way:
every program the pre-check flags must raise
:class:`~repro.errors.InfeasibleProgramError` in the real solvers, and
programs it passes that are genuinely satisfiable must solve cleanly.
"""

from __future__ import annotations

import pytest

from repro.analysis import check_ground_program, propagate_hard_clauses
from repro.core import solve_map
from repro.errors import InfeasibleProgramError
from repro.kg.triple import make_fact
from repro.logic.ground import ClauseKind, GroundProgram

#: The registered solvers.
SOLVERS = ("nrockit", "npsl")


def _atom(program: GroundProgram, name: str):
    return program.add_atom(make_fact(name, "p", "A", (1, 5), 0.9), is_evidence=True)


def _direct_contradiction() -> GroundProgram:
    program = GroundProgram()
    atom = _atom(program, "x")
    program.add_clause([(atom.index, True)], None, ClauseKind.CONSTRAINT, "must-be-true")
    program.add_clause([(atom.index, False)], None, ClauseKind.CONSTRAINT, "must-be-false")
    return program


def _chain_contradiction() -> GroundProgram:
    """a; a ⟹ b; b ⟹ c; ¬c — only visible after three propagation steps."""
    program = GroundProgram()
    a, b, c = (_atom(program, name) for name in "abc")
    program.add_clause([(a.index, True)], None, ClauseKind.CONSTRAINT, "assert-a")
    program.add_clause(
        [(a.index, False), (b.index, True)], None, ClauseKind.CONSTRAINT, "a-implies-b"
    )
    program.add_clause(
        [(b.index, False), (c.index, True)], None, ClauseKind.CONSTRAINT, "b-implies-c"
    )
    program.add_clause([(c.index, False)], None, ClauseKind.CONSTRAINT, "deny-c")
    return program


def _feasible(backend: str = "nrockit") -> GroundProgram:
    """a; a ⟹ b; and the soft clause a ∨ b, or for ``npsl``, which takes at
    most one positive literal per clause, the soft rule clause ¬a ∨ b."""
    program = GroundProgram()
    a, b = (_atom(program, name) for name in "ab")
    program.add_clause([(a.index, True)], None, ClauseKind.CONSTRAINT, "assert-a")
    program.add_clause(
        [(a.index, False), (b.index, True)], None, ClauseKind.CONSTRAINT, "a-implies-b"
    )
    soft = [(a.index, backend != "npsl"), (b.index, True)]
    program.add_clause(soft, 1.5, ClauseKind.RULE, "soft")
    return program


class TestPropagation:
    def test_direct_contradiction_is_flagged_with_a_trail(self):
        report = check_ground_program(_direct_contradiction())
        assert report.codes() == ["E403"]
        assert "must-be-" in report.findings[0].message

    def test_chain_contradiction_is_flagged(self):
        trail = propagate_hard_clauses(_chain_contradiction())
        assert trail is not None
        assert trail[-1] == "falsified hard clause deny-c"
        # The trail names the forcing clause of each literal in the
        # falsified clause (c was forced by b-implies-c).
        assert any("b-implies-c" in step for step in trail)

    def test_feasible_program_is_clean(self):
        assert propagate_hard_clauses(_feasible()) is None
        assert len(check_ground_program(_feasible())) == 0

    def test_soft_clauses_never_participate(self):
        program = GroundProgram()
        atom = _atom(program, "x")
        program.add_clause([(atom.index, True)], 2.0, ClauseKind.RULE, "soft-true")
        program.add_clause([(atom.index, False)], 2.0, ClauseKind.RULE, "soft-false")
        assert propagate_hard_clauses(program) is None


class TestDifferential:
    @pytest.mark.parametrize("backend", SOLVERS)
    @pytest.mark.parametrize(
        "build", (_direct_contradiction, _chain_contradiction), ids=("direct", "chain")
    )
    def test_every_flagged_program_raises_in_real_solvers(self, backend, build):
        program = build()
        assert check_ground_program(program).codes() == ["E403"]
        with pytest.raises(InfeasibleProgramError):
            solve_map(program, backend)

    @pytest.mark.parametrize("backend", SOLVERS)
    def test_clean_feasible_program_solves(self, backend):
        program = _feasible(backend)
        assert len(check_ground_program(program)) == 0
        solution = solve_map(program, backend)
        assert solution.assignment[0] is True
        assert solution.assignment[1] is True
