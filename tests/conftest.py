"""Shared fixtures for the TeCoRe test suite."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

# Make the shared generators in tests/properties/ importable from any test
# module (the test tree has no packages).
_PROPERTIES_DIR = str(Path(__file__).resolve().parent / "properties")
if _PROPERTIES_DIR not in sys.path:
    sys.path.insert(0, _PROPERTIES_DIR)

from repro import TeCoRe
from repro.datasets import (
    FootballDBConfig,
    generate_footballdb,
    ranieri_extended_graph,
    ranieri_graph,
)
from repro.kg import TemporalFact, TemporalKnowledgeGraph, make_fact
from repro.logic import (
    ClauseKind,
    ConstraintViolation,
    GroundClause,
    GroundProgram,
    RuleFiring,
    ground,
    running_example_constraints,
    running_example_rules,
)


@pytest.fixture
def ranieri():
    """The paper's Figure 1 UTKG (5 facts)."""
    return ranieri_graph()


@pytest.fixture
def ranieri_extended():
    """Figure 1 plus club locations (rules f1 and f2 both fire)."""
    return ranieri_extended_graph()


@pytest.fixture
def running_example_grounding(ranieri):
    """Grounding of the running example with rules f1-f3 and constraints c1-c3."""
    return ground(ranieri, running_example_rules(), running_example_constraints())


@pytest.fixture
def running_example_system():
    """A TeCoRe instance configured exactly as the paper's walk-through."""
    return TeCoRe.from_pack("running-example", solver="nrockit")


@pytest.fixture(scope="session")
def small_noisy_footballdb():
    """A small deterministic FootballDB dataset with 50% planted noise."""
    return generate_footballdb(FootballDBConfig(scale=0.005, noise_ratio=0.5, seed=7))


@pytest.fixture
def empty_graph():
    return TemporalKnowledgeGraph(name="empty")


@pytest.fixture
def built_clauses(monkeypatch):
    """Every :class:`GroundClause` constructed while the test runs, in order."""
    built = []
    check = GroundClause.__post_init__

    def spy(clause):
        built.append(clause)
        check(clause)

    monkeypatch.setattr(GroundClause, "__post_init__", spy)
    return built


@pytest.fixture
def built_records(monkeypatch):
    """Every :class:`RuleFiring`, :class:`ConstraintViolation` and
    :class:`TemporalFact` constructed while the test runs, in order.

    Clear the list before the call under test: the fixture also sees the
    facts a test's own set-up builds.
    """
    built = []

    def spy_on(cls):
        construct = cls.__init__

        def spy(record, *args, **kwargs):
            construct(record, *args, **kwargs)
            built.append(record)

        monkeypatch.setattr(cls, "__init__", spy)

    for cls in (RuleFiring, ConstraintViolation, TemporalFact):
        spy_on(cls)
    return built


@pytest.fixture
def coupled_hard_program():
    """Two hard clauses sharing an atom with opposite satisfying polarities.

    A conflict clause wants ``shared`` or ``other`` false and a keeper clause
    wants ``shared`` true, so only ``[True, False]`` is feasible.  Repairing
    from all-true by dropping the cheapest atom first flips the low-weight
    ``shared`` atom back and forth forever.  Returns ``(program, shared,
    other)``.
    """
    program = GroundProgram()
    shared = program.add_atom(make_fact("x", "coach", "A", (1, 5), 0.55), is_evidence=True)
    other = program.add_atom(make_fact("x", "coach", "B", (2, 4), 0.9), is_evidence=True)
    for atom in (shared, other):
        program.add_clause([(atom.index, True)], atom.fact.log_weight, ClauseKind.EVIDENCE, "e")
    program.add_clause(
        [(shared.index, False), (other.index, False)], None, ClauseKind.CONSTRAINT, "c2"
    )
    program.add_clause([(shared.index, True)], None, ClauseKind.CONSTRAINT, "keep-shared")
    return program, shared, other
