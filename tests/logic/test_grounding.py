"""Unit tests for the grounding engine and ground programs."""

import pytest

from repro.errors import GroundingError, InvalidFactError
from repro.kg import Literal, TemporalKnowledgeGraph, make_fact
from repro.logic import (
    DEFAULT_ENGINE,
    ClauseKind,
    GroundProgram,
    find_conflicts,
    ground,
    make_grounder,
    parse_rule,
    running_example_constraints,
    running_example_rules,
)
from repro.logic.builder import ConstraintBuilder, disjoint, not_equal, quad
from repro.logic.grounding import GROUNDING_ENGINES
from repro.logic.library import constraint_c2, rule_f1


class TestGroundProgram:
    def _program(self):
        program = GroundProgram()
        a = program.add_atom(make_fact("a", "p", "b", (1, 2), 0.9), is_evidence=True)
        b = program.add_atom(make_fact("c", "p", "d", (1, 2), 0.6), is_evidence=True)
        program.add_clause([(a.index, True)], 2.0, ClauseKind.EVIDENCE, "evidence")
        program.add_clause([(b.index, True)], 0.5, ClauseKind.EVIDENCE, "evidence")
        program.add_clause([(a.index, False), (b.index, False)], None, ClauseKind.CONSTRAINT, "c")
        return program

    def test_atom_registration_is_idempotent(self):
        program = GroundProgram()
        fact = make_fact("a", "p", "b", (1, 2), 0.9)
        first = program.add_atom(fact, is_evidence=True)
        second = program.add_atom(fact.with_confidence(0.5), is_evidence=False)
        assert first.index == second.index
        assert program.num_atoms == 1
        assert program.atoms[0].is_evidence  # evidence status is sticky

    def test_derived_then_evidence_upgrades(self):
        program = GroundProgram()
        fact = make_fact("a", "p", "b", (1, 2), 0.9)
        program.add_atom(fact, is_evidence=False, derived_by="f1")
        upgraded = program.add_atom(fact, is_evidence=True)
        assert upgraded.is_evidence

    def test_objective_and_feasibility(self):
        program = self._program()
        keep_both = [True, True]
        drop_second = [True, False]
        assert not program.is_feasible(keep_both)
        assert program.is_feasible(drop_second)
        assert program.objective(drop_second) == pytest.approx(2.0)
        assert program.objective([False, True]) == pytest.approx(0.5)

    def test_objective_wrong_length(self):
        with pytest.raises(GroundingError):
            self._program().objective([True])

    def test_negative_unit_weight_normalised(self):
        program = GroundProgram()
        atom = program.add_atom(make_fact("a", "p", "b", (1, 2), 0.2), is_evidence=True)
        program.add_clause([(atom.index, True)], -1.5, ClauseKind.EVIDENCE, "evidence")
        clause = program.clauses[-1]
        assert clause.weight == pytest.approx(1.5)
        assert clause.literals == ((0, False),)

    def test_negative_non_unit_weight_rejected(self):
        program = self._program()
        with pytest.raises(GroundingError):
            program.add_clause([(0, True), (1, True)], -1.0, ClauseKind.RULE, "bad")

    def test_empty_clause_rejected(self):
        with pytest.raises(GroundingError):
            self._program().add_clause([], None, ClauseKind.CONSTRAINT, "bad")

    def test_unknown_atom_index_rejected(self):
        with pytest.raises(GroundingError):
            self._program().add_clause([(99, True)], 1.0, ClauseKind.RULE, "bad")

    def test_summary_counts(self):
        summary = self._program().summary()
        assert summary["atoms"] == 2
        assert summary["hard_clauses"] == 1
        assert summary["soft_clauses"] == 2
        assert summary["constraint_clauses"] == 1

    def test_max_soft_weight(self):
        assert self._program().max_soft_weight() == pytest.approx(2.5)


class TestGrounderRunningExample:
    def test_violations_found(self, running_example_grounding):
        violations = running_example_grounding.violations
        assert len(violations) == 1
        assert violations[0].constraint == "c2"
        objects = {str(fact.object) for fact in violations[0].facts}
        assert objects == {"Chelsea", "Napoli"}

    def test_rule_f1_fires(self, running_example_grounding):
        derived = running_example_grounding.derived_facts()
        assert any(
            str(fact.predicate) == "worksFor" and str(fact.object) == "Palermo" for fact in derived
        )

    def test_clause_kinds(self, running_example_grounding):
        program = running_example_grounding.program
        assert len(program.clauses_of_kind(ClauseKind.EVIDENCE)) == 5
        assert len(program.clauses_of_kind(ClauseKind.CONSTRAINT)) == 1
        assert len(program.clauses_of_kind(ClauseKind.RULE)) >= 1

    def test_conflicting_facts_deduplicated(self, running_example_grounding):
        conflicting = running_example_grounding.conflicting_facts()
        assert len(conflicting) == 2

    def test_evidence_bias_applied(self, running_example_grounding):
        program = running_example_grounding.program
        palermo_clauses = [
            clause
            for clause in program.clauses_of_kind(ClauseKind.EVIDENCE)
            if str(program.atoms[clause.literals[0][0]].fact.object) == "Palermo"
        ]
        # confidence 0.5 has log-odds 0; the keep bias makes the weight positive.
        assert palermo_clauses[0].weight > 0


class TestGrounderChaining:
    def test_two_round_chaining_f1_then_f2(self, ranieri_extended):
        result = ground(ranieri_extended, running_example_rules(), running_example_constraints())
        derived_predicates = {str(fact.predicate) for fact in result.derived_facts()}
        assert "worksFor" in derived_predicates
        assert "livesIn" in derived_predicates  # needs worksFor derived first
        assert result.rounds >= 2

    def test_lives_in_interval_is_intersection(self, ranieri_extended):
        result = ground(ranieri_extended, running_example_rules(), running_example_constraints())
        lives_in = [fact for fact in result.derived_facts() if str(fact.predicate) == "livesIn"]
        palermo_home = [fact for fact in lives_in if str(fact.object) == "PalermoCity"]
        assert palermo_home
        assert palermo_home[0].interval.start == 1984
        assert palermo_home[0].interval.end == 1986

    def test_max_rounds_limits_chaining(self, ranieri_extended):
        grounder = make_grounder(
            DEFAULT_ENGINE,
            ranieri_extended,
            rules=running_example_rules(),
            constraints=(),
            max_rounds=1,
        )
        result = grounder.ground()
        derived_predicates = {str(fact.predicate) for fact in result.derived_facts()}
        assert "worksFor" in derived_predicates
        assert "livesIn" not in derived_predicates

    def test_invalid_max_rounds(self, ranieri):
        with pytest.raises(GroundingError):
            make_grounder(DEFAULT_ENGINE, ranieri, max_rounds=0)

    def test_no_duplicate_firings(self, ranieri):
        result = ground(ranieri, [rule_f1(), rule_f1()], [])
        signatures = {(firing.rule, firing.head.statement_key) for firing in result.firings}
        assert len(signatures) == len(result.firings) or len(result.firings) == 2


class TestFindConflicts:
    def test_find_conflicts_reports_without_rules(self, ranieri):
        violations = find_conflicts(ranieri, running_example_constraints())
        assert len(violations) == 1
        assert violations[0].is_hard

    def test_no_conflicts_on_clean_graph(self):
        graph = TemporalKnowledgeGraph()
        graph.add(("CR", "coach", "Chelsea", (2000, 2004), 0.9))
        graph.add(("CR", "coach", "Leicester", (2015, 2017), 0.7))
        assert find_conflicts(graph, [constraint_c2()]) == []

    def test_soft_constraint_violation_recorded(self):
        graph = TemporalKnowledgeGraph()
        graph.add(("CR", "coach", "Chelsea", (2000, 2004), 0.9))
        graph.add(("CR", "coach", "Napoli", (2001, 2003), 0.6))
        soft_c2 = (
            ConstraintBuilder("softC2")
            .body(quad("x", "coach", "y", "t"), quad("x", "coach", "z", "t2"))
            .when(not_equal("y", "z"))
            .require(disjoint("t", "t2"))
            .soft(1.5)
            .build()
        )
        violations = find_conflicts(graph, [soft_c2])
        assert len(violations) == 1
        assert not violations[0].is_hard
        assert violations[0].weight == 1.5

    def test_same_fact_not_matched_against_itself(self):
        graph = TemporalKnowledgeGraph()
        graph.add(("CR", "coach", "Chelsea", (2000, 2004), 0.9))
        # c2's body could match the same fact twice; the grounder must skip it.
        assert find_conflicts(graph, [constraint_c2()]) == []

    def test_symmetric_violations_deduplicated(self):
        graph = TemporalKnowledgeGraph()
        graph.add(("CR", "coach", "Chelsea", (2000, 2004), 0.9))
        graph.add(("CR", "coach", "Napoli", (2001, 2003), 0.6))
        violations = find_conflicts(graph, [constraint_c2()])
        assert len(violations) == 1


class TestLiteralHeadSubject:
    """A rule whose head subject binds a literal derives no fact in any engine."""

    @pytest.mark.parametrize("engine", sorted(GROUNDING_ENGINES))
    def test_every_engine_raises_invalid_fact_error(self, engine):
        rule = parse_rule("flip: quad(x, hasP, y, t) -> quad(y, hasQ, x, t) w=1.0")
        graph = TemporalKnowledgeGraph()
        graph.add(make_fact("a", "hasP", Literal("lit"), (1, 2), 0.9))
        with pytest.raises(InvalidFactError, match="subject position"):
            make_grounder(engine, graph, [rule]).ground()

    @pytest.mark.parametrize("engine", sorted(GROUNDING_ENGINES))
    def test_iri_objects_still_flip(self, engine):
        rule = parse_rule("flip: quad(x, hasP, y, t) -> quad(y, hasQ, x, t) w=1.0")
        graph = TemporalKnowledgeGraph()
        graph.add(make_fact("a", "hasP", "b", (1, 2), 0.9))
        program = make_grounder(engine, graph, [rule]).ground().program
        assert make_fact("b", "hasQ", "a", (1, 2)).statement_key in {
            atom.fact.statement_key for atom in program.atoms
        }
