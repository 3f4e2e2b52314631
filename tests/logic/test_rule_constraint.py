"""Unit tests for temporal rules and constraints (template level)."""

import pytest

from repro.errors import InvalidFactError, UnsafeRuleError
from repro.kg import IRI, TemporalKnowledgeGraph
from repro.logic import (
    ConstraintKind,
    RuleBuilder,
    Substitution,
    TemporalConstraint,
    TemporalRule,
    ground,
    var,
)
from repro.logic.builder import (
    ConstraintBuilder,
    compare,
    disjoint,
    equal,
    intersect,
    not_equal,
    overlaps,
    quad,
)
from repro.logic.expressions import IntervalStart
from repro.temporal import TimeInterval


class TestTemporalRule:
    def test_simple_rule(self):
        rule = RuleBuilder("f1").body(quad("x", "playsFor", "y", "t")).head(
            quad("x", "worksFor", "y", "t")
        ).weight(2.5).build()
        assert rule.weight == 2.5
        assert not rule.is_hard
        assert rule.predicates() == {"playsFor", "worksFor"}

    def test_hard_rule(self):
        rule = (
            RuleBuilder("r")
            .body(quad("x", "hasP", "y", "t"))
            .head(quad("x", "hasQ", "y", "t"))
            .hard()
            .build()
        )
        assert rule.is_hard

    def test_empty_body_rejected(self):
        with pytest.raises(UnsafeRuleError):
            TemporalRule(name="bad", body=(), head=quad("x", "hasP", "y", "t"))

    def test_unsafe_head_variable_rejected(self):
        with pytest.raises(UnsafeRuleError):
            builder = RuleBuilder("bad").body(quad("x", "hasP", "y", "t"))
            builder.head(quad("x", "hasQ", "z", "t")).build()

    def test_unsafe_condition_variable_rejected(self):
        with pytest.raises(UnsafeRuleError):
            (
                RuleBuilder("bad")
                .body(quad("x", "hasP", "y", "t"))
                .when(overlaps("t", "t9"))
                .head(quad("x", "hasQ", "y", "t"))
                .build()
            )

    def test_head_constant_interval_is_safe(self):
        rule = (
            RuleBuilder("ok")
            .body(quad("x", "hasP", "y", "t"))
            .head(quad("x", "hasQ", "y", (1990, 1999)))
            .build()
        )
        assert rule.head_interval_for(Substitution.empty()) == TimeInterval(1990, 1999)

    def test_head_interval_from_body_variable(self):
        rule = (
            RuleBuilder("f1")
            .body(quad("x", "hasP", "y", "t"))
            .head(quad("x", "hasQ", "y", "t"))
            .build()
        )
        substitution = Substitution.of({var("t"): TimeInterval(2000, 2004)})
        assert rule.head_interval_for(substitution) == TimeInterval(2000, 2004)

    def test_head_interval_expression(self):
        rule = (
            RuleBuilder("f2")
            .body(quad("x", "hasP", "y", "t"), quad("y", "hasQ", "z", "t2"))
            .head(quad("x", "hasR", "z", "t"), interval=intersect("t", "t2"))
            .build()
        )
        substitution = Substitution.of(
            {var("t"): TimeInterval(2000, 2004), var("t2"): TimeInterval(2002, 2010)}
        )
        assert rule.head_interval_for(substitution) == TimeInterval(2002, 2004)

    def test_head_interval_expression_empty_intersection(self):
        rule = (
            RuleBuilder("f2")
            .body(quad("x", "hasP", "y", "t"), quad("y", "hasQ", "z", "t2"))
            .head(quad("x", "hasR", "z", "t"), interval=intersect("t", "t2"))
            .build()
        )
        substitution = Substitution.of(
            {var("t"): TimeInterval(2000, 2001), var("t2"): TimeInterval(2005, 2010)}
        )
        assert rule.head_interval_for(substitution) is None

    def test_str_includes_weight(self):
        rule = (
            RuleBuilder("f1")
            .body(quad("x", "hasP", "y", "t"))
            .head(quad("x", "hasQ", "y", "t"))
            .weight(2.5)
            .build()
        )
        assert "2.5" in str(rule)
        assert "f1" in str(rule)

    def test_builder_requires_head(self):
        with pytest.raises(Exception):
            RuleBuilder("nohead").body(quad("x", "hasP", "y", "t")).build()

    @pytest.mark.parametrize("confidence", [0, 0.0, -0.5, 1.5, float("nan"), True, "0.9", None])
    def test_invalid_derived_confidence_rejected(self, confidence):
        """A rule is checked as the facts it derives are, whether or not it fires."""
        body, head = (quad("x", "hasP", "y", "t"),), quad("x", "hasQ", "y", "t")
        with pytest.raises(InvalidFactError, match="rule f9: derived confidence"):
            TemporalRule(name="f9", body=body, head=head, derived_confidence=confidence)
        builder = RuleBuilder("f9").body(*body).head(head).derived_confidence(confidence)
        with pytest.raises(InvalidFactError, match="rule f9: derived confidence"):
            builder.build()

    @pytest.mark.parametrize("confidence", [1, 1.0, 0.5, 1e-9])
    def test_valid_derived_confidence_accepted(self, confidence):
        rule = (
            RuleBuilder("f9")
            .body(quad("x", "hasP", "y", "t"))
            .head(quad("x", "hasQ", "y", "t"))
            .derived_confidence(confidence)
            .build()
        )
        graph = TemporalKnowledgeGraph(name="one")
        graph.add(("a", "hasP", "b", (1, 2), 0.8))
        firing = ground(graph, [rule]).firings[0]
        assert firing.head.confidence == confidence


class TestTemporalConstraint:
    def _c2(self, weight=None):
        builder = (
            ConstraintBuilder("c2")
            .body(quad("x", "coach", "y", "t"), quad("x", "coach", "z", "t2"))
            .when(not_equal("y", "z"))
            .require(disjoint("t", "t2"))
        )
        return builder.weight(weight).build() if weight is not None else builder.hard().build()

    def test_hard_and_soft(self):
        assert self._c2().is_hard
        assert not self._c2(weight=1.5).is_hard

    def test_kind_inference(self):
        assert self._c2().kind is ConstraintKind.DISJOINTNESS
        equality = (
            ConstraintBuilder("c3")
            .body(quad("x", "bornIn", "y", "t"), quad("x", "bornIn", "z", "t2"))
            .when(overlaps("t", "t2"))
            .require(equal("y", "z"))
            .hard()
            .build()
        )
        assert equality.kind is ConstraintKind.EQUALITY_GENERATING

    def test_violated_by(self):
        constraint = self._c2()
        clash = Substitution.of(
            {
                var("y"): IRI("Chelsea"),
                var("z"): IRI("Napoli"),
                var("t"): TimeInterval(2000, 2004),
                var("t2"): TimeInterval(2001, 2003),
            }
        )
        fine = Substitution.of(
            {
                var("y"): IRI("Chelsea"),
                var("z"): IRI("Leicester"),
                var("t"): TimeInterval(2000, 2004),
                var("t2"): TimeInterval(2015, 2017),
            }
        )
        same_club = Substitution.of(
            {
                var("y"): IRI("Chelsea"),
                var("z"): IRI("Chelsea"),
                var("t"): TimeInterval(2000, 2004),
                var("t2"): TimeInterval(2001, 2003),
            }
        )
        assert constraint.violated_by(clash)
        assert not constraint.violated_by(fine)
        assert not constraint.violated_by(same_club)  # body condition y != z fails

    def test_arithmetic_head_condition(self):
        constraint = (
            ConstraintBuilder("bornBefore")
            .body(quad("x", "birthDate", "y", "t"), quad("x", "playsFor", "z", "t2"))
            .require(compare(IntervalStart(var("t")), "<", IntervalStart(var("t2"))))
            .hard()
            .build()
        )
        ok = Substitution.of(
            {var("t"): TimeInterval(1951, 2017), var("t2"): TimeInterval(1984, 1986)}
        )
        bad = Substitution.of(
            {var("t"): TimeInterval(1990, 2017), var("t2"): TimeInterval(1984, 1986)}
        )
        assert not constraint.violated_by(ok)
        assert constraint.violated_by(bad)

    def test_empty_body_rejected(self):
        with pytest.raises(UnsafeRuleError):
            TemporalConstraint(name="bad", body=())

    def test_single_atom_pure_denial_rejected(self):
        with pytest.raises(UnsafeRuleError):
            TemporalConstraint(name="bad", body=(quad("x", "hasP", "y", "t"),))

    def test_unsafe_condition_variable_rejected(self):
        with pytest.raises(UnsafeRuleError):
            (
                ConstraintBuilder("bad")
                .body(quad("x", "hasP", "y", "t"), quad("x", "hasP", "z", "t2"))
                .require(disjoint("t", "t9"))
                .hard()
                .build()
            )

    def test_predicates(self):
        assert self._c2().predicates() == {"coach"}

    def test_str_marks_hard_constraints(self):
        assert "∞" in str(self._c2())
        assert "1.5" in str(self._c2(weight=1.5))

    def test_pure_denial_with_condition(self):
        constraint = (
            ConstraintBuilder("denial")
            .body(quad("x", "spouse", "y", "t"), quad("x", "spouse", "z", "t2"))
            .when(not_equal("y", "z"), overlaps("t", "t2"))
            .hard()
            .build()
        )
        assert constraint.kind is ConstraintKind.DENIAL
        clash = Substitution.of(
            {
                var("y"): IRI("A"),
                var("z"): IRI("B"),
                var("t"): TimeInterval(1, 5),
                var("t2"): TimeInterval(3, 8),
            }
        )
        assert constraint.violated_by(clash)
