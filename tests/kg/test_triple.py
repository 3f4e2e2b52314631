"""Unit tests for triples and uncertain temporal facts."""

import math

import pytest

from repro.errors import InvalidFactError
from repro.kg import (
    CERTAIN_LOG_WEIGHT,
    IRI,
    Literal,
    TemporalFact,
    TemporalKnowledgeGraph,
    Triple,
    coerce_fact,
    make_fact,
)
from repro.temporal import TimeInterval


class TestMakeFact:
    def test_paper_fact(self):
        fact = make_fact("CR", "coach", "Chelsea", (2000, 2004), 0.9)
        assert fact.subject == IRI("CR")
        assert fact.predicate == IRI("coach")
        assert fact.interval == TimeInterval(2000, 2004)
        assert fact.confidence == pytest.approx(0.9)

    def test_interval_from_int(self):
        assert make_fact("a", "p", "b", 1999).interval == TimeInterval(1999, 1999)

    def test_interval_from_string(self):
        assert make_fact("a", "p", "b", "[1,5]").interval == TimeInterval(1, 5)

    def test_interval_from_interval(self):
        interval = TimeInterval(3, 4)
        assert make_fact("a", "p", "b", interval).interval is interval

    def test_numeric_object_becomes_literal(self):
        fact = make_fact("CR", "birthDate", 1951, (1951, 2017))
        assert fact.object.value == "1951"

    def test_default_confidence_is_certain(self):
        assert make_fact("a", "p", "b", (1, 2)).is_certain

    def test_bad_interval_value(self):
        with pytest.raises(InvalidFactError):
            make_fact("a", "p", "b", object())


class TestTemporalFactValidation:
    def test_zero_confidence_rejected(self):
        with pytest.raises(InvalidFactError):
            make_fact("a", "p", "b", (1, 2), 0.0)

    def test_above_one_rejected(self):
        with pytest.raises(InvalidFactError):
            make_fact("a", "p", "b", (1, 2), 1.2)

    def test_nan_rejected(self):
        with pytest.raises(InvalidFactError):
            make_fact("a", "p", "b", (1, 2), float("nan"))

    def test_non_interval_rejected(self):
        with pytest.raises(InvalidFactError):
            TemporalFact(IRI("a"), IRI("p"), IRI("b"), (1, 2), 0.5)  # type: ignore[arg-type]

    def test_literal_subject_rejected(self):
        # As make_fact's subject coercion rejects one, so a graph never holds one.
        with pytest.raises(InvalidFactError):
            TemporalFact(Literal("x"), IRI("p"), IRI("o"), TimeInterval(1, 2), 0.9)
        graph = TemporalKnowledgeGraph()
        with pytest.raises(InvalidFactError):
            graph.add(TemporalFact(Literal("x"), IRI("p"), IRI("o"), TimeInterval(1, 2), 0.9))
        assert len(graph) == 0


class TestFactProperties:
    def test_statement_key_ignores_confidence(self):
        first = make_fact("a", "p", "b", (1, 2), 0.5)
        second = make_fact("a", "p", "b", (1, 2), 0.9)
        assert first.statement_key == second.statement_key

    def test_statement_key_distinguishes_intervals(self):
        assert make_fact("a", "p", "b", (1, 2)).statement_key != make_fact(
            "a", "p", "b", (1, 3)
        ).statement_key

    def test_log_weight_symmetry(self):
        high = make_fact("a", "p", "b", (1, 2), 0.9).log_weight
        low = make_fact("a", "p", "b", (1, 2), 0.1).log_weight
        assert high == pytest.approx(-low)

    def test_log_weight_at_half_is_zero(self):
        assert make_fact("a", "p", "b", (1, 2), 0.5).log_weight == pytest.approx(0.0)

    def test_log_weight_certain_is_capped(self):
        assert make_fact("a", "p", "b", (1, 2), 1.0).log_weight == CERTAIN_LOG_WEIGHT
        assert math.isfinite(make_fact("a", "p", "b", (1, 2), 1.0).log_weight)

    def test_with_confidence(self):
        fact = make_fact("a", "p", "b", (1, 2), 0.5)
        updated = fact.with_confidence(0.8)
        assert updated.confidence == pytest.approx(0.8)
        assert fact.confidence == pytest.approx(0.5)

    def test_with_interval(self):
        fact = make_fact("a", "p", "b", (1, 2))
        assert fact.with_interval(TimeInterval(5, 9)).interval == TimeInterval(5, 9)

    def test_triple_view(self):
        fact = make_fact("CR", "coach", "Chelsea", (2000, 2004))
        assert fact.triple == Triple(IRI("CR"), IRI("coach"), IRI("Chelsea"))

    def test_str_contains_interval_and_confidence(self):
        text = str(make_fact("CR", "coach", "Chelsea", (2000, 2004), 0.9))
        assert "[2000,2004]" in text
        assert "0.90" in text

    def test_sorting_is_deterministic(self):
        facts = [
            make_fact("b", "p", "o", (1, 2), 0.5),
            make_fact("a", "p", "o", (1, 2), 0.5),
            make_fact("a", "p", "o", (1, 2), 0.9),
        ]
        ordered = sorted(facts)
        assert str(ordered[0].subject) == "a"


class TestCoerceFact:
    def test_pass_through(self):
        fact = make_fact("a", "p", "b", (1, 2))
        assert coerce_fact(fact) is fact

    def test_from_tuple_without_confidence(self):
        fact = coerce_fact(("a", "p", "b", (1, 2)))
        assert fact.confidence == 1.0

    def test_from_tuple_with_confidence(self):
        assert coerce_fact(("a", "p", "b", (1, 2), 0.7)).confidence == pytest.approx(0.7)

    def test_invalid_shape_rejected(self):
        with pytest.raises(InvalidFactError):
            coerce_fact(("a", "p"))
