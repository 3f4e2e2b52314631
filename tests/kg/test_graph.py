"""Unit tests for the temporal knowledge-graph store."""

import pytest

from repro.errors import InvalidFactError
from repro.kg import IRI, Literal, TemporalFact, TemporalKnowledgeGraph
from repro.temporal import TimeDomain, TimeInterval


@pytest.fixture
def career_graph():
    graph = TemporalKnowledgeGraph(name="career")
    graph.add(("CR", "coach", "Chelsea", (2000, 2004), 0.9))
    graph.add(("CR", "coach", "Leicester", (2015, 2017), 0.7))
    graph.add(("CR", "playsFor", "Palermo", (1984, 1986), 0.5))
    graph.add(("JM", "coach", "Chelsea", (2004, 2007), 0.95))
    return graph


class TestAddRemove:
    def test_add_and_len(self, career_graph):
        assert len(career_graph) == 4

    def test_duplicate_statement_keeps_max_confidence(self):
        graph = TemporalKnowledgeGraph()
        graph.add(("a", "p", "b", (1, 2), 0.4))
        graph.add(("a", "p", "b", (1, 2), 0.8))
        graph.add(("a", "p", "b", (1, 2), 0.6))
        assert len(graph) == 1
        assert graph.facts()[0].confidence == pytest.approx(0.8)

    def test_literal_objects_that_read_alike_are_distinct_statements(self):
        # Datatype and lexical form joined by a colon read "x:a:b" for both.
        graph = TemporalKnowledgeGraph()
        first = TemporalFact(IRI("a"), IRI("p"), Literal("a:b", "x"), TimeInterval(1, 2), 0.9)
        second = TemporalFact(IRI("a"), IRI("p"), Literal("b", "x:a"), TimeInterval(1, 2), 0.9)
        graph.add_all([first, second])
        assert len(graph) == 2
        assert first in graph and second in graph
        assert first.statement_key != second.statement_key

    def test_contains(self, career_graph):
        assert ("CR", "coach", "Chelsea", (2000, 2004), 0.9) in career_graph
        assert ("CR", "coach", "Chelsea", (2000, 2004)) in career_graph  # confidence ignored
        assert ("CR", "coach", "Arsenal", (2000, 2004)) not in career_graph
        assert "not a fact" not in career_graph

    def test_remove(self, career_graph):
        assert career_graph.remove(("CR", "coach", "Chelsea", (2000, 2004)))
        assert len(career_graph) == 3
        assert not career_graph.remove(("CR", "coach", "Chelsea", (2000, 2004)))
        assert career_graph.find(predicate="coach", obj="Chelsea") != []

    def test_discard_all(self, career_graph):
        removed = career_graph.discard_all(
            [("CR", "coach", "Chelsea", (2000, 2004)), ("nobody", "coach", "X", (1, 2))]
        )
        assert removed == 1

    def test_discard_all_of_the_graph_itself_removes_every_fact(self, career_graph):
        assert career_graph.discard_all(career_graph) == 4
        assert len(career_graph) == 0
        assert list(career_graph) == []
        assert career_graph.find(predicate="coach") == []

    def test_add_all_returns_new_count(self):
        graph = TemporalKnowledgeGraph()
        added = graph.add_all(
            [("a", "p", "b", (1, 2), 0.5), ("a", "p", "b", (1, 2), 0.9), ("c", "p", "d", (1, 2))]
        )
        assert added == 2

    def test_domain_enforced(self):
        graph = TemporalKnowledgeGraph(domain=TimeDomain(1900, 2000))
        with pytest.raises(InvalidFactError):
            graph.add(("a", "p", "b", (1990, 2010)))

    def test_insertion_order_preserved(self, career_graph):
        subjects = [str(fact.subject) for fact in career_graph]
        assert subjects == ["CR", "CR", "CR", "JM"]


class TestQueries:
    def test_find_by_subject(self, career_graph):
        assert len(career_graph.find(subject="CR")) == 3

    def test_find_by_predicate(self, career_graph):
        assert len(career_graph.by_predicate("coach")) == 3

    def test_find_by_subject_and_predicate(self, career_graph):
        facts = career_graph.find(subject="CR", predicate="coach")
        assert {str(fact.object) for fact in facts} == {"Chelsea", "Leicester"}

    def test_find_by_object(self, career_graph):
        assert len(career_graph.find(obj="Chelsea")) == 2

    def test_find_with_temporal_overlap(self, career_graph):
        facts = career_graph.find(predicate="coach", overlapping=TimeInterval(2003, 2005))
        assert {str(fact.subject) for fact in facts} == {"CR", "JM"}

    def test_find_all_wildcards(self, career_graph):
        assert len(career_graph.find()) == 4

    def test_find_no_match(self, career_graph):
        assert career_graph.find(subject="Nobody") == []

    def test_predicates_sorted(self, career_graph):
        assert [p.value for p in career_graph.predicates()] == ["coach", "playsFor"]

    def test_subjects_and_entities(self, career_graph):
        assert {str(s) for s in career_graph.subjects()} == {"CR", "JM"}
        entity_names = {str(e) for e in career_graph.entities()}
        assert {"CR", "JM", "Chelsea", "Leicester", "Palermo"} <= entity_names

    def test_indexes_updated_after_remove(self, career_graph):
        career_graph.remove(("JM", "coach", "Chelsea", (2004, 2007)))
        assert len(career_graph.find(obj="Chelsea")) == 1
        assert {str(s) for s in career_graph.subjects()} == {"CR"}


class TestWholeGraphOperations:
    def test_copy_is_independent(self, career_graph):
        clone = career_graph.copy()
        clone.add(("new", "coach", "Club", (1990, 1991)))
        assert len(clone) == len(career_graph) + 1

    def test_filter(self, career_graph):
        coaches = career_graph.filter(lambda fact: fact.predicate.value == "coach")
        assert len(coaches) == 3

    def test_above_confidence(self, career_graph):
        assert len(career_graph.above_confidence(0.8)) == 2

    def test_merge_takes_max_confidence(self, career_graph):
        other = TemporalKnowledgeGraph(name="other")
        other.add(("CR", "coach", "Chelsea", (2000, 2004), 0.95))
        other.add(("ZZ", "coach", "Roma", (1999, 2000), 0.5))
        merged = career_graph.merge(other)
        assert len(merged) == 5
        chelsea = merged.find(subject="CR", obj="Chelsea")[0]
        assert chelsea.confidence == pytest.approx(0.95)

    def test_difference(self, career_graph):
        other = career_graph.filter(lambda fact: fact.predicate.value == "coach")
        missing = career_graph.difference(other)
        assert len(missing) == 1
        assert missing[0].predicate == IRI("playsFor")

    def test_coalesced_merges_adjacent_spells(self):
        graph = TemporalKnowledgeGraph()
        graph.add(("CR", "coach", "Chelsea", (2000, 2002), 0.8))
        graph.add(("CR", "coach", "Chelsea", (2003, 2004), 0.9))
        graph.add(("CR", "coach", "Leicester", (2015, 2017), 0.7))
        coalesced = graph.coalesced()
        chelsea = coalesced.find(obj="Chelsea")
        assert len(chelsea) == 1
        assert chelsea[0].interval == TimeInterval(2000, 2004)
        assert chelsea[0].confidence == pytest.approx(0.9)

    def test_spanning_domain(self, career_graph):
        domain = career_graph.spanning_domain()
        assert domain.start == 1984
        assert domain.end == 2017

    def test_total_confidence(self, career_graph):
        assert career_graph.total_confidence() == pytest.approx(0.9 + 0.7 + 0.5 + 0.95)

    def test_repr(self, career_graph):
        assert "career" in repr(career_graph)
        assert "4" in repr(career_graph)
