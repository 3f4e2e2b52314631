"""The graph's lazily built pattern indexes against a linear scan.

:class:`~repro.kg.TemporalKnowledgeGraph` builds its five pattern indexes on
the first query and maintains them from then on; copies and bulk removals
never clone them.  A Hypothesis state machine interleaves every mutation
(``add`` with confidence upgrades, ``remove``, ``discard_all``, ``copy``,
``without_statements``, ``merge``) with every query, on graphs whose indexes
were built at different points of their history, and compares each answer
with a scan over ``list(graph)``.  A plain ordered model checks the stored
facts, their order and their insertion ticks.

The second half pins the optimisation itself: the graphs a repair returns
(consistent, expanded, and a session's input snapshot) build no index.
"""

from __future__ import annotations

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro import TeCoRe
from repro.datasets import FootballDBConfig, generate_footballdb, ranieri_graph
from repro.kg import IRI, TemporalFact, TemporalKnowledgeGraph, make_fact, term_key, to_term
from repro.temporal import TimeInterval

SUBJECTS = [to_term(name) for name in ("a", "b", "c", "_:n")]
PREDICATES = [IRI(name) for name in ("p", "q", "r")]
OBJECTS = [to_term(value) for value in ("a", "b", "x", 7, "_:n")]
CONFIDENCES = (0.3, 0.6, 0.9)
MAX_GRAPHS = 4

intervals = st.builds(
    lambda start, length: TimeInterval(start, start + length),
    st.integers(0, 4),
    st.integers(0, 2),
)
facts = st.builds(
    make_fact,
    st.sampled_from(SUBJECTS),
    st.sampled_from(PREDICATES),
    st.sampled_from(OBJECTS),
    intervals,
    st.sampled_from(CONFIDENCES),
)
slot = st.integers(0, MAX_GRAPHS - 1)


def optional(values):
    return st.none() | st.sampled_from(values)


class _Model:
    """Statement key → (fact, tick) in insertion order, plus the tick counter."""

    def __init__(self, entries=None, tick=0):
        self.entries = dict(entries or {})
        self.tick = tick

    def add(self, fact):
        key = fact.statement_key
        if key in self.entries:
            stored, tick = self.entries[key]
            if fact.confidence > stored.confidence:
                self.entries[key] = (fact, tick)
            return
        self.entries[key] = (fact, self.tick)
        self.tick += 1

    def remove(self, key):
        return self.entries.pop(key, None) is not None

    def copy(self):
        return _Model(self.entries, self.tick)


def _scan(graph, subject=None, predicate=None, obj=None):
    return [
        fact
        for fact in list(graph)
        if (subject is None or fact.subject == subject)
        and (predicate is None or fact.predicate == predicate)
        and (obj is None or fact.object == obj)
    ]


class GraphIndexMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.graphs = [TemporalKnowledgeGraph(name="g0")]
        self.models = [_Model()]

    def _put(self, into, graph, model):
        if len(self.graphs) < MAX_GRAPHS:
            self.graphs.append(graph)
            self.models.append(model)
        else:
            self.graphs[into % MAX_GRAPHS] = graph
            self.models[into % MAX_GRAPHS] = model

    def _pick(self, index):
        index %= len(self.graphs)
        return self.graphs[index], self.models[index]

    # -- mutations ------------------------------------------------------ #
    @rule(index=slot, fact=facts)
    def add(self, index, fact):
        graph, model = self._pick(index)
        stored = graph.add(fact)
        model.add(fact)
        assert stored == model.entries[fact.statement_key][0]

    @rule(index=slot, data=st.data())
    def upgrade_confidence(self, index, data):
        graph, model = self._pick(index)
        if not model.entries:
            return
        fact = data.draw(st.sampled_from([fact for fact, _ in model.entries.values()]))
        stronger = make_fact(fact.subject, fact.predicate, fact.object, fact.interval, 0.95)
        graph.add(stronger)
        model.add(stronger)

    @rule(index=slot, fact=facts)
    def remove(self, index, fact):
        graph, model = self._pick(index)
        assert graph.remove(fact) == model.remove(fact.statement_key)

    @rule(index=slot, extra=st.lists(facts, max_size=3), data=st.data())
    def discard_all(self, index, extra, data):
        graph, model = self._pick(index)
        present = [fact for fact, _ in model.entries.values()]
        chosen = data.draw(st.lists(st.sampled_from(present), max_size=4)) if present else []
        batch = chosen + extra
        expected = sum(1 for fact in batch if model.remove(fact.statement_key))
        assert graph.discard_all(batch) == expected

    @rule(index=slot)
    def discard_all_of_itself(self, index):
        graph, model = self._pick(index)
        assert graph.discard_all(graph) == len(model.entries)
        model.entries.clear()

    @rule(index=slot, into=slot)
    def copy(self, index, into):
        graph, model = self._pick(index)
        self._put(into, graph.copy(name="copy"), model.copy())

    @rule(index=slot, into=slot, data=st.data(), extra=st.lists(facts, max_size=2))
    def without_statements(self, index, into, data, extra):
        graph, model = self._pick(index)
        present = [key for key in model.entries]
        drop = data.draw(st.lists(st.sampled_from(present), max_size=4)) if present else []
        drop += [fact.statement_key for fact in extra]
        clone_model = model.copy()
        for key in drop:
            clone_model.remove(key)
        self._put(into, graph.without_statements(drop), clone_model)

    @rule(index=slot, other=slot, into=slot)
    def merge(self, index, other, into):
        graph, model = self._pick(index)
        other_graph, other_model = self._pick(other)
        merged_model = model.copy()
        for fact, _ in list(other_model.entries.values()):
            merged_model.add(fact)
        self._put(into, graph.merge(other_graph), merged_model)

    # -- queries -------------------------------------------------------- #
    @rule(
        index=slot,
        subject=optional(SUBJECTS),
        predicate=optional(PREDICATES),
        obj=optional(OBJECTS),
        overlapping=st.none() | intervals,
    )
    def find(self, index, subject, predicate, obj, overlapping):
        graph, _ = self._pick(index)
        expected = [
            fact
            for fact in _scan(graph, subject, predicate, obj)
            if overlapping is None or fact.interval.overlaps(overlapping)
        ]
        expected.sort(key=TemporalFact.sort_key)
        assert graph.find(subject, predicate, obj, overlapping=overlapping) == expected

    @rule(
        index=slot,
        subject=optional(SUBJECTS),
        predicate=optional(PREDICATES),
        obj=optional(OBJECTS),
        since=st.none() | st.integers(0, 12),
        before=st.none() | st.integers(0, 12),
    )
    def iter_matching(self, index, subject, predicate, obj, since, before):
        graph, _ = self._pick(index)
        expected = [
            fact
            for fact in _scan(graph, subject, predicate, obj)
            if (since is None or graph.added_at(fact) >= since)
            and (before is None or graph.added_at(fact) < before)
        ]
        got = list(graph.iter_matching(subject, predicate, obj, since=since, before=before))
        assert len(got) == len(set(fact.statement_key for fact in got))
        assert sorted(got, key=TemporalFact.sort_key) == sorted(expected, key=TemporalFact.sort_key)

    @rule(index=slot, predicate=st.sampled_from(PREDICATES))
    def by_predicate(self, index, predicate):
        graph, _ = self._pick(index)
        expected = sorted(_scan(graph, predicate=predicate), key=TemporalFact.sort_key)
        assert graph.by_predicate(predicate) == expected
        assert graph.by_predicate(predicate.value) == expected

    @rule(index=slot)
    def distinct_terms(self, index):
        graph, _ = self._pick(index)
        scanned = list(graph)
        subjects = sorted({fact.subject for fact in scanned}, key=term_key)
        objects = sorted({fact.object for fact in scanned}, key=term_key)
        assert graph.subjects() == subjects
        assert graph.predicates() == sorted(
            {fact.predicate for fact in scanned}, key=lambda p: p.value
        )
        assert graph.objects() == objects
        entities = {*subjects, *(o for o in objects if isinstance(o, IRI))}
        assert graph.entities() == sorted(entities, key=term_key)

    # -- state ---------------------------------------------------------- #
    @invariant()
    def graphs_match_their_models(self):
        for graph, model in zip(self.graphs, self.models):
            assert list(graph) == [fact for fact, _ in model.entries.values()]
            assert len(graph) == len(model.entries)
            assert graph.mark() == model.tick
            for fact, tick in model.entries.values():
                assert graph.added_at(fact) == tick
                assert fact in graph

    @invariant()
    def graphs_hold_their_own_indexes(self):
        built = [graph._indexes for graph in self.graphs if graph._indexes is not None]
        assert len({id(indexes) for indexes in built}) == len(built)


TestGraphIndexes = GraphIndexMachine.TestCase
TestGraphIndexes.settings = settings(max_examples=150, stateful_step_count=40, deadline=None)


# ---------------------------------------------------------------------- #
# Result graphs are never indexed
# ---------------------------------------------------------------------- #
def _assert_unindexed(*graphs):
    for graph in graphs:
        assert graph._indexes is None, graph.name


@pytest.mark.parametrize("solver", ["nrockit", "npsl"])
def test_resolve_builds_no_result_index(solver):
    graph = generate_footballdb(FootballDBConfig(scale=0.005, noise_ratio=0.5, seed=7)).graph
    result = TeCoRe.from_pack("sports", solver=solver).resolve(graph)
    assert result.removed_facts and result.inferred_facts
    _assert_unindexed(result.consistent_graph, result.expanded_graph)


def test_session_edit_builds_no_result_index():
    session = TeCoRe.from_pack("running-example", solver="nrockit").session(ranieri_graph())
    _assert_unindexed(
        session.result.input_graph, session.result.consistent_graph, session.result.expanded_graph
    )
    result = session.apply(
        removes=[("CR", "coach", "Napoli", (2001, 2003), 0.6)],
        adds=[("CR", "coach", "Leicester", (2015, 2016), 0.97)],
    )
    assert result.delta is not None and result.delta.facts_changed == 2
    _assert_unindexed(result.input_graph, result.consistent_graph, result.expanded_graph)


def test_first_query_builds_indexes_once_and_keeps_them():
    graph = TemporalKnowledgeGraph([("a", "p", "b", (1, 2), 0.5)], name="lazy")
    copy = graph.copy()
    _assert_unindexed(graph, copy)
    assert graph.find() == list(graph)  # an unconstrained scan needs no index
    _assert_unindexed(graph)
    assert len(graph.find(subject="a")) == 1
    indexes = graph._indexes
    assert indexes is not None
    graph.add(("a", "p", "c", (1, 2), 0.5))
    assert graph._indexes is indexes
    assert len(graph.find(subject="a")) == 2
    _assert_unindexed(copy, graph.copy(), graph.without_statements([]))
