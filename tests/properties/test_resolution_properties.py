"""Property-based tests on the end-to-end resolution invariants.

Whatever the input career graph looks like, a TeCoRe repair must satisfy:

* the consistent graph is a subset of the input (evidence is never invented);
* the consistent graph violates no hard constraint;
* removed ∪ kept partitions the input facts;
* removing the removed facts is *necessary*: every reported hard violation
  involves at least one removed fact.
"""

from hypothesis import example, given, settings, strategies as st

from repro import TeCoRe
from repro.kg import TemporalKnowledgeGraph, make_fact
from repro.logic import find_conflicts, running_example_constraints
from repro.temporal import TimeInterval

_clubs = ("Chelsea", "Napoli", "Leicester", "Juventus", "Valencia")

_spells = st.lists(
    st.tuples(
        st.sampled_from(_clubs),
        st.integers(min_value=1980, max_value=2015),
        st.integers(min_value=0, max_value=6),
        st.floats(min_value=0.1, max_value=0.99, allow_nan=False),
    ),
    min_size=0,
    max_size=8,
)

_people = st.sampled_from(["CR", "JM", "PG"])


def _build_graph(person, spells):
    graph = TemporalKnowledgeGraph(name="prop")
    for club, start, length, confidence in spells:
        graph.add(
            make_fact(
                person, "coach", club, TimeInterval(start, start + length), round(confidence, 2)
            )
        )
    return graph


class TestResolutionInvariants:
    @given(_people, _spells)
    @settings(max_examples=40, deadline=None)
    def test_repair_invariants_mln(self, person, spells):
        graph = _build_graph(person, spells)
        system = TeCoRe(constraints=running_example_constraints(), solver="nrockit")
        result = system.resolve(graph) if len(graph) else None
        if result is None:
            return
        input_keys = {fact.statement_key for fact in graph}
        kept_keys = {fact.statement_key for fact in result.consistent_graph}
        removed_keys = {fact.statement_key for fact in result.removed_facts}
        # Partition of the evidence.
        assert kept_keys | removed_keys == input_keys
        assert not (kept_keys & removed_keys)
        # No hard violations remain in the repaired graph.
        remaining = [
            violation
            for violation in find_conflicts(result.consistent_graph, running_example_constraints())
            if violation.is_hard
        ]
        assert remaining == []
        # Every removal is justified: either the fact participates in a
        # reported violation, or its confidence is below 0.5 (negative
        # log-odds), in which case the MLN's most probable world drops it
        # regardless of conflicts.
        facts_in_violations = {
            fact.statement_key for violation in result.violations for fact in violation.facts
        }
        low_confidence = {fact.statement_key for fact in graph if fact.confidence < 0.5}
        assert removed_keys <= (facts_in_violations | low_confidence)

    @given(_people, _spells)
    @settings(max_examples=25, deadline=None)
    # ADMM leaves each pair of equally confident conflicting facts just under
    # 0.5; rounding must put one of them back (objectives 1.588 and 2.753).
    @example(
        "CR",
        [("Chelsea", 1980, 1, 0.83), ("Napoli", 1981, 0, 0.83), ("Chelsea", 1980, 0, 0.5)],
    )
    @example("CR", [("Chelsea", 1980, 0, 0.9375), ("Napoli", 1980, 0, 0.9375)])
    def test_mln_and_psl_objectives_are_close(self, person, spells):
        graph = _build_graph(person, spells)
        if not len(graph):
            return
        mln = TeCoRe(constraints=running_example_constraints(), solver="nrockit").resolve(graph)
        psl = TeCoRe(constraints=running_example_constraints(), solver="npsl").resolve(graph)
        assert psl.objective <= mln.objective + 1e-6
        assert psl.objective >= mln.objective - max(1.0, 0.05 * abs(mln.objective))
