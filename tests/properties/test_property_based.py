"""Property-based tests (hypothesis) on core data structures and invariants."""

from hypothesis import given, settings, strategies as st

from repro.kg import TemporalKnowledgeGraph, make_fact
from repro.logic import ClauseKind, GroundProgram, constraint_c2, find_conflicts
from repro.mln import ILPMapSolver
from repro.psl import ADMMSolver
from repro.temporal import (
    ALL_RELATIONS,
    TimeInterval,
    coalesce_intervals,
    relation_between,
    total_coverage,
)

# --------------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------------- #
intervals = st.tuples(
    st.integers(min_value=0, max_value=60), st.integers(min_value=0, max_value=25)
).map(lambda pair: TimeInterval(pair[0], pair[0] + pair[1]))

interval_lists = st.lists(intervals, min_size=0, max_size=12)

confidences = st.floats(min_value=0.05, max_value=1.0, allow_nan=False)


class TestIntervalProperties:
    @given(intervals, intervals)
    def test_exactly_one_allen_relation(self, a, b):
        holding = [relation for relation in ALL_RELATIONS if relation.holds(a, b)]
        assert len(holding) == 1

    @given(intervals, intervals)
    def test_relation_inverse_symmetry(self, a, b):
        assert relation_between(a, b).inverse is relation_between(b, a)

    @given(intervals, intervals)
    def test_overlap_symmetry_and_intersection(self, a, b):
        assert a.overlaps(b) == b.overlaps(a)
        intersection = a.intersect(b)
        if a.overlaps(b):
            assert intersection is not None
            assert intersection.duration <= min(a.duration, b.duration)
            assert a.contains(intersection) and b.contains(intersection)
        else:
            assert intersection is None

    @given(intervals, intervals)
    def test_span_contains_both(self, a, b):
        span = a.span(b)
        assert span.contains(a) and span.contains(b)

    @given(intervals, intervals)
    def test_minus_disjoint_from_subtrahend(self, a, b):
        for piece in a.minus(b):
            assert a.contains(piece)
            assert piece.disjoint(b)

    @given(interval_lists)
    def test_coalesce_preserves_coverage(self, items):
        merged = coalesce_intervals(items)
        original_points = {point for interval in items for point in interval}
        merged_points = {point for interval in merged for point in interval}
        assert merged_points == original_points
        # Merged intervals are pairwise disjoint and non-adjacent.
        for first, second in zip(merged, merged[1:]):
            assert first.end + 1 < second.start

    @given(interval_lists)
    def test_total_coverage_equals_distinct_points(self, items):
        assert total_coverage(items) == len({point for interval in items for point in interval})


class TestGraphProperties:
    @given(
        st.lists(
            st.tuples(
                st.sampled_from("abcd"),
                st.sampled_from("pq"),
                st.sampled_from("xyz"),
                intervals,
                confidences,
            ),
            min_size=0,
            max_size=20,
        )
    )
    def test_graph_deduplicates_statements(self, rows):
        graph = TemporalKnowledgeGraph()
        facts = [make_fact(s, f"rel{p}", o, interval, c) for s, p, o, interval, c in rows]
        graph.add_all(facts)
        assert len(graph) == len({fact.statement_key for fact in facts})
        # Stored confidence is the maximum seen per statement.
        best = {}
        for fact in facts:
            best[fact.statement_key] = max(best.get(fact.statement_key, 0.0), fact.confidence)
        for fact in graph:
            assert fact.confidence == best[fact.statement_key]


class TestConflictProperties:
    @given(
        st.lists(
            st.tuples(st.sampled_from(["A", "B", "C"]), intervals, confidences),
            min_size=0,
            max_size=8,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_c2_violations_match_pairwise_overlap_count(self, spells):
        graph = TemporalKnowledgeGraph()
        facts = []
        for club, interval, confidence in spells:
            fact = make_fact("CR", "coach", club, interval, confidence)
            if fact not in graph:
                graph.add(fact)
                facts.append(fact)
        violations = find_conflicts(graph, [constraint_c2()])
        expected = 0
        for i, first in enumerate(facts):
            for second in facts[i + 1:]:
                if first.object != second.object and first.interval.overlaps(second.interval):
                    expected += 1
        assert len(violations) == expected


def _random_program(draw_data):
    """Build a small random ground program with conflicts."""
    program = GroundProgram()
    atoms = []
    for index, confidence in enumerate(draw_data["confidences"]):
        atom = program.add_atom(
            make_fact(f"s{index}", "rel", f"o{index}", (1, 2), confidence), is_evidence=True
        )
        atoms.append(atom)
        program.add_clause([(atom.index, True)], atom.fact.log_weight, ClauseKind.EVIDENCE, "e")
    for first, second in draw_data["conflicts"]:
        if first != second:
            program.add_clause(
                [(atoms[first].index, False), (atoms[second].index, False)],
                None,
                ClauseKind.CONSTRAINT,
                "c",
            )
    return program


program_data = st.fixed_dictionaries(
    {
        "confidences": st.lists(st.floats(min_value=0.1, max_value=0.99), min_size=2, max_size=7),
        "conflicts": st.lists(
            st.tuples(st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=6)),
            min_size=0,
            max_size=8,
        ),
    }
).filter(
    lambda data: all(
        i < len(data["confidences"]) and j < len(data["confidences"]) for i, j in data["conflicts"]
    )
)


class TestSolverProperties:
    @given(program_data)
    @settings(max_examples=25, deadline=None)
    def test_exact_map_is_feasible_and_dominates_heuristics(self, data):
        program = _random_program(data)
        exact = ILPMapSolver().solve(program)
        assert program.is_feasible(exact.assignment)
        # npsl, the approximate back-end, as the heuristic.
        heuristic = ADMMSolver(max_iterations=200).solve(program)
        assert program.is_feasible(heuristic.assignment)
        assert exact.objective >= heuristic.objective - 1e-6

    @given(program_data)
    @settings(max_examples=25, deadline=None)
    def test_psl_rounding_is_feasible(self, data):
        program = _random_program(data)
        solution = ADMMSolver(max_iterations=200).solve(program)
        assert program.is_feasible(solution.assignment)
        assert all(0.0 <= value <= 1.0 for value in solution.truth_values)

    @given(program_data)
    @settings(max_examples=25, deadline=None)
    def test_map_objective_never_exceeds_total_soft_weight(self, data):
        program = _random_program(data)
        solution = ILPMapSolver().solve(program)
        assert solution.objective <= program.max_soft_weight() + 1e-9
