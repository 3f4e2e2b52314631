"""Unit tests for the incremental resolution session and its caches."""

import pytest

from repro import TeCoRe
from repro.core import make_solver
from repro.core.session import ComponentSolutionCache, component_content_key
from repro.datasets import ranieri_graph
from repro.kg import TemporalKnowledgeGraph
from repro.logic import ground, running_example_constraints, running_example_rules
from repro.solvers import DecomposedSolver

NAPOLI = ("CR", "coach", "Napoli", (2001, 2003), 0.6)
LEICESTER = ("CR", "coach", "Leicester", (2015, 2016), 0.97)


@pytest.fixture
def system():
    return TeCoRe.from_pack("running-example", solver="nrockit")


class TestSessionLifecycle:
    def test_initial_result_matches_one_shot_resolve(self, system):
        session = system.session(ranieri_graph())
        reference = system.resolve(ranieri_graph())
        assert session.result.objective == reference.objective
        assert {f.statement_key for f in session.result.removed_facts} == {
            f.statement_key for f in reference.removed_facts
        }
        assert session.result.delta is not None
        assert session.result.delta.components_total >= 1
        assert session.result.delta.components_dirty == session.result.delta.components_total

    def test_caller_graph_never_mutated(self, system):
        graph = ranieri_graph()
        size = len(graph)
        session = system.session(graph)
        session.apply(removes=[NAPOLI], adds=[LEICESTER])
        assert len(graph) == size
        assert len(session.graph) == size  # one removed, one added

    def test_apply_reports_delta_statistics(self, system):
        session = system.session(ranieri_graph())
        result = session.apply(removes=[NAPOLI])
        delta = result.delta
        assert delta.facts_removed == 1
        assert delta.facts_added == 0
        assert delta.clauses_retracted >= 1
        assert delta.components_cached > 0  # untouched components reused
        assert delta.components_dirty + delta.components_cached == delta.components_total

    def test_noop_apply_skips_resolution(self, system):
        session = system.session(ranieri_graph())
        hits_before = session.cache.hits
        misses_before = session.cache.misses
        result = session.apply()  # empty edit
        assert result.delta.facts_changed == 0
        assert session.cache.hits == hits_before
        assert session.cache.misses == misses_before
        # Removing an absent statement is also a no-op.
        result = session.apply(removes=[("Nobody", "coach", "Nowhere", (1900, 1901))])
        assert result.delta.facts_changed == 0

    def test_edit_then_revert_hits_cache_everywhere(self, system):
        session = system.session(ranieri_graph())
        session.apply(removes=[NAPOLI])
        result = session.apply(adds=[NAPOLI])
        # The program is back to its initial content: every component was
        # solved before, so nothing is dirty.
        assert result.delta.components_dirty == 0
        assert result.delta.components_cached == result.delta.components_total
        assert result.objective == system.resolve(ranieri_graph()).objective

    def test_apply_renames_result_graph(self, system):
        session = system.session(ranieri_graph())
        result = session.apply(adds=[LEICESTER], graph_name="edited")
        assert result.input_graph.name == "edited"
        result = session.apply(graph_name="same-but-renamed")
        assert result.input_graph.name == "same-but-renamed"

    def test_state_summary_counters(self, system):
        session = system.session(ranieri_graph())
        session.apply(removes=[NAPOLI])
        summary = session.state_summary()
        assert summary["steps"] == 2
        assert summary["cache_entries"] == summary["cache_misses"]
        assert summary["saturated"] == 1


class TestDegradedMode:
    def test_unsaturated_rule_set_served_correctly(self):
        """Rule chains outrunning the fix-point bound degrade gracefully."""
        from repro.logic import RuleBuilder, quad

        predicates = [f"hopS{index}" for index in range(6)]
        rules = [
            RuleBuilder(f"chainS{index}")
            .body(quad("x", source, "y", "t"))
            .head(quad("x", target, "y", "t"))
            .weight(1.2)
            .build()
            for index, (source, target) in enumerate(zip(predicates, predicates[1:]))
        ]
        system = TeCoRe(rules=rules, solver="nrockit", max_rounds=2)
        graph = ranieri_graph()
        base = graph.add(("X", "hopS0", "Y", (2000, 2001), 0.9))
        session = system.session(graph)
        # Force the degraded mode regardless of chain depth.
        session._grounder.fixpoint_rounds = 1
        session._grounder.saturated = False

        result = session.apply(adds=[("X", "hopS2", "Y", (2010, 2011), 0.7)])
        reference_graph = graph.copy()
        reference_graph.add(("X", "hopS2", "Y", (2010, 2011), 0.7))
        reference = system.resolve(reference_graph)
        assert result.objective == reference.objective
        assert result.delta.components_total == 1
        assert result.delta.components_dirty == 1
        # Reverting to a previously seen program hits the whole-program cache.
        session.apply(removes=[("X", "hopS2", "Y", (2010, 2011))])
        result = session.apply(adds=[("X", "hopS2", "Y", (2010, 2011), 0.7)])
        assert result.delta.components_cached == 1
        assert result.objective == reference.objective
        assert base in session.graph


class TestWarmStarts:
    @pytest.mark.parametrize("solver", ["npsl"])
    def test_warm_started_session_stays_feasible(self, solver):
        system = TeCoRe.from_pack("running-example", solver=solver)
        session = system.session(ranieri_graph(), warm_start=True)
        result = session.apply(adds=[LEICESTER])
        assert result.delta.warm_started > 0
        rules, constraints = running_example_rules(), running_example_constraints()
        program = ground(session.graph, rules, constraints).program
        assert program.canonical_signature()  # grounding sane
        assert result.solution.assignment  # solved

    def test_warm_start_keeps_exact_backend_exact(self):
        """``nrockit`` takes no warm start, so a warm session stays exact."""
        cold = TeCoRe.from_pack("running-example", solver="nrockit")
        warm_session = cold.session(ranieri_graph(), warm_start=True)
        warm = warm_session.apply(removes=[NAPOLI])
        graph = ranieri_graph()
        graph.remove(NAPOLI)
        reference = cold.resolve(graph)
        assert warm.delta.warm_started == 0
        assert warm.objective == reference.objective
        assert warm.solution.assignment == reference.solution.assignment

    def test_cold_session_never_warm_starts(self, system):
        session = system.session(ranieri_graph(), warm_start=False)
        result = session.apply(removes=[NAPOLI])
        assert result.delta.warm_started == 0


class TestComponentSolutionCache:
    def test_lru_eviction(self):
        cache = ComponentSolutionCache(max_entries=2)
        cache.put(("a",), "A")
        cache.put(("b",), "B")
        assert cache.get(("a",)) == "A"  # refresh a
        cache.put(("c",), "C")  # evicts b
        assert cache.get(("b",)) is None
        assert cache.get(("a",)) == "A"
        assert cache.get(("c",)) == "C"
        assert len(cache) == 2

    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ValueError):
            ComponentSolutionCache(max_entries=0)

    def test_clear_resets_hit_and_miss_statistics(self):
        # Regression: clear() kept the old counters, skewing the hit rates
        # reported by `tecore watch` summaries and the /stats endpoint.
        cache = ComponentSolutionCache(max_entries=4)
        cache.put(("a",), "A")
        cache.get(("a",))
        cache.get(("missing",))
        assert (cache.hits, cache.misses) == (1, 1)
        cache.clear()
        assert len(cache) == 0
        assert (cache.hits, cache.misses) == (0, 0)

    def test_component_key_tracks_weight_changes(self, system):
        """Bumping a confidence must dirty the containing component."""
        graph = ranieri_graph()
        rules, constraints = running_example_rules(), running_example_constraints()
        key_before = component_content_key(ground(graph, rules, constraints).program)
        bumped = graph.copy()
        bumped.add(("CR", "coach", "Napoli", (2001, 2003), 0.8))  # max-confidence merge
        program_after = ground(bumped, rules, constraints).program
        assert component_content_key(program_after) != key_before


class TestIncrementalBatch:
    def test_incremental_batch_matches_per_graph_resolution(self):
        pack_system = TeCoRe.from_pack("running-example", solver="nrockit")
        base = ranieri_graph()
        variant = base.copy(name="ranieri-edited")
        variant.remove(NAPOLI)
        variant.add(LEICESTER)
        batch = pack_system.resolve_batch(
            [base, variant, base.copy(name="ranieri-back")], incremental=True
        )
        assert len(batch) == 3
        assert [result.input_graph.name for result in batch] == [
            "ranieri",
            "ranieri-edited",
            "ranieri-back",
        ]
        for graph, result in zip([base, variant, base], batch):
            program = pack_system.translate(graph.copy(name=graph.name)).program
            reference = DecomposedSolver(make_solver("nrockit")).solve(program)
            assert result.objective == reference.objective
            assert result.solution.assignment == reference.assignment
        # The edited graph differs by two facts from its predecessor.
        assert batch[1].delta.facts_changed == 2
        assert batch[2].delta.facts_changed == 2

    def test_incremental_batch_confidence_downgrade(self):
        """Lowering a confidence must be served as remove + re-add."""
        system = TeCoRe.from_pack("running-example", solver="nrockit")
        base = ranieri_graph()
        lowered = base.copy(name="ranieri-lowered")
        lowered.remove(NAPOLI)
        lowered.add(("CR", "coach", "Napoli", (2001, 2003), 0.4))
        batch = system.resolve_batch([base, lowered], incremental=True)
        reference = system.resolve(lowered.copy(name="ranieri-lowered"))
        assert batch[1].objective == reference.objective
        assert batch[1].delta.facts_removed == 1
        assert batch[1].delta.facts_added == 1

    @staticmethod
    def _football(seed):
        from repro.datasets import FootballDBConfig, generate_footballdb

        return generate_footballdb(FootballDBConfig(scale=0.02, noise_ratio=0.5, seed=seed)).graph

    @pytest.mark.parametrize("seed", range(3))
    def test_reordered_graph_is_resolved_in_its_own_order(self, seed):
        """The next graph drops five facts and rotates the rest by half."""
        system = TeCoRe.from_pack("sports", solver="nrockit")
        first = self._football(seed)
        facts = first.facts()[5:]
        half = len(facts) // 2
        second = TemporalKnowledgeGraph(facts[half:] + facts[:half], name=f"{first.name}-rotated")
        batch = system.resolve_batch([first, second], incremental=True)
        for graph, result in zip([first, second], batch):
            reference = system.resolve(graph)
            assert result.solution.assignment == reference.solution.assignment
            assert repr(result.objective) == repr(reference.objective)
            assert result.removed_facts == reference.removed_facts
            assert result.inferred_facts == reference.inferred_facts
            assert list(result.input_graph) == list(graph)
            assert result.input_graph.name == graph.name

    def test_append_only_graph_costs_only_its_diff(self):
        system = TeCoRe.from_pack("sports", solver="nrockit")
        first = self._football(7)
        extra = [
            ("NewPlayer1", "playsFor", "NewTeam", (1990, 1994), 0.7),
            ("NewPlayer2", "playsFor", "NewTeam", (1992, 1996), 0.6),
        ]
        second = first.copy(name="appended")
        second.add_all(extra)
        batch = system.resolve_batch([first, second], incremental=True)
        delta = batch[1].delta
        assert (delta.facts_added, delta.facts_removed, delta.facts_updated) == (2, 0, 0)
        reference = system.resolve(second)
        assert batch[1].solution.assignment == reference.solution.assignment
        assert repr(batch[1].objective) == repr(reference.objective)
        assert list(batch[1].input_graph) == list(second)


class TestResultGraphs:
    """Session results build their graphs and conflict table on first read."""

    @staticmethod
    def _session():
        from repro.datasets import FootballDBConfig, generate_footballdb

        system = TeCoRe.from_pack("sports", solver="nrockit")
        graph = generate_footballdb(FootballDBConfig(scale=0.01, noise_ratio=0.5, seed=8)).graph
        return system, system.session(graph)

    def test_an_edit_reply_builds_no_graph(self, monkeypatch):
        from repro.serve.protocol import encode_result

        system, session = self._session()
        built = []
        init = TemporalKnowledgeGraph.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(TemporalKnowledgeGraph, "__init__", counting)
        facts = session.graph.facts()
        result = session.apply(removes=facts[:3])
        payload = encode_result(result)
        assert built == []
        assert payload["violations_by_constraint"] == result.violations.by_constraint()
        assert payload["graph"] == result.input_graph.name == session.graph.name
        assert len(built) == 1  # reading the violations built none; the input graph one

    def test_a_result_keeps_its_graphs_after_later_edits(self):
        system, session = self._session()
        facts = session.graph.facts()
        result = session.apply(removes=facts[:3])
        reference = system.resolve(session.graph.copy(name=session.graph.name))
        for step in range(1, 4):
            session.apply(
                adds=facts[3 * step - 3 : 3 * step], removes=facts[3 * step : 3 * step + 3]
            )
        assert list(result.input_graph) == list(reference.input_graph)
        assert list(result.consistent_graph) == list(reference.consistent_graph)
        assert list(result.expanded_graph) == list(reference.expanded_graph)
        assert list(result.violations) == list(reference.violations)
        assert result.conflicting_facts == reference.conflicting_facts

    def test_concurrent_first_reads_see_whole_graphs(self):
        import sys
        import threading

        system, session = self._session()
        facts = session.graph.facts()
        result = session.apply(removes=facts[:3])
        reference = system.resolve(session.graph.copy(name=session.graph.name))
        expected = (
            list(reference.consistent_graph),
            list(reference.expanded_graph),
            list(reference.violations),
        )
        seen, errors = [], []

        def read():
            try:
                seen.append(
                    (
                        list(result.consistent_graph),
                        list(result.expanded_graph),
                        list(result.violations),
                    )
                )
            except Exception as error:  # reported by the assertion below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read) for _ in range(8)]
            for thread in threads:
                thread.start()
            session.apply(adds=facts[:3], removes=facts[3:6])  # the next apply, meanwhile
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert seen == [expected] * 8
