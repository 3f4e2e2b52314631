"""Unit tests for the TeCoRe facade, translator, registry and threshold filter."""

import pytest

from repro import TeCoRe, TecoreError, resolve
from repro.core import (
    ThresholdFilter,
    TecoreTranslator,
    available_solvers,
    detect_conflicts,
    make_solver,
    solver_family,
    sweep_thresholds,
)
from repro.errors import SolverNotAvailableError
from repro.kg import make_fact
from repro.logic import running_example_constraints, running_example_rules


class TestRegistry:
    def test_paper_solvers_registered(self):
        names = available_solvers()
        assert "nrockit" in names
        assert "npsl" in names

    def test_solver_families(self):
        assert solver_family("nrockit") == "mln"
        assert solver_family("npsl") == "psl"
        with pytest.raises(SolverNotAvailableError):
            solver_family("prolog")

    def test_make_solver_with_options(self):
        solver = make_solver("nrockit", time_limit=5.0)
        assert solver.time_limit == 5.0

    def test_unknown_solver(self):
        with pytest.raises(SolverNotAvailableError):
            make_solver("alchemy")


class TestTranslator:
    def test_translate_produces_listings(self, ranieri):
        translator = TecoreTranslator()
        translated = translator.translate(
            ranieri, running_example_rules(), running_example_constraints(), solver="nrockit"
        )
        assert translated.family == "mln"
        template = translated.template_listing()
        assert "f1" in template and "c2" in template
        ground_listing = translated.ground_listing(limit=3)
        assert "ground atoms" in ground_listing
        evidence = translated.evidence_listing(limit=2)
        assert "more atoms" in evidence

    def test_summary_includes_template_counts(self, ranieri):
        translated = TecoreTranslator().translate(
            ranieri, running_example_rules(), running_example_constraints(), solver="npsl"
        )
        summary = translated.summary()
        assert summary["rule_templates"] == 3
        assert summary["constraint_templates"] == 3
        assert summary["atoms"] == translated.program.num_atoms

    def test_detect_conflicts_does_not_derive(self, ranieri):
        result = TecoreTranslator().detect_conflicts(ranieri, running_example_constraints())
        assert result.program.derived_atoms() == []
        assert len(result.violations) == 1


class TestTeCoReFacade:
    def test_from_pack_and_from_text_equivalent(self, ranieri):
        from_pack = TeCoRe.from_pack("running-example").resolve(ranieri)
        text = """
        f1: quad(x, playsFor, y, t) -> quad(x, worksFor, y, t) w=2.5
        c2: quad(x, coach, y, t) & quad(x, coach, z, t2) & y != z -> disjoint(t, t2)
        """
        from_text = TeCoRe.from_text(text).resolve(ranieri)
        assert {str(f.object) for f in from_pack.removed_facts} == {
            str(f.object) for f in from_text.removed_facts
        }

    def test_with_solver_copies_configuration(self):
        system = TeCoRe.from_pack("running-example", solver="nrockit", threshold=0.5)
        other = system.with_solver("npsl")
        assert other.solver == "npsl"
        assert other.threshold == 0.5
        assert len(other.rules) == len(system.rules)

    @pytest.mark.parametrize(
        "old, options, new",
        [("nrockit", {"time_limit": 5.0}, "npsl"), ("npsl", {"rho": 2.0}, "nrockit")],
    )
    def test_with_solver_drops_the_old_back_ends_options(self, ranieri, old, options, new):
        system = TeCoRe.from_pack("running-example", solver=old, solver_options=options)
        other = system.with_solver(new)
        assert other.solver_options == {}
        assert {str(fact.object) for fact in other.resolve(ranieri).removed_facts} == {"Napoli"}

    def test_with_solver_takes_exactly_the_given_options(self):
        system = TeCoRe.from_pack("running-example", solver="npsl", solver_options={"rho": 2.0})
        other = system.with_solver("nrockit", time_limit=5.0)
        assert other.solver_options == {"time_limit": 5.0}
        assert system.solver_options == {"rho": 2.0}

    def test_add_rule_and_constraint(self):
        system = TeCoRe()
        system.add_rule(running_example_rules()[0])
        system.add_constraint(running_example_constraints()[1])
        assert len(system.rules) == 1
        assert len(system.constraints) == 1

    def test_expand_applies_rules_only(self, ranieri):
        system = TeCoRe.from_pack("running-example")
        expanded = system.expand(ranieri)
        assert len(expanded) == len(ranieri) + 1  # the worksFor fact
        # expand() must not remove the conflicting Napoli fact.
        assert any(str(fact.object) == "Napoli" for fact in expanded)

    def test_detect_conflicts_endpoint(self, ranieri):
        system = TeCoRe.from_pack("running-example")
        violations = system.detect_conflicts(ranieri)
        assert len(violations) == 1

    def test_module_level_resolve(self, ranieri):
        result = resolve(
            ranieri,
            rules=running_example_rules(),
            constraints=running_example_constraints(),
            solver="npsl",
        )
        assert result.statistics.removed_facts == 1

    def test_module_level_detect(self, ranieri):
        assert len(detect_conflicts(ranieri, running_example_constraints())) == 1

    def test_solver_options_forwarded(self, ranieri):
        system = TeCoRe.from_pack(
            "running-example", solver="npsl", solver_options={"rho": 2.0, "max_iterations": 300}
        )
        result = system.resolve(ranieri)
        assert result.statistics.removed_facts == 1

    def test_result_as_dict_serialisable(self, ranieri):
        import json

        result = TeCoRe.from_pack("running-example").resolve(ranieri)
        text = json.dumps(result.as_dict())
        assert "Napoli" in text

    def test_kept_and_removed_predicates(self, ranieri):
        result = TeCoRe.from_pack("running-example").resolve(ranieri)
        napoli = next(fact for fact in ranieri if str(fact.object) == "Napoli")
        chelsea = next(fact for fact in ranieri if str(fact.object) == "Chelsea")
        assert result.removed(napoli)
        assert result.kept(chelsea)
        assert not result.kept(napoli)


class TestThreshold:
    def test_filter_accepts_everything_when_unset(self):
        filter_ = ThresholdFilter(None)
        assert filter_.accepts(make_fact("a", "p", "b", (1, 2), 0.01))

    def test_filter_split(self):
        facts = [make_fact("a", "p", "b", (1, 2), 0.3), make_fact("a", "p", "c", (1, 2), 0.9)]
        accepted, rejected = ThresholdFilter(0.5).split(facts)
        assert len(accepted) == 1 and len(rejected) == 1

    def test_invalid_threshold(self):
        with pytest.raises(TecoreError):
            ThresholdFilter(1.5)

    def test_sweep(self):
        facts = [make_fact("a", "p", str(i), (1, 2), c) for i, c in enumerate((0.2, 0.5, 0.9))]
        sweep = sweep_thresholds(facts, [0.0, 0.4, 0.6, 1.0])
        assert sweep == [(0.0, 3), (0.4, 2), (0.6, 1), (1.0, 0)]

    def test_threshold_filters_derived_facts_in_resolution(self, ranieri):
        # Derived facts carry confidence 0.9 by default; a 0.95 threshold drops them.
        strict = TeCoRe.from_pack("running-example", threshold=0.95).resolve(ranieri)
        assert strict.statistics.inferred_facts == 0
        assert strict.statistics.inferred_below_threshold >= 1
        relaxed = TeCoRe.from_pack("running-example", threshold=0.5).resolve(ranieri)
        assert relaxed.statistics.inferred_facts >= 1
