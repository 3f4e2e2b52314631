"""Pass 4: hard-conflict analysis — E401/W402, purely static.

The acceptance property here is that the PR-4 ``repair_hard`` ping-pong
class is flagged *before* any grounding: the tests poison the grounder and
solver entry points, so an analyzer that reached for either would fail.
"""

from __future__ import annotations

import pytest

import repro.core.registry as registry
import repro.logic.vectorized as vectorized

from analysis_helpers import codes_of, lint

PINGPONG = """\
keepCoach: quad(x, coach, y, t) -> quad(x, headCoach, y, t) w=inf

noHead: quad(x, headCoach, y, t) & quad(x, coach, y, t2) & equals(t, t2) -> before(t, t2)
"""


@pytest.fixture
def no_grounder_no_solver(monkeypatch):
    def _poisoned(*_args, **_kwargs):  # pragma: no cover - must never run
        raise AssertionError("static analysis must not ground or solve")

    monkeypatch.setattr(vectorized.VectorizedGrounder, "__init__", _poisoned)
    monkeypatch.setattr(registry, "solve_map", _poisoned)


class TestInfeasibleHardCore:
    def test_e401_flags_the_pingpong_class_statically(self, no_grounder_no_solver):
        report = lint(PINGPONG)
        flagged = [f for f in report if f.code == "E401"]
        assert len(flagged) == 1
        assert flagged[0].statement == "keepCoach"
        assert flagged[0].span is not None
        assert "soften" in flagged[0].hint

    def test_e401_requires_both_sides_hard(self):
        soft_rule = PINGPONG.replace("w=inf", "w=2.0")
        assert "E401" not in codes_of(lint(soft_rule))

    def test_e401_not_raised_when_the_constraint_needs_outside_facts(self):
        # The constraint's second atom (playsFor) cannot be supplied by the
        # rule's own firing, so infeasibility is not a static certainty.
        program = """\
keepCoach: quad(x, coach, y, t) -> quad(x, headCoach, y, t) w=inf

ordered: quad(x, headCoach, y, t) & quad(x, playsFor, y, t2) -> before(t2, t)
"""
        report = lint(program)
        assert "E401" not in codes_of(report)
        # ...but the opposite-polarity coupling itself is still reported.
        assert "W402" in codes_of(report)


class TestHardCoupling:
    def test_w402_hard_rule_feeding_hard_constraint(self):
        program = """\
promote: quad(x, assistant, y, t) -> quad(x, headCoach, y, t) w=inf

oneHead: quad(x, headCoach, y, t) & quad(z, headCoach, y, t2) & x != z -> disjoint(t, t2)
"""
        report = lint(program)
        assert "W402" in codes_of(report)

    def test_w402_counts_variable_predicates_conservatively(self):
        program = """\
promote: quad(x, assistant, y, t) -> quad(x, headCoach, y, t) w=inf

generic: quad(x, p, y, t) & quad(z, p, y, t2) & x != z -> disjoint(t, t2)
"""
        assert "W402" in codes_of(lint(program))

    def test_no_coupling_between_soft_statements(self):
        program = """\
promote: quad(x, assistant, y, t) -> quad(x, headCoach, y, t) w=1.5

oneHead: quad(x, headCoach, y, t) & quad(z, headCoach, y, t2) & x != z -> disjoint(t, t2)
"""
        report = lint(program)
        assert not {"E401", "W402"} & set(codes_of(report))

    def test_w402_suppressed_when_e401_fires_for_the_pair(self):
        report = lint(PINGPONG)
        assert "W402" not in codes_of(report)
