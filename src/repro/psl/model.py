"""PSL programs (template level) — the nPSL front of TeCoRe.

PSL restricts "the expressivity of the rules and constraints" to gain
scalability: rules must have conjunctive bodies (which every
:class:`~repro.logic.rule.TemporalRule` has by construction) and formulas are
interpreted over soft truth values.  The temporal/numerical extension the
paper calls **nPSL** is the ability to evaluate Allen and arithmetic
conditions during grounding — shared with the MLN path through
:mod:`repro.logic.grounding`.

This module mirrors :mod:`repro.mln.model` at the template level and performs
the PSL-specific expressivity validation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from ..errors import ExpressivityError
from ..kg import TemporalKnowledgeGraph
from ..logic import DEFAULT_ENGINE, GroundingResult, TemporalConstraint, TemporalRule, make_grounder
from ..solvers import PSL_CAPABILITIES, check_expressivity


@dataclass
class PSLProgram:
    """A template PSL program: rules + constraints with PSL's restrictions."""

    rules: list[TemporalRule] = field(default_factory=list)
    constraints: list[TemporalConstraint] = field(default_factory=list)
    max_rounds: int = 5
    squared_hinges: bool = False

    # ------------------------------------------------------------------ #
    def add_rule(self, rule: TemporalRule) -> "PSLProgram":
        self._validate_rule(rule)
        self.rules.append(rule)
        return self

    def add_constraint(self, constraint: TemporalConstraint) -> "PSLProgram":
        self.constraints.append(constraint)
        return self

    def extend(
        self,
        rules: Iterable[TemporalRule] = (),
        constraints: Iterable[TemporalConstraint] = (),
    ) -> "PSLProgram":
        for rule in rules:
            self.add_rule(rule)
        for constraint in constraints:
            self.add_constraint(constraint)
        return self

    @property
    def num_formulas(self) -> int:
        return len(self.rules) + len(self.constraints)

    # ------------------------------------------------------------------ #
    def _validate_rule(self, rule: TemporalRule) -> None:
        """PSL rules must have conjunctive bodies and a single head atom.

        ``TemporalRule`` already guarantees this structurally, so the check
        mostly guards against future extensions (e.g. disjunctive heads).
        """
        if not rule.body:
            raise ExpressivityError(f"PSL rule {rule.name} must have a non-empty body")

    def ground(self, graph: TemporalKnowledgeGraph) -> GroundingResult:
        """Ground against the evidence UTKG and verify PSL expressivity."""
        result = make_grounder(
            DEFAULT_ENGINE, graph, self.rules, self.constraints, max_rounds=self.max_rounds
        ).ground()
        check_expressivity(result.program, PSL_CAPABILITIES)
        return result

    def __repr__(self) -> str:
        return f"PSLProgram(rules={len(self.rules)}, constraints={len(self.constraints)})"
