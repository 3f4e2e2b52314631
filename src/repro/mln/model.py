"""Markov Logic Networks with numerical constraints (template level).

An MLN is a set of weighted first-order formulas; together with a set of
constants it defines a ground Markov network whose log-linear distribution is

    P(X = x) = Z⁻¹ · exp( Σᵢ wᵢ nᵢ(x) )

where ``nᵢ(x)`` counts the true groundings of formula ``Fᵢ`` in world ``x``.
In TeCoRe the formulas are the evidence facts (unit formulas weighted by their
log-odds), the temporal inference rules, and the temporal constraints
(numerical constraints per Chekol et al., ECAI 2016).

The heavy lifting — grounding and MAP — lives in :mod:`repro.logic.grounding`
and :mod:`repro.mln.solvers`; this module is the template-level container that
mirrors the role of an ``.mln`` input file for nRockIt.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from ..kg import TemporalKnowledgeGraph
from ..logic import (
    DEFAULT_ENGINE,
    GroundProgram,
    GroundingResult,
    TemporalConstraint,
    TemporalRule,
    make_grounder,
)


@dataclass(frozen=True, slots=True)
class WeightedFormula:
    """One template formula of the MLN, in display form."""

    text: str
    weight: Optional[float]
    kind: str

    def __str__(self) -> str:
        weight = "∞" if self.weight is None else f"{self.weight:g}"
        return f"{weight}  {self.text}"


@dataclass
class MarkovLogicNetwork:
    """A template MLN: inference rules + constraints (+ the evidence model).

    Parameters
    ----------
    rules, constraints:
        The weighted first-order formulas.
    max_rounds:
        Forward-chaining bound handed to the grounder.
    """

    rules: list[TemporalRule] = field(default_factory=list)
    constraints: list[TemporalConstraint] = field(default_factory=list)
    max_rounds: int = 5

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    def add_rule(self, rule: TemporalRule) -> "MarkovLogicNetwork":
        self.rules.append(rule)
        return self

    def add_constraint(self, constraint: TemporalConstraint) -> "MarkovLogicNetwork":
        self.constraints.append(constraint)
        return self

    def extend(
        self,
        rules: Iterable[TemporalRule] = (),
        constraints: Iterable[TemporalConstraint] = (),
    ) -> "MarkovLogicNetwork":
        self.rules.extend(rules)
        self.constraints.extend(constraints)
        return self

    # ------------------------------------------------------------------ #
    # Views
    # ------------------------------------------------------------------ #
    @property
    def num_formulas(self) -> int:
        return len(self.rules) + len(self.constraints)

    def formulas(self) -> list[WeightedFormula]:
        """Template formulas in display form (the nRockIt-style program listing)."""
        listing = [WeightedFormula(str(rule), rule.weight, "rule") for rule in self.rules]
        listing += [
            WeightedFormula(str(constraint), constraint.weight, "constraint")
            for constraint in self.constraints
        ]
        return listing

    def hard_formulas(self) -> list[WeightedFormula]:
        return [formula for formula in self.formulas() if formula.weight is None]

    def soft_formulas(self) -> list[WeightedFormula]:
        return [formula for formula in self.formulas() if formula.weight is not None]

    # ------------------------------------------------------------------ #
    # Grounding and scoring
    # ------------------------------------------------------------------ #
    def ground(self, graph: TemporalKnowledgeGraph) -> GroundingResult:
        """Ground this MLN against the evidence UTKG."""
        return make_grounder(
            DEFAULT_ENGINE, graph, self.rules, self.constraints, max_rounds=self.max_rounds
        ).ground()

    def log_potential(self, program: GroundProgram, assignment: Sequence[bool]) -> float:
        """The unnormalised log-probability ``Σᵢ wᵢ nᵢ(x)`` of a world.

        Hard clauses contribute ``-inf`` when violated (zero probability).
        """
        if not program.is_feasible(assignment):
            return -math.inf
        return program.objective(assignment)

    def world_probability_ratio(
        self,
        program: GroundProgram,
        first: Sequence[bool],
        second: Sequence[bool],
    ) -> float:
        """``P(first) / P(second)`` — the partition function cancels out."""
        first_potential = self.log_potential(program, first)
        second_potential = self.log_potential(program, second)
        if second_potential == -math.inf:
            return math.inf if first_potential > -math.inf else 1.0
        return math.exp(first_potential - second_potential)

    def __repr__(self) -> str:
        return (
            f"MarkovLogicNetwork(rules={len(self.rules)}, " f"constraints={len(self.constraints)})"
        )
