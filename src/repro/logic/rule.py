"""Temporal inference rules.

A temporal inference rule has the form ``Body ∧ [Condition] → Head`` (paper,
Section 2): the body is a conjunction of quad atoms, the optional condition
embeds Allen relations and arithmetic predicates, and the head is a quad atom
whose interval may be computed from the body intervals (e.g. ``t'' = t ∩ t'``
in rule f2).  A weight quantifies how strongly the rule should be enforced;
``None`` marks a hard rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..errors import UnsafeRuleError
from ..kg.triple import check_confidence
from ..temporal import IntervalExpression, TimeInterval
from .atom import ConditionAtom, QuadAtom
from .substitution import Substitution
from .terms import Variable


@dataclass(frozen=True, slots=True)
class TemporalRule:
    """A weighted temporal inference rule ``Body ∧ [Condition] → Head``.

    Attributes
    ----------
    name:
        Identifier used in reports (``f1``, ``f2`` ...).
    body:
        Conjunction of quad atoms matched against the graph.
    head:
        The derived quad atom.
    conditions:
        Optional condition atoms (Allen relations, comparisons, equalities).
    weight:
        Rule weight; ``None`` means the rule is hard (always enforced).
    head_interval:
        Optional interval expression for the head (e.g. ``t ∩ t'``); when
        absent, the head atom's own interval position is used.
    derived_confidence:
        Confidence assigned to facts derived by this rule (the MAP objective
        also accounts for the rule weight itself).  Checked on construction
        as a fact's confidence is: a number in ``(0, 1]``.
    """

    name: str
    body: tuple[QuadAtom, ...]
    head: QuadAtom
    conditions: tuple[ConditionAtom, ...] = field(default_factory=tuple)
    weight: Optional[float] = 1.0
    head_interval: Optional[IntervalExpression] = None
    derived_confidence: float = 0.9

    def __post_init__(self) -> None:
        if not self.body:
            raise UnsafeRuleError(f"rule {self.name}: body must contain at least one atom")
        check_confidence(self.derived_confidence, owner=f"rule {self.name}: derived ")
        self.validate_safety()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def is_hard(self) -> bool:
        """True when the rule must hold in every admissible world."""
        return self.weight is None

    def body_variables(self) -> set[Variable]:
        variables: set[Variable] = set()
        for atom in self.body:
            variables |= atom.variables()
        return variables

    def head_variables(self) -> set[Variable]:
        variables = set(self.head.entity_variables())
        interval_variable = self.head.interval_variable()
        if interval_variable is not None and self.head_interval is None:
            variables.add(interval_variable)
        return variables

    def condition_variables(self) -> set[Variable]:
        variables: set[Variable] = set()
        for condition in self.conditions:
            variables |= condition.variables()
        return variables

    def predicates(self) -> set[str]:
        """Constant predicates mentioned anywhere in the rule (for indexing)."""
        names: set[str] = set()
        for atom in (*self.body, self.head):
            if not isinstance(atom.predicate, Variable):
                names.add(atom.predicate.value)
        return names

    def validate_safety(self) -> None:
        """Every head/condition variable must occur in the body (range restriction)."""
        body_vars = self.body_variables()
        unsafe_head = self.head_variables() - body_vars
        if unsafe_head:
            names = ", ".join(sorted(variable.name for variable in unsafe_head))
            raise UnsafeRuleError(
                f"rule {self.name}: head variable(s) {names} do not appear in the body"
            )
        unsafe_condition = self.condition_variables() - body_vars
        if unsafe_condition:
            names = ", ".join(sorted(variable.name for variable in unsafe_condition))
            raise UnsafeRuleError(
                f"rule {self.name}: condition variable(s) {names} do not appear in the body"
            )

    # ------------------------------------------------------------------ #
    # Head instantiation
    # ------------------------------------------------------------------ #
    def head_interval_for(self, substitution: Substitution) -> Optional[TimeInterval]:
        """Compute the head interval under ``substitution``.

        Resolution order: the explicit ``head_interval`` expression, then the
        head atom's interval position (variable bound by the body, or a fixed
        interval).  Returns ``None`` when the expression is undefined (e.g.
        an empty intersection), in which case no fact is derived.
        """
        if self.head_interval is not None:
            return self.head_interval.evaluate(substitution.intervals())
        interval_variable = self.head.interval_variable()
        if interval_variable is not None:
            return substitution.interval(interval_variable)
        interval = self.head.interval
        return interval if isinstance(interval, TimeInterval) else None

    def __str__(self) -> str:
        body = " ∧ ".join(str(atom) for atom in self.body)
        if self.conditions:
            body += " ∧ " + " ∧ ".join(str(condition) for condition in self.conditions)
        weight = "∞" if self.weight is None else f"{self.weight:g}"
        return f"{self.name}: {body} → {self.head}  [w={weight}]"
