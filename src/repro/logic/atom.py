"""Atoms of the temporal first-order language.

Three families of atoms appear in TeCoRe rules and constraints:

* :class:`QuadAtom` — ``quad(x, playsFor, y, t)``: a temporal fact pattern
  that matches evidence (or derived) facts in the UTKG;
* condition atoms evaluated over a substitution:
  * :class:`AllenAtom` — ``overlaps(t, t')``, ``before(t, t')`` …;
  * :class:`Comparison` — ``start(t) - start(t') < 20``, ``age > 40`` …;
  * :class:`TermEquality` — ``y = z`` / ``y ≠ z``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from ..errors import InvalidFactError, LogicError
from ..kg import IRI, Literal, TemporalFact, Term
from ..temporal import CONSTRAINT_PREDICATES, TimeInterval, compare
from .expressions import Expression
from .substitution import Substitution
from .terms import IntervalOrVar, TermOrVar, Variable


# --------------------------------------------------------------------------- #
# Quad atoms
# --------------------------------------------------------------------------- #
@dataclass(frozen=True, slots=True)
class QuadAtom:
    """A temporal fact pattern ``quad(subject, predicate, object, interval)``.

    The predicate is almost always a constant (as in every example of the
    paper), but a variable predicate is allowed for meta-rules.
    """

    subject: TermOrVar
    predicate: Union[IRI, Variable]
    object: TermOrVar
    interval: IntervalOrVar

    def variables(self) -> set[Variable]:
        """All variables appearing in the atom."""
        return {
            position
            for position in (self.subject, self.predicate, self.object, self.interval)
            if isinstance(position, Variable)
        }

    def entity_variables(self) -> set[Variable]:
        """Variables in subject/predicate/object position."""
        return {
            position
            for position in (self.subject, self.predicate, self.object)
            if isinstance(position, Variable)
        }

    def interval_variable(self) -> Optional[Variable]:
        """The interval variable, when the interval position is a variable."""
        return self.interval if isinstance(self.interval, Variable) else None

    def is_ground(self) -> bool:
        """True when the atom contains no variables."""
        return not self.variables()

    # ------------------------------------------------------------------ #
    # Matching
    # ------------------------------------------------------------------ #
    def match(self, fact: TemporalFact, substitution: Substitution) -> Optional[Substitution]:
        """Try to unify the atom with ``fact`` under ``substitution``.

        Returns the extended substitution, or ``None`` when the fact does not
        match.
        """
        result: Optional[Substitution] = substitution
        for position, value in (
            (self.subject, fact.subject),
            (self.predicate, fact.predicate),
            (self.object, fact.object),
        ):
            if isinstance(position, Variable):
                result = result.bind(position, value)
                if result is None:
                    return None
            elif position != value:
                return None
        if isinstance(self.interval, Variable):
            result = result.bind(self.interval, fact.interval)
        elif self.interval != fact.interval:
            return None
        return result

    def bound_pattern(
        self, substitution: Substitution
    ) -> tuple[Optional[Term], Optional[IRI], Optional[Term]]:
        """The (subject, predicate, object) lookup pattern under ``substitution``.

        Positions still unbound come back as ``None`` (wildcards for the graph
        index lookup); the grounding engine uses this to query only matching
        candidate facts instead of scanning the whole graph.
        """
        def resolve(position: TermOrVar) -> Optional[Term]:
            if isinstance(position, Variable):
                return substitution.term(position)
            return position

        subject = resolve(self.subject)
        predicate = resolve(self.predicate)
        obj = resolve(self.object)
        if predicate is not None and not isinstance(predicate, IRI):
            raise LogicError(f"predicate position bound to non-IRI value {predicate!r}")
        return subject, predicate, obj

    def instantiate(
        self,
        substitution: Substitution,
        interval: Optional[TimeInterval] = None,
        confidence: float = 1.0,
    ) -> TemporalFact:
        """Build the temporal fact denoted by the atom under ``substitution``.

        ``interval`` overrides the atom's interval position (used when a rule
        head carries an interval expression such as ``t ∩ t'``).
        """
        def resolve_term(position: TermOrVar, role: str) -> Term:
            if isinstance(position, Variable):
                value = substitution.get(position)
                if value is None or isinstance(value, TimeInterval):
                    raise LogicError(
                        f"{role} variable {position} is unbound or bound to an interval"
                    )
                return value
            return position

        subject = resolve_term(self.subject, "subject")
        predicate = resolve_term(self.predicate, "predicate")
        obj = resolve_term(self.object, "object")
        if not isinstance(predicate, IRI):
            raise LogicError(f"predicate resolved to non-IRI value {predicate!r}")
        if isinstance(subject, Literal):
            # The error TemporalFact raises, so every engine raises alike.
            raise InvalidFactError(f"{self} puts the literal {subject} in subject position")

        if interval is None:
            if isinstance(self.interval, Variable):
                interval = substitution.interval(self.interval)
                if interval is None:
                    raise LogicError(f"interval variable {self.interval} is unbound")
            else:
                interval = self.interval
        return TemporalFact(
            subject=subject,  # type: ignore[arg-type]
            predicate=predicate,
            object=obj,
            interval=interval,
            confidence=confidence,
        )

    def __str__(self) -> str:
        def show(position: object) -> str:
            return position.name if isinstance(position, Variable) else str(position)

        return (
            f"quad({show(self.subject)}, {show(self.predicate)}, "
            f"{show(self.object)}, {show(self.interval)})"
        )


# --------------------------------------------------------------------------- #
# Condition atoms
# --------------------------------------------------------------------------- #
class ConditionAtom:
    """Base class for atoms evaluated against a substitution."""

    def holds(self, substitution: Substitution) -> bool:
        raise NotImplementedError

    def variables(self) -> set[Variable]:
        raise NotImplementedError


@dataclass(frozen=True, slots=True)
class AllenAtom(ConditionAtom):
    """A named temporal predicate over two interval variables.

    Supports every predicate in :data:`repro.temporal.CONSTRAINT_PREDICATES`
    (the thirteen Allen relations plus the paper's inclusive ``overlaps`` /
    ``disjoint`` readings).
    """

    relation: str
    left: Variable
    right: Variable

    def __post_init__(self) -> None:
        if self.relation not in CONSTRAINT_PREDICATES:
            raise LogicError(
                f"unknown temporal predicate {self.relation!r}; "
                f"expected one of {sorted(CONSTRAINT_PREDICATES)}"
            )

    def holds(self, substitution: Substitution) -> bool:
        left = substitution.interval(self.left)
        right = substitution.interval(self.right)
        if left is None or right is None:
            raise LogicError(
                f"temporal predicate {self.relation} applied to unbound interval "
                f"variable ({self.left} or {self.right})"
            )
        return CONSTRAINT_PREDICATES[self.relation](left, right)

    def variables(self) -> set[Variable]:
        return {self.left, self.right}

    def __str__(self) -> str:
        return f"{self.relation}({self.left.name}, {self.right.name})"


@dataclass(frozen=True, slots=True)
class Comparison(ConditionAtom):
    """An arithmetic comparison between two expressions."""

    left: Expression
    operator: str
    right: Expression

    def holds(self, substitution: Substitution) -> bool:
        return compare(
            self.operator, self.left.evaluate(substitution), self.right.evaluate(substitution)
        )

    def variables(self) -> set[Variable]:
        return self.left.variables() | self.right.variables()

    def __str__(self) -> str:
        return f"{self.left} {self.operator} {self.right}"


@dataclass(frozen=True, slots=True)
class TermEquality(ConditionAtom):
    """Equality (or inequality) between two entity variables or constants."""

    left: TermOrVar
    right: TermOrVar
    negated: bool = False

    def _resolve(self, position: TermOrVar, substitution: Substitution) -> Term:
        if isinstance(position, Variable):
            value = substitution.get(position)
            if value is None or isinstance(value, TimeInterval):
                raise LogicError(f"entity variable {position} is unbound")
            return value
        return position

    def holds(self, substitution: Substitution) -> bool:
        equal = self._resolve(self.left, substitution) == self._resolve(self.right, substitution)
        return not equal if self.negated else equal

    def variables(self) -> set[Variable]:
        return {position for position in (self.left, self.right) if isinstance(position, Variable)}

    def __str__(self) -> str:
        operator = "!=" if self.negated else "="
        def show(position: object) -> str:
            return position.name if isinstance(position, Variable) else str(position)
        return f"{show(self.left)} {operator} {show(self.right)}"


def evaluate_conditions(conditions: tuple[ConditionAtom, ...], substitution: Substitution) -> bool:
    """True when every condition atom holds under ``substitution``."""
    return all(condition.holds(substitution) for condition in conditions)
