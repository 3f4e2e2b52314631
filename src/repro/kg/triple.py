"""Triples and uncertain temporal facts (weighted quads).

The paper's data model: each fact is an RDF triple ``(s, p, o)`` labelled with
a temporal element (a validity interval over a discrete time domain) and a
confidence value in ``(0, 1]`` witnessing how likely the fact is to hold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Union

from ..errors import InvalidFactError
from ..temporal import TimeInterval
from .term import IRI, Literal, SubjectTerm, Term, term_key, to_subject, to_term


@dataclass(frozen=True, order=True, slots=True)
class Triple:
    """A plain (atemporal, certain) RDF triple."""

    subject: SubjectTerm
    predicate: IRI
    object: Term

    def __str__(self) -> str:
        return f"({self.subject}, {self.predicate}, {self.object})"


def check_confidence(confidence: object, owner: str = "") -> None:
    """Raise :class:`InvalidFactError` unless ``confidence`` is a number in ``(0, 1]``.

    ``owner`` prefixes the message (a rule names itself with it).
    """
    if not isinstance(confidence, (int, float)) or isinstance(confidence, bool):
        raise InvalidFactError(f"{owner}confidence must be a number")
    if math.isnan(confidence) or not (0.0 < confidence <= 1.0):
        raise InvalidFactError(f"{owner}confidence must lie in (0, 1], got {confidence!r}")


@dataclass(frozen=True, slots=True)
class TemporalFact:
    """An uncertain temporal fact: a triple + validity interval + confidence.

    This is the unit TeCoRe reasons about; the paper writes it as
    ``(CR, coach, Chelsea, [2000,2004]) 0.9``.

    Attributes
    ----------
    subject, predicate, object:
        The atemporal triple.
    interval:
        Validity interval (closed, discrete).
    confidence:
        Weight in ``(0, 1]``.  ``1.0`` marks a certain (hard-evidence) fact.
    """

    subject: SubjectTerm
    predicate: IRI
    object: Term
    interval: TimeInterval
    confidence: float = 1.0
    _statement_key: tuple = field(init=False, repr=False, compare=False)
    _sort_key: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.interval, TimeInterval):
            raise InvalidFactError(
                f"fact interval must be a TimeInterval, got {type(self.interval).__name__}"
            )
        if isinstance(self.subject, Literal):
            raise InvalidFactError(f"literals may not appear in subject position: {self.subject}")
        check_confidence(self.confidence)
        # All fields are immutable, so the statement key can be computed once;
        # it is the hot lookup key of the grounding engine and atom table.
        statement_key = (
            term_key(self.subject),
            self.predicate.value,
            term_key(self.object),
            self.interval.start,
            self.interval.end,
        )
        object.__setattr__(self, "_statement_key", statement_key)
        # The sort key is equally hot: every grounding join re-orders its
        # matches with it (once per body fact per comparison).
        object.__setattr__(self, "_sort_key", (*statement_key, -self.confidence))

    # ------------------------------------------------------------------ #
    # Views
    # ------------------------------------------------------------------ #
    @property
    def triple(self) -> Triple:
        """The atemporal triple of this fact."""
        return Triple(self.subject, self.predicate, self.object)

    @property
    def statement_key(self) -> tuple:
        """Identity of the statement ignoring confidence (s, p, o, interval).

        Two facts with the same statement key are the same temporal statement
        possibly extracted with different confidence.
        """
        return self._statement_key

    @property
    def is_certain(self) -> bool:
        """True when the fact carries full confidence (treated as evidence)."""
        return self.confidence >= 1.0

    @property
    def log_weight(self) -> float:
        """Log-odds weight used by the MLN translation.

        A confidence ``c`` maps to ``log(c / (1 - c))``; certain facts get a
        large finite weight so the ILP stays bounded.
        """
        if self.confidence >= 1.0:
            return CERTAIN_LOG_WEIGHT
        return math.log(self.confidence / (1.0 - self.confidence))

    # ------------------------------------------------------------------ #
    # Functional updates
    # ------------------------------------------------------------------ #
    def with_confidence(self, confidence: float) -> "TemporalFact":
        """Copy of the fact with a different confidence."""
        return replace(self, confidence=confidence)

    def with_interval(self, interval: TimeInterval) -> "TemporalFact":
        """Copy of the fact with a different validity interval."""
        return replace(self, interval=interval)

    # ------------------------------------------------------------------ #
    # Ordering / formatting
    # ------------------------------------------------------------------ #
    def sort_key(self) -> tuple:
        return self._sort_key

    def __lt__(self, other: "TemporalFact") -> bool:
        if not isinstance(other, TemporalFact):
            return NotImplemented
        return self.sort_key() < other.sort_key()

    def __str__(self) -> str:
        return (
            f"({self.subject}, {self.predicate}, {self.object}, "
            f"{self.interval}) {self.confidence:.2f}"
        )


#: Finite stand-in for an infinite weight on certain evidence facts.
CERTAIN_LOG_WEIGHT = 20.0


FactLike = Union[TemporalFact, tuple]


def make_fact(
    subject: Union[SubjectTerm, str],
    predicate: Union[IRI, str],
    obj: Union[Term, str, int],
    interval: Union[TimeInterval, tuple[int, int], int, str],
    confidence: float = 1.0,
) -> TemporalFact:
    """Convenience constructor coercing plain Python values into a fact.

    >>> make_fact("CR", "coach", "Chelsea", (2000, 2004), 0.9)
    ... # doctest: +ELLIPSIS
    TemporalFact(...)
    """
    if isinstance(interval, TimeInterval):
        span = interval
    elif isinstance(interval, tuple):
        span = TimeInterval(int(interval[0]), int(interval[1]))
    elif isinstance(interval, int):
        span = TimeInterval.instant(interval)
    elif isinstance(interval, str):
        span = TimeInterval.parse(interval)
    else:
        raise InvalidFactError(f"cannot interpret {interval!r} as a time interval")
    pred = predicate if isinstance(predicate, IRI) else IRI(str(predicate))
    return TemporalFact(
        subject=to_subject(subject),
        predicate=pred,
        object=to_term(obj),
        interval=span,
        confidence=float(confidence),
    )


def coerce_fact(value: FactLike) -> TemporalFact:
    """Coerce a fact-like value (fact or tuple) into a :class:`TemporalFact`.

    Tuples may be ``(s, p, o, interval)`` or ``(s, p, o, interval, confidence)``.
    """
    if isinstance(value, TemporalFact):
        return value
    if isinstance(value, tuple) and len(value) in (4, 5):
        return make_fact(*value)
    raise InvalidFactError(f"cannot interpret {value!r} as a temporal fact")
