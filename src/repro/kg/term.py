"""RDF-style terms: IRIs, literals and blank nodes.

TeCoRe represents UTKGs as sets of RDF triples extended with a temporal
element and a confidence value.  With no external RDF stack available, this
module provides the small, immutable term model the rest of the library
builds on.  Terms are value objects: equal by content, hashable, and ordered
deterministically so grounding and reports are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

from ..errors import InvalidTermError


@dataclass(frozen=True, order=True, slots=True)
class IRI:
    """An internationalised resource identifier (or any opaque entity name).

    The library accepts both full IRIs (``http://example.org/ClaudioRanieri``)
    and short local names (``ClaudioRanieri``); no resolution is performed.
    """

    value: str

    def __post_init__(self) -> None:
        if not self.value:
            raise InvalidTermError("IRI value must be a non-empty string")
        if any(ch.isspace() for ch in self.value):
            raise InvalidTermError(f"IRI value may not contain whitespace: {self.value!r}")

    @property
    def local_name(self) -> str:
        """The fragment / last path segment, used for display."""
        for sep in ("#", "/", ":"):
            if sep in self.value:
                tail = self.value.rsplit(sep, 1)[1]
                if tail:
                    return tail
        return self.value

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True, order=True, slots=True)
class Literal:
    """A literal value with an optional datatype tag.

    Only the lexical form takes part in identity; the datatype is a plain
    string label (``"integer"``, ``"string"``, ``"gYear"`` ...).
    """

    value: str
    datatype: str = field(default="string")

    def __post_init__(self) -> None:
        if not isinstance(self.value, str):
            raise InvalidTermError("literal lexical form must be a string")

    @classmethod
    def integer(cls, value: int) -> "Literal":
        return cls(str(value), datatype="integer")

    @classmethod
    def year(cls, value: int) -> "Literal":
        return cls(str(value), datatype="gYear")

    def as_int(self) -> int:
        """Interpret the lexical form as an integer (raises ValueError otherwise)."""
        return int(self.value)

    def __str__(self) -> str:
        return f'"{self.value}"' if self.datatype == "string" else self.value


@dataclass(frozen=True, order=True, slots=True)
class BlankNode:
    """An anonymous node, identified by a local label."""

    label: str

    def __post_init__(self) -> None:
        if not self.label:
            raise InvalidTermError("blank node label must be non-empty")

    def __str__(self) -> str:
        return f"_:{self.label}"


#: Any RDF term usable in subject/object position.
Term = Union[IRI, Literal, BlankNode]

#: Terms allowed in subject position (RDF does not allow literal subjects).
SubjectTerm = Union[IRI, BlankNode]


def to_term(value: Union[Term, str, int]) -> Term:
    """Coerce a convenient Python value into a term.

    * existing terms pass through unchanged;
    * ``int`` becomes an integer :class:`Literal`;
    * strings beginning with ``_:`` become blank nodes;
    * strings wrapped in double quotes — and strings containing whitespace,
      which cannot be IRIs — become string literals;
    * every other string becomes an :class:`IRI` (entity name).
    """
    if isinstance(value, (IRI, Literal, BlankNode)):
        return value
    if isinstance(value, bool):
        raise InvalidTermError("booleans are not valid graph terms")
    if isinstance(value, int):
        return Literal.integer(value)
    if isinstance(value, str):
        if value.startswith("_:"):
            return BlankNode(value[2:])
        if len(value) >= 2 and value.startswith('"') and value.endswith('"'):
            return Literal(value[1:-1])
        if any(ch.isspace() for ch in value):
            return Literal(value)
        return IRI(value)
    raise InvalidTermError(f"cannot convert {value!r} to a graph term")


def to_subject(value: Union[SubjectTerm, str]) -> SubjectTerm:
    """Coerce to a term valid in subject position."""
    term = to_term(value)
    if isinstance(term, Literal):
        raise InvalidTermError(f"literals may not appear in subject position: {term}")
    return term


def term_key(term: Term) -> tuple[int, str] | tuple[int, str, str]:
    """Total order key across heterogeneous term types (IRIs < literals < bnodes).

    Injective: distinct terms get distinct keys.  A literal keeps its
    datatype and lexical form apart, so ``Literal("a:b", "x")`` and
    ``Literal("b", "x:a")`` stay two terms.
    """
    if isinstance(term, IRI):
        return (0, term.value)
    if isinstance(term, Literal):
        return (1, term.datatype, term.value)
    return (2, term.label)
