"""The uncertain temporal knowledge graph (UTKG) store.

An in-memory store of :class:`~repro.kg.triple.TemporalFact` values.
It plays the role rdflib / MySQL / H2 play in the original TeCoRe stack:
holding evidence facts, answering pattern queries during grounding, and
producing the conflict-free subset after MAP inference.

Each statement is kept in insertion order with an insertion *tick*, so the
semi-naive grounding engine can join against the delta of facts added since
a :meth:`TemporalKnowledgeGraph.mark`.  The pattern indexes (by subject,
predicate, object, (subject, predicate) and (predicate, object)) are built by
the first query and maintained from then on; most graphs (the consistent and
expanded graphs of a repair, session snapshots) are never queried.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Union

from ..errors import InvalidFactError
from ..temporal import TimeDomain, TimeInterval, coalesce_weighted
from .term import IRI, SubjectTerm, Term, term_key
from .triple import FactLike, TemporalFact, coerce_fact


@dataclass(frozen=True, slots=True)
class Pattern:
    """A triple pattern; ``None`` components act as wildcards."""

    subject: Optional[SubjectTerm] = None
    predicate: Optional[IRI] = None
    object: Optional[Term] = None

    def matches(self, fact: TemporalFact) -> bool:
        if self.subject is not None and fact.subject != self.subject:
            return False
        if self.predicate is not None and fact.predicate != self.predicate:
            return False
        if self.object is not None and fact.object != self.object:
            return False
        return True


class _PatternIndexes:
    """The five pattern indexes of a graph: term (or term pair) → statement keys."""

    __slots__ = ("subject", "predicate", "object", "subject_predicate", "predicate_object")

    def __init__(self, facts: dict[tuple, TemporalFact]) -> None:
        self.subject: dict[SubjectTerm, set[tuple]] = defaultdict(set)
        self.predicate: dict[IRI, set[tuple]] = defaultdict(set)
        self.object: dict[Term, set[tuple]] = defaultdict(set)
        self.subject_predicate: dict[tuple[SubjectTerm, IRI], set[tuple]] = defaultdict(set)
        self.predicate_object: dict[tuple[IRI, Term], set[tuple]] = defaultdict(set)
        for key, fact in facts.items():
            self.add(key, fact)

    def add(self, key: tuple, fact: TemporalFact) -> None:
        self.subject[fact.subject].add(key)
        self.predicate[fact.predicate].add(key)
        self.object[fact.object].add(key)
        self.subject_predicate[(fact.subject, fact.predicate)].add(key)
        self.predicate_object[(fact.predicate, fact.object)].add(key)

    def discard(self, key: tuple, fact: TemporalFact) -> None:
        self.subject[fact.subject].discard(key)
        self.predicate[fact.predicate].discard(key)
        self.object[fact.object].discard(key)
        self.subject_predicate[(fact.subject, fact.predicate)].discard(key)
        self.predicate_object[(fact.predicate, fact.object)].discard(key)


class TemporalKnowledgeGraph:
    """A collection of uncertain temporal facts, indexed on first query.

    The graph stores *statements*: two facts that differ only in confidence
    are the same statement, and adding the second replaces the first keeping
    the higher confidence (the standard behaviour when merging repeated OIE
    extractions).

    Examples
    --------
    >>> g = TemporalKnowledgeGraph(name="demo")
    >>> _ = g.add(("CR", "coach", "Chelsea", (2000, 2004), 0.9))
    >>> len(g)
    1
    """

    def __init__(
        self,
        facts: Iterable[FactLike] = (),
        name: str = "utkg",
        domain: TimeDomain | None = None,
    ) -> None:
        self.name = name
        self.domain = domain
        # Statement key → fact, in insertion order: a confidence upgrade
        # reassigns in place, a remove pops, a re-add appends.
        self._facts: dict[tuple, TemporalFact] = {}
        # Monotonic insertion tick per statement key; never reused after a
        # remove, so a tick bound taken via mark() stays a valid delta cursor.
        self._added_at: dict[tuple, int] = {}
        self._tick = 0
        self._indexes: Optional[_PatternIndexes] = None
        for fact in facts:
            self.add(fact)

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def add(self, fact: FactLike) -> TemporalFact:
        """Add a fact (or fact-like tuple); returns the stored fact.

        Re-adding an existing statement keeps the maximum confidence seen.
        """
        item = coerce_fact(fact)
        if self.domain is not None:
            if item.interval.start not in self.domain or item.interval.end not in self.domain:
                raise InvalidFactError(
                    f"fact interval {item.interval} outside time domain "
                    f"[{self.domain.start}, {self.domain.end}]"
                )
        key = item.statement_key
        existing = self._facts.get(key)
        if existing is not None:
            if item.confidence > existing.confidence:
                self._facts[key] = item
            return self._facts[key]
        self._facts[key] = item
        self._added_at[key] = self._tick
        self._tick += 1
        if self._indexes is not None:
            self._indexes.add(key, item)
        return item

    def add_all(self, facts: Iterable[FactLike]) -> int:
        """Add many facts; returns the number of *new* statements stored."""
        before = len(self._facts)
        for fact in facts:
            self.add(fact)
        return len(self._facts) - before

    def remove(self, fact: FactLike) -> bool:
        """Remove a statement; returns True when it was present."""
        item = coerce_fact(fact)
        key = item.statement_key
        stored = self._facts.pop(key, None)
        if stored is None:
            return False
        del self._added_at[key]
        if self._indexes is not None:
            self._indexes.discard(key, stored)
        return True

    def discard_all(self, facts: Iterable[FactLike]) -> int:
        """Remove many statements; returns how many were actually present.

        ``facts`` is materialised first, so it may be this graph itself.
        """
        return sum(1 for fact in list(facts) if self.remove(fact))

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._facts)

    def __iter__(self) -> Iterator[TemporalFact]:
        return iter(self._facts.values())

    def __contains__(self, fact: object) -> bool:
        if isinstance(fact, TemporalFact):
            return fact.statement_key in self._facts
        if isinstance(fact, tuple):
            try:
                return coerce_fact(fact).statement_key in self._facts
            except InvalidFactError:
                return False
        return False

    def facts(self) -> list[TemporalFact]:
        """All facts in insertion order."""
        return list(self)

    def find(
        self,
        subject: Optional[Union[SubjectTerm, str]] = None,
        predicate: Optional[Union[IRI, str]] = None,
        obj: Optional[Union[Term, str, int]] = None,
        overlapping: Optional[TimeInterval] = None,
    ) -> list[TemporalFact]:
        """Pattern query with optional temporal-overlap filter.

        Unspecified components are wildcards.  The most selective available
        index is consulted first.
        """
        from .term import to_subject, to_term  # local import to avoid cycle noise

        subject_term = to_subject(subject) if subject is not None else None
        predicate_term = predicate if isinstance(predicate, IRI) else (
            IRI(predicate) if predicate is not None else None
        )
        object_term = to_term(obj) if obj is not None else None

        result = [
            fact
            for fact in self.iter_matching(subject_term, predicate_term, object_term)
            if overlapping is None or fact.interval.overlaps(overlapping)
        ]
        result.sort(key=TemporalFact.sort_key)
        return result

    def _candidate_keys(
        self,
        subject: Optional[SubjectTerm],
        predicate: Optional[IRI],
        obj: Optional[Term],
    ) -> Iterable[tuple]:
        # An unconstrained scan gets a snapshot of the keys; otherwise the
        # most selective live index set is returned without a copy (see
        # iter_matching).
        if subject is None and predicate is None and obj is None:
            return list(self._facts)
        indexes = self._pattern_indexes()
        if subject is not None and predicate is not None:
            return indexes.subject_predicate.get((subject, predicate), ())
        if predicate is not None and obj is not None:
            return indexes.predicate_object.get((predicate, obj), ())
        candidates: list[set[tuple]] = []
        if subject is not None:
            candidates.append(indexes.subject.get(subject, set()))
        if predicate is not None:
            candidates.append(indexes.predicate.get(predicate, set()))
        if obj is not None:
            candidates.append(indexes.object.get(obj, set()))
        return min(candidates, key=len)

    def _pattern_indexes(self) -> _PatternIndexes:
        """The pattern indexes, built on first use and then kept up to date.

        Assigned only once complete, so no reader sees a half-built one.
        """
        indexes = self._indexes
        if indexes is None:
            indexes = self._indexes = _PatternIndexes(self._facts)
        return indexes

    # ------------------------------------------------------------------ #
    # Delta views (semi-naive grounding support)
    # ------------------------------------------------------------------ #
    def mark(self) -> int:
        """Current insertion tick; pass to :meth:`iter_matching` as a delta bound.

        Facts added after ``mark()`` was taken satisfy ``since=mark``; facts
        already present satisfy ``before=mark``.
        """
        return self._tick

    def added_at(self, fact: FactLike) -> Optional[int]:
        """Insertion tick of a stored statement, or ``None`` when absent."""
        return self._added_at.get(coerce_fact(fact).statement_key)

    def iter_matching(
        self,
        subject: Optional[SubjectTerm] = None,
        predicate: Optional[IRI] = None,
        obj: Optional[Term] = None,
        since: Optional[int] = None,
        before: Optional[int] = None,
    ) -> Iterator[TemporalFact]:
        """Raw indexed pattern scan for the grounding engine.

        Unlike :meth:`find` this performs no term coercion and no sorting —
        facts come back in index (hash) order, so callers needing determinism
        must order the results themselves.  The graph must not be mutated
        while the generator is being consumed: a bound pattern iterates a
        live index set (an all-wildcard scan walks a snapshot of the keys).
        ``since`` (inclusive) and ``before`` (exclusive) bound the insertion
        tick, giving the semi-naive grounder its delta / pre-delta views for
        free.
        """
        keys = self._candidate_keys(subject, predicate, obj)
        facts = self._facts
        if since is not None or before is not None:
            added_at = self._added_at
            keys = [
                key
                for key in keys
                if (since is None or added_at[key] >= since)
                and (before is None or added_at[key] < before)
            ]
        for key in keys:
            fact = facts[key]
            if subject is not None and fact.subject != subject:
                continue
            if predicate is not None and fact.predicate != predicate:
                continue
            if obj is not None and fact.object != obj:
                continue
            yield fact

    def by_predicate(self, predicate: Union[IRI, str]) -> list[TemporalFact]:
        """All facts with the given predicate."""
        return self.find(predicate=predicate)

    def subjects(self) -> list[SubjectTerm]:
        """Distinct subjects, deterministically ordered."""
        index = self._pattern_indexes().subject
        return sorted((s for s, keys in index.items() if keys), key=term_key)

    def predicates(self) -> list[IRI]:
        """Distinct predicates, deterministically ordered."""
        index = self._pattern_indexes().predicate
        return sorted((p for p, keys in index.items() if keys), key=lambda p: p.value)

    def objects(self) -> list[Term]:
        """Distinct objects, deterministically ordered."""
        index = self._pattern_indexes().object
        return sorted((o for o, keys in index.items() if keys), key=term_key)

    def entities(self) -> list[Term]:
        """Distinct subjects and IRI objects (the constants of the Herbrand base)."""
        iri_objects = (o for o in self.objects() if isinstance(o, IRI))
        return sorted({*self.subjects(), *iri_objects}, key=term_key)

    # ------------------------------------------------------------------ #
    # Whole-graph operations
    # ------------------------------------------------------------------ #
    def content_key(self) -> tuple:
        """Order-sensitive content identity of the graph.

        Two graphs with equal keys hold the same name and the same
        statements with the same confidences in the same insertion order —
        grounding (and therefore a full resolution) is a pure function of
        exactly that.  The serving tier coalesces content-identical requests
        on this key, and the verification harness uses it as the replay
        state digest.
        """
        return (
            self.name,
            tuple((fact.statement_key, fact.confidence) for fact in self),
        )

    def copy(self, name: str | None = None) -> "TemporalKnowledgeGraph":
        """Shallow copy of the graph (facts are immutable, so this is safe).

        Copies the fact and tick dicts instead of re-validating every fact;
        insertion ticks are preserved, so delta cursors taken on the copy
        behave as on the original.  No pattern index is cloned: a copy
        that is queried builds its own.
        """
        clone = TemporalKnowledgeGraph(name=name or self.name, domain=self.domain)
        clone._facts = dict(self._facts)
        clone._added_at = dict(self._added_at)
        clone._tick = self._tick
        return clone

    def without_statements(
        self, keys: Iterable[tuple], name: str | None = None
    ) -> "TemporalKnowledgeGraph":
        """Clone of the graph minus the given statement keys (bulk removal).

        One :meth:`copy` plus one dict pop per key, so the cost is
        ``O(n + d)``.  Unknown keys are ignored; the surviving facts keep
        their order and insertion ticks, so delta cursors stay valid.  This
        is the consistent subset of every MAP repair.
        """
        clone = self.copy(name=name or f"{self.name}-without")
        for key in keys:
            if clone._facts.pop(key, None) is not None:
                del clone._added_at[key]
        return clone

    def filter(
        self, keep: Callable[[TemporalFact], bool], name: str | None = None
    ) -> "TemporalKnowledgeGraph":
        """New graph containing only facts for which ``keep`` returns True."""
        return TemporalKnowledgeGraph(
            (fact for fact in self if keep(fact)),
            name=name or f"{self.name}-filtered",
            domain=self.domain,
        )

    def above_confidence(self, threshold: float) -> "TemporalKnowledgeGraph":
        """Facts whose confidence is at least ``threshold`` (the UI's slider)."""
        return self.filter(
            lambda fact: fact.confidence >= threshold, name=f"{self.name}>={threshold}"
        )

    def merge(
        self, other: "TemporalKnowledgeGraph", name: str | None = None
    ) -> "TemporalKnowledgeGraph":
        """Union of two graphs (max confidence on shared statements)."""
        merged = self.copy(name=name or f"{self.name}+{other.name}")
        merged.add_all(other)
        return merged

    def difference(self, other: "TemporalKnowledgeGraph") -> list[TemporalFact]:
        """Facts present here but absent from ``other`` (by statement key)."""
        other_keys = {fact.statement_key for fact in other}
        return [fact for fact in self if fact.statement_key not in other_keys]

    def coalesced(self, name: str | None = None) -> "TemporalKnowledgeGraph":
        """Graph with value-equivalent overlapping/adjacent facts merged."""
        grouped: dict[tuple, list[tuple[TimeInterval, float]]] = defaultdict(list)
        triples: dict[tuple, TemporalFact] = {}
        for fact in self:
            key = (term_key(fact.subject), fact.predicate.value, term_key(fact.object))
            grouped[key].append((fact.interval, fact.confidence))
            triples[key] = fact
        result = TemporalKnowledgeGraph(name=name or f"{self.name}-coalesced", domain=self.domain)
        for key, items in grouped.items():
            template = triples[key]
            for interval, confidence in coalesce_weighted(items):
                result.add(
                    TemporalFact(
                        subject=template.subject,
                        predicate=template.predicate,
                        object=template.object,
                        interval=interval,
                        confidence=confidence,
                    )
                )
        return result

    def spanning_domain(self, granularity: str = "year") -> TimeDomain:
        """Smallest time domain covering every fact's interval."""
        points: list[int] = []
        for fact in self:
            points.append(fact.interval.start)
            points.append(fact.interval.end)
        return TimeDomain.spanning(points, granularity=granularity)

    def total_confidence(self) -> float:
        """Sum of confidences over all facts (used by quality metrics)."""
        return sum(fact.confidence for fact in self)

    def __repr__(self) -> str:
        return f"TemporalKnowledgeGraph(name={self.name!r}, facts={len(self)})"
