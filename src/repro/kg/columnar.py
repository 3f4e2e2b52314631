"""Columnar (structure-of-arrays) views of a temporal knowledge graph.

The row-oriented :class:`~repro.kg.graph.TemporalKnowledgeGraph` is built for
point lookups: hash indexes from pattern components to statement keys, one
Python object per fact.  The vectorized grounding engine
(:mod:`repro.logic.vectorized`) instead wants *scans*: "give me the subject
ids of every ``playsFor`` fact as one integer array".  This module provides
that representation:

* a :class:`TermInterner` mapping RDF terms (and predicates) to dense integer
  ids — equal terms always receive the same id, so equality joins over terms
  become equality joins over ``int64`` arrays;
* a :class:`RelationBlock` per predicate holding the facts of that relation
  as parallel numpy columns: subject id, object id, interval begin tick,
  interval end tick, and the forward-chaining round the fact entered the
  store (0 for evidence) — the semi-naive delta windows of the grounder are
  plain boolean masks over the round column;
* the :class:`ColumnarFactStore` tying the two together, with incremental
  appends (derived facts arrive round by round), per-row tags and rank
  columns for the engine's emission and ordering contract, and the
  merge-join primitives (:func:`merge_join`, :func:`composite_keys` and
  the one-sided :func:`composite_key`).

The store keeps a reference to each original :class:`TemporalFact`, so
consumers can recover full fact objects (and their cached sort keys) from the
row indices a vectorized join produces.
"""

from __future__ import annotations

from itertools import repeat
from typing import Iterable, Iterator, Optional

import numpy as np

from .term import IRI, Term
from .triple import TemporalFact


class TermInterner:
    """Bidirectional mapping between terms and dense integer ids.

    Ids are assigned in first-seen order and never reused; two terms compare
    equal exactly when they intern to the same id (terms are immutable value
    objects), which is the property the vectorized joins rely on.
    """

    __slots__ = ("_ids", "_terms")

    def __init__(self) -> None:
        self._ids: dict[Term, int] = {}
        self._terms: list[Term] = []

    def __len__(self) -> int:
        return len(self._terms)

    def intern(self, term: Term) -> int:
        """Id of ``term``, assigning the next free id on first sight."""
        existing = self._ids.get(term)
        if existing is not None:
            return existing
        assigned = len(self._terms)
        self._ids[term] = assigned
        self._terms.append(term)
        return assigned

    def lookup(self, term: Term) -> Optional[int]:
        """Id of ``term`` when already interned, else ``None``.

        Used for constants in rule bodies: an un-interned constant cannot
        match any stored fact, so the caller can prune the join immediately.
        """
        return self._ids.get(term)

    def term(self, term_id: int) -> Term:
        """The term behind ``term_id`` (inverse of :meth:`intern`)."""
        return self._terms[term_id]

    def terms(self, term_ids: Iterable[int]) -> list[Term]:
        """Bulk id → term decoding (C-speed ``map`` over the id list)."""
        return list(map(self._terms.__getitem__, term_ids))


class RelationBlock:
    """All facts of one predicate as parallel columns.

    Appends go to Python staging lists; the numpy columns are (re)materialised
    lazily on first access after a mutation.  The grounding workload appends
    in round-sized batches and then scans many times per round, so the
    amortised conversion cost is negligible next to the joins it enables.
    """

    __slots__ = (
        "predicate",
        "facts",
        "_subjects",
        "_objects",
        "_begins",
        "_ends",
        "_rounds",
        "_columns",
        "_materialized",
        "tags",
        "_tags_array",
        "_ranks",
    )

    def __init__(self, predicate: IRI) -> None:
        self.predicate = predicate
        #: Row-aligned fact objects (for recovering matches from row indices).
        self.facts: list[TemporalFact] = []
        self._subjects: list[int] = []
        self._objects: list[int] = []
        self._begins: list[int] = []
        self._ends: list[int] = []
        self._rounds: list[int] = []
        self._columns: Optional[dict[str, np.ndarray]] = None
        self._materialized = 0
        #: Optional row-aligned integer tags (the vectorized grounding engine
        #: stores each row's ground-atom index here).
        self.tags: list[int] = []
        self._tags_array: Optional[np.ndarray] = None
        self._ranks: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self.facts)

    # ------------------------------------------------------------------ #
    # Column access
    # ------------------------------------------------------------------ #
    def columns(self) -> dict[str, np.ndarray]:
        """The materialised ``int64`` columns (subject/object/begin/end/round)."""
        if self._columns is None or self._materialized != len(self.facts):
            self._columns = {
                "subject": np.asarray(self._subjects, dtype=np.int64),
                "object": np.asarray(self._objects, dtype=np.int64),
                "begin": np.asarray(self._begins, dtype=np.int64),
                "end": np.asarray(self._ends, dtype=np.int64),
                "round": np.asarray(self._rounds, dtype=np.int64),
            }
            self._materialized = len(self.facts)
        return self._columns

    def column(self, name: str) -> np.ndarray:
        return self.columns()[name]

    def tags_array(self) -> np.ndarray:
        """The row tags as an ``int64`` array (lazily rebuilt after appends)."""
        if self._tags_array is None or len(self._tags_array) != len(self.tags):
            self._tags_array = np.asarray(self.tags, dtype=np.int64)
        return self._tags_array

    def rank_array(self) -> np.ndarray:
        """Per-row rank in the block's fact sort-key order.

        Comparing two rows by rank is equivalent to comparing their facts'
        lexicographic :meth:`~repro.kg.triple.TemporalFact.sort_key` (keys
        are unique within a block), which lets callers order whole match
        sets numerically instead of comparing nested key tuples.  The rows
        are sorted by the facts' cached key tuples directly: ``sorted`` only
        calls ``<``, which for facts *is* the key comparison, so the order
        is the same without a ``TemporalFact.__lt__`` call per comparison.
        """
        size = len(self.facts)
        if self._ranks is None or len(self._ranks) != size:
            keys = [fact.sort_key() for fact in self.facts]
            order = sorted(range(size), key=keys.__getitem__)
            ranks = np.empty(size, dtype=np.int64)
            ranks[np.asarray(order, dtype=np.int64)] = np.arange(size, dtype=np.int64)
            self._ranks = ranks
        return self._ranks


class ColumnarFactStore:
    """Interned, per-relation columnar view of a set of temporal facts.

    Statements are deduplicated by statement key exactly like
    :class:`~repro.kg.graph.TemporalKnowledgeGraph` does (re-adding an
    existing statement is a no-op here — the grounder only appends facts it
    has already admitted into its working graph).
    """

    def __init__(self, facts: Iterable[TemporalFact] = (), round_number: int = 0) -> None:
        self.entities = TermInterner()
        self.predicates = TermInterner()
        self._blocks: dict[int, RelationBlock] = {}
        self._keys: set[tuple] = set()
        self.bulk_add(facts, round_number=round_number)

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, fact: TemporalFact) -> bool:
        return fact.statement_key in self._keys

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def add(self, fact: TemporalFact, round_number: int = 0, tag: Optional[int] = None) -> bool:
        """Add ``fact`` labelled with the round it was derived in.

        Returns True when the statement was new, False when its key was
        already stored (the row — including any earlier tag — is left
        untouched in that case).  ``tag`` appends to the row's block tags;
        callers maintaining tags must pass one on every add that can create
        a row, or the tag column falls out of alignment.
        """
        return self.bulk_add((fact,), round_number, None if tag is None else (tag,)) == 1

    def bulk_add(
        self,
        facts: Iterable[TemporalFact],
        round_number: int = 0,
        tags: Optional[Iterable[int]] = None,
    ) -> int:
        """Batch variant of :meth:`add` with the interning loop inlined.

        Loading the evidence graph is a fixed per-ground() cost of the
        vectorized engine, and so is appending each round's new rule heads,
        so this path trades the tidy :meth:`add` delegation for
        local-variable access to the interner and block internals (roughly
        halving the per-fact overhead).  ``tags`` pairs with ``facts``; each
        added row appends its fact's tag, as :meth:`add` does.
        """
        keys = self._keys
        entity_ids, entity_terms = self.entities._ids, self.entities._terms
        predicate_ids, predicate_terms = self.predicates._ids, self.predicates._terms
        blocks = self._blocks
        added = 0
        for fact, tag in zip(facts, repeat(None) if tags is None else tags):
            key = fact.statement_key
            if key in keys:
                continue
            keys.add(key)
            predicate = fact.predicate
            predicate_id = predicate_ids.get(predicate)
            if predicate_id is None:
                predicate_id = len(predicate_terms)
                predicate_ids[predicate] = predicate_id
                predicate_terms.append(predicate)
            block = blocks.get(predicate_id)
            if block is None:
                block = RelationBlock(predicate)
                blocks[predicate_id] = block
            subject = fact.subject
            subject_id = entity_ids.get(subject)
            if subject_id is None:
                subject_id = len(entity_terms)
                entity_ids[subject] = subject_id
                entity_terms.append(subject)
            obj = fact.object
            object_id = entity_ids.get(obj)
            if object_id is None:
                object_id = len(entity_terms)
                entity_ids[obj] = object_id
                entity_terms.append(obj)
            interval = fact.interval
            block.facts.append(fact)
            block._subjects.append(subject_id)
            block._objects.append(object_id)
            block._begins.append(interval.start)
            block._ends.append(interval.end)
            block._rounds.append(round_number)
            if tag is not None:
                block.tags.append(tag)
            added += 1
        return added

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #
    def block_for(self, predicate: IRI) -> Optional[RelationBlock]:
        """The relation block of ``predicate``, or ``None`` when unseen."""
        predicate_id = self.predicates.lookup(predicate)
        if predicate_id is None:
            return None
        return self._blocks.get(predicate_id)

    def blocks(self) -> Iterator[RelationBlock]:
        """All relation blocks (arbitrary but deterministic insertion order)."""
        return iter(self._blocks.values())

    def iter_facts(self) -> Iterator[TemporalFact]:
        for block in self._blocks.values():
            yield from block.facts


# --------------------------------------------------------------------------- #
# Vectorized join primitives
# --------------------------------------------------------------------------- #
def merge_join(
    left_keys: np.ndarray, right_keys: np.ndarray, right_order: Optional[np.ndarray] = None
) -> tuple[np.ndarray, np.ndarray]:
    """All index pairs ``(i, j)`` with ``left_keys[i] == right_keys[j]``.

    The classic sorted-array join: sort the right side once, then locate each
    left key's run of equal right keys with two ``searchsorted`` probes and
    expand the runs with ``repeat``.  Pairs come back grouped by left index
    (each left index's matches in right sort order), which is all the callers
    need — they re-sort final matches anyway.

    ``right_order`` may pass a precomputed stable argsort of ``right_keys``.
    """
    if right_order is None:
        right_order = np.argsort(right_keys, kind="stable")
    sorted_right = right_keys[right_order]
    lo = np.searchsorted(sorted_right, left_keys, side="left")
    hi = np.searchsorted(sorted_right, left_keys, side="right")
    counts = hi - lo
    left_index = np.repeat(np.arange(len(left_keys)), counts)
    total = int(counts.sum())
    if total == 0:
        return left_index, np.empty(0, dtype=np.int64)
    ends = np.cumsum(counts)
    positions = np.arange(total) - np.repeat(ends - counts, counts) + np.repeat(lo, counts)
    return left_index, right_order[positions]


_OVERFLOW_LIMIT = 1 << 60


def composite_key(columns: list[np.ndarray]) -> np.ndarray:
    """Fold equal-length integer columns into one ``int64`` key per row.

    Columns are folded positionally (mixed-radix over each column's observed
    value range), so two rows get equal keys exactly when their tuples are
    equal.  When the running radix would overflow ``int64``, the partial
    keys are re-factorised through ``np.unique`` and folding continues on the
    dense codes.
    """
    key = np.zeros(len(columns[0]), dtype=np.int64)
    radix_so_far = 1
    for column in columns:
        column = column.astype(np.int64)
        low = int(column.min()) if len(column) else 0
        high = int(column.max()) if len(column) else 0
        radix = high - low + 1
        if radix_so_far * radix >= _OVERFLOW_LIMIT:
            # Compress the partial keys to dense codes before folding further.
            _, codes = np.unique(key, return_inverse=True)
            key = codes.astype(np.int64)
            radix_so_far = len(key) + 1
        if radix_so_far * radix >= _OVERFLOW_LIMIT:
            # The column's own value range is enormous; dense-code it too so
            # the fold stays within int64 (distinct values ≤ row count).
            _, column_codes = np.unique(column, return_inverse=True)
            column = column_codes.astype(np.int64)
            low = 0
            radix = len(column) + 1
        key = key * radix + (column - low)
        radix_so_far = radix_so_far * radix
    return key


def composite_keys(
    left_columns: list[np.ndarray], right_columns: list[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Fold multi-column join keys into one consistent ``int64`` key per side.

    Both sides are folded together by :func:`composite_key` (value ranges
    are taken across *both* sides), so equal tuples encode to equal scalars
    on either side.
    """
    if len(left_columns) == 1:
        return left_columns[0], right_columns[0]
    split = len(left_columns[0])
    key = composite_key(
        [np.concatenate((left, right)) for left, right in zip(left_columns, right_columns)]
    )
    return key[:split], key[split:]
