"""Columnar (structure-of-arrays) views of a temporal knowledge graph.

The row-oriented :class:`~repro.kg.graph.TemporalKnowledgeGraph` is built for
point lookups: hash indexes from pattern components to statement keys, one
Python object per fact.  The vectorized grounding engine
(:mod:`repro.logic.vectorized`) instead wants *scans*: "give me the subject
ids of every ``playsFor`` fact as one integer array".  This module provides
that representation:

* a :class:`TermInterner` mapping RDF terms (and predicates) to dense integer
  ids — equal terms always receive the same id, so equality joins over terms
  become equality joins over ``int64`` arrays.  It keeps each id's
  :func:`~repro.kg.term.term_key` and, on request, each id's rank in
  ``term_key`` order;
* a :class:`RelationBlock` per predicate holding the rows of that relation
  as parallel numpy columns: subject id, object id, interval begin tick,
  interval end tick, the forward-chaining round the row entered the store
  (0 for evidence) — the semi-naive delta windows of the grounder are
  plain boolean masks over the round column — and an integer tag (the
  grounder's ground-atom index of the row);
* the :class:`ColumnarFactStore` tying the two together: the evidence is
  loaded in one pass (:meth:`ColumnarFactStore.load`), derived rows arrive
  as id columns (:meth:`ColumnarFactStore.append`), and each block ranks its
  rows from the columns (:meth:`RelationBlock.rank_array`); plus the
  merge-join primitives (:func:`merge_join`, :func:`composite_keys` and the
  one-sided :func:`composite_key`).

The store holds no fact objects and no statement keys.  A row is ids only;
whoever needs the fact behind a row keeps it under the row's tag (the
grounder's atom table), and de-duplicates statements there.  A block holds
no reference to its store, so dropping a store frees it without waiting for
the cycle collector.
"""

from __future__ import annotations

from itertools import islice
from operator import attrgetter, ne
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .term import IRI, Term, term_key
from .triple import TemporalFact

#: Names of a relation block's columns, in :meth:`RelationBlock.append` order.
_COLUMN_NAMES = ("subject", "object", "begin", "end", "round", "tag")

_subject = attrgetter("subject")
_object = attrgetter("object")
_predicate = attrgetter("predicate")
_begin = attrgetter("interval.start")
_end = attrgetter("interval.end")


class TermInterner:
    """Bidirectional mapping between terms and dense integer ids.

    Ids are assigned in first-seen order and never reused; two terms compare
    equal exactly when they intern to the same id (terms are immutable value
    objects), which is the property the vectorized joins rely on.  Nothing
    may depend on the numbering itself.
    """

    __slots__ = ("_ids", "_terms", "_keys", "_ranks")

    def __init__(self) -> None:
        self._ids: dict[Term, int] = {}
        self._terms: list[Term] = []
        #: ``term_key`` of each id (the statement-key component of the term).
        self._keys: list[tuple] = []
        self._ranks: Optional[np.ndarray] = None

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
        self._keys.append(term_key(term))
        return assigned

    def intern_all(self, terms: Iterable[Term]) -> list[int]:
        """Ids of ``terms`` in order (one ``dict.setdefault`` per term)."""
        ids = self._ids
        setdefault = ids.setdefault
        assigned = [setdefault(term, len(ids)) for term in terms]
        known = len(self._terms)
        if len(ids) > known:
            fresh = list(islice(ids, known, None))
            self._terms.extend(fresh)
            self._keys.extend(map(term_key, fresh))
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

    def keys(self, term_ids: Iterable[int]) -> Iterator[tuple]:
        """The ``term_key`` of each id (lazily, for building statement keys)."""
        return map(self._keys.__getitem__, term_ids)

    def ranks(self) -> np.ndarray:
        """Each id's rank in ``term_key`` order (equal keys share a rank).

        Recomputed only after the interner has grown: new terms can fall
        between old ones, but never reorder them.
        """
        size = len(self._keys)
        if self._ranks is None or len(self._ranks) != size:
            keys = self._keys
            order = sorted(range(size), key=keys.__getitem__)
            ordered = list(map(keys.__getitem__, order))
            steps = np.ones(size, dtype=np.int64)
            steps[1:] = np.fromiter(map(ne, ordered[1:], ordered), dtype=bool, count=size - 1)
            ranks = np.empty(size, dtype=np.int64)
            ranks[np.asarray(order, dtype=np.int64)] = np.cumsum(steps) - 1
            self._ranks = ranks
        return self._ranks


class RelationBlock:
    """All rows of one predicate as parallel ``int64`` columns.

    Appends are kept as column chunks and concatenated on the first read
    after a mutation.  The grounding workload appends in round-sized
    batches and then scans many times per round, so the amortised
    concatenation cost is negligible next to the joins it enables.
    """

    __slots__ = ("predicate", "_chunks", "_columns", "_size", "_ranks")

    def __init__(self, predicate: IRI) -> None:
        self.predicate = predicate
        self._chunks: list[tuple[np.ndarray, ...]] = []
        self._columns: Optional[dict[str, np.ndarray]] = None
        self._size = 0
        self._ranks: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return self._size

    def append(
        self,
        subjects: np.ndarray,
        objects: np.ndarray,
        begins: np.ndarray,
        ends: np.ndarray,
        rounds: np.ndarray,
        tags: np.ndarray,
    ) -> None:
        """Append rows given as equal-length ``int64`` columns."""
        self._chunks.append((subjects, objects, begins, ends, rounds, tags))
        self._size += len(subjects)
        self._columns = None

    # ------------------------------------------------------------------ #
    # Column access
    # ------------------------------------------------------------------ #
    def columns(self) -> dict[str, np.ndarray]:
        """The columns by name: subject, object, begin, end, round and tag."""
        if self._columns is None:
            chunks = self._chunks
            merged = chunks[0] if len(chunks) == 1 else tuple(map(np.concatenate, zip(*chunks)))
            self._chunks = [merged]
            self._columns = dict(zip(_COLUMN_NAMES, merged))
        return self._columns

    def column(self, name: str) -> np.ndarray:
        return self.columns()[name]

    def tags_array(self) -> np.ndarray:
        """The row tags (the grounder's atom index of each row)."""
        return self.columns()["tag"]

    def rank_array(self, term_ranks: np.ndarray) -> np.ndarray:
        """Per-row rank in the order of the rows' fact sort keys.

        ``term_ranks`` is the entity interner's :meth:`TermInterner.ranks`.
        The rows are ordered by ``(rank[subject], rank[object], begin,
        end)``, which is the statement-key order; statement keys are unique
        within a block, so it is the order of the facts'
        :meth:`~repro.kg.triple.TemporalFact.sort_key` too.  Comparing two
        rows by rank lets callers order whole match sets numerically.
        Cached until rows are appended: new terms never reorder old ones.
        """
        size = self._size
        if self._ranks is None or len(self._ranks) != size:
            columns = self.columns()
            order = np.lexsort(
                (
                    columns["end"],
                    columns["begin"],
                    term_ranks[columns["object"]],
                    term_ranks[columns["subject"]],
                )
            )
            ranks = np.empty(size, dtype=np.int64)
            ranks[order] = np.arange(size, dtype=np.int64)
            self._ranks = ranks
        return self._ranks


class ColumnarFactStore:
    """Interned, per-relation columnar rows of a set of temporal facts.

    The store does not de-duplicate statements: the evidence graph's keys are
    unique already, and the grounder appends a derived row only for a head
    that got a new atom.
    """

    def __init__(self, facts: Sequence[TemporalFact] = (), round_number: int = 0) -> None:
        self.entities = TermInterner()
        self.predicates = TermInterner()
        self._blocks: dict[int, RelationBlock] = {}
        self._size = 0
        self.load(facts, round_number)

    def __len__(self) -> int:
        return self._size

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def load(self, facts: Sequence[TemporalFact], round_number: int = 0) -> None:
        """Append ``facts`` in one pass, tagging each row with its store position.

        The subjects, then the objects, then the predicates are interned with
        one ``dict.setdefault`` each, and the rows are grouped into their
        relation blocks by a stable sort of the predicate ids.  Loading the
        evidence graph into an empty store tags fact *i* with *i*, its
        ground-atom index.
        """
        count = len(facts)
        if not count:
            return
        # One list per field, not a tuple per row: the rows' temporaries
        # would all be alive at once and set off young collections.
        entity_ids = self.entities.intern_all([*map(_subject, facts), *map(_object, facts)])
        self.append(
            np.asarray(self.predicates.intern_all(map(_predicate, facts)), dtype=np.int64),
            np.asarray(entity_ids[:count], dtype=np.int64),
            np.asarray(entity_ids[count:], dtype=np.int64),
            np.fromiter(map(_begin, facts), dtype=np.int64, count=count),
            np.fromiter(map(_end, facts), dtype=np.int64, count=count),
            round_number,
            np.arange(self._size, self._size + count, dtype=np.int64),
        )

    def append(
        self,
        predicates: np.ndarray,
        subjects: np.ndarray,
        objects: np.ndarray,
        begins: np.ndarray,
        ends: np.ndarray,
        round_number: int,
        tags: np.ndarray,
    ) -> None:
        """Append rows given as id columns, labelled with their round.

        ``predicates`` holds predicate-interner ids and ``subjects`` and
        ``objects`` entity-interner ids.  Rows keep their relative order
        within each relation block.
        """
        count = len(subjects)
        rounds = np.full(count, round_number, dtype=np.int64)
        order = np.argsort(predicates, kind="stable")
        splits = np.flatnonzero(np.diff(predicates[order])) + 1
        for rows in np.split(order, splits):
            predicate_id = int(predicates[rows[0]])
            block = self._blocks.get(predicate_id)
            if block is None:
                block = RelationBlock(self.predicates.term(predicate_id))
                self._blocks[predicate_id] = block
            block.append(
                subjects[rows], objects[rows], begins[rows], ends[rows], rounds[rows], tags[rows]
            )
        self._size += count

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
        """All relation blocks (in order of their predicates' first rows)."""
        return iter(self._blocks.values())


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
