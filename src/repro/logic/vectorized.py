"""The columnar, numpy-vectorized grounding engine.

The indexed engine (:class:`~repro.logic.grounding.IndexedGrounder`) already
joins semi-naively, but it still enumerates candidate facts one Python object
at a time.  This engine changes the *data representation* instead of just the
join strategy: the working graph is mirrored into a
:class:`~repro.kg.columnar.ColumnarFactStore` — entities, relations and
predicates interned to dense integer ids, facts laid out as per-relation
numpy column blocks (subject id, object id, interval begin, interval end,
forward-chaining round) — and each rule or constraint body is compiled into a
sequence of sorted-array merge/`searchsorted` equi-joins plus vectorized
interval masks.

The emitted program is **bit-for-bit identical** to the indexed (and naive)
engine's — same atoms, clauses, firings, violations and round count — because
the engine reuses the exact ordering contract those engines share:

* semi-naive rounds with the same pivot/delta discipline (the columnar round
  column plays the role of the graph's insertion ticks);
* per-round matches re-sorted into the naive enumeration order by the facts'
  lexicographic sort keys, with identical firing/violation deduplication.
  Matches never leave the columns for this: a rule's surviving rows of all
  pivot tables, and a constraint's violated rows, are ordered by
  ``np.lexsort`` over the blocks' rank columns; symmetric constraint
  duplicates (one set of atoms in another body order) are dropped by a
  stable ``np.unique`` over a composite key of the row-sorted atom-index
  tags.

Emission writes the program's clause columns directly
(:meth:`~repro.logic.ground.GroundProgram.extend_clauses`), one block per
evidence set, per rule and round, and per constraint, so no
:class:`~repro.logic.ground.GroundClause` is built.  Body atoms come from the
blocks' row tags.  A rule's heads stay interned id columns (predicate,
subject, object, begin, end) from the join to the program: each head's
statement key is built from the interner's term keys and looked up in the
program's atom table, and only a head without an atom gets a
:class:`~repro.kg.triple.TemporalFact`, a new atom, its prior clause and a
store row; the round's new rows of a rule go into the store as id columns in
one append.  Firings and violations go into the result's
:class:`~repro.logic.grounding.FiringTable` and
:class:`~repro.logic.grounding.ViolationTable` as blocks of atom indexes, so
no :class:`~repro.logic.grounding.RuleFiring` or
:class:`~repro.logic.grounding.ConstraintViolation` exists until someone
reads them.  A firing can repeat only under a second rule of the same name,
so only such rules keep a set of firing signatures (body atoms, head key).

Conditions (Allen relations, arithmetic comparisons, term equalities) are
evaluated as numpy masks over the joined columns, short-circuited row-wise in
condition order exactly like the scalar engines; anything the vectorizer does
not recognise — unknown condition classes, non-numeric ``TermValue`` terms,
exotic head-interval expressions — degrades to a per-row evaluation of the
original scalar code path, and bodies with *variable predicates* fall back to
the indexed engine's backtracking matcher wholesale.  Heads these paths
instantiate as facts (and heads with a variable predicate) are interned into
the same head id columns, so there is one emission path.  Correctness therefore
never depends on a construct being vectorizable.
"""

from __future__ import annotations

from collections import Counter
from itertools import repeat
from operator import attrgetter, itemgetter
from typing import Iterator, Optional, Sequence

import numpy as np

from ..errors import GroundingError, LogicError
from ..kg import IRI, TemporalFact, TemporalKnowledgeGraph
from ..kg.columnar import (
    ColumnarFactStore,
    RelationBlock,
    composite_key,
    composite_keys,
    merge_join,
)
from ..temporal import TimeInterval
from .atom import AllenAtom, Comparison, QuadAtom, TermEquality
from .constraint import TemporalConstraint
from .expressions import (
    BinaryOp,
    Expression,
    IntervalDuration,
    IntervalEnd,
    IntervalStart,
    Number,
    TermValue,
)
from .ground import ClauseKind, GroundAtom, GroundProgram, nonzero_weight
from .grounding import (
    GROUNDING_ENGINES,
    GroundingResult,
    _BindingsView,
    _body_sort_key,
    _compile_body,
    _delta_matches,
    _full_matches,
    _GrounderBase,
)
from .rule import TemporalRule
from .terms import Variable


class _NotVectorizable(Exception):
    """Internal signal: evaluate this construct per row instead."""


#: Sort key for match entries (their sort key comes first).
_first_item = itemgetter(0)

_statement_key = attrgetter("statement_key")
_value = attrgetter("value")


# --------------------------------------------------------------------------- #
# Body compilation
# --------------------------------------------------------------------------- #
class _VectorAtom:
    """One quad atom split into constant / variable-name entries."""

    __slots__ = ("predicate", "subject", "object", "interval", "intra_equal")

    def __init__(self, atom: QuadAtom) -> None:
        def entry(position):
            return (True, position.name) if isinstance(position, Variable) else (False, position)

        self.predicate = atom.predicate  # always a constant IRI on this path
        self.subject = entry(atom.subject)
        self.object = entry(atom.object)
        self.interval = entry(atom.interval)
        self.intra_equal = (
            self.subject[0] and self.object[0] and self.subject[1] == self.object[1]
        )


class _VectorBody:
    """A rule/constraint body compiled for the columnar join planner.

    ``fallback`` marks bodies the planner cannot join columnar-ly (variable
    predicates); ``dead`` marks bodies where one variable name is used in
    both an entity and an interval position — such a body can never match
    (the scalar engines reject the clash per candidate), so the planner
    skips it outright.
    """

    __slots__ = ("atoms", "fallback", "dead", "plans", "entity_vars", "interval_vars")

    def __init__(self, body: Sequence[QuadAtom]) -> None:
        self.fallback = any(isinstance(atom.predicate, Variable) for atom in body)
        self.plans = _compile_body(body) if self.fallback else None
        self.atoms = None if self.fallback else [_VectorAtom(atom) for atom in body]
        self.entity_vars: set[str] = set()
        self.interval_vars: set[str] = set()
        for atom in body:
            for position in (atom.subject, atom.object):
                if isinstance(position, Variable):
                    self.entity_vars.add(position.name)
            if isinstance(atom.interval, Variable):
                self.interval_vars.add(atom.interval.name)
        self.dead = not self.fallback and bool(self.entity_vars & self.interval_vars)


class _MatchTable:
    """Intermediate join result: variable columns plus per-atom row indices."""

    __slots__ = ("size", "entities", "intervals", "rows", "blocks")

    def __init__(
        self,
        size: int,
        entities: dict[str, np.ndarray],
        intervals: dict[str, tuple[np.ndarray, np.ndarray]],
        rows: dict[int, np.ndarray],
        blocks: dict[int, RelationBlock],
    ) -> None:
        self.size = size
        self.entities = entities
        self.intervals = intervals
        self.rows = rows
        self.blocks = blocks


# --------------------------------------------------------------------------- #
# The vectorized join
# --------------------------------------------------------------------------- #
def _join_body(
    compiled: _VectorBody,
    store: ColumnarFactStore,
    windows: Sequence[str],
    delta_round: int,
    order: Sequence[int],
) -> Optional[_MatchTable]:
    """Join the body atoms in ``order`` under per-position round windows.

    ``windows[position]`` is ``"delta"`` (round ≥ ``delta_round``), ``"old"``
    (round < ``delta_round``) or ``"all"`` — the vectorized mirror of the
    indexed engine's insertion-tick bounds.  Returns ``None`` when the join
    is empty.
    """
    atoms = compiled.atoms
    table: Optional[_MatchTable] = None
    for position in order:
        atom = atoms[position]
        block = store.block_for(atom.predicate)
        if block is None or len(block) == 0:
            return None
        columns = block.columns()
        mask: Optional[np.ndarray] = None

        def narrow(mask, condition):
            return condition if mask is None else mask & condition

        window = windows[position]
        if window == "delta" and delta_round > 0:
            mask = narrow(mask, columns["round"] >= delta_round)
        elif window == "old":
            mask = narrow(mask, columns["round"] < delta_round)

        for column_name, (is_var, value) in (
            ("subject", atom.subject),
            ("object", atom.object),
        ):
            if not is_var:
                term_id = store.entities.lookup(value)
                if term_id is None:
                    return None
                mask = narrow(mask, columns[column_name] == term_id)
        is_var, value = atom.interval
        if not is_var:
            mask = narrow(mask, columns["begin"] == value.start)
            mask = narrow(mask, columns["end"] == value.end)
        if atom.intra_equal:
            mask = narrow(mask, columns["subject"] == columns["object"])

        rows = np.arange(len(block)) if mask is None else np.flatnonzero(mask)
        if rows.size == 0:
            return None

        # Split the atom's variables into join keys (already bound) and fresh
        # bindings, honouring intra-atom repetition (filtered above).
        join_left: list[np.ndarray] = []
        join_right: list[np.ndarray] = []
        fresh_entities: list[tuple[str, str]] = []
        fresh_interval: Optional[str] = None
        bound_here: set[str] = set()
        for column_name, (is_var, name) in (
            ("subject", atom.subject),
            ("object", atom.object),
        ):
            if not is_var:
                continue
            if table is not None and name in table.entities:
                join_left.append(table.entities[name])
                join_right.append(columns[column_name][rows])
            elif name not in bound_here:
                fresh_entities.append((name, column_name))
                bound_here.add(name)
        is_var, name = atom.interval
        if is_var:
            if table is not None and name in table.intervals:
                begins, ends = table.intervals[name]
                join_left.extend((begins, ends))
                join_right.extend((columns["begin"][rows], columns["end"][rows]))
            else:
                fresh_interval = name

        if table is None:
            entities = {name: columns[column_name][rows] for name, column_name in fresh_entities}
            intervals = {}
            if fresh_interval is not None:
                intervals[fresh_interval] = (
                    columns["begin"][rows],
                    columns["end"][rows],
                )
            table = _MatchTable(rows.size, entities, intervals, {position: rows}, {position: block})
            continue

        if join_left:
            left_key, right_key = composite_keys(join_left, join_right)
            left_index, right_index = merge_join(left_key, right_key)
        else:  # no shared variables: cartesian product
            left_index = np.repeat(np.arange(table.size), rows.size)
            right_index = np.tile(np.arange(rows.size), table.size)
        if left_index.size == 0:
            return None

        selected = rows[right_index]
        entities = {name: column[left_index] for name, column in table.entities.items()}
        intervals = {
            name: (begins[left_index], ends[left_index])
            for name, (begins, ends) in table.intervals.items()
        }
        for name, column_name in fresh_entities:
            entities[name] = columns[column_name][selected]
        if fresh_interval is not None:
            intervals[fresh_interval] = (
                columns["begin"][selected],
                columns["end"][selected],
            )
        new_rows = {p: arr[left_index] for p, arr in table.rows.items()}
        new_rows[position] = selected
        blocks = dict(table.blocks)
        blocks[position] = block
        table = _MatchTable(left_index.size, entities, intervals, new_rows, blocks)
    return table


def _iter_pivot_tables(
    compiled: _VectorBody, store: ColumnarFactStore, delta_round: int
) -> Iterator[_MatchTable]:
    """Semi-naive split: one join per pivot position, disjoint by window."""
    arity = len(compiled.atoms)
    for pivot in range(arity):
        if delta_round <= 0 and pivot > 0:
            # Round one: no pre-delta facts exist, only pivot 0 can match.
            break
        windows = [
            "delta" if position == pivot else "old" if position < pivot else "all"
            for position in range(arity)
        ]
        order = [pivot, *(position for position in range(arity) if position != pivot)]
        table = _join_body(compiled, store, windows, delta_round, order)
        if table is not None and table.size:
            yield table


def _full_table(compiled: _VectorBody, store: ColumnarFactStore) -> Optional[_MatchTable]:
    """One unwindowed join over the whole store (constraint grounding)."""
    arity = len(compiled.atoms)
    return _join_body(compiled, store, ["all"] * arity, 0, range(arity))


# --------------------------------------------------------------------------- #
# Vectorized condition evaluation
# --------------------------------------------------------------------------- #
_ALLEN_MASKS = {
    # The *inclusive* constraint-predicate readings of repro.temporal.allen.
    "before": lambda s1, e1, s2, e2: e1 < s2,
    "after": lambda s1, e1, s2, e2: s1 > e2,
    "overlaps": lambda s1, e1, s2, e2: (s1 <= e2) & (s2 <= e1),
    "overlap": lambda s1, e1, s2, e2: (s1 <= e2) & (s2 <= e1),
    "disjoint": lambda s1, e1, s2, e2: (s1 > e2) | (s2 > e1),
    "meets": lambda s1, e1, s2, e2: e1 + 1 == s2,
    "metBy": lambda s1, e1, s2, e2: s1 == e2 + 1,
    "starts": lambda s1, e1, s2, e2: (s1 == s2) & (e1 < e2),
    "startedBy": lambda s1, e1, s2, e2: (s1 == s2) & (e1 > e2),
    "during": lambda s1, e1, s2, e2: (s1 > s2) & (e1 < e2),
    "contains": lambda s1, e1, s2, e2: (s1 < s2) & (e1 > e2),
    "finishes": lambda s1, e1, s2, e2: (e1 == e2) & (s1 > s2),
    "finishedBy": lambda s1, e1, s2, e2: (e1 == e2) & (s1 < s2),
    "equals": lambda s1, e1, s2, e2: (s1 == s2) & (e1 == e2),
    "within": lambda s1, e1, s2, e2: (s2 <= s1) & (e1 <= e2),
}

_COMPARISON_OPS = {
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
    "=": np.equal,
    "==": np.equal,
    "!=": np.not_equal,
}


def _row_view(table: _MatchTable, store: ColumnarFactStore, match: int) -> _BindingsView:
    """Scalar substitution view of one match row (the per-row fallback)."""
    values: dict = {}
    for name, column in table.entities.items():
        values[name] = store.entities.term(int(column[match]))
    for name, (begins, ends) in table.intervals.items():
        values[name] = TimeInterval(int(begins[match]), int(ends[match]))
    return _BindingsView(values)


def _per_row_mask(condition, table, store, alive: np.ndarray) -> np.ndarray:
    out = np.empty(alive.size, dtype=bool)
    for index, match in enumerate(alive):
        out[index] = condition.holds(_row_view(table, store, int(match)))
    return out


def _evaluate_expression(
    expression: Expression, table: _MatchTable, store: ColumnarFactStore, alive: np.ndarray
):
    """Vectorized arithmetic-expression evaluation over the alive rows."""
    if isinstance(expression, Number):
        return float(expression.value)
    if isinstance(expression, (IntervalStart, IntervalEnd, IntervalDuration)):
        pair = table.intervals.get(expression.variable.name)
        if pair is None:
            raise _NotVectorizable  # unbound / entity-bound: scalar path raises
        begins, ends = pair
        if isinstance(expression, IntervalStart):
            return begins[alive].astype(np.float64)
        if isinstance(expression, IntervalEnd):
            return ends[alive].astype(np.float64)
        return (ends[alive] - begins[alive] + 1).astype(np.float64)
    if isinstance(expression, TermValue):
        name = expression.variable.name
        pair = table.intervals.get(name)
        if pair is not None:
            return pair[0][alive].astype(np.float64)
        column = table.entities.get(name)
        if column is None:
            raise _NotVectorizable
        ids = column[alive]
        unique_ids, codes = np.unique(ids, return_inverse=True)
        # Interpret each distinct term once; non-numeric terms raise the
        # same LogicError the scalar engines raise.
        values = np.empty(unique_ids.size, dtype=np.float64)
        probe = _BindingsView({})
        for index, term_id in enumerate(unique_ids):
            probe._bindings[name] = store.entities.term(int(term_id))
            values[index] = expression.evaluate(probe)
        return values[codes]
    if isinstance(expression, BinaryOp):
        left = _evaluate_expression(expression.left, table, store, alive)
        right = _evaluate_expression(expression.right, table, store, alive)
        if expression.operator == "+":
            return left + right
        if expression.operator == "-":
            return left - right
        if expression.operator == "*":
            return left * right
        if np.any(np.asarray(right) == 0):
            raise LogicError("division by zero in rule condition")
        return left / right
    raise _NotVectorizable


def _condition_mask(condition, table, store, alive: np.ndarray) -> np.ndarray:
    """Boolean mask of ``condition`` over the alive rows (vectorized when possible)."""
    if isinstance(condition, AllenAtom):
        left = table.intervals.get(condition.left.name)
        right = table.intervals.get(condition.right.name)
        if left is None or right is None:
            return _per_row_mask(condition, table, store, alive)
        formula = _ALLEN_MASKS[condition.relation]
        return formula(left[0][alive], left[1][alive], right[0][alive], right[1][alive])
    if isinstance(condition, TermEquality):
        sides = []
        for position in (condition.left, condition.right):
            if isinstance(position, Variable):
                column = table.entities.get(position.name)
                if column is None:
                    return _per_row_mask(condition, table, store, alive)
                sides.append(column[alive])
            else:
                sides.append(position)
        left, right = sides
        if not isinstance(left, np.ndarray) and not isinstance(right, np.ndarray):
            equal = left == right
            return np.full(alive.size, equal != condition.negated)
        if not isinstance(left, np.ndarray):
            left, right = right, left
        if not isinstance(right, np.ndarray):
            right_id = store.entities.lookup(right)
            if right_id is None:
                return np.full(alive.size, condition.negated)
            right = right_id
        mask = left != right if condition.negated else left == right
        return mask
    if isinstance(condition, Comparison):
        try:
            left = _evaluate_expression(condition.left, table, store, alive)
            right = _evaluate_expression(condition.right, table, store, alive)
        except _NotVectorizable:
            return _per_row_mask(condition, table, store, alive)
        result = _COMPARISON_OPS[condition.operator](left, right)
        if np.ndim(result) == 0:
            return np.full(alive.size, bool(result))
        return result
    return _per_row_mask(condition, table, store, alive)


def _apply_conditions(conditions, table, store, alive: np.ndarray) -> np.ndarray:
    """Filter the alive rows through each condition in order.

    Evaluating condition *k* only on rows that passed conditions 1..k-1
    reproduces the scalar engines' per-match short-circuit — including which
    rows ever reach an error-raising condition.
    """
    for condition in conditions:
        if alive.size == 0:
            return alive
        alive = alive[_condition_mask(condition, table, store, alive)]
    return alive


def _violated_rows(constraint: TemporalConstraint, table, store, alive: np.ndarray) -> np.ndarray:
    """Rows whose match violates the constraint (mirrors ``violated_by``)."""
    alive = _apply_conditions(constraint.body_conditions, table, store, alive)
    if not constraint.head_conditions:
        return alive  # pure denial: every applicable match is a conflict
    violated: list[np.ndarray] = []
    remaining = alive
    for condition in constraint.head_conditions:
        if remaining.size == 0:
            break
        mask = _condition_mask(condition, table, store, remaining)
        violated.append(remaining[~mask])
        remaining = remaining[mask]
    if not violated:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(violated)  # the caller puts them in match order


# --------------------------------------------------------------------------- #
# Head interval computation
# --------------------------------------------------------------------------- #
def _head_interval_columns(
    rule: TemporalRule, table: _MatchTable, store: ColumnarFactStore, alive: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-row head intervals ``(alive', begins, ends)``.

    Rows whose head interval is undefined (e.g. an empty intersection) are
    dropped, exactly like ``head_interval_for`` returning ``None``.
    """
    empty = (np.empty(0, dtype=np.int64),) * 3
    expression = rule.head_interval
    if expression is not None:
        kind = expression.kind
        if kind == "var":
            pair = table.intervals.get(expression.left or "")
            if pair is None:
                return empty
            return alive, pair[0][alive], pair[1][alive]
        if kind in ("intersection", "union"):
            left = table.intervals.get(expression.left or "")
            right = table.intervals.get(expression.right or "")
            if left is None or right is None:
                return empty
            if kind == "intersection":
                begins = np.maximum(left[0][alive], right[0][alive])
                ends = np.minimum(left[1][alive], right[1][alive])
                keep = ends >= begins
                return alive[keep], begins[keep], ends[keep]
            begins = np.minimum(left[0][alive], right[0][alive])
            ends = np.maximum(left[1][alive], right[1][alive])
            return alive, begins, ends
        if kind == "shift":
            pair = table.intervals.get(expression.left or "")
            if pair is None:
                return empty
            return alive, pair[0][alive] + expression.delta, pair[1][alive] + expression.delta
        # Unknown expression kind: evaluate the scalar path per row.
        kept, begins, ends = [], [], []
        for match in alive:
            interval = rule.head_interval_for(_row_view(table, store, int(match)))
            if interval is None:
                continue
            kept.append(match)
            begins.append(interval.start)
            ends.append(interval.end)
        return (
            np.asarray(kept, dtype=np.int64),
            np.asarray(begins, dtype=np.int64),
            np.asarray(ends, dtype=np.int64),
        )
    interval_variable = rule.head.interval_variable()
    if interval_variable is not None:
        pair = table.intervals.get(interval_variable.name)
        if pair is None:
            return empty  # bound to an entity: scalar path derives nothing
        return alive, pair[0][alive], pair[1][alive]
    interval = rule.head.interval
    if isinstance(interval, TimeInterval):
        return (
            alive,
            np.full(alive.size, interval.start, dtype=np.int64),
            np.full(alive.size, interval.end, dtype=np.int64),
        )
    return empty


def _predicate_ids(store: ColumnarFactStore, predicates: Sequence) -> list[int]:
    """Predicate-interner ids of head predicates, checked as ``instantiate`` checks them."""
    for predicate in predicates:
        if not isinstance(predicate, IRI):
            raise LogicError(f"predicate resolved to non-IRI value {predicate!r}")
    return store.predicates.intern_all(predicates)


def _head_columns(
    rule: TemporalRule,
    table: _MatchTable,
    store: ColumnarFactStore,
    alive: np.ndarray,
    begins: np.ndarray,
    ends: np.ndarray,
) -> tuple[np.ndarray, ...]:
    """The surviving rows' heads as id columns ``(predicate, subject, object, begin, end)``.

    A variable head subject or object takes its body variable's entity
    column, a constant one its interned id.  A variable head predicate, and
    a head variable bound to no entity column (an interval variable), leave
    the rows to :func:`_scalar_head_columns`, whose instantiation checks and
    raises as the scalar engines do.
    """
    head = rule.head
    size = alive.size
    if isinstance(head.predicate, Variable) or any(
        isinstance(position, Variable) and position.name not in table.entities
        for position in (head.subject, head.object)
    ):
        return _scalar_head_columns(rule, table, store, alive, begins, ends)

    def entity_column(position) -> np.ndarray:
        if isinstance(position, Variable):
            return table.entities[position.name][alive]
        return np.full(size, store.entities.intern(position), dtype=np.int64)

    predicate = _predicate_ids(store, [head.predicate])[0]
    return (
        np.full(size, predicate, dtype=np.int64),
        entity_column(head.subject),
        entity_column(head.object),
        begins,
        ends,
    )


def _fact_columns(
    store: ColumnarFactStore, facts: Sequence[TemporalFact]
) -> tuple[np.ndarray, ...]:
    """Instantiated heads interned into the id columns :func:`_head_columns` returns."""
    count = len(facts)
    ids = store.entities.intern_all([f.subject for f in facts] + [f.object for f in facts])
    return (
        np.asarray(_predicate_ids(store, [fact.predicate for fact in facts]), dtype=np.int64),
        np.asarray(ids[:count], dtype=np.int64),
        np.asarray(ids[count:], dtype=np.int64),
        np.asarray([fact.interval.start for fact in facts], dtype=np.int64),
        np.asarray([fact.interval.end for fact in facts], dtype=np.int64),
    )


def _scalar_head_columns(rule, table, store, alive, begins, ends) -> tuple[np.ndarray, ...]:
    """Per-row ``instantiate`` of the heads, interned into id columns."""
    facts = [
        rule.head.instantiate(
            _row_view(table, store, int(match)),
            interval=TimeInterval(int(begin), int(end)),
            confidence=rule.derived_confidence,
        )
        for match, begin, end in zip(alive, begins, ends)
    ]
    return _fact_columns(store, facts)


# --------------------------------------------------------------------------- #
# Matches as emitted
# --------------------------------------------------------------------------- #
class _Firings:
    """One rule's new firings of one round, in emission order.

    Row ``i`` of ``body_atoms`` holds firing ``i``'s body atom indexes, and
    entry ``i`` of the five head columns its head: predicate id, subject id,
    object id, begin and end.  :meth:`keys` are the heads' statement keys.
    """

    __slots__ = ("body_atoms", "heads", "_keys")

    def __init__(self, body_atoms: np.ndarray, heads: Sequence[np.ndarray]) -> None:
        self.body_atoms = body_atoms
        self.heads = tuple(heads)
        self._keys: Optional[list[tuple]] = None

    def __len__(self) -> int:
        return len(self.body_atoms)

    def keys(self, store: ColumnarFactStore) -> list[tuple]:
        """Each head's ``(key[s], predicate value, key[o], begin, end)``.

        That is the :attr:`~repro.kg.triple.TemporalFact.statement_key` of
        the fact the head denotes, built from the interner's term keys.
        """
        if self._keys is None:
            predicates, subjects, objects, begins, ends = self.heads
            self._keys = list(
                zip(
                    store.entities.keys(subjects.tolist()),
                    map(_value, store.predicates.terms(predicates.tolist())),
                    store.entities.keys(objects.tolist()),
                    begins.tolist(),
                    ends.tolist(),
                )
            )
        return self._keys

    def drop_seen(self, seen: set[tuple], store: ColumnarFactStore) -> None:
        """Drop the firings whose signature ``seen`` holds; record the rest.

        A signature is the body atoms and the head's statement key; ``seen``
        belongs to one rule name, which completes the signature.
        """
        keys = self.keys(store)
        keep = []
        for position, signature in enumerate(zip(map(tuple, self.body_atoms.tolist()), keys)):
            if signature not in seen:
                seen.add(signature)
                keep.append(position)
        if len(keep) < len(keys):
            self.body_atoms = self.body_atoms[keep]
            self.heads = tuple(column[keep] for column in self.heads)
            self._keys = [keys[position] for position in keep]


def _vectorized_firings(
    rule: TemporalRule, compiled: _VectorBody, store: ColumnarFactStore, delta_round: int
) -> Optional[_Firings]:
    """New firings of a vectorized body this round, in the naive enumeration order.

    The pivot tables' surviving rows are concatenated and ordered by
    ``np.lexsort`` over the blocks' rank columns, position 0 primary, which
    is the lexicographic order of the body facts' sort keys (a body tuple is
    matched in one pivot table of one round only, so no two rows tie).
    Body atom indexes come from the blocks' row tags, heads stay id columns.
    """
    arity = len(compiled.atoms)
    rows: list[list[np.ndarray]] = [[] for _ in range(arity)]
    heads: list[list[np.ndarray]] = [[] for _ in range(5)]
    blocks: dict[int, RelationBlock] = {}
    for table in _iter_pivot_tables(compiled, store, delta_round):
        alive = _apply_conditions(rule.conditions, table, store, np.arange(table.size))
        if alive.size == 0:
            continue
        alive, begins, ends = _head_interval_columns(rule, table, store, alive)
        if alive.size == 0:
            continue
        for parts, column in zip(heads, _head_columns(rule, table, store, alive, begins, ends)):
            parts.append(column)
        for position in range(arity):
            rows[position].append(table.rows[position][alive])
        blocks = table.blocks
    if not blocks:
        return None
    matched = [np.concatenate(parts) for parts in rows]
    term_ranks = store.entities.ranks()
    order = np.lexsort(
        [blocks[p].rank_array(term_ranks)[matched[p]] for p in reversed(range(arity))]
    )
    body_atoms = np.column_stack([blocks[p].tags_array()[matched[p][order]] for p in range(arity)])
    return _Firings(body_atoms, [np.concatenate(parts)[order] for parts in heads])


def _vectorized_violations(
    constraint: TemporalConstraint, compiled: _VectorBody, store: ColumnarFactStore
) -> np.ndarray:
    """Violated matches of a vectorized constraint body, as emitted.

    Returns the matches' atom indexes (one row per match, from the blocks'
    row tags), in the naive enumeration order, with symmetric duplicates
    (the same set of atoms reached in another body order) dropped.  Both
    steps run on the match table's columns:

    * the order is lexicographic in the body facts' sort keys, which is
      ``np.lexsort`` over the per-block rank columns with position 0
      primary (rank tuples are unique within one join);
    * of each set of atom indexes the first match in that order survives:
      a stable ``np.unique(..., return_index=True)`` over one composite key
      of the row-sorted tags.
    """
    arity = len(compiled.atoms)
    empty = np.empty((0, arity), dtype=np.int64)
    table = _full_table(compiled, store)
    if table is None or not table.size:
        return empty
    alive = np.arange(table.size)
    # Degenerate matches: the same fact filling two body atoms.
    for first in range(arity):
        for second in range(first + 1, arity):
            if compiled.atoms[first].predicate == compiled.atoms[second].predicate:
                alive = alive[table.rows[first][alive] != table.rows[second][alive]]
    violated = _violated_rows(constraint, table, store, alive)
    if violated.size == 0:
        return empty
    term_ranks = store.entities.ranks()
    ranks = [table.blocks[p].rank_array(term_ranks)[table.rows[p][violated]] for p in range(arity)]
    violated = violated[np.lexsort(ranks[::-1])]  # lexsort's last key is primary
    tags = np.column_stack(
        [table.blocks[p].tags_array()[table.rows[p][violated]] for p in range(arity)]
    )
    if arity > 1:
        conflict_key = composite_key(list(np.sort(tags, axis=1).T))
        _, first_rows = np.unique(conflict_key, return_index=True)
        tags = tags[np.sort(first_rows)]
    return tags


# --------------------------------------------------------------------------- #
# Program emission (straight into the clause columns)
# --------------------------------------------------------------------------- #
def _emit_violations(
    program: GroundProgram,
    result: GroundingResult,
    constraint: TemporalConstraint,
    atom_rows: np.ndarray,
) -> None:
    """Append one constraint clause, and one violation, per row of ``atom_rows``.

    :meth:`GroundProgram.add_clause`'s weight normalisation, done once per
    constraint: a negative weight flips the literal of a one-atom body and
    is unrepresentable for a longer one (raised only when a match is
    violated), and a zero weight becomes the shared epsilon.
    """
    count, arity = atom_rows.shape
    if not count:
        return
    name, weight = constraint.name, constraint.weight
    positive, clause_weight = False, weight
    if weight is not None and weight < 0:
        if arity != 1:
            raise GroundingError(
                f"negative-weight non-unit clause from {name!r} is not representable"
            )
        positive, clause_weight = True, -weight
    program.extend_clauses(
        np.full(count, arity),
        atom_rows.ravel(),
        np.full(count * arity, positive),
        [nonzero_weight(clause_weight)] * count,
        np.full(count, program.origin_code(ClauseKind.CONSTRAINT, name)),
    )
    result.violations.add_block(constraint, atom_rows)


# --------------------------------------------------------------------------- #
# The engine
# --------------------------------------------------------------------------- #
class VectorizedGrounder(_GrounderBase):
    """Columnar, numpy-vectorized grounding engine.

    A pure optimisation of :class:`~repro.logic.grounding.IndexedGrounder`:
    the emitted program is bit-for-bit identical (the differential suite in
    ``tests/test_vectorized_equivalence.py`` proves it); the hot join path
    runs as sorted-array merge joins and boolean masks over interned integer
    columns instead of per-fact Python dictionary probes, and clauses go
    straight into the program's columns
    (:meth:`~repro.logic.ground.GroundProgram.extend_clauses`) without a
    :class:`~repro.logic.ground.GroundClause` object each.  Firings and
    violations go into the result's tables as blocks of atom indexes.

    The engine owns the whole pipeline (it overrides :meth:`ground`): when
    every body is vectorizable it never materialises the working-graph copy
    the scalar engines maintain — the columnar store *is* the working state.
    Only bodies with variable predicates bring the row-oriented graph back,
    for the indexed engine's backtracking matcher.
    """

    engine = "vectorized"

    # ------------------------------------------------------------------ #
    def ground(self) -> GroundingResult:
        program = GroundProgram()
        result = GroundingResult(program=program)

        # 1. Evidence atoms and their soft unit clauses, byte-identical to
        # _GrounderBase.ground's add_atom/add_clause loop (fresh atoms,
        # unit-clause weight normalisation inlined).
        facts = list(self.graph)
        count = len(facts)
        program.atoms.extend(map(GroundAtom, range(count), facts, repeat(True), repeat(None)))
        program._atom_index.update(zip(map(_statement_key, facts), range(count)))
        keep_bias = self.keep_bias
        raw = [fact.log_weight + keep_bias for fact in facts]
        program.extend_clauses(
            np.ones(count, dtype=np.int64),
            np.arange(count, dtype=np.int64),
            np.array([weight >= 0 for weight in raw], dtype=bool),
            [-weight if weight < 0 else nonzero_weight(weight) for weight in raw],
            np.full(count, program.origin_code(ClauseKind.EVIDENCE, "evidence")),
        )

        chain_rules = bool(self.derive_facts and self.rules)
        compiled_rules = [_VectorBody(rule.body) for rule in self.rules] if chain_rules else []
        compiled_constraints = [_VectorBody(c.body) for c in self.constraints]
        needs_graph = any(c.fallback for c in compiled_rules) or any(
            c.fallback for c in compiled_constraints
        )
        # The columnar store is the working state; the row-oriented working
        # graph is only maintained alongside it for fallback bodies.
        working = self.graph.copy(name=f"{self.graph.name}-working") if needs_graph else None
        # Evidence atom i is the graph's i-th fact, which the load tags i.
        store = ColumnarFactStore(facts)

        if chain_rules:
            result.rounds = self._chain_rounds(program, result, store, working, compiled_rules)
        self._constraint_pass(program, result, store, working, compiled_constraints)
        return result

    # ------------------------------------------------------------------ #
    def _chain_rounds(
        self,
        program: GroundProgram,
        result: GroundingResult,
        store: ColumnarFactStore,
        working: Optional[TemporalKnowledgeGraph],
        compiled_bodies: list[_VectorBody],
    ) -> int:
        """Forward-chain the rules to the semi-naive fix point.

        Each round first collects every rule's new firings against the
        store as the previous round left it, then emits them rule by rule.
        A body tuple is matched in one round only (the one after its last
        fact arrived), so a firing can repeat only under another rule of the
        same name.  Such rules share a set of firing signatures, and a
        repeated firing is dropped, as in the scalar engines.
        """
        names = Counter(rule.name for rule in self.rules)
        seen: dict[str, set[tuple]] = {name: set() for name, count in names.items() if count > 1}
        rounds_used = 0
        delta_since = 0  # insertion-tick cursor, for fallback bodies only
        for round_number in range(1, self.max_rounds + 1):
            round_mark = working.mark() if working is not None else 0
            batches: list[tuple[TemporalRule, _Firings]] = []
            for rule, compiled in zip(self.rules, compiled_bodies):
                if compiled.dead:
                    continue
                if compiled.fallback:
                    firings = self._fallback_firings(
                        rule, compiled, program, store, working, delta_since
                    )
                else:
                    firings = _vectorized_firings(rule, compiled, store, round_number - 1)
                if firings is not None and rule.name in seen:
                    firings.drop_seen(seen[rule.name], store)
                if firings:
                    batches.append((rule, firings))
            if not batches:
                break
            rounds_used = round_number
            for rule, firings in batches:
                self._emit_firings(program, result, store, working, rule, firings, round_number)
            delta_since = round_mark
        return rounds_used

    def _fallback_firings(
        self,
        rule: TemporalRule,
        compiled: _VectorBody,
        program: GroundProgram,
        store: ColumnarFactStore,
        working: TemporalKnowledgeGraph,
        delta_since: int,
    ) -> Optional[_Firings]:
        """Variable-predicate bodies: the indexed engine's backtracking join.

        Returns what :func:`_vectorized_firings` returns, ordered by the body
        sort keys; every body fact is in the working graph, so it has an atom.
        The instantiated heads are interned into the head id columns.
        """
        matches: list[tuple] = []
        for substitution, body_facts in _delta_matches(compiled.plans, working, delta_since):
            if not all(condition.holds(substitution) for condition in rule.conditions):
                continue
            head_interval = rule.head_interval_for(substitution)
            if head_interval is None:
                continue
            head_fact = rule.head.instantiate(
                substitution,
                interval=head_interval,
                confidence=rule.derived_confidence,
            )
            matches.append((_body_sort_key(body_facts), body_facts, head_fact))
        if not matches:
            return None
        matches.sort(key=_first_item)
        atom_index = program._atom_index
        body_atoms = np.array(
            [[atom_index[fact.statement_key] for fact in body] for _, body, _ in matches],
            dtype=np.int64,
        )
        return _Firings(body_atoms, _fact_columns(store, [head for *_, head in matches]))

    def _emit_firings(
        self,
        program: GroundProgram,
        result: GroundingResult,
        store: ColumnarFactStore,
        working: Optional[TemporalKnowledgeGraph],
        rule: TemporalRule,
        firings: _Firings,
        round_number: int,
    ) -> None:
        """Append one round's firings of ``rule`` to the program and the store.

        The heads' statement keys are looked up in the atom table with one
        ``map``.  A key without an atom gets a new derived atom (its fact
        built through the :class:`TemporalFact` constructor), a prior clause
        and a store row, appended as id columns in one call (and mirrored
        into the working graph when fallback bodies keep one).  Each firing
        then emits, in order, the prior of its new head atom (if any) and its
        rule clause ``¬b₁ ∨ … ∨ ¬bₖ ∨ h``.
        """
        name, weight = rule.name, rule.weight
        # add_clause's normalisation, hoisted: rule clauses have ≥ 2
        # literals, so a negative weight is unrepresentable and a zero
        # weight becomes the shared epsilon.
        if weight is not None and weight < 0:
            raise GroundingError(
                f"negative-weight non-unit clause from {name!r} is not representable"
            )
        atoms, atom_index = program.atoms, program._atom_index
        keys = firings.keys(store)
        head_atoms = list(map(atom_index.get, keys))
        fresh: list[int] = []  # firings whose head got a new atom
        first_new = next_index = len(atoms)
        for position in [p for p, index in enumerate(head_atoms) if index is None]:
            key = keys[position]
            index = atom_index.get(key)  # an earlier firing of this call may have added it
            if index is None:
                index = atom_index[key] = next_index
                next_index += 1
                fresh.append(position)
            head_atoms[position] = index
        if fresh:
            predicates, subjects, objects, begins, ends = (
                column[fresh] for column in firings.heads
            )
            spans: dict[tuple[int, int], TimeInterval] = {}  # one object per interval
            intervals = []
            for span in zip(begins.tolist(), ends.tolist()):
                interval = spans.get(span)
                if interval is None:
                    interval = spans[span] = TimeInterval(*span)
                intervals.append(interval)
            new_facts = list(
                map(
                    TemporalFact,
                    store.entities.terms(subjects.tolist()),
                    store.predicates.terms(predicates.tolist()),
                    store.entities.terms(objects.tolist()),
                    intervals,
                    repeat(rule.derived_confidence),
                )
            )
            indexes = range(first_new, next_index)
            atoms.extend(map(GroundAtom, indexes, new_facts, repeat(False), repeat(name)))
            store.append(
                predicates,
                subjects,
                objects,
                begins,
                ends,
                round_number,
                np.arange(first_new, next_index, dtype=np.int64),
            )
            if working is not None:
                working.add_all(new_facts)

        # Firing i owns the literal row [h, b₁ … bₖ, h]: its first entry is
        # the prior (¬h), kept only for a new head atom, and the rest is the
        # rule clause.
        count = len(head_atoms)
        prior = np.zeros(count, dtype=bool)
        if self.derived_prior > 0:
            prior[fresh] = True
        head_column = np.array(head_atoms, dtype=np.int64)
        literal_rows = np.column_stack((head_column, firings.body_atoms, head_column))
        literal_keep = np.ones(literal_rows.shape, dtype=bool)
        literal_keep[:, 0] = prior
        sign_rows = np.zeros(literal_rows.shape, dtype=bool)
        sign_rows[:, -1] = True
        clause_keep = np.column_stack((prior, np.ones(count, dtype=bool)))
        is_rule = np.broadcast_to(np.array([0, 1]), clause_keep.shape)[clause_keep]
        program.extend_clauses(
            np.array([1, literal_rows.shape[1] - 1])[is_rule],
            literal_rows[literal_keep],
            sign_rows[literal_keep],
            np.array([self.derived_prior, nonzero_weight(weight)], dtype=object)[is_rule].tolist(),
            np.array(
                [
                    program.origin_code(ClauseKind.PRIOR, f"prior:{name}"),
                    program.origin_code(ClauseKind.RULE, name),
                ]
            )[is_rule],
        )
        result.firings.add_block(rule, firings.body_atoms, head_column)

    # ------------------------------------------------------------------ #
    def _constraint_pass(
        self,
        program: GroundProgram,
        result: GroundingResult,
        store: ColumnarFactStore,
        working: Optional[TemporalKnowledgeGraph],
        compiled_constraints: list[_VectorBody],
    ) -> None:
        for constraint, compiled in zip(self.constraints, compiled_constraints):
            if compiled.dead:
                continue
            if compiled.fallback:
                atom_rows = self._fallback_violations(constraint, compiled, program, working)
            else:
                atom_rows = _vectorized_violations(constraint, compiled, store)
            _emit_violations(program, result, constraint, atom_rows)

    def _fallback_violations(
        self,
        constraint: TemporalConstraint,
        compiled: _VectorBody,
        program: GroundProgram,
        working: TemporalKnowledgeGraph,
    ) -> np.ndarray:
        """Variable-predicate bodies: the indexed engine's backtracking join.

        Returns what :func:`_vectorized_violations` returns, ordered and
        de-duplicated match by match like the scalar engines.  Every body
        fact is in the working graph, so it has an atom.
        """
        matches: list[tuple] = []
        for substitution, facts in _full_matches(compiled.plans, working):
            keys = tuple(fact.statement_key for fact in facts)
            if len(set(keys)) != len(keys):
                continue
            if not constraint.violated_by(substitution):
                continue
            matches.append((_body_sort_key(facts), keys))
        # Sort before deduplicating: of two symmetric matches the naive
        # enumeration keeps the lexicographically first one.
        matches.sort(key=_first_item)
        atom_index = program._atom_index
        seen: set[tuple] = set()
        atom_rows: list[list[int]] = []
        for _, keys in matches:
            signature = tuple(sorted(keys))
            if signature in seen:
                continue
            seen.add(signature)
            atom_rows.append([atom_index[key] for key in keys])
        shape = (len(atom_rows), len(constraint.body))
        return np.array(atom_rows, dtype=np.int64).reshape(shape)


#: Make the vectorized engine selectable wherever the other engines are.
GROUNDING_ENGINES["vectorized"] = VectorizedGrounder
