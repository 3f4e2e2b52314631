"""Unit tests for the columnar fact store and its join primitives."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kg import (
    IRI,
    BlankNode,
    ColumnarFactStore,
    Literal,
    TemporalFact,
    TermInterner,
    make_fact,
)
from repro.kg.columnar import composite_keys, merge_join
from repro.logic.vectorized import _fact_columns
from repro.temporal import TimeInterval


def sample_facts():
    return [
        make_fact("A", "playsFor", "T1", (2000, 2004), 0.9),
        make_fact("B", "playsFor", "T1", (2001, 2003), 0.8),
        make_fact("A", "coach", "T2", (2010, 2012), 0.7),
        make_fact("B", "playsFor", "T2", (2005, 2006), 0.6),
    ]


class TestTermInterner:
    def test_roundtrip_and_stability(self):
        interner = TermInterner()
        first = interner.intern(IRI("A"))
        second = interner.intern(IRI("B"))
        assert first != second
        assert interner.intern(IRI("A")) == first  # idempotent
        assert interner.term(first) == IRI("A")
        assert interner.terms([second, first]) == [IRI("B"), IRI("A")]
        assert len(interner) == 2

    def test_lookup_does_not_intern(self):
        interner = TermInterner()
        assert interner.lookup(IRI("missing")) is None
        assert len(interner) == 0

    def test_intern_all_agrees_with_intern(self):
        interner = TermInterner()
        a = interner.intern(IRI("A"))
        ids = interner.intern_all([IRI("B"), IRI("A"), Literal("1", "integer"), IRI("B")])
        assert ids[1] == a and ids[0] == ids[3] and len(set(ids)) == 3
        assert interner.intern(Literal("1", "integer")) == ids[2]
        assert list(interner.keys(ids)) == [
            (0, "B"),
            (0, "A"),
            (1, "integer", "1"),
            (0, "B"),
        ]

    def test_ranks_follow_term_keys(self):
        interner = TermInterner()
        # Two literals whose datatype and lexical form joined by a colon
        # read alike ("x:a:b"); their keys still differ, by datatype first.
        terms = [BlankNode("n"), Literal("b", "x:a"), IRI("Z"), Literal("a:b", "x"), IRI("A")]
        ids = interner.intern_all(terms)
        ranks = interner.ranks()[ids].tolist()
        assert ranks == [4, 3, 1, 2, 0]
        interner.intern(IRI("M"))  # falls between A and Z
        assert interner.ranks()[ids].tolist() == [5, 4, 2, 3, 0]


class TestColumnarFactStore:
    def test_blocks_and_columns(self):
        store = ColumnarFactStore(sample_facts())
        assert len(store) == 4
        plays = store.block_for(IRI("playsFor"))
        assert plays is not None and len(plays) == 3
        columns = plays.columns()
        assert columns["begin"].tolist() == [2000, 2001, 2005]
        assert columns["end"].tolist() == [2004, 2003, 2006]
        # Equal subjects intern to equal ids across blocks.
        coach = store.block_for(IRI("coach"))
        assert coach.columns()["subject"][0] == columns["subject"][0]

    def test_round_labels_and_lazy_rebuild(self):
        store = ColumnarFactStore(sample_facts(), round_number=0)
        block = store.block_for(IRI("playsFor"))
        assert block.columns()["round"].tolist() == [0, 0, 0]
        store.load([make_fact("C", "playsFor", "T3", (1999, 2000), 0.5)], round_number=2)
        # Columns are rebuilt lazily and include the new row.
        assert block.columns()["round"].tolist() == [0, 0, 0, 2]
        assert block.column("subject").shape == (4,)

    def test_load_tags_rows_with_their_position_and_append_takes_tags(self):
        store = ColumnarFactStore(sample_facts())
        assert store.block_for(IRI("playsFor")).tags_array().tolist() == [0, 1, 3]
        assert store.block_for(IRI("coach")).tags_array().tolist() == [2]
        subject = store.entities.intern(IRI("C"))
        coach, plays = (store.predicates.lookup(IRI(name)) for name in ("coach", "playsFor"))
        store.append(
            np.array([plays, coach, plays]),
            np.full(3, subject),
            np.full(3, store.entities.lookup(IRI("T1"))),
            np.array([1, 2, 3]),
            np.array([4, 5, 6]),
            1,
            np.array([7, 8, 9]),
        )
        assert len(store) == 7
        plays_block = store.block_for(IRI("playsFor"))
        assert plays_block.tags_array().tolist() == [0, 1, 3, 7, 9]
        assert plays_block.column("round").tolist() == [0, 0, 0, 1, 1]
        assert store.block_for(IRI("coach")).tags_array().tolist() == [2, 8]

    def test_blocks_do_not_keep_their_store_alive(self):
        store = ColumnarFactStore(sample_facts())
        block = store.block_for(IRI("playsFor"))
        alive = weakref.ref(store)
        enabled = gc.isenabled()
        gc.disable()
        try:
            del store
            assert alive() is None  # freed by reference counting alone
        finally:
            if enabled:
                gc.enable()
        assert len(block) == 3


# --------------------------------------------------------------------------- #
# rank_array: the columns order rows as the facts' sort keys do
# --------------------------------------------------------------------------- #
#: IRIs, literals of several datatypes (two whose datatype and lexical form
#: joined by a colon read alike) and blank nodes.
TERMS = [
    IRI("A"),
    IRI("B"),
    IRI("Zed"),
    IRI("a"),
    Literal("7", "integer"),
    Literal("10", "integer"),
    Literal("1999", "gYear"),
    Literal("some text"),
    Literal("b", "x:a"),
    Literal("a:b", "x"),
    BlankNode("n1"),
    BlankNode("n0"),
]
#: Terms only the derived rows use, so appending them grows the interner.
LATE_TERMS = [IRI("M"), Literal("8", "integer"), BlankNode("m"), IRI("0")]

terms = st.sampled_from(TERMS)
#: Terms valid in subject position: a fact never has a literal subject.
subjects = st.sampled_from([term for term in TERMS if not isinstance(term, Literal)])
late_subjects = st.sampled_from(
    [term for term in TERMS + LATE_TERMS if not isinstance(term, Literal)]
)
spans = st.tuples(st.integers(0, 3), st.integers(0, 2)).map(lambda span: (span[0], sum(span)))


def facts_over(subjects, objects):
    return st.lists(
        st.builds(
            lambda s, p, o, span, confidence: TemporalFact(
                s, IRI(p), o, TimeInterval(*span), confidence
            ),
            subjects,
            st.sampled_from(["p", "q"]),
            objects,
            spans,
            st.sampled_from([0.5, 0.9]),
        ),
        max_size=30,
    )


def unique_statements(facts, seen):
    kept = []
    for fact in facts:
        if fact.statement_key not in seen:
            seen.add(fact.statement_key)
            kept.append(fact)
    return kept


def assert_ranks_order_like_sort_keys(store, facts_by_tag):
    term_ranks = store.entities.ranks()
    for block in store.blocks():
        facts = [facts_by_tag[tag] for tag in block.tags_array().tolist()]
        ranks = block.rank_array(term_ranks).tolist()
        rows = range(len(facts))
        assert sorted(rows, key=ranks.__getitem__) == sorted(
            rows, key=lambda row: facts[row].sort_key()
        )


def append_by_id(store, facts, round_number):
    """Append ``facts`` as id columns, as the grounder appends its heads."""
    tags = np.arange(len(store), len(store) + len(facts), dtype=np.int64)
    store.append(*_fact_columns(store, facts), round_number, tags)


class TestRankArray:
    @given(
        evidence=facts_over(subjects, terms),
        derived=facts_over(subjects, terms),
        late=facts_over(late_subjects, st.sampled_from(TERMS + LATE_TERMS)),
    )
    @settings(max_examples=150, deadline=None)
    def test_rank_array_orders_like_sort_keys(self, evidence, derived, late):
        seen = set()
        facts = unique_statements(evidence, seen)
        store = ColumnarFactStore(facts)
        assert_ranks_order_like_sort_keys(store, facts)

        # Derived rows appended by id, over terms the store already has.
        derived = unique_statements(derived, seen)
        if derived:
            append_by_id(store, derived, round_number=1)
            facts += derived
        assert_ranks_order_like_sort_keys(store, facts)

        # The interner grows between two rank computations.
        late = unique_statements(late, seen)
        if late:
            append_by_id(store, late, round_number=2)
            facts += late
        assert_ranks_order_like_sort_keys(store, facts)


class TestMergeJoin:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        left = rng.integers(0, 12, size=40)
        right = rng.integers(0, 12, size=55)
        left_index, right_index = merge_join(left, right)
        got = sorted(zip(left_index.tolist(), right_index.tolist()))
        expected = sorted(
            (i, j) for i in range(len(left)) for j in range(len(right)) if left[i] == right[j]
        )
        assert got == expected

    def test_precomputed_right_order(self):
        left = np.asarray([2, 9, 4], dtype=np.int64)
        right = np.asarray([4, 2, 2, 7], dtype=np.int64)
        order = np.argsort(right, kind="stable")
        with_order = merge_join(left, right, right_order=order)
        without = merge_join(left, right)
        assert sorted(zip(*map(np.ndarray.tolist, with_order))) == sorted(
            zip(*map(np.ndarray.tolist, without))
        )

    def test_empty_sides(self):
        empty = np.empty(0, dtype=np.int64)
        keys = np.asarray([1, 2, 3], dtype=np.int64)
        for left, right in ((empty, keys), (keys, empty), (empty, empty)):
            left_index, right_index = merge_join(left, right)
            assert left_index.size == 0 and right_index.size == 0


class TestCompositeKeys:
    def test_equal_tuples_encode_equal(self):
        left_cols = [np.asarray([1, 2, 1]), np.asarray([5, 5, 6])]
        right_cols = [np.asarray([1, 1, 2]), np.asarray([5, 6, 5])]
        left, right = composite_keys(left_cols, right_cols)
        # (1,5) on the left matches (1,5) on the right and nothing else.
        assert left[0] == right[0]
        assert left[0] != right[1]
        assert left[2] == right[1]
        assert left[1] == right[2]

    def test_single_column_passthrough(self):
        column = np.asarray([3, 1, 4])
        left, right = composite_keys([column], [column])
        assert left is column and right is column

    def test_overflow_refactorisation(self):
        """Huge value ranges force the dense-recoding path, keeping joins exact."""
        big = np.int64(1) << 40
        left_cols = [np.asarray([0, big, 7]), np.asarray([big, 0, 7]), np.asarray([1, 2, 1])]
        right_cols = [np.asarray([7, 0, big]), np.asarray([7, big, 0]), np.asarray([1, 1, 2])]
        left, right = composite_keys(left_cols, right_cols)
        # The right rows are a rotation of the left rows: (0,big,1),
        # (big,0,2), (7,7,1) → equal tuples must encode equal...
        assert left[0] == right[1]
        assert left[1] == right[2]
        assert left[2] == right[0]
        # ...and distinct tuples must stay distinct.
        assert left[0] != right[0]
        assert left[1] != right[1]
        assert left[2] != right[2]

    def test_giant_value_ranges_never_wrap(self):
        """Even when every column spans ~2^55, equal-tuple encoding is exact.

        Ranges this wide force both re-factorisation paths: the partial-key
        compression and the per-column dense recoding.
        """
        rng = np.random.default_rng(3)
        huge = np.int64(1) << 55
        rows = 64
        columns = [rng.integers(0, huge, size=rows) for _ in range(4)]
        left_cols = [c.copy() for c in columns]
        # Right side: a shuffled copy of the left rows plus fresh rows.
        perm = rng.permutation(rows)
        right_cols = [np.concatenate([c[perm], rng.integers(0, huge, size=rows)]) for c in columns]
        left, right = composite_keys(left_cols, right_cols)
        left_tuples = list(zip(*(c.tolist() for c in left_cols)))
        right_tuples = list(zip(*(c.tolist() for c in right_cols)))
        for i, lt in enumerate(left_tuples):
            for j, rt in enumerate(right_tuples):
                assert (left[i] == right[j]) == (lt == rt)

    def test_negative_values(self):
        left_cols = [np.asarray([-5, 3]), np.asarray([2, -2])]
        right_cols = [np.asarray([3, -5]), np.asarray([-2, 2])]
        left, right = composite_keys(left_cols, right_cols)
        assert left[0] == right[1]
        assert left[1] == right[0]
