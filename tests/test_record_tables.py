"""Firings and violations as tables: what a one-shot resolve builds.

The vectorized grounder keeps rule heads as interned ids and fills
``grounding.firings`` and ``grounding.violations`` with blocks of atom
indexes; a result's violations are a :class:`~repro.logic.ConflictTable`
whose rows index the result's own conflicting facts.  A table builds its
objects only when someone reads it, so a one-shot resolve, and encoding its
result, build no :class:`RuleFiring` and no :class:`ConstraintViolation`,
and one :class:`TemporalFact` per new derived atom only.
"""

import gc
import types

import numpy as np
import pytest

from repro import TeCoRe
from repro.datasets import FootballDBConfig, WikidataConfig, generate_footballdb, generate_wikidata
from repro.kg import TemporalFact, make_fact
from repro.logic import (
    ConflictTable,
    ConstraintViolation,
    GroundAtom,
    GroundProgram,
    running_example_constraints,
    running_example_rules,
)
from repro.logic.grounding import GroundingResult
from repro.serve.protocol import encode_result

CASES = pytest.mark.parametrize(
    "solver, pack, graph",
    [
        (
            "nrockit",
            "sports",
            lambda: generate_footballdb(
                FootballDBConfig(scale=0.02, noise_ratio=0.5, seed=2017)
            ).graph,
        ),
        (
            "npsl",
            "biography",
            lambda: generate_wikidata(WikidataConfig(scale=1e-4, noise_ratio=0.5, seed=3)).graph,
        ),
    ],
    ids=["nrockit-footballdb", "npsl-wikidata"],
)


class TestOneShotResolve:
    @CASES
    def test_resolve_and_encode_build_no_record(self, solver, pack, graph, built_records):
        graph = graph()
        system = TeCoRe.from_pack(pack, solver=solver)
        built_records.clear()
        result = system.resolve(graph)
        statistics = result.statistics
        assert statistics.violations and statistics.conflicting_facts
        derived = statistics.ground_atoms - statistics.input_facts
        assert derived > 0
        assert [type(record) for record in built_records] == [TemporalFact] * derived
        built_records.clear()
        payload = encode_result(result, include_graphs=True)
        assert payload["violations_by_constraint"]
        assert built_records == []

    @CASES
    def test_tables_read_like_the_indexed_engine(self, solver, pack, graph):
        graph = graph()
        system = TeCoRe.from_pack(pack, solver=solver)
        indexed = TeCoRe.from_pack(pack, solver=solver, engine="indexed")
        grounding = system.translate(graph).grounding
        reference = indexed.translate(graph).grounding
        assert len(grounding.firings) == len(reference.firings)
        assert grounding.firings == reference.firings
        assert grounding.violations == reference.violations
        assert grounding.conflicting_facts() == reference.conflicting_facts()

        result, expected = system.resolve(graph), indexed.resolve(graph)
        assert isinstance(result.violations, ConflictTable)
        assert len(result.violations) == len(expected.violations)
        assert result.violations == expected.violations
        assert result.violations == tuple(expected.violations)
        assert result.conflicting_facts == expected.conflicting_facts
        assert result.violations_by_constraint() == expected.violations_by_constraint()
        assert list(result.violations_by_constraint()) == list(expected.violations_by_constraint())

    def test_result_violations_hold_no_program(self):
        """The response cache keeps results; their violations must not pin programs."""
        system = TeCoRe.from_pack("sports", solver="nrockit")
        graph = generate_footballdb(FootballDBConfig(scale=0.01, noise_ratio=0.5, seed=5)).graph
        violations = system.resolve(graph).violations
        reached, stack, seen = [], [violations], set()
        while stack:
            item = stack.pop()
            if id(item) in seen or isinstance(item, (type, types.ModuleType, TemporalFact)):
                continue
            seen.add(id(item))
            reached.append(item)
            stack.extend(gc.get_referents(item))
        assert not [
            item
            for item in reached
            if isinstance(item, (GroundProgram, GroundAtom, GroundingResult))
        ]
        assert list(violations)  # and it still reads


def conflict_table():
    chelsea = make_fact("CR", "coach", "Chelsea", (2000, 2004), 0.9)
    napoli = make_fact("CR", "coach", "Napoli", (2001, 2003), 0.6)
    leicester = make_fact("CR", "coach", "Leicester", (2002, 2002), 0.5)
    violations = [
        ("c2", None, (chelsea, napoli)),
        ("c2", None, (chelsea, leicester)),
        ("soft", 1.5, (napoli,)),
        ("c2", None, (napoli, leicester)),
    ]
    expected = tuple(ConstraintViolation(name, facts, weight) for name, weight, facts in violations)
    return ConflictTable.from_violations(violations), expected


class TestConflictTable:
    def test_reads_like_the_tuple_it_stands_for(self, built_records):
        table, expected = conflict_table()
        built_records.clear()
        assert len(table) == 4 and table
        assert table.hard_count == 3
        assert table.by_constraint() == {"c2": 3, "soft": 1}
        assert list(table.by_constraint()) == ["c2", "soft"]
        assert [str(fact.object) for fact in table.facts] == ["Chelsea", "Napoli", "Leicester"]
        assert built_records == []  # none of the above builds a violation
        assert table == expected
        assert table != list(expected)
        assert table[1] == expected[1] and table[-1] == expected[-1]
        assert table[1:3] == expected[1:3] and isinstance(table[1:3], tuple)
        assert tuple(table) == expected
        assert hash(table) == hash(expected)
        assert repr(table) == repr(expected)
        assert not hasattr(table, "append")

    def test_empty(self):
        table = ConflictTable.from_violations(())
        assert len(table) == 0 and not table
        assert table == () and table.facts == ()
        assert table.by_constraint() == {} and table.hard_count == 0


class TestGroundingTables:
    def test_blocks_and_appends_compare_equal(self, ranieri_extended):
        vectorized = TeCoRe.from_pack("running-example").translate(ranieri_extended).grounding
        naive = TeCoRe.from_pack("running-example", engine="naive")
        reference = naive.translate(ranieri_extended).grounding
        assert vectorized.firings == reference.firings == list(reference.firings)
        assert vectorized.violations == list(reference.violations)
        assert vectorized.violations != tuple(reference.violations)
        assert isinstance(vectorized.firings[:1], list)

    def test_appended_violations_summarise_like_blocks(self, ranieri):
        rules, constraints = running_example_rules(), running_example_constraints()
        for engine in ("indexed", "vectorized"):
            system = TeCoRe(rules=rules, constraints=constraints, engine=engine)
            conflicts = system.translate(ranieri).grounding.violations.conflicts()
            assert conflicts.by_constraint() == {"c2": 1}
            assert [str(fact.object) for fact in conflicts.facts] == ["Chelsea", "Napoli"]
            assert all(isinstance(rows, np.ndarray) for _, _, rows in conflicts._blocks)
