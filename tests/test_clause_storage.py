"""Clause storage: the program's columns, its lazy object view and its CSR.

A :class:`~repro.logic.GroundProgram` stores its clauses once, as columns.
The vectorized grounder writes them directly, so a one-shot ``nrockit`` or
``npsl`` resolve reads the program only through its CSR and never builds a
:class:`~repro.logic.GroundClause`.  ``program.clauses`` builds the objects
on first access and keeps up with later ``add_clause`` calls.  The CSR and
object walk are compared column for column on every grounding-equivalence
case (``assert_csr_matches_object_walk``); this module pins the rest.
"""

import numpy as np
import pytest

from repro import TeCoRe
from repro.datasets import (
    FootballDBConfig,
    WikidataConfig,
    generate_footballdb,
    generate_wikidata,
    ranieri_extended_graph,
)
from repro.errors import ExpressivityError
from repro.kg import make_fact
from repro.logic import (
    ClauseKind,
    GroundClause,
    GroundProgram,
    VectorizedGrounder,
    running_example_constraints,
    running_example_rules,
)
from repro.logic.arrays import GroundProgramArrays
from repro.solvers import PSL_CAPABILITIES, SolverCapabilities, check_expressivity
from test_grounding_equivalence import assert_csr_matches_object_walk

#: One clause of each shape: evidence, rule, hard conflict, two positive
#: literals, and three literals.
CLAUSES = [
    ([(0, True)], 2.0, ClauseKind.EVIDENCE, "evidence"),
    ([(0, False), (1, True)], 1.5, ClauseKind.RULE, "f1"),
    ([(0, False), (1, False)], None, ClauseKind.CONSTRAINT, "c1"),
    ([(1, True), (2, True)], 2.5, ClauseKind.RULE, "either"),
    ([(0, False), (1, False), (2, False)], 0.75, ClauseKind.CONSTRAINT, "c3"),
]


def _atoms(program, count=3):
    for index in range(count):
        program.add_atom(make_fact(f"s{index}", "p", "o", (1, 2), 0.9), is_evidence=True)
    return program


def column_built(clauses=CLAUSES):
    """A program whose clauses went straight into the columns."""
    program = _atoms(GroundProgram())
    for literals, weight, kind, origin in clauses:
        program.extend_clauses(
            np.array([len(literals)]),
            np.array([index for index, _ in literals]),
            np.array([positive for _, positive in literals]),
            [weight],
            np.array([program.origin_code(kind, origin)]),
        )
    return program


def object_built(clauses=CLAUSES):
    program = _atoms(GroundProgram())
    for literals, weight, kind, origin in clauses:
        program.add_clause(literals, weight, kind, origin)
    return program


def object_walk_check(program, capabilities):
    """The clause-object walk ``check_expressivity`` made before the CSR."""
    for clause in program.clauses:
        if clause.is_hard and not capabilities.supports_hard_constraints:
            raise ExpressivityError(
                f"solver {capabilities.name!r} does not support hard constraints "
                f"(clause from {clause.origin!r})"
            )
        positives = sum(1 for _, positive in clause.literals if positive)
        negatives = len(clause.literals) - positives
        if negatives and not capabilities.supports_negative_clauses:
            raise ExpressivityError(
                f"solver {capabilities.name!r} does not support negated literals "
                f"(clause from {clause.origin!r})"
            )
        if (
            capabilities.max_positive_literals_per_clause is not None
            and positives > capabilities.max_positive_literals_per_clause
        ):
            raise ExpressivityError(
                f"solver {capabilities.name!r} allows at most "
                f"{capabilities.max_positive_literals_per_clause} positive literal(s) "
                f"per clause, but clause from {clause.origin!r} has {positives}"
            )
        if (
            capabilities.max_clause_length is not None
            and len(clause.literals) > capabilities.max_clause_length
        ):
            raise ExpressivityError(
                f"solver {capabilities.name!r} allows clauses of length at most "
                f"{capabilities.max_clause_length}, got {len(clause.literals)} "
                f"from {clause.origin!r}"
            )


class TestOneShotPathBuildsNoClause:
    @pytest.mark.parametrize(
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
                lambda: generate_wikidata(
                    WikidataConfig(scale=1e-4, noise_ratio=0.5, seed=3)
                ).graph,
            ),
        ],
        ids=["nrockit-footballdb", "npsl-wikidata"],
    )
    def test_resolve_builds_no_clause_object(self, solver, pack, graph, built_clauses):
        graph = graph()
        system = TeCoRe.from_pack(pack, solver=solver)
        result = system.resolve(graph)
        assert result.removed_facts and result.statistics.ground_clauses
        program = system.translate(graph).program
        assert program.num_clauses == result.statistics.ground_clauses
        assert program.max_soft_weight() > 0
        check_expressivity(program, PSL_CAPABILITIES)
        assert built_clauses == []
        # The view is still there for whoever asks.
        assert len(program.clauses) == program.num_clauses
        assert len(built_clauses) == program.num_clauses

    def test_add_clause_appends_to_the_columns_only(self, built_clauses):
        program = object_built()
        assert program.add_clause([(1, True)], -0.5, ClauseKind.PRIOR, "prior") is None
        assert built_clauses == []
        flipped = ([(1, False)], 0.5, ClauseKind.PRIOR, "prior")
        assert program.clauses == column_built([*CLAUSES, flipped]).clauses

    def test_session_edits_build_no_clause_object(self, built_clauses):
        graph = generate_footballdb(FootballDBConfig(scale=0.02, noise_ratio=0.5, seed=2017)).graph
        session = TeCoRe.from_pack("sports", solver="nrockit").session(graph)
        facts = graph.facts()[:6]
        session.apply(removes=facts)
        result = session.apply(adds=facts)
        assert result.delta.components_dirty > 0
        assert built_clauses == []


class TestClauseView:
    def test_view_equals_the_added_objects(self):
        assert column_built().clauses == object_built().clauses

    def test_view_is_read_only(self):
        program = object_built()
        with pytest.raises(TypeError):
            program.clauses.append(program.clauses[0])
        with pytest.raises(TypeError):
            program.clauses[0] = program.clauses[1]
        with pytest.raises(AttributeError):
            program.clauses = []

    def test_clause_added_after_the_view_extends_it(self):
        grounding = VectorizedGrounder(
            ranieri_extended_graph(), running_example_rules(), running_example_constraints()
        ).ground()
        program = grounding.program
        view = program.clauses
        first = view[0]
        arrays = GroundProgramArrays.from_program(program)
        count = program.num_clauses
        program.add_clause([(0, False), (1, False)], None, ClauseKind.CONSTRAINT, "late")
        assert program.clauses is view and len(view) == count + 1
        assert view[0] is first  # extended, not rebuilt
        assert view[-1] == GroundClause(
            ((0, False), (1, False)), None, ClauseKind.CONSTRAINT, "late"
        )
        after = GroundProgramArrays.from_program(program)
        assert after is not arrays and after.num_clauses == count + 1
        assert arrays.num_clauses == count  # the old CSR is a snapshot
        assert_csr_matches_object_walk(program)

    def test_clause_added_after_the_csr_appears_in_both(self):
        program = column_built()
        arrays = GroundProgramArrays.from_program(program)
        assert GroundProgramArrays.from_program(program) is arrays  # kept
        program.add_clause([(2, True)], -0.5, ClauseKind.PRIOR, "prior:f1")
        assert program.clauses[-1] == GroundClause(((2, False),), 0.5, ClauseKind.PRIOR, "prior:f1")
        assert len(program.clauses) == len(CLAUSES) + 1
        after = GroundProgramArrays.from_program(program)
        assert after.num_clauses == len(CLAUSES) + 1
        assert after.literal_atoms[-1] == 2 and not after.literal_signs[-1]
        assert after.weight_list[-1] == 0.5
        assert_csr_matches_object_walk(program)

    def test_one_clause_without_the_view(self, built_clauses):
        clause = column_built().clause(3)
        assert built_clauses == [clause]
        assert clause == object_built().clauses[3]


class TestExpressivityOnColumns:
    @pytest.mark.parametrize(
        "capabilities",
        [
            SolverCapabilities(name="nohard", exact=False, supports_hard_constraints=False),
            SolverCapabilities(name="positive", exact=False, supports_negative_clauses=False),
            PSL_CAPABILITIES,
            SolverCapabilities(name="short", exact=False, max_clause_length=2),
        ],
        ids=["hard", "negated", "positives", "length"],
    )
    def test_error_words_the_first_offending_clause(self, capabilities, built_clauses):
        with pytest.raises(ExpressivityError) as expected:
            object_walk_check(object_built(), capabilities)
        program = column_built()
        built_clauses.clear()
        with pytest.raises(ExpressivityError) as actual:
            check_expressivity(program, capabilities)
        assert str(actual.value) == str(expected.value)
        assert len(built_clauses) == 1
