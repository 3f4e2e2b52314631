"""Differential tests: the vectorized grounder must match the indexed one.

The columnar :class:`~repro.logic.VectorizedGrounder` changes the *data
representation* of the join path (interned integer columns, merge joins,
boolean masks), so this suite mirrors ``tests/test_grounding_equivalence.py``
and additionally stresses every corner of the join planner: constant
positions, repeated variables, variable predicates (the fallback path),
entity/interval variable clashes, the full Allen-relation vocabulary,
arithmetic conditions over term values, and every head-interval expression
kind.  Programs must come out **bit-for-bit identical** — same atom and
clause emission order, same firings, violations and round counts.
"""

import dataclasses
import random

import pytest

from repro import TeCoRe
from repro.datasets import (
    FootballDBConfig,
    WikidataConfig,
    generate_footballdb,
    generate_wikidata,
    ranieri_extended_graph,
    ranieri_graph,
)
from repro.errors import GroundingError
from repro.kg import TemporalKnowledgeGraph
from repro.logic import (
    GROUNDING_ENGINES,
    ZERO_WEIGHT_EPSILON,
    ClauseKind,
    ConstraintBuilder,
    IndexedGrounder,
    NaiveGrounder,
    RuleBuilder,
    VectorizedGrounder,
    allen,
    biography_pack,
    compare,
    equal,
    find_conflicts,
    ground,
    make_grounder,
    not_equal,
    quad,
    rule_f1,
    running_example_constraints,
    running_example_rules,
    sports_pack,
    union,
    var,
)
from repro.logic.constraint import ConstraintKind
from repro.logic.expressions import IntervalDuration, IntervalEnd, IntervalStart, TermValue
from repro.logic.terms import Variable
from test_grounding_equivalence import assert_csr_matches_object_walk, random_sports_graph


def assert_equivalent(graph, rules, constraints, max_rounds=5):
    """Ground with indexed and vectorized engines; compare every observable."""
    indexed = IndexedGrounder(
        graph, rules=rules, constraints=constraints, max_rounds=max_rounds
    ).ground()
    vectorized = VectorizedGrounder(
        graph, rules=rules, constraints=constraints, max_rounds=max_rounds
    ).ground()

    # Order-independent: same atoms and clauses as sets.
    assert (
        indexed.program.canonical_signature() == vectorized.program.canonical_signature()
    ), "engines produced different ground programs"

    # Bit-for-bit: same emission order for atoms, clauses, firings, and
    # violations, and the same number of chaining rounds.
    assert [str(atom) for atom in indexed.program.atoms] == [
        str(atom) for atom in vectorized.program.atoms
    ]
    assert [str(clause) for clause in indexed.program.clauses] == [
        str(clause) for clause in vectorized.program.clauses
    ]
    assert indexed.firings == vectorized.firings
    assert indexed.violations == vectorized.violations
    assert indexed.rounds == vectorized.rounds
    for grounding in (indexed, vectorized):
        assert_csr_matches_object_walk(grounding.program)
    return indexed, vectorized


# --------------------------------------------------------------------------- #
# Running example and FootballDB (mirroring the indexed-vs-naive suite)
# --------------------------------------------------------------------------- #
class TestRunningExampleEquivalence:
    def test_figure_1_graph(self):
        indexed, _ = assert_equivalent(
            ranieri_graph(), running_example_rules(), running_example_constraints()
        )
        assert len(indexed.violations) == 1

    def test_extended_graph_two_round_chaining(self):
        indexed, _ = assert_equivalent(
            ranieri_extended_graph(),
            running_example_rules(),
            running_example_constraints(),
        )
        assert indexed.rounds >= 2

    def test_constraints_only(self):
        assert_equivalent(ranieri_graph(), rules=(), constraints=running_example_constraints())

    def test_rules_only(self):
        assert_equivalent(ranieri_graph(), running_example_rules(), constraints=())

    def test_max_rounds_truncation(self):
        assert_equivalent(
            ranieri_extended_graph(),
            running_example_rules(),
            running_example_constraints(),
            max_rounds=1,
        )

    def test_against_naive_engine_too(self):
        naive = NaiveGrounder(
            ranieri_graph(),
            rules=running_example_rules(),
            constraints=running_example_constraints(),
        ).ground()
        vectorized = VectorizedGrounder(
            ranieri_graph(),
            rules=running_example_rules(),
            constraints=running_example_constraints(),
        ).ground()
        assert [str(c) for c in naive.program.clauses] == [
            str(c) for c in vectorized.program.clauses
        ]


class TestFootballDBEquivalence:
    @pytest.mark.parametrize("noise_ratio", [0.0, 0.5])
    def test_small_footballdb(self, noise_ratio):
        dataset = generate_footballdb(
            FootballDBConfig(scale=0.01, noise_ratio=noise_ratio, seed=2017)
        )
        pack = sports_pack()
        assert_equivalent(dataset.graph, pack.rules, pack.constraints)

    def test_footballdb_with_chained_rules(self):
        """Deep chaining exercises the round-labelled semi-naive windows."""
        dataset = generate_footballdb(FootballDBConfig(scale=0.01, noise_ratio=0.5, seed=7))
        graph = dataset.graph.copy(name="footballdb-chained")
        from repro.datasets.footballdb import TEAM_NAMES

        for team in TEAM_NAMES[:10]:
            graph.add((team, "locatedIn", f"{team}City", (1940, 2020), 0.95))
        chain_predicates = ["locatedIn", "inCity", "inRegion", "inCountry"]
        chain_rules = [
            RuleBuilder(f"geo{index}")
            .body(quad("y", source, "z", "t"))
            .head(quad("y", target, "z", "t"))
            .weight(1.2)
            .build()
            for index, (source, target) in enumerate(zip(chain_predicates, chain_predicates[1:]))
        ]
        pack = sports_pack()
        indexed, _ = assert_equivalent(
            graph, list(pack.rules) + chain_rules, pack.constraints, max_rounds=10
        )
        assert indexed.rounds >= 3

    def test_team_level_join_constraint(self):
        """Joins on the object position (large per-team buckets)."""
        dataset = generate_footballdb(FootballDBConfig(scale=0.02, noise_ratio=0.5, seed=11))
        audit = (
            ConstraintBuilder("duplicateRegistration")
            .body(quad("x", "playsFor", "y", "t"), quad("z", "playsFor", "y", "t2"))
            .when(not_equal("x", "z"))
            .require(compare(IntervalStart(Variable("t")), "!=", IntervalStart(Variable("t2"))))
            .kind(ConstraintKind.EQUALITY_GENERATING)
            .soft(0.8)
            .build()
        )
        indexed, _ = assert_equivalent(dataset.graph, (), [audit])
        assert indexed.violations


class TestWikidataEquivalence:
    """The biography pack over the Wikidata relation mix (the ``npsl`` workload)."""

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("noise_ratio", [0.0, 0.5])
    def test_biography_pack(self, noise_ratio, seed):
        dataset = generate_wikidata(WikidataConfig(scale=1e-4, noise_ratio=noise_ratio, seed=seed))
        pack = biography_pack()
        indexed, _ = assert_equivalent(dataset.graph, pack.rules, pack.constraints)
        assert indexed.firings
        assert bool(indexed.violations) == bool(noise_ratio)

    @pytest.mark.parametrize("solver", ["npsl", "nrockit"])
    def test_resolution_matches_indexed(self, solver):
        graph = generate_wikidata(WikidataConfig(scale=1e-4, noise_ratio=0.5, seed=3)).graph
        indexed = TeCoRe.from_pack("biography", solver=solver, engine="indexed").resolve(graph)
        default = TeCoRe.from_pack("biography", solver=solver).resolve(graph)
        assert default.solution.assignment == indexed.solution.assignment
        assert default.removed_facts == indexed.removed_facts
        assert indexed.removed_facts


# --------------------------------------------------------------------------- #
# Randomized seeded graphs
# --------------------------------------------------------------------------- #
class TestRandomizedEquivalence:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_random_noisy_graphs(self, seed, audited_seed):
        assert_equivalent(
            random_sports_graph(audited_seed(seed)),
            running_example_rules(),
            running_example_constraints(),
        )

    @pytest.mark.parametrize("seed", [11, 12])
    def test_random_graphs_sports_pack(self, seed, audited_seed):
        graph = random_sports_graph(audited_seed(seed), facts=150)
        pack = sports_pack()
        assert_equivalent(graph, pack.rules, pack.constraints)

    def test_empty_graph(self):
        assert_equivalent(
            TemporalKnowledgeGraph(name="empty"),
            running_example_rules(),
            running_example_constraints(),
        )

    @pytest.mark.parametrize(
        "relation",
        [
            "before", "after", "overlaps", "disjoint", "meets", "metBy",
            "starts", "startedBy", "during", "contains", "finishes",
            "finishedBy", "equals", "within",
        ],
    )
    def test_every_allen_relation(self, relation):
        """Each constraint-predicate mask must match the scalar evaluation."""
        graph = random_sports_graph(21, facts=90)
        constraint = (
            ConstraintBuilder(f"allen-{relation}")
            .body(quad("x", "playsFor", "y", "t"), quad("x", "coach", "z", "t2"))
            .require(allen(relation, "t", "t2"))
            .build()
        )
        assert_equivalent(graph, (), [constraint])


# --------------------------------------------------------------------------- #
# Join-planner corner cases
# --------------------------------------------------------------------------- #
class TestPlannerCornerCases:
    def test_constant_positions(self):
        """Constants in subject/object/interval positions become masks."""
        graph = random_sports_graph(31)
        rules = [
            RuleBuilder("constObj")
            .body(quad("x", "playsFor", "Team1", "t"))
            .head(quad("x", "type", "Team1Alumnus", "t"))
            .weight(1.1)
            .build(),
            RuleBuilder("constSubj")
            .body(quad("Player0", "playsFor", "y", "t"))
            .head(quad("Player0", "affiliatedWith", "y", "t"))
            .weight(0.7)
            .build(),
        ]
        constraint = (
            ConstraintBuilder("constInterval")
            .body(
                quad("x", "playsFor", "y", (1980, 1985)),
                quad("x", "playsFor", "z", "t2"),
            )
            .when(not_equal("y", "z"))
            .require(allen("disjoint", "t2", "t2"))
            .build()
        )
        assert_equivalent(graph, rules, [constraint])

    def test_unseen_constant_prunes_join(self):
        """A constant the store never interned cannot match anything."""
        graph = random_sports_graph(32)
        rule = (
            RuleBuilder("ghost")
            .body(quad("x", "playsFor", "NoSuchTeam", "t"))
            .head(quad("x", "type", "Ghost", "t"))
            .weight(1.0)
            .build()
        )
        indexed, vectorized = assert_equivalent(graph, [rule], ())
        assert not indexed.firings

    def test_repeated_variable_within_atom(self):
        graph = TemporalKnowledgeGraph(name="selfloop")
        graph.add(("A", "knows", "A", (2000, 2001), 0.9))
        graph.add(("A", "knows", "B", (2000, 2001), 0.8))
        rule = (
            RuleBuilder("selfAware")
            .body(quad("x", "knows", "x", "t"))
            .head(quad("x", "type", "SelfAware", "t"))
            .weight(2.0)
            .build()
        )
        indexed, _ = assert_equivalent(graph, [rule], ())
        assert len(indexed.firings) == 1

    def test_entity_interval_variable_clash_matches_nothing(self):
        """One name in both entity and interval positions can never match."""
        graph = random_sports_graph(33)
        rule = (
            RuleBuilder("clash")
            .body(quad("x", "playsFor", "y", "t"), quad("y", "coach", "t", "t2"))
            .head(quad("x", "type", "Weird", "t"))
            .weight(1.0)
            .build()
        )
        indexed, vectorized = assert_equivalent(graph, [rule], ())
        assert not indexed.firings

    def test_variable_predicate_falls_back(self):
        """Variable predicates use the indexed engine's backtracking join."""
        graph = random_sports_graph(34, facts=60)
        rule = (
            RuleBuilder("meta")
            .body(quad("x", var("p"), "y", "t"))
            .head(quad("x", "relatedTo", "y", "t"))
            .weight(0.5)
            .build()
        )
        indexed, _ = assert_equivalent(graph, [rule], ())
        assert indexed.firings

    def test_fallback_and_vectorized_rules_in_one_round(self):
        """A variable-predicate rule chains beside vectorized ones, round by round."""
        graph = random_sports_graph(34, facts=60)
        meta = (
            RuleBuilder("meta")
            .body(quad("x", var("p"), "y", "t"))
            .head(quad("x", "worksFor", "y", "t"))
            .weight(0.5)
            .build()
        )
        pack = sports_pack()
        indexed, _ = assert_equivalent(graph, [*pack.rules, meta], pack.constraints)
        assert (len(indexed.firings), indexed.rounds) == (331, 4)

    def test_repeated_rule_name_drops_identical_firings(self):
        """A second rule named f1 fires nothing f1 has not fired already."""
        rules = [*running_example_rules(), rule_f1()]
        indexed, _ = assert_equivalent(
            ranieri_extended_graph(), rules, running_example_constraints()
        )
        assert len(indexed.firings) == 2

    def test_renamed_twin_rule_fires_again(self):
        """Under another name the same body and head are new firings."""
        twin = dataclasses.replace(rule_f1(), name="f1twin")
        indexed, _ = assert_equivalent(
            random_sports_graph(34, facts=60),
            [*running_example_rules(), twin],
            running_example_constraints(),
        )
        assert (len(indexed.firings), indexed.program.num_atoms) == (97, 126)

    def test_rederived_evidence_fact_gets_the_rules_confidence(self):
        """A head whose atom is another fact's is rebuilt with the rule's confidence.

        ``works`` re-derives an evidence fact of confidence 0.6 and a fact
        ``alsoWorks`` derived first with 0.8; the firings' heads carry each
        rule's ``derived_confidence``, the atoms keep their own facts.
        """
        graph = TemporalKnowledgeGraph(name="rederived")
        graph.add(("A", "playsFor", "T", (2000, 2004), 0.7))
        graph.add(("A", "worksFor", "T", (2000, 2004), 0.6))
        graph.add(("B", "playsFor", "T", (2001, 2002), 0.8))

        def works(name, confidence):
            return (
                RuleBuilder(name)
                .body(quad("x", "playsFor", "y", "t"))
                .head(quad("x", "worksFor", "y", "t"))
                .weight(1.0)
                .derived_confidence(confidence)
                .build()
            )

        rules = [works("alsoWorks", 0.8), works("works", 1)]
        indexed, vectorized = assert_equivalent(graph, rules, ())
        assert repr(indexed.firings) == repr(vectorized.firings)
        heads = [(firing.rule, firing.head.confidence) for firing in vectorized.firings]
        assert heads == [("alsoWorks", 0.8), ("alsoWorks", 0.8), ("works", 1), ("works", 1)]
        atoms = [vectorized.program.atom_for(firing.head) for firing in vectorized.firings]
        assert [atom.fact.confidence for atom in atoms] == [0.6, 0.8, 0.6, 0.8]
        assert atoms[0].is_evidence and not atoms[1].is_evidence

    def test_variable_head_predicate(self):
        """A head predicate bound by the body interns into the head's id columns."""
        graph = TemporalKnowledgeGraph(name="roles")
        graph.add(("A", "hasRole", "coach", (2000, 2004), 0.7))
        graph.add(("B", "hasRole", "playsFor", (2001, 2003), 0.8))
        graph.add(("C", "hasRole", "playsFor", (2002, 2005), 0.9))
        graph.add(("A", "coach", "Club", (2000, 2004), 0.6))
        role = (
            RuleBuilder("role")
            .body(quad("x", "hasRole", "r", "t"))
            .head(quad("x", var("r"), "Club", "t"))
            .weight(1.0)
            .build()
        )
        works = (
            RuleBuilder("works")
            .body(quad("x", "playsFor", "y", "t"))
            .head(quad("x", "worksFor", "y", "t"))
            .weight(1.0)
            .build()
        )
        indexed, _ = assert_equivalent(graph, [role, works], ())
        assert (len(indexed.firings), indexed.rounds) == (5, 2)

    def test_shared_interval_variable_joins_on_interval(self):
        """The same interval variable in two atoms becomes a (begin,end) key."""
        graph = random_sports_graph(35)
        constraint = (
            ConstraintBuilder("sameSpan")
            .body(quad("x", "playsFor", "y", "t"), quad("z", "coach", "w", "t"))
            .when(not_equal("x", "z"))
            .require(equal("y", "w"))
            .build()
        )
        assert_equivalent(graph, (), [constraint])

    def test_term_equality_with_unseen_constant(self):
        graph = random_sports_graph(36)
        constraint = (
            ConstraintBuilder("neverEqual")
            .body(quad("x", "playsFor", "y", "t"), quad("x", "playsFor", "z", "t2"))
            .when(equal("y", "UnknownTeam"))
            .require(allen("disjoint", "t", "t2"))
            .build()
        )
        indexed, _ = assert_equivalent(graph, (), [constraint])
        assert not indexed.violations

    def test_term_value_and_duration_arithmetic(self):
        """TermValue decoding and duration() arithmetic as vector masks."""
        graph = random_sports_graph(37)
        veteran = (
            RuleBuilder("veteran")
            .body(quad("x", "playsFor", "y", "t"))
            .when(compare(IntervalDuration(Variable("t")), ">=", 8))
            .head(quad("x", "type", "Veteran", "t"))
            .weight(1.3)
            .build()
        )
        born_late = (
            RuleBuilder("bornLate")
            .body(quad("x", "birthDate", "b", "t"))
            .when(compare(TermValue(Variable("b")), ">", 1970))
            .head(quad("x", "type", "ModernEra", "t"))
            .weight(0.9)
            .build()
        )
        assert_equivalent(graph, [veteran, born_late], ())

    def test_union_head_interval_expression(self):
        graph = random_sports_graph(38)
        rule = (
            RuleBuilder("span")
            .body(quad("x", "playsFor", "y", "t"), quad("x", "coach", "z", "t2"))
            .head(quad("x", "activeIn", "y", "t"), interval=union("t", "t2"))
            .weight(0.6)
            .build()
        )
        assert_equivalent(graph, [rule], ())

    def test_fixed_head_interval(self):
        graph = random_sports_graph(39)
        rule = (
            RuleBuilder("fixed")
            .body(quad("x", "coach", "y", "t"))
            .head(quad("x", "type", "Coach", (1900, 2100)))
            .weight(1.0)
            .build()
        )
        assert_equivalent(graph, [rule], ())

    def test_end_comparison_condition(self):
        graph = random_sports_graph(40)
        constraint = (
            ConstraintBuilder("endsOrdered")
            .body(quad("x", "birthDate", "y", "t"), quad("x", "coach", "z", "t2"))
            .require(compare(IntervalEnd(Variable("t")), ">=", IntervalEnd(Variable("t2"))))
            .build()
        )
        assert_equivalent(graph, (), [constraint])

    def test_mixed_hard_soft_clauses(self):
        graph = TemporalKnowledgeGraph(name="hard-soft")
        graph.add(("CR", "coach", "Chelsea", (2000, 2004), 0.9))
        graph.add(("CR", "coach", "Napoli", (2001, 2003), 0.6))

        def c2_like(name, weight):
            builder = (
                ConstraintBuilder(name)
                .body(quad("x", "coach", "y", "t"), quad("x", "coach", "z", "t2"))
                .when(not_equal("y", "z"))
                .require(allen("disjoint", "t", "t2"))
            )
            builder = builder.hard() if weight is None else builder.soft(weight)
            return builder.build()

        indexed, _ = assert_equivalent(
            graph, rules=(), constraints=[c2_like("hardC2", None), c2_like("softC2", 1.5)]
        )
        assert len(indexed.violations) == 2


# --------------------------------------------------------------------------- #
# Constraint emission: match order, symmetric duplicates, weights
# --------------------------------------------------------------------------- #
def _negative_pair_constraint(team):
    """A two-atom soft constraint of weight -1.0, violated only when some
    player's ``playsFor`` facts meet ``team`` beside another club."""
    return (
        ConstraintBuilder("negativePair")
        .body(quad("x", "playsFor", "y", "t"), quad("x", "playsFor", "z", "t2"))
        .when(equal("y", team), not_equal("y", "z"))
        .soft(-1.0)
        .build()
    )


class TestConstraintEmission:
    """The vectorized constraint pass orders and de-duplicates violated
    matches on columns; these bodies stress that against the scalar loop."""

    @pytest.mark.parametrize("seed", [11, 12])
    @pytest.mark.parametrize("head", [None, "disjoint"])
    def test_three_atom_constraint_over_one_predicate(self, seed, head):
        """Each triple of one player's clubs is matched in all six body
        orders.  As a pure denial all six are violated and only the first in
        the naive order (the facts ascending) may survive; with a head
        condition on the first two atoms only some orders are violated."""
        graph = random_sports_graph(seed, facts=150)
        builder = (
            ConstraintBuilder("threeClubs")
            .body(
                quad("x", "playsFor", "y", "t"),
                quad("x", "playsFor", "z", "t2"),
                quad("x", "playsFor", "w", "t3"),
            )
            .when(not_equal("y", "z"), not_equal("y", "w"), not_equal("z", "w"))
        )
        if head is not None:
            builder = builder.require(allen(head, "t", "t2"))
        indexed, _ = assert_equivalent(graph, (), [builder.build()])
        conflict_sets = [
            frozenset(fact.statement_key for fact in violation.facts)
            for violation in indexed.violations
        ]
        assert conflict_sets
        assert len(set(conflict_sets)) == len(conflict_sets)
        if head is None:
            for violation in indexed.violations:
                assert list(violation.facts) == sorted(violation.facts)

    def test_body_mixing_evidence_and_derived_facts(self):
        """A ``worksFor`` block holding evidence rows and rows derived by a
        rule (a later round), joined against itself and against evidence."""
        graph = random_sports_graph(13, facts=150)
        for player, team, span in (
            ("Player0", "Team2", (1960, 2015)),
            ("Player3", "Team0", (1955, 2012)),
            ("Player7", "Team4", (1950, 2020)),
        ):
            graph.add((player, "worksFor", team, span, 0.7))
        rule = (
            RuleBuilder("coachWorksFor")
            .body(quad("x", "coach", "y", "t"))
            .head(quad("x", "worksFor", "y", "t"))
            .weight(1.1)
            .build()
        )
        two_employers = (
            ConstraintBuilder("twoEmployers")
            .body(quad("x", "worksFor", "y", "t"), quad("x", "worksFor", "z", "t2"))
            .when(not_equal("y", "z"))
            .require(allen("disjoint", "t", "t2"))
            .build()
        )
        employed_while_playing = (
            ConstraintBuilder("employedWhilePlaying")
            .body(quad("x", "worksFor", "y", "t"), quad("x", "playsFor", "z", "t2"))
            .require(allen("disjoint", "t", "t2"))
            .soft(0.9)
            .build()
        )
        indexed, _ = assert_equivalent(graph, [rule], [two_employers, employed_while_playing])
        evidence_keys = {fact.statement_key for fact in graph}
        mixed = [
            violation
            for violation in indexed.violations
            if len({fact.statement_key in evidence_keys for fact in violation.facts}) == 2
        ]
        assert {violation.constraint for violation in mixed} == {
            "twoEmployers",
            "employedWhilePlaying",
        }

    @pytest.mark.parametrize("weight", [1.5, 0.0, -1.5])
    def test_one_atom_constraint_weights(self, weight):
        """Positive weights pass through, zero becomes the shared epsilon and
        a negative weight flips the one literal."""
        graph = random_sports_graph(41)
        constraint = (
            ConstraintBuilder("shortSpell")
            .body(quad("x", "playsFor", "y", "t"))
            .require(compare(IntervalDuration(Variable("t")), "<=", 6))
            .soft(weight)
            .build()
        )
        _, vectorized = assert_equivalent(graph, (), [constraint])
        clauses = vectorized.program.clauses_of_kind(ClauseKind.CONSTRAINT)
        assert clauses
        assert {clause.literals[0][1] for clause in clauses} == {weight < 0}
        assert {clause.weight for clause in clauses} == {abs(weight) or ZERO_WEIGHT_EPSILON}

    def test_negative_two_atom_constraint_with_a_violation_raises(self):
        graph = random_sports_graph(42)
        for engine_class in (IndexedGrounder, VectorizedGrounder):
            with pytest.raises(GroundingError, match="negativePair"):
                engine_class(graph, constraints=[_negative_pair_constraint("Team1")]).ground()

    def test_negative_two_atom_constraint_without_violations_grounds(self):
        graph = random_sports_graph(42)
        indexed, _ = assert_equivalent(graph, (), [_negative_pair_constraint("NoSuchTeam")])
        assert not indexed.violations


# --------------------------------------------------------------------------- #
# Error and fallback parity
# --------------------------------------------------------------------------- #
class TestErrorAndFallbackParity:
    """Both engines must degrade identically on awkward programs."""

    def both_raise(self, graph, rules, constraints, exception):
        for engine_class in (IndexedGrounder, VectorizedGrounder):
            with pytest.raises(exception):
                engine_class(graph, rules=rules, constraints=constraints).ground()

    def test_allen_over_entity_variable_raises(self):
        from repro.errors import LogicError

        graph = random_sports_graph(61)
        constraint = (
            ConstraintBuilder("badAllen")
            .body(quad("x", "playsFor", "y", "t"), quad("x", "playsFor", "z", "t2"))
            .require(allen("overlaps", "y", "t2"))  # y is an entity variable
            .build()
        )
        self.both_raise(graph, (), [constraint], LogicError)

    def test_term_equality_over_interval_variable_raises(self):
        from repro.errors import LogicError

        graph = random_sports_graph(62)
        constraint = (
            ConstraintBuilder("badEq")
            .body(quad("x", "playsFor", "y", "t"), quad("x", "playsFor", "z", "t2"))
            .when(equal("t", "z"))  # t is an interval variable
            .require(allen("disjoint", "t", "t2"))
            .build()
        )
        self.both_raise(graph, (), [constraint], LogicError)

    def test_non_numeric_term_value_raises(self):
        from repro.errors import LogicError

        graph = random_sports_graph(63)
        rule = (
            RuleBuilder("badValue")
            .body(quad("x", "playsFor", "y", "t"))
            .when(compare(TermValue(Variable("y")), ">", 3))  # team names aren't numbers
            .head(quad("x", "type", "Weird", "t"))
            .weight(1.0)
            .build()
        )
        self.both_raise(graph, [rule], (), LogicError)

    def test_division_by_zero_raises(self):
        from repro.errors import LogicError
        from repro.logic.expressions import BinaryOp, Number

        graph = random_sports_graph(64)
        rule = (
            RuleBuilder("divZero")
            .body(quad("x", "playsFor", "y", "t"))
            .when(compare(BinaryOp("/", IntervalStart(Variable("t")), Number(0.0)), ">", 1))
            .head(quad("x", "type", "Weird", "t"))
            .weight(1.0)
            .build()
        )
        self.both_raise(graph, [rule], (), LogicError)

    def test_scalar_constant_comparisons(self):
        graph = random_sports_graph(65)
        always = (
            RuleBuilder("always")
            .body(quad("x", "coach", "y", "t"))
            .when(compare(1, "<", 2))
            .head(quad("x", "type", "CoachEver", "t"))
            .weight(1.0)
            .build()
        )
        never = (
            RuleBuilder("never")
            .body(quad("x", "coach", "y", "t"))
            .when(compare(2, "<", 1))
            .head(quad("x", "type", "Impossible", "t"))
            .weight(1.0)
            .build()
        )
        indexed, _ = assert_equivalent(graph, [always, never], ())
        assert all(firing.rule == "always" for firing in indexed.firings)

    def test_constant_constant_equality(self):
        graph = random_sports_graph(66)
        constraint = (
            ConstraintBuilder("constEq")
            .body(quad("x", "playsFor", "y", "t"), quad("x", "playsFor", "z", "t2"))
            .when(equal("Team1", "Team1"))
            .when(not_equal("y", "z"))
            .require(allen("disjoint", "t", "t2"))
            .build()
        )
        assert_equivalent(graph, (), [constraint])

    def test_unknown_condition_class_uses_per_row_fallback(self):
        from repro.logic.atom import ConditionAtom

        class LongCareer(ConditionAtom):
            """A condition class the vectorizer has never heard of."""

            def holds(self, substitution):
                interval = substitution.interval(Variable("t"))
                return interval is not None and interval.duration >= 5

            def variables(self):
                return {Variable("t")}

        graph = random_sports_graph(67)
        rule = (
            RuleBuilder("custom")
            .body(quad("x", "playsFor", "y", "t"))
            .when(LongCareer())
            .head(quad("x", "type", "LongTimer", "t"))
            .weight(1.0)
            .build()
        )
        indexed, _ = assert_equivalent(graph, [rule], ())
        assert indexed.firings

    def test_variable_predicate_constraint_falls_back(self):
        graph = random_sports_graph(68, facts=60)
        constraint = (
            ConstraintBuilder("metaConflict")
            .body(quad("x", var("p"), "y", "t"), quad("x", var("p"), "z", "t2"))
            .when(not_equal("y", "z"))
            .require(allen("disjoint", "t", "t2"))
            .build()
        )
        indexed, _ = assert_equivalent(graph, (), [constraint])
        assert indexed.violations

    def test_var_and_shift_head_interval_expressions(self):
        from repro.temporal.arithmetic import IntervalExpression

        graph = random_sports_graph(69)
        via_var = (
            RuleBuilder("viaVar")
            .body(quad("x", "coach", "y", "t"))
            .head(quad("x", "managed", "y", "t"), interval=IntervalExpression.variable("t"))
            .weight(1.0)
            .build()
        )
        shifted = (
            RuleBuilder("shifted")
            .body(quad("x", "coach", "y", "t"))
            .head(quad("x", "postCareer", "y", "t"), interval=IntervalExpression.shift("t", 3))
            .weight(1.0)
            .build()
        )
        indexed, _ = assert_equivalent(graph, [via_var, shifted], ())
        assert indexed.firings

    def test_unknown_head_interval_kind_raises(self):
        from repro.errors import LogicError
        from repro.temporal.arithmetic import IntervalExpression

        graph = random_sports_graph(70)
        rule = (
            RuleBuilder("strange")
            .body(quad("x", "coach", "y", "t"))
            .head(
                quad("x", "managed", "y", "t"),
                interval=IntervalExpression(kind="mystery", left="t"),
            )
            .weight(1.0)
            .build()
        )
        self.both_raise(graph, [rule], (), LogicError)

    def test_literal_head_predicate_raises(self):
        from repro.errors import LogicError

        graph = TemporalKnowledgeGraph(name="literal-role")
        graph.add(("A", "hasRole", "coach", (2000, 2004), 0.7))
        graph.add(("B", "hasRole", '"a role"', (2001, 2003), 0.8))
        rule = (
            RuleBuilder("role")
            .body(quad("x", "hasRole", "r", "t"))
            .head(quad("x", var("r"), "Club", "t"))
            .weight(1.0)
            .build()
        )
        self.both_raise(graph, [rule], (), LogicError)

    def test_interval_bound_head_entity_variable_raises(self):
        from repro.errors import LogicError

        graph = random_sports_graph(71)
        rule = (
            RuleBuilder("intervalHead")
            .body(quad("x", "coach", "y", "t"))
            .head(quad("x", "managedDuring", "t", "t"))  # t in object position
            .weight(1.0)
            .build()
        )
        self.both_raise(graph, [rule], (), LogicError)


# --------------------------------------------------------------------------- #
# Engine selection and end-to-end resolution
# --------------------------------------------------------------------------- #
class TestEngineSelectionAndResolution:
    def test_registered_in_engine_registry(self):
        assert GROUNDING_ENGINES["vectorized"] is VectorizedGrounder
        graph = ranieri_graph()
        assert isinstance(make_grounder("vectorized", graph), VectorizedGrounder)

    def test_ground_function_dispatch(self):
        graph = ranieri_graph()
        rules = running_example_rules()
        constraints = running_example_constraints()
        vectorized = ground(graph, rules, constraints, engine="vectorized")
        indexed = ground(graph, rules, constraints, engine="indexed")
        assert (vectorized.program.canonical_signature() == indexed.program.canonical_signature())

    def test_find_conflicts_agreement(self):
        graph = ranieri_graph()
        constraints = running_example_constraints()
        assert find_conflicts(graph, constraints, engine="vectorized") == find_conflicts(
            graph, constraints, engine="indexed"
        )

    @pytest.mark.parametrize("solver", ["nrockit", "npsl"])
    def test_resolution_is_engine_independent(self, solver):
        graph = random_sports_graph(55, facts=80)
        results = {}
        for engine in ("indexed", "vectorized"):
            system = TeCoRe.from_pack("running-example", solver=solver, engine=engine)
            results[engine] = system.resolve(graph)
        assert (results["indexed"].solution.assignment == results["vectorized"].solution.assignment)
        assert results["indexed"].removed_facts == results["vectorized"].removed_facts

    def test_seeded_fuzz_many_shapes(self):
        """A small seeded fuzz over rule/constraint shape combinations."""
        rng = random.Random(99)
        relations = ["overlaps", "disjoint", "before", "during", "equals"]
        for trial in range(6):
            graph = random_sports_graph(100 + trial, facts=100)
            relation = rng.choice(relations)
            constraint = (
                ConstraintBuilder(f"fuzz{trial}")
                .body(quad("x", "playsFor", "y", "t"), quad("x", "playsFor", "z", "t2"))
                .when(not_equal("y", "z"))
                .require(allen(relation, "t", "t2"))
                .build()
            )
            rules = [
                RuleBuilder(f"fuzzRule{trial}")
                .body(quad("x", "playsFor", "y", "t"))
                .head(quad("x", "worksFor", "y", "t"))
                .weight(round(rng.uniform(0.5, 3.0), 2))
                .build()
            ]
            assert_equivalent(graph, rules, [constraint])
