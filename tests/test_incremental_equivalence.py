"""Differential suite: incremental resolution ≡ from-scratch resolution.

The contract of the incremental engine is absolute: after *any* sequence of
fact insertions and retractions, the maintained grounding must be
bit-for-bit identical to a from-scratch :class:`~repro.logic.IndexedGrounder`
pass over the mutated graph (same atoms, same clause emission order, same
floats), and the merged MAP objective of a
:class:`~repro.core.session.ResolutionSession` must equal a from-scratch
resolve for exact back-ends.  The suite drives randomized edit streams,
cascading retraction through rule chains, evidence/derived status flips, and
the ``max_rounds`` truncation corner, comparing against from-scratch replicas
after every step.
"""

import random

import pytest

from repro import TeCoRe
from repro.core import make_solver
from repro.datasets import ranieri_extended_graph, ranieri_graph
from repro.kg import TemporalKnowledgeGraph, make_fact
from repro.logic import (
    GROUNDING_ENGINES,
    IncrementalGrounder,
    IndexedGrounder,
    RuleBuilder,
    make_grounder,
    quad,
    running_example_constraints,
    running_example_rules,
    sports_pack,
)
from repro.solvers import DecomposedSolver


def assert_state_matches(incremental, replica, rules, constraints, max_rounds=5):
    """The maintained grounding must be bit-for-bit the from-scratch one."""
    reference = IndexedGrounder(
        replica, rules=rules, constraints=constraints, max_rounds=max_rounds
    ).ground()
    current = incremental.ground()

    assert (
        current.program.canonical_signature() == reference.program.canonical_signature()
    ), "incremental grounding diverged from from-scratch (canonical signature)"
    # Bit-for-bit: identical atom and clause emission order (and therefore
    # identical float summation order for every downstream objective).
    assert [str(atom) for atom in current.program.atoms] == [
        str(atom) for atom in reference.program.atoms
    ]
    assert [str(clause) for clause in current.program.clauses] == [
        str(clause) for clause in reference.program.clauses
    ]
    assert current.rounds == reference.rounds
    # Firings and violations by structure (statement keys).  Fact *objects*
    # may differ in confidence only: the incremental engine reports the
    # match-time snapshot, the from-scratch engine the current working copy.
    assert [
        (f.rule, tuple(b.statement_key for b in f.body), f.head.statement_key)
        for f in current.firings
    ] == [
        (f.rule, tuple(b.statement_key for b in f.body), f.head.statement_key)
        for f in reference.firings
    ]
    assert [
        (v.constraint, tuple(fact.statement_key for fact in v.facts)) for v in current.violations
    ] == [
        (v.constraint, tuple(fact.statement_key for fact in v.facts)) for v in reference.violations
    ]
    return current, reference


def random_sports_graph(seed: int, facts: int = 80) -> TemporalKnowledgeGraph:
    """A random UTKG over the sports schema (dense enough for conflicts)."""
    rng = random.Random(seed)
    players = [f"Player{index}" for index in range(facts // 6)]
    teams = [f"Team{index}" for index in range(4)]
    graph = TemporalKnowledgeGraph(name=f"random-{seed}")
    for _ in range(facts):
        player = rng.choice(players)
        kind = rng.random()
        start = rng.randint(1950, 2010)
        end = start + rng.randint(0, 12)
        confidence = round(rng.uniform(0.3, 0.99), 2)
        if kind < 0.5:
            graph.add((player, "playsFor", rng.choice(teams), (start, end), confidence))
        elif kind < 0.75:
            graph.add((player, "coach", rng.choice(teams), (start, end), confidence))
        else:
            birth = rng.randint(1930, 1995)
            graph.add((player, "birthDate", str(birth), (birth, birth), confidence))
    return graph


def random_fact(rng: random.Random) -> tuple:
    start = rng.randint(1950, 2010)
    return (
        f"Player{rng.randint(0, 12)}",
        rng.choice(["playsFor", "coach"]),
        f"Team{rng.randint(0, 3)}",
        (start, start + rng.randint(0, 12)),
        round(rng.uniform(0.3, 0.99), 2),
    )


# --------------------------------------------------------------------------- #
# Randomized edit streams (the headline differential)
# --------------------------------------------------------------------------- #
class TestRandomEditStreams:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_add_remove_sequences(self, seed, audited_seed):
        seed = audited_seed(seed)
        rng = random.Random(100 + seed)
        graph = random_sports_graph(seed)
        rules = running_example_rules()
        constraints = running_example_constraints()
        incremental = IncrementalGrounder(graph, rules=rules, constraints=constraints)
        replica = graph.copy(name=graph.name)
        removed_pool: list = []

        assert_state_matches(incremental, replica, rules, constraints)
        for _ in range(10):
            adds, removes = [], []
            for _ in range(rng.randint(1, 4)):
                roll = rng.random()
                facts = replica.facts()
                if roll < 0.4 and facts:
                    victim = rng.choice(facts)
                    removes.append(victim)
                    removed_pool.append(victim)
                elif roll < 0.6 and removed_pool:
                    adds.append(removed_pool.pop())  # re-add a retracted fact
                elif roll < 0.8 and facts:
                    # Confidence bump on an existing statement.
                    fact = rng.choice(facts)
                    adds.append(fact.with_confidence(min(0.99, fact.confidence + 0.05)))
                else:
                    adds.append(make_fact(*random_fact(rng)))
            incremental.apply(adds=adds, removes=removes)
            for fact in removes:
                replica.remove(fact)
            for fact in adds:
                replica.add(fact)
            assert_state_matches(incremental, replica, rules, constraints)

    def test_sports_pack_edit_stream(self, audited_seed):
        seed = audited_seed(42)
        rng = random.Random(seed)
        graph = random_sports_graph(9, facts=100)
        pack = sports_pack()
        incremental = IncrementalGrounder(graph, rules=pack.rules, constraints=pack.constraints)
        replica = graph.copy(name=graph.name)
        for step in range(6):
            facts = replica.facts()
            removes = [facts[rng.randrange(len(facts))]]
            adds = [make_fact(*random_fact(rng))]
            incremental.apply(adds=adds, removes=removes)
            replica.remove(removes[0])
            replica.add(adds[0])
            assert_state_matches(incremental, replica, pack.rules, pack.constraints)


# --------------------------------------------------------------------------- #
# Retraction semantics (support sets, cascades, status flips)
# --------------------------------------------------------------------------- #
def chain_rules(predicates):
    return [
        RuleBuilder(f"chain{index}")
        .body(quad("x", source, "y", "t"))
        .head(quad("x", target, "y", "t"))
        .weight(1.2)
        .build()
        for index, (source, target) in enumerate(zip(predicates, predicates[1:]))
    ]


class TestRetraction:
    def test_cascading_retraction_through_rule_chain(self):
        """Removing the base fact must retract every downstream derivation."""
        predicates = ["hopA0", "hopA1", "hopA2", "hopA3"]
        rules = chain_rules(predicates)
        graph = TemporalKnowledgeGraph(name="chain")
        base = graph.add(("X", "hopA0", "Y", (2000, 2001), 0.9))
        graph.add(("X", "unrelated", "Z", (2000, 2001), 0.8))

        incremental = IncrementalGrounder(graph, rules=rules, max_rounds=5)
        replica = graph.copy(name=graph.name)
        current, _ = assert_state_matches(incremental, replica, rules, (), max_rounds=5)
        assert len(current.firings) == 3  # p0→p1→p2→p3

        incremental.apply(removes=[base])
        replica.remove(base)
        current, _ = assert_state_matches(incremental, replica, rules, (), max_rounds=5)
        assert current.firings == []
        assert incremental.state_summary()["firings"] == 0
        assert incremental.state_summary()["working_facts"] == len(replica)

        # Re-adding the base rebuilds the cascade bit-for-bit.
        incremental.apply(adds=[base])
        replica.add(base)
        current, _ = assert_state_matches(incremental, replica, rules, (), max_rounds=5)
        assert len(current.firings) == 3

    def test_evidence_to_derived_status_flip(self):
        """Removing evidence that stays derivable flips the atom to derived."""
        rules = chain_rules(["hopA0", "hopA1"])
        graph = TemporalKnowledgeGraph(name="flip")
        graph.add(("X", "hopA0", "Y", (2000, 2001), 0.9))
        derived_as_evidence = make_fact("X", "hopA1", "Y", (2000, 2001), 0.8)
        graph.add(derived_as_evidence)

        incremental = IncrementalGrounder(graph, rules=rules)
        replica = graph.copy(name=graph.name)
        current, _ = assert_state_matches(incremental, replica, rules, ())
        atom = current.program.atom_for(derived_as_evidence)
        assert atom is not None and atom.is_evidence

        incremental.apply(removes=[derived_as_evidence])
        replica.remove(derived_as_evidence)
        current, _ = assert_state_matches(incremental, replica, rules, ())
        atom = current.program.atom_for(derived_as_evidence)
        assert atom is not None and not atom.is_evidence
        assert atom.derived_by == "chain0"

    def test_violation_retracted_with_supporting_derivation(self):
        """A conflict involving a derived fact dies with its support."""
        rules = chain_rules(["playsFor", "coach"])
        constraints = running_example_constraints()
        graph = TemporalKnowledgeGraph(name="derived-conflict")
        base = graph.add(("CR", "playsFor", "Chelsea", (2000, 2004), 0.9))
        graph.add(("CR", "coach", "Napoli", (2001, 2003), 0.6))

        incremental = IncrementalGrounder(graph, rules=rules, constraints=constraints)
        replica = graph.copy(name=graph.name)
        current, _ = assert_state_matches(incremental, replica, rules, constraints)
        assert current.violations  # derived coach Chelsea vs coach Napoli

        incremental.apply(removes=[base])
        replica.remove(base)
        current, _ = assert_state_matches(incremental, replica, rules, constraints)
        assert incremental.state_summary()["firings"] == 0



class TestEditValidation:
    def test_malformed_edit_leaves_state_untouched(self):
        """A bad fact in an edit raises before any state is mutated."""
        from repro.errors import InvalidFactError

        graph = ranieri_graph()
        rules = running_example_rules()
        constraints = running_example_constraints()
        incremental = IncrementalGrounder(graph, rules=rules, constraints=constraints)
        good = make_fact("CR", "coach", "Leicester", (2015, 2016), 0.97)
        with pytest.raises(InvalidFactError):
            incremental.apply(adds=[good, ("not", "a", "fact")])
        with pytest.raises(InvalidFactError):
            incremental.apply(removes=[good, object()])
        # Neither the graph nor the match state absorbed the partial edit.
        assert good not in incremental.graph
        assert_state_matches(incremental, graph.copy(), rules, constraints)


# --------------------------------------------------------------------------- #
# max_rounds truncation (the superset-state emission filter)
# --------------------------------------------------------------------------- #
class TestRoundTruncation:
    def test_truncated_chain_matches_from_scratch(self):
        predicates = [f"hopB{index}" for index in range(7)]
        rules = chain_rules(predicates)
        graph = TemporalKnowledgeGraph(name="deep-chain")
        graph.add(("X", "hopB0", "Y", (2000, 2001), 0.9))

        incremental = IncrementalGrounder(graph, rules=rules, max_rounds=3)
        replica = graph.copy(name=graph.name)
        current, _ = assert_state_matches(incremental, replica, rules, (), max_rounds=3)
        # Emission truncates at 3 layers, but the maintained state holds the
        # whole fix point (6 firings).
        assert len(current.firings) == 3
        assert incremental.state_summary()["firings"] == 6

    def test_shortcut_pulls_deep_firings_into_bound(self):
        """New evidence shortening a derivation revives truncated firings."""
        predicates = [f"hopB{index}" for index in range(7)]
        rules = chain_rules(predicates)
        graph = TemporalKnowledgeGraph(name="shortcut")
        graph.add(("X", "hopB0", "Y", (2000, 2001), 0.9))

        incremental = IncrementalGrounder(graph, rules=rules, max_rounds=3)
        replica = graph.copy(name=graph.name)
        assert_state_matches(incremental, replica, rules, (), max_rounds=3)

        shortcut = make_fact("X", "hopB3", "Y", (2000, 2001), 0.8)
        incremental.apply(adds=[shortcut])
        replica.add(shortcut)
        current, _ = assert_state_matches(incremental, replica, rules, (), max_rounds=3)
        # p3 is now evidence, so p4/p5/p6 derive within the bound again.
        assert len(current.firings) == 6

    def test_unsaturated_rule_set_degrades_correctly(self):
        """Chains outrunning fixpoint_rounds fall back to exact re-grounding."""
        predicates = [f"hopC{index}" for index in range(6)]
        rules = chain_rules(predicates)
        graph = TemporalKnowledgeGraph(name="unsaturated")
        graph.add(("X", "hopC0", "Y", (2000, 2001), 0.9))
        incremental = IncrementalGrounder(graph, rules=rules, max_rounds=2, fixpoint_rounds=2)
        assert not incremental.saturated
        replica = graph.copy(name=graph.name)
        assert_state_matches(incremental, replica, rules, (), max_rounds=2)
        fact = make_fact("X", "hopC2", "Y", (2010, 2011), 0.7)
        incremental.apply(adds=[fact])
        replica.add(fact)
        assert_state_matches(incremental, replica, rules, (), max_rounds=2)


# --------------------------------------------------------------------------- #
# Session-level equivalence (objectives, assignments, cache correctness)
# --------------------------------------------------------------------------- #
def decomposed_solve(system, graph):
    """The decomposed oracle: ``graph``'s program and its per-component MAP state."""
    program = system.translate(graph).program
    backend = DecomposedSolver(make_solver(system.solver, **system.solver_options))
    return program, backend.solve(program)


class TestSessionEquivalence:
    @pytest.mark.parametrize("solver", ["nrockit", "npsl"])
    def test_session_matches_decomposed_resolve(self, solver):
        rng = random.Random(7)
        graph = random_sports_graph(21, facts=70)
        pack = sports_pack()
        system = TeCoRe(
            rules=list(pack.rules),
            constraints=list(pack.constraints),
            solver=solver,
        )
        session = system.session(graph)
        replica = graph.copy(name=graph.name)
        _, reference = decomposed_solve(system, replica)
        assert session.result.solution.assignment == reference.assignment

        removed_pool: list = []
        for _ in range(4):
            facts = replica.facts()
            removes = [rng.choice(facts)]
            adds = [make_fact(*random_fact(rng))]
            if removed_pool and rng.random() < 0.5:
                adds.append(removed_pool.pop())
            removed_pool.append(removes[0])
            result = session.apply(adds=adds, removes=removes)
            replica.remove(removes[0])
            for fact in adds:
                replica.add(fact)
            program, reference = decomposed_solve(system, replica.copy(name=replica.name))
            assert result.solution.assignment == reference.assignment
            assert result.objective == reference.objective
            assert {f.statement_key for f in result.removed_facts} == {
                f.statement_key for f in reference.removed_facts(program)
            }

    def test_session_objective_matches_monolithic_exact(self):
        """For the exact ILP back-end the merged objective equals monolithic."""
        graph = random_sports_graph(33, facts=60)
        pack = sports_pack()
        monolithic = TeCoRe(
            rules=list(pack.rules), constraints=list(pack.constraints), solver="nrockit"
        )
        session = monolithic.session(graph)
        assert session.result.objective == monolithic.resolve(graph.copy()).objective

    def test_incremental_engine_registered(self):
        assert GROUNDING_ENGINES["incremental"] is IncrementalGrounder
        grounder = make_grounder("incremental", ranieri_graph())
        assert isinstance(grounder, IncrementalGrounder)

    def test_tecore_incremental_engine_matches_indexed(self):
        system = TeCoRe.from_pack("running-example", solver="nrockit")
        reference = system.resolve(ranieri_extended_graph())
        incremental = TeCoRe.from_pack(
            "running-example", solver="nrockit", engine="incremental"
        ).resolve(ranieri_extended_graph())
        assert incremental.objective == reference.objective
        assert incremental.solution.assignment == reference.solution.assignment
