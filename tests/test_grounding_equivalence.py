"""Differential tests: the indexed grounder must match the naive one.

The semi-naive :class:`~repro.logic.IndexedGrounder` is a pure optimisation
of :class:`~repro.logic.NaiveGrounder` — on every workload the two engines
must produce the same ground atoms, clauses, rule firings, violations, and
round count.  The suite checks this on the paper's running example, on the
synthetic FootballDB dataset (clean and noisy), and on randomized noisy
graphs, both order-independently (canonical signatures) and bit-for-bit
(atom/clause emission order).
"""

import random
from itertools import chain

import numpy as np
import pytest

from repro.datasets import (
    FootballDBConfig,
    generate_footballdb,
    ranieri_extended_graph,
    ranieri_graph,
)
from repro.errors import GroundingError
from repro.kg import TemporalKnowledgeGraph
from repro.logic import (
    DEFAULT_ENGINE,
    GROUNDING_ENGINES,
    IndexedGrounder,
    NaiveGrounder,
    RuleBuilder,
    VectorizedGrounder,
    find_conflicts,
    ground,
    make_grounder,
    quad,
    running_example_constraints,
    running_example_rules,
    sports_pack,
)
from repro.logic.arrays import GroundProgramArrays


def object_walk_arrays(program):
    """The CSR of ``program`` by a walk over its clause objects.

    The lowering ``GroundProgramArrays.from_program`` did before programs
    stored their clauses as columns; the oracle the columns must equal.
    """
    clauses = program.clauses
    lengths = np.fromiter((len(clause.literals) for clause in clauses), dtype=np.int64)
    clause_offsets = np.zeros(len(clauses) + 1, dtype=np.int64)
    np.cumsum(lengths, out=clause_offsets[1:])
    literals = list(chain.from_iterable(clause.literals for clause in clauses))
    weight_list = [clause.weight for clause in clauses]
    return GroundProgramArrays(
        num_atoms=len(program.atoms),
        clause_offsets=clause_offsets,
        literal_atoms=np.fromiter((index for index, _ in literals), dtype=np.int64),
        literal_signs=np.fromiter((positive for _, positive in literals), dtype=bool),
        literal_clauses=np.repeat(np.arange(len(clauses), dtype=np.int64), lengths),
        weights=np.fromiter(
            (0.0 if weight is None else weight for weight in weight_list), dtype=np.float64
        ),
        is_hard=np.fromiter((weight is None for weight in weight_list), dtype=bool),
        weight_list=weight_list,
    )


def assert_csr_matches_object_walk(program):
    """``program``'s CSR equals the object walk, column for column, bit for bit."""
    actual = GroundProgramArrays.from_program(program)
    expected = object_walk_arrays(program)
    assert actual.num_atoms == expected.num_atoms
    for column in (
        "clause_offsets",
        "literal_atoms",
        "literal_signs",
        "literal_clauses",
        "weights",
        "is_hard",
    ):
        got, want = getattr(actual, column), getattr(expected, column)
        assert got.dtype == want.dtype and got.shape == want.shape, column
        assert got.tobytes() == want.tobytes(), column
    assert list(map(repr, actual.weight_list)) == list(map(repr, expected.weight_list))


def assert_equivalent(graph, rules, constraints, max_rounds=5):
    """Ground with both engines and compare every observable output."""
    naive = NaiveGrounder(
        graph, rules=rules, constraints=constraints, max_rounds=max_rounds
    ).ground()
    indexed = IndexedGrounder(
        graph, rules=rules, constraints=constraints, max_rounds=max_rounds
    ).ground()

    # Order-independent: same atoms and clauses as sets (the satellite
    # guarantee — "identical up to ordering").
    assert (
        naive.program.canonical_signature() == indexed.program.canonical_signature()
    ), "engines produced different ground programs"

    # Bit-for-bit: same emission order for atoms, clauses, firings, and
    # violations, and the same number of chaining rounds.
    assert [str(atom) for atom in naive.program.atoms] == [
        str(atom) for atom in indexed.program.atoms
    ]
    assert [str(clause) for clause in naive.program.clauses] == [
        str(clause) for clause in indexed.program.clauses
    ]
    assert naive.firings == indexed.firings
    assert naive.violations == indexed.violations
    assert naive.rounds == indexed.rounds
    for grounding in (naive, indexed):
        assert_csr_matches_object_walk(grounding.program)
    return naive, indexed


# --------------------------------------------------------------------------- #
# Running example
# --------------------------------------------------------------------------- #
class TestRunningExampleEquivalence:
    def test_figure_1_graph(self):
        naive, indexed = assert_equivalent(
            ranieri_graph(), running_example_rules(), running_example_constraints()
        )
        assert len(naive.violations) == 1

    def test_extended_graph_two_round_chaining(self):
        naive, indexed = assert_equivalent(
            ranieri_extended_graph(),
            running_example_rules(),
            running_example_constraints(),
        )
        assert naive.rounds >= 2

    def test_constraints_only(self):
        assert_equivalent(ranieri_graph(), rules=(), constraints=running_example_constraints())

    def test_max_rounds_truncation(self):
        assert_equivalent(
            ranieri_extended_graph(),
            running_example_rules(),
            running_example_constraints(),
            max_rounds=1,
        )


# --------------------------------------------------------------------------- #
# FootballDB
# --------------------------------------------------------------------------- #
class TestFootballDBEquivalence:
    @pytest.mark.parametrize("noise_ratio", [0.0, 0.5])
    def test_small_footballdb(self, noise_ratio):
        dataset = generate_footballdb(
            FootballDBConfig(scale=0.01, noise_ratio=noise_ratio, seed=2017)
        )
        pack = sports_pack()
        assert_equivalent(dataset.graph, pack.rules, pack.constraints)

    def test_footballdb_with_chained_rules(self):
        """Deep chaining is the semi-naive delta's hardest correctness case."""
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
        naive, indexed = assert_equivalent(
            graph, list(pack.rules) + chain_rules, pack.constraints, max_rounds=10
        )
        assert naive.rounds >= 3


# --------------------------------------------------------------------------- #
# Randomized noisy graphs
# --------------------------------------------------------------------------- #
def random_sports_graph(seed: int, facts: int = 120) -> TemporalKnowledgeGraph:
    """A random UTKG over the sports schema (dense enough for conflicts)."""
    rng = random.Random(seed)
    players = [f"Player{index}" for index in range(facts // 6)]
    teams = [f"Team{index}" for index in range(5)]
    graph = TemporalKnowledgeGraph(name=f"random-{seed}")
    for _ in range(facts):
        player = rng.choice(players)
        kind = rng.random()
        start = rng.randint(1950, 2010)
        end = start + rng.randint(0, 12)
        confidence = round(rng.uniform(0.3, 1.0), 2)
        if kind < 0.5:
            graph.add((player, "playsFor", rng.choice(teams), (start, end), confidence))
        elif kind < 0.7:
            graph.add((player, "coach", rng.choice(teams), (start, end), confidence))
        elif kind < 0.9:
            birth = rng.randint(1930, 1995)
            graph.add((player, "birthDate", str(birth), (birth, birth), confidence))
        else:
            graph.add(
                (
                    rng.choice(teams),
                    "locatedIn",
                    f"City{rng.randint(0, 3)}",
                    (1940, 2020),
                    confidence,
                )
            )
    return graph


class TestRandomizedEquivalence:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_random_noisy_graphs(self, seed):
        graph = random_sports_graph(seed)
        assert_equivalent(graph, running_example_rules(), running_example_constraints())

    @pytest.mark.parametrize("seed", [11, 12])
    def test_random_graphs_sports_pack(self, seed):
        graph = random_sports_graph(seed, facts=150)
        pack = sports_pack()
        assert_equivalent(graph, pack.rules, pack.constraints)

    def test_empty_graph(self):
        assert_equivalent(
            TemporalKnowledgeGraph(name="empty"),
            running_example_rules(),
            running_example_constraints(),
        )


# --------------------------------------------------------------------------- #
# Engine selection API
# --------------------------------------------------------------------------- #
class TestEngineSelection:
    def test_default_engine_is_vectorized(self):
        assert GROUNDING_ENGINES[DEFAULT_ENGINE] is VectorizedGrounder
        assert set(GROUNDING_ENGINES) == {"indexed", "naive", "incremental", "vectorized"}

    def test_make_grounder_dispatch(self):
        graph = ranieri_graph()
        assert isinstance(make_grounder("indexed", graph), IndexedGrounder)
        assert isinstance(make_grounder("naive", graph), NaiveGrounder)

    def test_make_grounder_unknown_engine(self):
        with pytest.raises(GroundingError):
            make_grounder("bogus", ranieri_graph())

    def test_ground_function_engines_agree(self):
        graph = ranieri_graph()
        rules = running_example_rules()
        constraints = running_example_constraints()
        indexed = ground(graph, rules, constraints, engine="indexed")
        naive = ground(graph, rules, constraints, engine="naive")
        assert (indexed.program.canonical_signature() == naive.program.canonical_signature())

    def test_find_conflicts_engines_agree(self):
        graph = ranieri_graph()
        constraints = running_example_constraints()
        assert find_conflicts(graph, constraints, engine="indexed") == find_conflicts(
            graph, constraints, engine="naive"
        )

    def test_canonical_signature_mixed_hard_soft_clauses(self):
        """Hard (weight=None) and soft clauses over the same facts must sort.

        Regression: canonical_signature() used to raise TypeError comparing
        None to float when two clauses tied on their literal sets.
        """
        from repro.logic.builder import ConstraintBuilder, disjoint, not_equal, quad

        graph = TemporalKnowledgeGraph(name="hard-soft")
        graph.add(("CR", "coach", "Chelsea", (2000, 2004), 0.9))
        graph.add(("CR", "coach", "Napoli", (2001, 2003), 0.6))

        def c2_like(name, weight):
            builder = (
                ConstraintBuilder(name)
                .body(quad("x", "coach", "y", "t"), quad("x", "coach", "z", "t2"))
                .when(not_equal("y", "z"))
                .require(disjoint("t", "t2"))
            )
            builder = builder.hard() if weight is None else builder.soft(weight)
            return builder.build()

        constraints = [c2_like("hardC2", None), c2_like("softC2", 1.5)]
        naive, indexed = assert_equivalent(graph, rules=(), constraints=constraints)
        assert len(naive.violations) == 2
        # The signature is well-defined and engine-independent.
        assert (naive.program.canonical_signature() == indexed.program.canonical_signature())
