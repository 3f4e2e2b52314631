"""Differential suite for the columnar lowering and the solvers that use it.

``GroundProgramArrays`` lowers the object ground program into CSR blocks.
``npsl`` (:class:`~repro.psl.ADMMSolver`) builds its potential matrix from
them with ``PotentialMatrix.from_arrays``; it must stay **bit-identical** to
the object construction (a matrix built from ``HingeLossMRF`` potentials,
kept here as the oracle): truth values, assignment, objective and iteration
counts.  Alongside, this file pins the solver-layer bugfix sweep (the
``derived_by`` evidence-upgrade fix, the shared zero-weight epsilon) and that
no layer offers a solver kernel choice or a decomposition option.
"""

import random

import numpy as np
import pytest
from program_generators import random_ground_program

import repro.mln
import repro.psl
from repro.cli import _build_parser
from repro.core import TeCoRe, available_solvers, make_solver, solve_map
from repro.datasets import WikidataConfig, generate_wikidata, ranieri_extended_graph
from repro.errors import SolverNotAvailableError
from repro.kg import make_fact
from repro.logic import (
    GROUNDING_ENGINES,
    ZERO_WEIGHT_EPSILON,
    ClauseKind,
    GroundProgram,
    GroundProgramArrays,
    biography_pack,
    decompose,
    ground,
    make_grounder,
    nonzero_weight,
    running_example_constraints,
    running_example_rules,
)
from repro.mln import ILPMapSolver
from repro.psl import ADMMSolver, HingeLossMRF, PotentialMatrix, round_solution
from repro.solvers import DecomposedSolver

SEEDS = range(8)


def random_assignment(program, seed):
    rng = random.Random(seed)
    return [rng.random() < 0.5 for _ in range(program.num_atoms)]


# --------------------------------------------------------------------------- #
# Lowering invariants
# --------------------------------------------------------------------------- #
class TestLowering:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_csr_layout_preserves_clause_structure(self, seed):
        program = random_ground_program(seed)
        arrays = GroundProgramArrays.from_program(program)
        assert arrays.num_atoms == program.num_atoms
        assert arrays.num_clauses == program.num_clauses
        for index, clause in enumerate(program.clauses):
            start, stop = arrays.clause_offsets[index], arrays.clause_offsets[index + 1]
            atoms, signs = arrays.literal_atoms[start:stop], arrays.literal_signs[start:stop]
            assert list(zip(atoms.tolist(), signs.tolist())) == [
                (atom, bool(sign)) for atom, sign in clause.literals
            ]
            assert arrays.weight_list[index] == clause.weight
            assert bool(arrays.is_hard[index]) == clause.is_hard
        # The flat inverse maps every literal back to its owning clause.
        assert np.array_equal(
            arrays.literal_clauses,
            np.repeat(np.arange(arrays.num_clauses), np.diff(arrays.clause_offsets)),
        )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_objective_and_violations_match_object_path(self, seed):
        program = random_ground_program(seed)
        arrays = GroundProgramArrays.from_program(program)
        for trial in range(10):
            assignment = random_assignment(program, seed * 100 + trial)
            assert arrays.objective(assignment) == program.objective(assignment)
            expected = [
                index
                for index, clause in enumerate(program.clauses)
                if clause.is_hard
                and not any(assignment[i] == positive for i, positive in clause.literals)
            ]
            unsatisfied = arrays.satisfied_counts(assignment) == 0
            violated = np.flatnonzero(arrays.is_hard & unsatisfied).tolist()
            assert violated == expected
            assert (not violated) == program.is_feasible(assignment)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_component_labels_match_object_decomposition(self, seed):
        program = random_ground_program(seed)
        arrays = GroundProgramArrays.from_program(program)
        atom_labels, clause_labels = arrays.components
        decomposition = decompose(program)
        # Same partition: two atoms share an array label iff some object
        # component holds them both (label values may differ).
        label_of = {}
        for component in decomposition.components:
            for atom in component.atom_indices:
                label_of[atom] = min(component.atom_indices)
        for first in range(program.num_atoms):
            for second in range(first + 1, program.num_atoms):
                together = label_of.get(first) is not None and label_of.get(
                    first
                ) == label_of.get(second)
                assert (atom_labels[first] == atom_labels[second]) == together or (
                    label_of.get(first) is None and label_of.get(second) is None
                )
        # Every clause is labelled with its atoms' component.
        for index, clause in enumerate(program.clauses):
            for atom, _ in clause.literals:
                assert clause_labels[index] == atom_labels[atom]


# --------------------------------------------------------------------------- #
# Kernel equivalence
# --------------------------------------------------------------------------- #
def object_admm(program, warm_start=None, **options):
    """The object construction ``ADMMSolver.solve`` must reproduce.

    ``HingeLossMRF`` potentials → ``PotentialMatrix`` → the same ADMM loop,
    from all-ones or the clipped warm start, then the same rounding.
    """
    solver = ADMMSolver(**options)
    mrf = HingeLossMRF.from_program(program, hard_weight=solver.hard_weight, squared=solver.squared)
    matrix = PotentialMatrix(mrf.potentials, mrf.num_variables)
    if warm_start is None:
        consensus = mrf.initial_state()
    else:
        consensus = np.clip(np.asarray(warm_start, dtype=float), 0.0, 1.0)
    truth_values, iterations = solver._admm(matrix, consensus)
    assignment = round_solution(program, truth_values)
    truth_values = tuple(float(value) for value in truth_values)
    return truth_values, assignment, program.objective(assignment), iterations


def assert_admm_matches_object_construction(program, **options):
    rng = random.Random(program.num_clauses)
    warm = [rng.uniform(-0.2, 1.2) for _ in range(program.num_atoms)]
    for warm_start in (None, warm):
        solution = ADMMSolver(**options).solve(program, warm_start=warm_start)
        truth_values, assignment, objective, iterations = object_admm(
            program, warm_start, **options
        )
        assert solution.truth_values == truth_values
        assert solution.assignment == assignment
        assert solution.objective == objective
        assert solution.stats.iterations == iterations


class TestKernelEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("squared", [False, True])
    def test_admm_array_is_bit_identical(self, seed, squared):
        assert_admm_matches_object_construction(random_ground_program(seed), squared=squared)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_admm_array_is_bit_identical_on_wikidata(self, seed):
        graph = generate_wikidata(WikidataConfig(scale=1e-4, noise_ratio=0.5, seed=seed)).graph
        pack = biography_pack()
        program = ground(graph, pack.rules, pack.constraints).program
        assert program.num_clauses > 1000
        assert_admm_matches_object_construction(program)


# --------------------------------------------------------------------------- #
# Kernel selection: none.  One implementation per registered name, and no
# layer takes a kernel, decomposition or worker-count option (nor, on the
# command line, a grounding engine).
# --------------------------------------------------------------------------- #
REMOVED_OPTIONS = [
    ["resolve", "--kernel", "array"],
    ["resolve-batch", "graph.csv", "--kernel", "array"],
    ["watch", "edits.stream", "--kernel", "array"],
    ["serve", "--kernel", "array"],
    ["chaos", "--kernel", "array"],
    ["verify", "--kernel", "array"],
    ["detect", "--engine", "indexed"],
    ["resolve", "--engine", "indexed"],
    ["resolve-batch", "graph.csv", "--engine", "indexed"],
    ["serve", "--engine", "indexed"],
    ["resolve", "--jobs", "2"],
    ["resolve-batch", "graph.csv", "--jobs", "2"],
    ["serve", "--jobs", "2"],
]

#: Removed flags that take no value.
REMOVED_FLAGS = [
    [*command, flag]
    for command in (["resolve"], ["resolve-batch", "graph.csv"], ["serve"])
    for flag in ("--decompose", "--no-decompose")
]


class TestKernelSelection:
    def test_nrockit_rejects_unknown_kernel(self):
        with pytest.raises(TypeError):
            ILPMapSolver(kernel="array")

    def test_tecore_rejects_kernel(self):
        with pytest.raises(TypeError):
            TeCoRe(kernel="array")

    @pytest.mark.parametrize("option", ["decompose", "jobs"])
    def test_tecore_rejects_decomposition_options(self, option):
        with pytest.raises(TypeError):
            TeCoRe(**{option: 2})

    def test_decomposed_solver_takes_no_worker_count(self):
        with pytest.raises(TypeError):
            DecomposedSolver(make_solver("nrockit"), jobs=2)

    def test_solve_map_rejects_decompose(self):
        with pytest.raises(SolverNotAvailableError, match="decompose"):
            solve_map(random_ground_program(0), "nrockit", decompose=True)

    @pytest.mark.parametrize("argv", REMOVED_OPTIONS, ids=" ".join)
    def test_cli_rejects_removed_option(self, argv):
        _build_parser().parse_args(argv[:-2])
        with pytest.raises(SystemExit):
            _build_parser().parse_args(argv)

    @pytest.mark.parametrize("argv", REMOVED_FLAGS, ids=" ".join)
    def test_cli_rejects_removed_flag(self, argv):
        _build_parser().parse_args(argv[:-1])
        with pytest.raises(SystemExit) as excinfo:
            _build_parser().parse_args(argv)
        assert excinfo.value.code == 2

    def test_registry_names_one_implementation_each(self):
        assert available_solvers() == ["npsl", "nrockit"]

    def test_families_keep_no_registry_of_their_own(self):
        for module in (repro.mln, repro.psl):
            for name in ("solve_map", "make_solver", "BACKENDS", "available_backends"):
                assert not hasattr(module, name), f"{module.__name__}.{name}"


# --------------------------------------------------------------------------- #
# Bugfix sweep
# --------------------------------------------------------------------------- #
class TestBugfixSweep:
    def test_add_atom_upgrade_preserves_derived_by(self):
        program = GroundProgram()
        fact = make_fact("s", "p", "o", (0, 5), 0.9)
        derived = program.add_atom(fact, is_evidence=False, derived_by="rule-f1")
        assert derived.derived_by == "rule-f1"
        upgraded = program.add_atom(fact, is_evidence=True)
        assert upgraded.index == derived.index
        assert upgraded.is_evidence
        # The regression: upgrading to evidence used to drop the provenance.
        assert upgraded.derived_by == "rule-f1"
        assert program.atoms[upgraded.index].derived_by == "rule-f1"

    def test_canonical_signature_parity_across_engines(self):
        graph = ranieri_extended_graph()
        rules = running_example_rules()
        constraints = running_example_constraints()
        signatures = {}
        for engine in GROUNDING_ENGINES:
            grounder = make_grounder(
                engine, graph, rules=rules, constraints=constraints, max_rounds=5
            )
            signatures[engine] = grounder.ground().program.canonical_signature()
        assert len(set(signatures.values())) == 1, sorted(signatures)

    def test_nonzero_weight_contract(self):
        assert nonzero_weight(0.0) == ZERO_WEIGHT_EPSILON
        assert nonzero_weight(0) == ZERO_WEIGHT_EPSILON
        assert nonzero_weight(2.5) == 2.5
        assert nonzero_weight(-1.25) == -1.25
        assert nonzero_weight(None) is None  # hard clauses pass through

    def test_add_clause_applies_shared_epsilon(self):
        program = GroundProgram()
        atom = program.add_atom(make_fact("s", "p", "o", (0, 1), 0.5), is_evidence=True)
        program.add_clause([(atom.index, True)], 0.0, ClauseKind.EVIDENCE, "ev")
        assert program.clauses[-1].weight == ZERO_WEIGHT_EPSILON

    def test_max_soft_weight_sums_soft_clauses_only(self):
        # The docstring fix: the method bounds the objective by SUMMING all
        # soft weights (every stored soft weight is positive), despite the
        # ``max_`` name.
        program = random_ground_program(0)
        soft = [clause.weight for clause in program.clauses if not clause.is_hard]
        assert program.max_soft_weight() == sum(soft)
