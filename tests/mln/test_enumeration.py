"""The exact MAP kernels of ``nrockit``: bucket elimination, and HiGHS for wide components.

``ILPMapSolver.solve`` splits a program into its components.  Those of
elimination width at most ``ELIMINATION_MAX_WIDTH`` are solved together by
``eliminate_components``; each other component gets a HiGHS call of its own
on its sub-program's ILP.  The oracles:

* ``enumerate_map``: every state of a small program scored in numpy, the
  near-optimal ones re-scored with exact ``Fraction`` sums; the
  lexicographically largest ``(x₀, x₁, …)`` among the states of maximal
  exact weight wins.  It is checked against a plain ``itertools.product``
  loop that applies the same rule;
* HiGHS (``ILPMapSolver._solve_encoding``) on components too large to
  enumerate: the same objective within 1e-12 relative;
* each component solved alone, ``DecomposedSolver(ILPMapSolver())`` and a
  session: the same assignment and objective, bit for bit;
* ``_object_encode``, the clause-by-clause ILP construction: the same ILP as
  the CSR-built one, whole-program and per wide component.
"""

import functools
import itertools
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.optimize
from program_generators import random_ground_program
from scipy import sparse

from repro import TeCoRe
from repro.core import available_solvers, make_solver
from repro.datasets import FootballDBConfig, WikidataConfig, generate_footballdb, generate_wikidata
from repro.errors import GroundingError, InfeasibleProgramError
from repro.kg import make_fact
from repro.logic import ClauseKind, GroundProgram, GroundProgramArrays, decompose
from repro.mln import ILPMapSolver
from repro.mln.ilp import ILPEncoding, encode_arrays
from repro.mln.solvers.milp_backend import ELIMINATION_MAX_WIDTH
from repro.solvers.decomposed import DecomposedSolver

#: Largest component the enumeration oracle scores (2²⁰ states).
ORACLE_MAX_ATOMS = 20


# --------------------------------------------------------------------------- #
# Oracles
# --------------------------------------------------------------------------- #
def _exact_objective(program, assignment):
    """Satisfied soft weight of ``assignment``, summed exactly."""
    return sum(
        (
            Fraction(clause.weight)
            for clause in program.clauses
            if clause.weight is not None and clause.satisfied_by(assignment)
        ),
        Fraction(0),
    )


def enumerate_map(program):
    """Exact MAP state of a small program, by scoring every assignment.

    State ``s`` is an int64 whose bit ``n − 1 − i`` is atom ``i``, so
    ordering states by value orders them lexicographically by
    ``(x₀, x₁, …)``.  Each clause becomes a positive and a negative atom
    mask and is satisfied where ``(s & pos) != 0 | (s & neg) != neg``; hard
    clauses AND into a feasibility mask.  Float totals find the states
    within a wide margin of the best one, and those are re-scored with exact
    ``Fraction`` sums.  Among the feasible states of maximal exact weight
    the largest wins.  Raises ``InfeasibleProgramError`` when no state
    satisfies every hard clause.
    """
    num_atoms = program.num_atoms
    states = np.arange(1 << num_atoms, dtype=np.int64)
    feasible = np.ones(states.size, dtype=bool)
    total = np.zeros(states.size, dtype=np.float64)
    for clause in program.clauses:
        positive_mask = negative_mask = 0
        for index, positive in clause.literals:
            bit = 1 << (num_atoms - 1 - index)
            if positive:
                positive_mask |= bit
            else:
                negative_mask |= bit
        satisfied = (states & positive_mask) != 0
        if negative_mask:
            satisfied |= (states & negative_mask) != negative_mask
        if clause.weight is None:
            feasible &= satisfied
        else:
            total += np.where(satisfied, clause.weight, 0.0)
    if not feasible.any():
        raise InfeasibleProgramError("no feasible state")
    scores = np.where(feasible, total, -np.inf)
    margin = 1e-9 * (1.0 + program.max_soft_weight())
    near = np.flatnonzero(scores >= scores.max() - margin).tolist()

    def assignment(state):
        return tuple(bool((state >> (num_atoms - 1 - i)) & 1) for i in range(num_atoms))

    return max((_exact_objective(program, assignment(s)), assignment(s)) for s in near)[1]


def product_map(program):
    """The same rule, by a plain loop over ``itertools.product``."""
    feasible = [
        assignment
        for assignment in itertools.product((False, True), repeat=program.num_atoms)
        if program.is_feasible(assignment)
    ]
    if not feasible:
        raise InfeasibleProgramError("no feasible state")
    return max(feasible, key=lambda assignment: (_exact_objective(program, assignment), assignment))


def _object_encode(program):
    """The MAP ILP built clause by clause from ``GroundClause`` objects."""
    num_atoms = program.num_atoms
    if num_atoms == 0:
        raise GroundingError("cannot encode an empty ground program")
    aux_clauses = [
        index
        for index, clause in enumerate(program.clauses)
        if not clause.is_hard and len(clause.literals) > 1
    ]
    num_aux = len(aux_clauses)
    aux_position = {clause: num_atoms + offset for offset, clause in enumerate(aux_clauses)}
    objective = np.zeros(num_atoms + num_aux, dtype=float)
    offset = 0.0
    rows, columns, values, bounds = [], [], [], []

    def add_row(cols, coeffs, lower):
        for column, coefficient in zip(cols, coeffs):
            rows.append(len(bounds))
            columns.append(column)
            values.append(coefficient)
        bounds.append(lower)

    for clause_index, clause in enumerate(program.clauses):
        if not clause.is_hard and len(clause.literals) == 1:
            index, positive = clause.literals[0]
            if positive:
                objective[index] += clause.weight
            else:
                objective[index] -= clause.weight
                offset += clause.weight
            continue
        cols = [index for index, _ in clause.literals]
        coeffs = [1.0 if positive else -1.0 for _, positive in clause.literals]
        lower = 1.0
        for _, positive in clause.literals:
            if not positive:
                lower -= 1.0
        if not clause.is_hard:
            aux = aux_position[clause_index]
            objective[aux] += clause.weight
            cols.append(aux)
            coeffs.append(-1.0)
            lower -= 1.0
        add_row(cols, coeffs, lower)
    if not bounds:
        add_row([0], [0.0], -1.0)
    matrix = sparse.csr_matrix((values, (rows, columns)), shape=(len(bounds), num_atoms + num_aux))
    return ILPEncoding(
        objective=objective,
        constraint_matrix=matrix,
        lower_bounds=np.asarray(bounds, dtype=float),
        offset=offset,
        num_atoms=num_atoms,
        num_aux=num_aux,
        aux_clauses=aux_clauses,
    )


def whole_program_ilp(program):
    """``encode_arrays`` over every atom and clause, as ``nrockit`` calls it
    for a program that is one wide component."""
    arrays = GroundProgramArrays.from_program(program)
    return encode_arrays(arrays, np.arange(arrays.num_atoms), np.arange(arrays.num_clauses))


def _assert_same_encoding(actual, expected, aux_clauses=None):
    """Bit-equal ILPs; ``aux_clauses`` maps ``expected``'s clause indexes."""
    assert actual.num_atoms == expected.num_atoms
    assert actual.num_aux == expected.num_aux
    assert actual.objective.tobytes() == expected.objective.tobytes()
    assert actual.lower_bounds.tobytes() == expected.lower_bounds.tobytes()
    assert actual.offset == expected.offset
    assert actual.constraint_matrix.shape == expected.constraint_matrix.shape
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(
            getattr(actual.constraint_matrix, name), getattr(expected.constraint_matrix, name)
        ), name
    mapped = [aux_clauses[index] for index in expected.aux_clauses] if aux_clauses else None
    assert actual.aux_clauses == (mapped or expected.aux_clauses)


def _highs_objective(program):
    encoding = _object_encode(program)
    values, _, _ = ILPMapSolver()._solve_encoding(encoding, 60.0)
    return program.objective(encoding.assignment_from(values))


# --------------------------------------------------------------------------- #
# Programs
# --------------------------------------------------------------------------- #
def _chain(atoms, confidence=0.8, program=None, subject="x"):
    """``atoms`` evidence facts, each in a hard conflict with the next
    (appended to ``program`` when given)."""
    program = GroundProgram() if program is None else program
    first = program.num_atoms
    for index in range(atoms):
        atom = program.add_atom(
            make_fact(subject, "coach", f"club{index}", (index, index + 1), confidence),
            is_evidence=True,
        )
        program.add_clause([(atom.index, True)], atom.fact.log_weight, ClauseKind.EVIDENCE, "e")
    for index in range(first, first + atoms - 1):
        program.add_clause([(index, False), (index + 1, False)], None, ClauseKind.CONSTRAINT, "c")
    return program


def _clique(atoms, program=None, subject="k", seed=0):
    """``atoms`` evidence facts in pairwise hard conflict: one component of
    width ``atoms − 1`` (appended to ``program`` when given)."""
    rng = random.Random(seed)
    program = GroundProgram() if program is None else program
    first = program.num_atoms
    for index in range(atoms):
        fact = make_fact(subject, "coach", f"club{index}", (1, 5), rng.uniform(0.55, 0.95))
        atom = program.add_atom(fact, is_evidence=True)
        program.add_clause([(atom.index, True)], atom.fact.log_weight, ClauseKind.EVIDENCE, "e")
    for one, other in itertools.combinations(range(first, first + atoms), 2):
        program.add_clause([(one, False), (other, False)], None, ClauseKind.CONSTRAINT, "c")
    return program


def _band(atoms, width, program=None, subject="b", seed=0):
    """``atoms`` evidence facts, each linked to the next ``width`` by a hard
    conflict or a soft rule clause: one component of width ``width``."""
    rng = random.Random(seed)
    program = GroundProgram() if program is None else program
    first = program.num_atoms
    for index in range(atoms):
        fact = make_fact(subject, "p", f"o{index}", (index, index + 1), rng.uniform(0.55, 0.95))
        atom = program.add_atom(fact, is_evidence=True)
        program.add_clause([(atom.index, True)], atom.fact.log_weight, ClauseKind.EVIDENCE, "e")
    for one in range(first, first + atoms):
        for other in range(one + 1, min(first + atoms, one + width + 1)):
            if rng.random() < 0.5:
                program.add_clause([(one, False), (other, False)], None, ClauseKind.CONSTRAINT)
            else:
                program.add_clause([(one, False), (other, True)], 1.0, ClauseKind.RULE)
    return program


def _random_program(rng, subject="x"):
    """At most 8 atoms with mixed-polarity hard clauses and equal weights,
    so ties and infeasible cores both occur, and a clause may repeat an atom
    or hold it with both signs."""
    program = GroundProgram()
    for index in range(rng.randint(1, 8)):
        confidence = rng.choice((0.3, 0.6, 0.8))
        fact = make_fact(subject, "p", f"o{index}", (index, index + 1), confidence)
        atom = program.add_atom(fact, is_evidence=True)
        program.add_clause([(atom.index, True)], atom.fact.log_weight, ClauseKind.EVIDENCE, "e")
    for _ in range(rng.randint(0, 6)):
        literals = [
            (rng.randrange(program.num_atoms), rng.random() < 0.3) for _ in range(rng.randint(1, 3))
        ]
        weight = None if rng.random() < 0.6 else rng.choice((0.5, 1.0))
        program.add_clause(literals, weight, ClauseKind.CONSTRAINT, "c")
    return program


@functools.lru_cache(maxsize=None)
def _program(name):
    """A named test program: ``footballdb:<scale>/<seed>``,
    ``wikidata:<scale>/<seed>`` or ``generated:<seed>/<cross-entity links>``
    (more links join more entity blocks into larger components)."""
    kind, _, argument = name.partition(":")
    first, second = argument.split("/")
    if kind == "footballdb":
        config = FootballDBConfig(scale=float(first), noise_ratio=0.5, seed=int(second))
        return TeCoRe.from_pack("sports").translate(generate_footballdb(config).graph).program
    if kind == "wikidata":
        config = WikidataConfig(scale=float(first), noise_ratio=0.5, seed=int(second))
        return TeCoRe.from_pack("biography").translate(generate_wikidata(config).graph).program
    return random_ground_program(int(first), cross_entity_links=int(second))


GENERATED = [f"generated:{seed}/{links}" for seed in range(30) for links in (1, 4)]
WIKIDATA = "wikidata:0.0001/2017"


def _assert_components_exact(program, solution):
    """Components of at most ORACLE_MAX_ATOMS atoms get enumerate_map's
    assignment; larger ones HiGHS's objective within 1e-12 relative."""
    for component in decompose(program).components:
        assignment = tuple(solution.assignment[index] for index in component.atom_indices)
        if component.num_atoms <= ORACLE_MAX_ATOMS:
            assert assignment == enumerate_map(component.program), component
        else:
            objective = component.program.objective(assignment)
            assert objective == pytest.approx(
                _highs_objective(component.program), rel=1e-12, abs=0
            ), component


# --------------------------------------------------------------------------- #
# Exactness
# --------------------------------------------------------------------------- #
class TestOracle:
    @pytest.mark.parametrize("seed", range(60))
    def test_enumeration_matches_the_product_loop(self, seed):
        program = _random_program(random.Random(seed))
        try:
            expected = product_map(program)
        except InfeasibleProgramError:
            with pytest.raises(InfeasibleProgramError):
                enumerate_map(program)
            return
        assert enumerate_map(program) == expected


class TestEliminationIsExact:
    @pytest.mark.parametrize("seed", range(60))
    def test_matches_the_product_loop(self, seed):
        program = _random_program(random.Random(seed))
        try:
            expected = product_map(program)
        except InfeasibleProgramError:
            with pytest.raises(InfeasibleProgramError):
                ILPMapSolver().solve(program)
            return
        solution = ILPMapSolver().solve(program)
        assert solution.assignment == expected
        assert solution.objective == program.objective(expected)

    @pytest.mark.parametrize("name", GENERATED)
    def test_generated_programs(self, name):
        program = _program(name)
        _assert_components_exact(program, ILPMapSolver().solve(program))

    @pytest.mark.parametrize("name", ["footballdb:0.02/2017", "footballdb:0.25/4000"])
    def test_footballdb_components(self, name):
        program = _program(name)
        _assert_components_exact(program, ILPMapSolver().solve(program))

    def test_wikidata_narrow_components(self, highs_encodings):
        program = _program(WIKIDATA)
        solution = ILPMapSolver().solve(program)
        assert sorted(encoding.num_atoms for encoding in highs_encodings) == [61, 62]
        components = decompose(program).components
        narrow = [c for c in components if c.num_atoms <= ORACLE_MAX_ATOMS]
        assert len(narrow) == len(components) - 2
        for component in narrow:
            assignment = tuple(solution.assignment[index] for index in component.atom_indices)
            assert assignment == enumerate_map(component.program), component

    @pytest.mark.parametrize("width", [4, ELIMINATION_MAX_WIDTH])
    def test_bands_up_to_the_width_bound(self, width, highs_encodings):
        program = _band(16, width)
        assert ILPMapSolver().solve(program).assignment == enumerate_map(program)
        assert highs_encodings == []


class TestTieRule:
    @staticmethod
    def _tied_conflict(first, second):
        """Two equally confident facts under one hard constraint."""
        program = GroundProgram()
        atoms = [
            program.add_atom(make_fact("x", "coach", club, (1, 5), 0.8), is_evidence=True)
            for club in (first, second)
        ]
        for atom in atoms:
            program.add_clause([(atom.index, True)], atom.fact.log_weight, ClauseKind.EVIDENCE, "e")
        program.add_clause(
            [(atoms[0].index, False), (atoms[1].index, False)], None, ClauseKind.CONSTRAINT, "c"
        )
        return program

    def test_keeps_the_lower_index_fact(self):
        solver = ILPMapSolver()
        program = self._tied_conflict("Chelsea", "Napoli")
        solution = solver.solve(program)
        assert solution.assignment == (True, False)
        assert solution.kept_facts(program) == [program.atoms[0].fact]
        # The same content solved again, or by a fresh solver, repeats it.
        assert solver.solve(program).assignment == solution.assignment
        fresh = self._tied_conflict("Chelsea", "Napoli")
        assert ILPMapSolver().solve(fresh).assignment == solution.assignment
        # The rule follows atom order: swapped, the other fact stays.
        swapped = self._tied_conflict("Napoli", "Chelsea")
        assert ILPMapSolver().solve(swapped).kept_facts(swapped) == [program.atoms[1].fact]

    @staticmethod
    def _float_broken_tie():
        """Two conflicting facts whose unit weights have equal exact sums, but
        whose clause-order float sums differ by an ulp in favour of the second.

        Atom 0's units come as ``a, b, c`` and atom 1's as ``a, c, b``."""
        rng = random.Random(0)
        while True:
            a, b, c = (rng.uniform(0.5, 2.0) for _ in range(3))
            if (a + b) + c < (a + c) + b:
                break
        program = GroundProgram()
        for index, weights in enumerate(((a, b, c), (a, c, b))):
            atom = program.add_atom(make_fact("x", "p", f"o{index}", (1, 5), 0.6), True)
            for weight in weights:
                program.add_clause([(atom.index, True)], weight, ClauseKind.EVIDENCE)
        program.add_clause([(0, False), (1, False)], None, ClauseKind.CONSTRAINT)
        return program

    def test_exact_tie_that_float_sums_break_keeps_the_first_fact(self, highs_encodings):
        program = self._float_broken_tie()
        first, second = (True, False), (False, True)
        assert _exact_objective(program, first) == _exact_objective(program, second)
        # Summed left to right in clause order the second fact would win by
        # an ulp; the objective is the exact sum, rounded once, so it ties.
        (a, b, c), (_, c2, b2) = (
            [clause.weight for clause in program.clauses[3 * atom : 3 * atom + 3]]
            for atom in (0, 1)
        )
        assert (a + b) + c < (a + c2) + b2
        assert program.objective(first) == program.objective(second)
        solution = ILPMapSolver().solve(program)
        assert solution.assignment == first == product_map(program)
        assert solution.objective == program.objective(first)
        assert highs_encodings == []

    @pytest.mark.parametrize("seed", range(30))
    def test_stacked_components_keep_the_rule(self, seed):
        # Feasible random programs side by side, eliminated in one batch.
        rng = random.Random(seed)
        parts = []
        while len(parts) < 6:
            part = _random_program(rng, subject=f"s{len(parts)}")
            try:
                product_map(part)
            except InfeasibleProgramError:
                continue
            parts.append(part)
        program = GroundProgram.stack(parts)
        solution = ILPMapSolver().solve(program)
        for component in decompose(program).components:
            assignment = tuple(solution.assignment[index] for index in component.atom_indices)
            assert assignment == product_map(component.program)


# --------------------------------------------------------------------------- #
# One answer per component content
# --------------------------------------------------------------------------- #
class TestContentOnly:
    @pytest.mark.parametrize("name", ["footballdb:0.02/2017", WIKIDATA, "generated:3/4"])
    def test_one_shot_decomposed_and_alone_agree_bit_for_bit(self, name):
        program = _program(name)
        solution = ILPMapSolver().solve(program)
        decomposed = DecomposedSolver(ILPMapSolver()).solve(program)
        assert solution.assignment == decomposed.assignment
        assert solution.objective == decomposed.objective
        assert solution.stats.optimal and decomposed.stats.optimal
        for component in decompose(program).components:
            alone = ILPMapSolver().solve(component.program)
            assignment = tuple(solution.assignment[index] for index in component.atom_indices)
            assert assignment == alone.assignment
            assert component.program.objective(assignment) == alone.objective

    def test_session_agrees_with_one_shot_on_the_highs_components(self):
        # Wikidata 1e-4 seed 2017: its 61- and 62-atom components go to HiGHS.
        config = WikidataConfig(scale=0.0001, noise_ratio=0.5, seed=2017)
        graph = generate_wikidata(config).graph
        system = TeCoRe.from_pack("biography", solver="nrockit")
        session = system.session(graph.copy(name=graph.name))
        one_shot = system.resolve(graph)
        assert session.result.solution.assignment == one_shot.solution.assignment
        assert session.result.objective == one_shot.objective

    @pytest.mark.parametrize("name", ["footballdb:0.02/2017", WIKIDATA])
    def test_solve_components_equals_each_program_alone(self, name):
        programs = [component.program for component in decompose(_program(name)).components]
        programs.append(GroundProgram())
        batch = ILPMapSolver().solve_components(programs)
        assert len(batch) == len(programs)
        for program, solution in zip(programs, batch):
            alone = ILPMapSolver().solve(program)
            assert solution.assignment == alone.assignment
            assert solution.objective == alone.objective
            assert solution.truth_values == alone.truth_values
            assert solution.stats.optimal is True
            assert solution.stats.atoms == program.num_atoms

    def test_decomposed_solver_makes_one_batched_call(self, monkeypatch):
        calls = []
        solve = ILPMapSolver.solve

        def spy(self, program):
            calls.append(program.num_atoms)
            return solve(self, program)

        monkeypatch.setattr(ILPMapSolver, "solve", spy)
        program = _program("footballdb:0.02/2017")
        DecomposedSolver(ILPMapSolver()).solve(program)
        decomposition = decompose(program)
        assert calls == [program.num_atoms - len(decomposition.unconstrained)]


# --------------------------------------------------------------------------- #
# Routing: which components reach HiGHS, and with which ILP
# --------------------------------------------------------------------------- #
@pytest.fixture
def highs_encodings(monkeypatch):
    """Every encoding handed to HiGHS during the test."""
    encodings = []
    solve_encoding = ILPMapSolver._solve_encoding

    def spy(self, encoding, time_limit):
        encodings.append(encoding)
        return solve_encoding(self, encoding, time_limit)

    monkeypatch.setattr(ILPMapSolver, "_solve_encoding", spy)
    return encodings


class TestRouting:
    @pytest.mark.parametrize("name", ["footballdb:0.01/7", "footballdb:0.25/4000"])
    def test_footballdb_never_reaches_highs(self, name, highs_encodings):
        solution = ILPMapSolver().solve(_program(name))
        assert highs_encodings == []
        assert solution.stats.optimal is True
        assert solution.stats.objective_bound == solution.objective

    def test_one_call_per_wide_component_with_its_subprograms_ilp(self, highs_encodings):
        program = _program(WIKIDATA)
        ILPMapSolver().solve(program)
        sizes = sorted(encoding.num_atoms for encoding in highs_encodings)
        assert sizes == [61, 62]
        by_size = {encoding.num_atoms: encoding for encoding in highs_encodings}
        for component in decompose(program).components:
            if component.num_atoms in by_size:
                _assert_same_encoding(
                    by_size[component.num_atoms],
                    _object_encode(component.program),
                    list(component.clause_indices),
                )

    def test_a_single_wide_component_gets_the_whole_program_ilp(self, highs_encodings):
        program = _clique(ELIMINATION_MAX_WIDTH + 3)
        solution = ILPMapSolver().solve(program)
        assert len(highs_encodings) == 1
        _assert_same_encoding(highs_encodings[0], _object_encode(program))
        assert solution.objective == program.objective(enumerate_map(program))

    def test_width_bound_routes_to_highs(self, highs_encodings):
        narrow = _clique(ELIMINATION_MAX_WIDTH + 1)
        wide = _clique(ELIMINATION_MAX_WIDTH + 2)
        ILPMapSolver().solve(narrow)
        assert highs_encodings == []
        ILPMapSolver().solve(wide)
        assert [encoding.num_atoms for encoding in highs_encodings] == [wide.num_atoms]

    def test_component_without_an_exact_split_goes_to_highs(self, highs_encodings):
        program = GroundProgram()
        for index, weight in enumerate((1.0, 1e-300)):
            atom = program.add_atom(make_fact("w", "p", f"o{index}", (1, 2), 0.6), True)
            program.add_clause([(atom.index, True)], weight, ClauseKind.EVIDENCE)
        program.add_clause([(0, False), (1, False)], None, ClauseKind.CONSTRAINT)
        solution = ILPMapSolver().solve(program)
        assert len(highs_encodings) == 1
        assert solution.assignment == (True, False)

    def test_infeasible_narrow_component_raises_before_highs(self, highs_encodings):
        program = _clique(ELIMINATION_MAX_WIDTH + 3)
        contradictory = program.num_atoms
        _chain(2, program=program, subject="y")
        program.add_clause([(contradictory, True)], None, ClauseKind.CONSTRAINT, "must-be-true")
        program.add_clause([(contradictory, False)], None, ClauseKind.CONSTRAINT, "must-be-false")
        with pytest.raises(InfeasibleProgramError):
            ILPMapSolver().solve(program)
        assert highs_encodings == []

    def test_each_call_gets_what_remains_of_the_time_limit(self, monkeypatch):
        limits = []
        solve_encoding = ILPMapSolver._solve_encoding

        def spy(self, encoding, time_limit):
            limits.append(time_limit)
            return solve_encoding(self, encoding, time_limit)

        monkeypatch.setattr(ILPMapSolver, "_solve_encoding", spy)
        program = _clique(ELIMINATION_MAX_WIDTH + 3)
        _clique(ELIMINATION_MAX_WIDTH + 4, program=program, subject="l")
        ILPMapSolver(time_limit=30.0).solve(program)
        assert len(limits) == 2
        assert 30.0 >= limits[0] >= limits[1] > 0

    def test_atoms_in_no_clause_are_closed_by_the_sign_of_their_weight(self):
        program = _chain(20)
        _chain(3, program=program, subject="y")
        likely = program.add_atom(make_fact("free", "coach", "a", (1, 2), 0.8), is_evidence=True)
        unlikely = program.add_atom(make_fact("free", "coach", "b", (1, 2), 0.3), is_evidence=True)
        solution = ILPMapSolver().solve(program)
        assert solution.assignment[likely.index] is True
        assert solution.assignment[unlikely.index] is False
        assert solution.assignment == DecomposedSolver(ILPMapSolver()).solve(program).assignment

    def test_contradictory_hard_clauses_raise(self, highs_encodings):
        program = _chain(2)
        program.add_clause([(0, True)], None, ClauseKind.CONSTRAINT, "must-be-true")
        program.add_clause([(0, False)], None, ClauseKind.CONSTRAINT, "must-be-false")
        with pytest.raises(InfeasibleProgramError):
            ILPMapSolver().solve(program)
        assert highs_encodings == []

    @pytest.mark.parametrize("solver", available_solvers())
    def test_empty_program_gives_empty_world(self, solver):
        solution = make_solver(solver).solve(GroundProgram())
        assert solution.assignment == ()
        assert solution.objective == 0.0
        assert solution.stats.optimal is True

    def test_stats(self):
        program = _chain(5)
        solution = ILPMapSolver().solve(program)
        assert solution.stats.solver == "nrockit-ilp"
        assert solution.stats.optimal is True
        assert solution.stats.objective_bound == solution.objective
        assert solution.stats.atoms == 5
        assert solution.truth_values == tuple(float(value) for value in solution.assignment)

    def test_memory_stays_within_the_entry_budget(self, highs_encodings):
        program = GroundProgram()
        for band in range(12):
            _band(16, ELIMINATION_MAX_WIDTH, program=program, subject=f"b{band}", seed=band)
        tracemalloc.start()
        try:
            solution = ILPMapSolver().solve(program)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert highs_encodings == []
        # In one batch with an unbounded budget the peak is ≈190 MB, most of
        # it the clause pass over the 8,192-entry tables; in chunks, 3.5 MB.
        assert peak < 8 * 2**20
        expected = enumerate_map(_band(16, ELIMINATION_MAX_WIDTH, subject="b0", seed=0))
        assert solution.assignment[:16] == expected


class TestLazyOptimizerImport:
    def test_a_footballdb_resolve_loads_no_scipy_optimize(self):
        script = (
            "import sys\n"
            "import repro\n"
            "from repro.datasets import FootballDBConfig, generate_footballdb\n"
            "config = FootballDBConfig(scale=0.01, noise_ratio=0.5, seed=7)\n"
            "result = repro.TeCoRe.from_pack('sports').resolve(generate_footballdb(config).graph)\n"
            "assert result.removed_facts\n"
            "print('scipy.optimize' in sys.modules)\n"
        )
        output = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, check=True
        ).stdout
        assert output.strip() == "False"


# --------------------------------------------------------------------------- #
# The ILP built from the CSR
# --------------------------------------------------------------------------- #
class TestCsrEncoding:
    @staticmethod
    def _quirky_program():
        """Unit clauses sharing an atom, a flipped negative weight, a zero
        weight, a clause with an atom of both signs and a repeated literal."""
        program = GroundProgram()
        atoms = [
            program.add_atom(make_fact("q", "p", f"o{index}", (1, 2), confidence), True)
            for index, confidence in enumerate((0.9, 0.3, 0.6))
        ]
        for atom in atoms:
            program.add_clause([(atom.index, True)], atom.fact.log_weight, ClauseKind.EVIDENCE)
        program.add_clause([(1, True)], 0.7, ClauseKind.PRIOR)
        program.add_clause([(2, False)], 0.0, ClauseKind.PRIOR)
        program.add_clause([(2, False), (2, True)], 1.5, ClauseKind.RULE)
        program.add_clause([(0, False), (0, False), (2, True)], None, ClauseKind.CONSTRAINT)
        return program

    @pytest.mark.parametrize(
        "name",
        [
            "footballdb:0.02/2017",
            "footballdb:0.01/2017",
            WIKIDATA,
            *(f"generated:{seed}/{links}" for seed in range(6) for links in (1, 4)),
        ],
    )
    def test_equals_the_object_walk(self, name):
        program = _program(name)
        _assert_same_encoding(whole_program_ilp(program), _object_encode(program))

    def test_equals_the_object_walk_on_edge_cases(self):
        quirky = self._quirky_program()
        _assert_same_encoding(whole_program_ilp(quirky), _object_encode(quirky))
        units_only = _chain(1)
        _assert_same_encoding(whole_program_ilp(units_only), _object_encode(units_only))

    def test_quirky_program_is_solved_exactly(self):
        quirky = self._quirky_program()
        assert ILPMapSolver().solve(quirky).assignment == product_map(quirky)

    def test_empty_program_rejected(self):
        with pytest.raises(GroundingError):
            whole_program_ilp(GroundProgram())


class TestObjectiveBound:
    @staticmethod
    def _program():
        """A clique for HiGHS beside a 3-atom chain to eliminate."""
        program = _clique(ELIMINATION_MAX_WIDTH + 3)
        return _chain(3, program=program, subject="y")

    def test_time_limited_solve_reports_the_dual_bound(self, monkeypatch):
        real_milp = scipy.optimize.milp

        def time_limited(**kwargs):
            result = real_milp(**kwargs)
            # milp minimises −objective: its dual bound lies below the
            # incumbent, so the objective's bound lies 2.5 above it.
            return SimpleNamespace(
                status=1, x=result.x, message="time limit reached", mip_dual_bound=result.fun - 2.5
            )

        monkeypatch.setattr(scipy.optimize, "milp", time_limited)
        solution = ILPMapSolver().solve(self._program())
        assert solution.stats.optimal is False
        assert solution.stats.objective_bound == pytest.approx(solution.objective + 2.5, rel=1e-12)

    def test_missing_dual_bound_falls_back_to_the_coefficient_bound(self, monkeypatch):
        real_milp = scipy.optimize.milp

        def without_bound(**kwargs):
            result = real_milp(**kwargs)
            return SimpleNamespace(status=1, x=result.x, message="", mip_dual_bound=None)

        monkeypatch.setattr(scipy.optimize, "milp", without_bound)
        program = self._program()
        solution = ILPMapSolver().solve(program)
        clique_atoms = ELIMINATION_MAX_WIDTH + 3
        clique_weight = sum(program.atoms[index].fact.log_weight for index in range(clique_atoms))
        chain_weight = program.atoms[clique_atoms].fact.log_weight
        # Every clique atom kept, plus the 3-atom chain's exact 2.
        expected = clique_weight + 2 * chain_weight
        assert solution.stats.objective_bound == pytest.approx(expected, rel=1e-12)
        # The clique keeps its most confident fact, the chain its two ends.
        best = max(program.atoms[index].fact.log_weight for index in range(clique_atoms))
        assert solution.objective == pytest.approx(best + 2 * chain_weight, rel=1e-12)

    def test_split_solutions_share_the_stacks_gap(self, monkeypatch):
        real_milp = scipy.optimize.milp

        def time_limited(**kwargs):
            result = real_milp(**kwargs)
            return SimpleNamespace(
                status=1, x=result.x, message="", mip_dual_bound=result.fun - 2.5
            )

        monkeypatch.setattr(scipy.optimize, "milp", time_limited)
        programs = [_clique(ELIMINATION_MAX_WIDTH + 3), _chain(3)]
        wide, chain = ILPMapSolver().solve_components(programs)
        assert wide.stats.optimal is False and chain.stats.optimal is False
        assert chain.stats.objective_bound == pytest.approx(chain.objective + 2.5, rel=1e-12)
        assert wide.stats.objective_bound == pytest.approx(wide.objective + 2.5, rel=1e-12)
