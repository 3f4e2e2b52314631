"""The exact enumeration kernels ``nrockit`` uses for small programs and components.

``ILPMapSolver.solve`` scores every assignment of a program with at most
``ENUMERATION_MAX_ATOMS`` atoms instead of calling HiGHS.  A larger program
is split into components: those of at most ``ENUMERATION_MAX_ATOMS`` atoms
are scored in batches (``enumerate_components``), the rest go to one HiGHS
call whose ILP is built from the clauses' CSR rows.  The oracles:

* HiGHS itself (``ILPMapSolver._solve_encoding``) on the small components of
  generated, FootballDB and Wikidata programs: the same objective, bit for
  bit; on whole programs, within 1e-12 relative;
* a plain loop over ``itertools.product`` that applies the stated tie rule
  (the lexicographically largest optimal assignment): the same assignment;
* ``enumerate_map`` on each small component as a sub-program, and
  ``DecomposedSolver(ILPMapSolver())``: the same assignment and objective;
* ``_object_encode``, the clause-by-clause ILP construction: the same ILP as
  the CSR-built one.
"""

import functools
import itertools
import random
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from program_generators import random_ground_program
from scipy import sparse

from repro import TeCoRe
from repro.core import available_solvers, make_solver
from repro.datasets import FootballDBConfig, WikidataConfig, generate_footballdb, generate_wikidata
from repro.errors import GroundingError, InfeasibleProgramError
from repro.kg import make_fact
from repro.logic import ClauseKind, GroundProgram, decompose
from repro.mln import ILPMapSolver
from repro.mln.ilp import ILPEncoding, encode
from repro.mln.solvers import milp_backend
from repro.mln.solvers.milp_backend import ENUMERATION_MAX_ATOMS, enumerate_map
from repro.solvers.decomposed import DecomposedSolver


def _object_encode(program):
    """The MAP ILP built clause by clause from ``GroundClause`` objects."""
    num_atoms = program.num_atoms
    if num_atoms == 0:
        raise GroundingError("cannot encode an empty ground program")
    aux_clauses = [
        index
        for index, clause in enumerate(program.clauses)
        if not clause.is_hard and not clause.is_unit
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
        if not clause.is_hard and clause.is_unit:
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
    values, _, _ = ILPMapSolver()._solve_encoding(encoding)
    return program.objective(encoding.assignment_from(values))


def _small_components_of(program):
    return [
        component
        for component in decompose(program).components
        if component.num_atoms <= ENUMERATION_MAX_ATOMS
    ]


def _small_components(program):
    return [component.program for component in _small_components_of(program)]


def _assert_matches_highs(programs):
    assert programs
    for program in programs:
        solution = ILPMapSolver().solve(program)
        assert solution.objective == _highs_objective(program)
        assert program.is_feasible(solution.assignment)


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


class TestAgreesWithHighs:
    @pytest.mark.parametrize("seed", range(10))
    def test_generated_programs(self, seed):
        program = random_ground_program(seed)
        whole = [program] if program.num_atoms <= ENUMERATION_MAX_ATOMS else []
        _assert_matches_highs(_small_components(program) + whole)

    def test_footballdb_components(self):
        dataset = generate_footballdb(FootballDBConfig(scale=0.02, noise_ratio=0.5, seed=2017))
        program = TeCoRe.from_pack("sports").translate(dataset.graph).program
        _assert_matches_highs(_small_components(program))

    def test_wikidata_components(self):
        dataset = generate_wikidata(WikidataConfig(scale=0.0001, noise_ratio=0.5, seed=2017))
        program = TeCoRe.from_pack("biography").translate(dataset.graph).program
        _assert_matches_highs(_small_components(program))


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
    def _random_program(rng, subject="x"):
        """At most 8 atoms with mixed-polarity hard clauses and equal
        weights, so ties and infeasible cores both occur, and a clause may
        repeat an atom or hold it with both signs."""
        program = GroundProgram()
        for index in range(rng.randint(1, 8)):
            confidence = rng.choice((0.3, 0.6, 0.8))
            fact = make_fact(subject, "p", f"o{index}", (index, index + 1), confidence)
            atom = program.add_atom(fact, is_evidence=True)
            program.add_clause([(atom.index, True)], atom.fact.log_weight, ClauseKind.EVIDENCE, "e")
        for _ in range(rng.randint(0, 6)):
            literals = [
                (rng.randrange(program.num_atoms), rng.random() < 0.3)
                for _ in range(rng.randint(1, 3))
            ]
            weight = None if rng.random() < 0.6 else rng.choice((0.5, 1.0))
            program.add_clause(literals, weight, ClauseKind.CONSTRAINT, "c")
        return program

    @pytest.mark.parametrize("seed", range(60))
    def test_matches_the_product_loop(self, seed):
        program = self._random_program(random.Random(seed))
        feasible = [
            assignment
            for assignment in itertools.product((False, True), repeat=program.num_atoms)
            if program.is_feasible(assignment)
        ]
        if not feasible:
            with pytest.raises(InfeasibleProgramError):
                ILPMapSolver().solve(program)
            return
        expected = max(feasible, key=lambda assignment: (program.objective(assignment), assignment))
        solution = ILPMapSolver().solve(program)
        assert solution.assignment == expected
        assert solution.objective == program.objective(expected)

    @pytest.mark.parametrize("seed", range(30))
    def test_batched_components_keep_the_rule(self, seed):
        # Feasible random programs joined until the whole exceeds the bound,
        # so the batched kernel scores them side by side.
        rng = random.Random(seed)
        program = GroundProgram()
        while program.num_atoms <= ENUMERATION_MAX_ATOMS:
            part = self._random_program(rng, subject=f"s{program.num_atoms}")
            try:
                enumerate_map(part)
            except InfeasibleProgramError:
                continue
            offset = program.num_atoms
            for atom in part.atoms:
                program.add_atom(atom.fact, atom.is_evidence)
            for clause in part.clauses:
                literals = [(offset + index, positive) for index, positive in clause.literals]
                program.add_clause(literals, clause.weight, clause.kind, clause.origin)
        solution = ILPMapSolver().solve(program)
        for component in decompose(program).components:
            assignment = tuple(solution.assignment[index] for index in component.atom_indices)
            assert assignment == enumerate_map(component.program)


class TestErrorsDispatchAndStats:
    @pytest.fixture
    def highs_calls(self, monkeypatch):
        calls = []
        solve_encoding = ILPMapSolver._solve_encoding

        def spy(self, encoding):
            calls.append(encoding.num_atoms)
            return solve_encoding(self, encoding)

        monkeypatch.setattr(ILPMapSolver, "_solve_encoding", spy)
        return calls

    def test_contradictory_hard_clauses_raise(self, highs_calls):
        program = _chain(2)
        program.add_clause([(0, True)], None, ClauseKind.CONSTRAINT, "must-be-true")
        program.add_clause([(0, False)], None, ClauseKind.CONSTRAINT, "must-be-false")
        with pytest.raises(InfeasibleProgramError):
            ILPMapSolver().solve(program)
        assert highs_calls == []

    @pytest.mark.parametrize("solver", available_solvers())
    def test_empty_program_gives_empty_world(self, solver):
        solution = make_solver(solver).solve(GroundProgram())
        assert solution.assignment == ()
        assert solution.objective == 0.0
        assert solution.stats.optimal is True

    def test_small_programs_never_reach_highs(self, highs_calls):
        for atoms in (1, 2, ENUMERATION_MAX_ATOMS):
            ILPMapSolver().solve(_chain(atoms))
        assert highs_calls == []

    def test_larger_programs_go_to_highs(self, highs_calls):
        program = _chain(ENUMERATION_MAX_ATOMS + 1)
        solution = ILPMapSolver().solve(program)
        assert highs_calls == [ENUMERATION_MAX_ATOMS + 1]
        # Enumerating the same program anyway finds the same optimum.
        assert program.objective(enumerate_map(program)) == solution.objective

    def test_stats(self):
        program = _chain(5)
        solution = ILPMapSolver().solve(program)
        assert solution.stats.solver == "nrockit-ilp"
        assert solution.stats.optimal is True
        assert solution.stats.objective_bound == solution.objective
        assert solution.stats.atoms == 5
        assert solution.truth_values == tuple(float(value) for value in solution.assignment)


# --------------------------------------------------------------------------- #
# Larger programs: batched components and one HiGHS call
# --------------------------------------------------------------------------- #
@functools.lru_cache(maxsize=None)
def _program(name):
    """A named test program: ``footballdb:<scale>``, ``wikidata:<scale>`` or
    ``generated:<seed>/<cross-entity links>`` (more links join more entity
    blocks, making components above the enumeration bound)."""
    kind, _, argument = name.partition(":")
    if kind == "footballdb":
        config = FootballDBConfig(scale=float(argument), noise_ratio=0.5, seed=2017)
        return TeCoRe.from_pack("sports").translate(generate_footballdb(config).graph).program
    if kind == "wikidata":
        config = WikidataConfig(scale=float(argument), noise_ratio=0.5, seed=2017)
        return TeCoRe.from_pack("biography").translate(generate_wikidata(config).graph).program
    seed, links = map(int, argument.split("/"))
    return random_ground_program(seed, cross_entity_links=links)


PROGRAMS = [
    "footballdb:0.02",
    "wikidata:0.0001",
    *(f"generated:{seed}/{links}" for seed in range(6) for links in (1, 4)),
]


def _restrict(program, components):
    """``components`` as one sub-program (atoms and clauses in program
    order), with the global index of each of its clauses."""
    atoms = sorted(index for component in components for index in component.atom_indices)
    clauses = sorted(index for component in components for index in component.clause_indices)
    local = {atom: position for position, atom in enumerate(atoms)}
    sub = GroundProgram()
    for index in atoms:
        atom = program.atoms[index]
        sub.add_atom(atom.fact, atom.is_evidence, atom.derived_by)
    for index in clauses:
        clause = program.clauses[index]
        sub.add_clause(
            [(local[atom], positive) for atom, positive in clause.literals],
            clause.weight,
            clause.kind,
            clause.origin,
        )
    return sub, clauses


@pytest.fixture
def highs_encodings(monkeypatch):
    """Every encoding handed to HiGHS during the test."""
    encodings = []
    solve_encoding = ILPMapSolver._solve_encoding

    def spy(self, encoding):
        encodings.append(encoding)
        return solve_encoding(self, encoding)

    monkeypatch.setattr(ILPMapSolver, "_solve_encoding", spy)
    return encodings


class TestComponentSolve:
    @pytest.mark.parametrize("name", PROGRAMS)
    def test_small_components_get_enumerate_maps_assignment(self, name):
        program = _program(name)
        assert program.num_atoms > ENUMERATION_MAX_ATOMS
        solution = ILPMapSolver().solve(program)
        small = _small_components_of(program)
        assert small
        for component in small:
            assignment = tuple(solution.assignment[index] for index in component.atom_indices)
            assert assignment == enumerate_map(component.program)

    @pytest.mark.parametrize("name", PROGRAMS)
    def test_objective_matches_decomposed_and_whole_program_highs(self, name):
        program = _program(name)
        solution = ILPMapSolver().solve(program)
        decomposed = DecomposedSolver(ILPMapSolver()).solve(program)
        # Components over the bound may tie; HiGHS can then pick another
        # optimum stacked than alone, so only the objective is compared.
        assert solution.objective == decomposed.objective
        assert solution.objective == pytest.approx(_highs_objective(program), rel=1e-12, abs=0)
        assert program.is_feasible(solution.assignment)
        assert solution.stats.solver == "nrockit-ilp"
        assert solution.stats.optimal is True
        assert solution.stats.objective_bound >= solution.objective

    def test_no_highs_call_when_every_component_is_small(self, highs_encodings):
        program = _program("footballdb:0.01")
        assert program.num_atoms > ENUMERATION_MAX_ATOMS
        assert max(decompose(program).component_sizes()) <= ENUMERATION_MAX_ATOMS
        ILPMapSolver().solve(program)
        assert highs_encodings == []

    def test_one_highs_call_holds_exactly_the_large_components(self, highs_encodings):
        program = _program("footballdb:0.02")
        large = [
            component
            for component in decompose(program).components
            if component.num_atoms > ENUMERATION_MAX_ATOMS
        ]
        assert len(large) == 3
        ILPMapSolver().solve(program)
        assert len(highs_encodings) == 1
        subprogram, clause_indices = _restrict(program, large)
        _assert_same_encoding(highs_encodings[0], _object_encode(subprogram), clause_indices)

    def test_a_single_large_component_gets_the_whole_program_ilp(self, highs_encodings):
        components = decompose(_program("generated:0/4")).components
        large = max(components, key=lambda component: component.num_atoms)
        assert large.num_atoms > ENUMERATION_MAX_ATOMS
        ILPMapSolver().solve(large.program)
        assert len(highs_encodings) == 1
        _assert_same_encoding(highs_encodings[0], _object_encode(large.program))

    def test_infeasible_small_component_raises_before_highs(self, highs_encodings):
        program = _chain(ENUMERATION_MAX_ATOMS + 1)
        contradictory = program.num_atoms
        _chain(2, program=program, subject="y")
        program.add_clause([(contradictory, True)], None, ClauseKind.CONSTRAINT, "must-be-true")
        program.add_clause([(contradictory, False)], None, ClauseKind.CONSTRAINT, "must-be-false")
        with pytest.raises(InfeasibleProgramError):
            ILPMapSolver().solve(program)
        assert highs_encodings == []

    def test_atoms_in_no_clause_are_closed_by_the_sign_of_their_weight(self):
        program = _chain(ENUMERATION_MAX_ATOMS + 1)
        _chain(3, program=program, subject="y")
        likely = program.add_atom(make_fact("free", "coach", "a", (1, 2), 0.8), is_evidence=True)
        unlikely = program.add_atom(make_fact("free", "coach", "b", (1, 2), 0.3), is_evidence=True)
        solution = ILPMapSolver().solve(program)
        assert solution.assignment[likely.index] is True
        assert solution.assignment[unlikely.index] is False
        assert solution.assignment == DecomposedSolver(ILPMapSolver()).solve(program).assignment

    def test_memory_stays_within_the_state_budget(self):
        program = GroundProgram()
        for chain in range(200):
            _chain(ENUMERATION_MAX_ATOMS, program=program, subject=f"p{chain}")
        tracemalloc.start()
        try:
            solution = ILPMapSolver().solve(program)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # Scored all at once, the totals alone would take 200 · 2¹⁵ · 8 B ≈ 52 MB.
        assert peak < 8 * 2**20
        expected = enumerate_map(_chain(ENUMERATION_MAX_ATOMS))
        assert solution.assignment == expected * 200


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

    @pytest.mark.parametrize("name", [*PROGRAMS, "footballdb:0.01"])
    def test_equals_the_object_walk(self, name):
        program = _program(name)
        _assert_same_encoding(encode(program), _object_encode(program))

    def test_equals_the_object_walk_on_edge_cases(self):
        quirky = self._quirky_program()
        _assert_same_encoding(encode(quirky), _object_encode(quirky))
        units_only = _chain(1)
        _assert_same_encoding(encode(units_only), _object_encode(units_only))

    def test_empty_program_rejected(self):
        with pytest.raises(GroundingError):
            encode(GroundProgram())


class TestObjectiveBound:
    @staticmethod
    def _program():
        """A 16-atom chain for HiGHS beside a 3-atom chain to enumerate."""
        program = _chain(ENUMERATION_MAX_ATOMS + 1)
        return _chain(3, program=program, subject="y")

    def test_time_limited_solve_reports_the_dual_bound(self, monkeypatch):
        real_milp = milp_backend.milp

        def time_limited(**kwargs):
            result = real_milp(**kwargs)
            # milp minimises −objective: its dual bound lies below the
            # incumbent, so the objective's bound lies 2.5 above it.
            return SimpleNamespace(
                status=1, x=result.x, message="time limit reached", mip_dual_bound=result.fun - 2.5
            )

        monkeypatch.setattr(milp_backend, "milp", time_limited)
        solution = ILPMapSolver().solve(self._program())
        assert solution.stats.optimal is False
        assert solution.stats.objective_bound == pytest.approx(solution.objective + 2.5, rel=1e-12)

    def test_missing_dual_bound_falls_back_to_the_coefficient_bound(self, monkeypatch):
        real_milp = milp_backend.milp

        def without_bound(**kwargs):
            result = real_milp(**kwargs)
            return SimpleNamespace(status=1, x=result.x, message="", mip_dual_bound=None)

        monkeypatch.setattr(milp_backend, "milp", without_bound)
        program = self._program()
        solution = ILPMapSolver().solve(program)
        weight = program.atoms[0].fact.log_weight
        # Every one of the 16 chain atoms kept, plus the 3-atom chain's exact 2.
        assert solution.stats.objective_bound == pytest.approx((16 + 2) * weight, rel=1e-12)
        assert solution.objective == pytest.approx((8 + 2) * weight, rel=1e-12)
