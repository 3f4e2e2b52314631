"""The exact enumeration kernel ``nrockit`` uses for small programs.

``ILPMapSolver.solve`` scores every assignment of a program with at most
``ENUMERATION_MAX_ATOMS`` atoms instead of calling HiGHS.  The oracles:

* HiGHS itself (``ILPMapSolver._solve_encoding``) on the small components of
  generated, FootballDB and Wikidata programs: the same objective, bit for
  bit;
* a plain loop over ``itertools.product`` that applies the stated tie rule
  (the lexicographically largest optimal assignment): the same assignment.
"""

import itertools
import random

import pytest
from program_generators import random_ground_program

from repro import TeCoRe
from repro.datasets import FootballDBConfig, WikidataConfig, generate_footballdb, generate_wikidata
from repro.errors import GroundingError, InfeasibleProgramError
from repro.kg import make_fact
from repro.logic import ClauseKind, GroundProgram, decompose
from repro.mln import ILPMapSolver
from repro.mln.ilp import encode
from repro.mln.solvers.milp_backend import ENUMERATION_MAX_ATOMS, enumerate_map


def _highs_objective(program):
    encoding = encode(program)
    values, _ = ILPMapSolver()._solve_encoding(encoding)
    return program.objective(encoding.assignment_from(values))


def _small_components(program):
    return [
        component.program
        for component in decompose(program).components
        if component.num_atoms <= ENUMERATION_MAX_ATOMS
    ]


def _assert_matches_highs(programs):
    assert programs
    for program in programs:
        solution = ILPMapSolver().solve(program)
        assert solution.objective == _highs_objective(program)
        assert program.is_feasible(solution.assignment)


def _chain(atoms, confidence=0.8):
    """``atoms`` evidence facts, each in a hard conflict with the next."""
    program = GroundProgram()
    for index in range(atoms):
        atom = program.add_atom(
            make_fact("x", "coach", f"club{index}", (index, index + 1), confidence),
            is_evidence=True,
        )
        program.add_clause([(atom.index, True)], atom.fact.log_weight, ClauseKind.EVIDENCE, "e")
    for index in range(atoms - 1):
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

    @pytest.mark.parametrize("seed", range(60))
    def test_matches_the_product_loop(self, seed):
        # Small programs with mixed-polarity hard clauses and equal weights,
        # so ties and infeasible cores both occur.
        rng = random.Random(seed)
        program = GroundProgram()
        for index in range(rng.randint(1, 8)):
            confidence = rng.choice((0.3, 0.6, 0.8))
            fact = make_fact("x", "p", f"o{index}", (index, index + 1), confidence)
            atom = program.add_atom(fact, is_evidence=True)
            program.add_clause([(atom.index, True)], atom.fact.log_weight, ClauseKind.EVIDENCE, "e")
        for _ in range(rng.randint(0, 6)):
            literals = [
                (rng.randrange(program.num_atoms), rng.random() < 0.3)
                for _ in range(rng.randint(1, 3))
            ]
            weight = None if rng.random() < 0.6 else rng.choice((0.5, 1.0))
            program.add_clause(literals, weight, ClauseKind.CONSTRAINT, "c")
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

    def test_empty_program_raises_grounding_error(self):
        with pytest.raises(GroundingError):
            ILPMapSolver().solve(GroundProgram())

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
