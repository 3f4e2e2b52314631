"""Unit tests for the MLN template model and Gibbs marginal inference."""

import math

import pytest

from repro.errors import InfeasibleProgramError, SolverError
from repro.kg import make_fact
from repro.logic import ClauseKind, GroundProgram, constraint_c2, rule_f1
from repro.mln import GibbsSampler, MarkovLogicNetwork, marginals


class TestMarkovLogicNetwork:
    def test_formula_listing(self):
        mln = MarkovLogicNetwork(rules=[rule_f1()], constraints=[constraint_c2()])
        assert mln.num_formulas == 2
        listing = mln.formulas()
        assert len(listing) == 2
        assert len(mln.hard_formulas()) == 1
        assert len(mln.soft_formulas()) == 1
        assert "2.5" in str(listing[0])

    def test_extend_and_add(self):
        mln = MarkovLogicNetwork()
        mln.add_rule(rule_f1()).add_constraint(constraint_c2())
        mln.extend(rules=[rule_f1()])
        assert mln.num_formulas == 3

    def test_ground_against_graph(self, ranieri):
        mln = MarkovLogicNetwork(rules=[rule_f1()], constraints=[constraint_c2()])
        result = mln.ground(ranieri)
        assert result.program.num_atoms >= len(ranieri)
        assert len(result.violations) == 1

    def test_log_potential_infeasible_world(self, ranieri):
        mln = MarkovLogicNetwork(constraints=[constraint_c2()])
        result = mln.ground(ranieri)
        keep_everything = [True] * result.program.num_atoms
        assert mln.log_potential(result.program, keep_everything) == -math.inf

    def test_world_probability_ratio(self, ranieri):
        mln = MarkovLogicNetwork(constraints=[constraint_c2()])
        result = mln.ground(ranieri)
        program = result.program
        napoli_index = next(
            atom.index for atom in program.atoms if str(atom.fact.object) == "Napoli"
        )
        without_napoli = [True] * program.num_atoms
        without_napoli[napoli_index] = False
        chelsea_index = next(
            atom.index for atom in program.atoms if str(atom.fact.object) == "Chelsea"
        )
        without_chelsea = [True] * program.num_atoms
        without_chelsea[chelsea_index] = False
        ratio = mln.world_probability_ratio(program, without_napoli, without_chelsea)
        assert ratio > 1.0  # dropping the weaker fact is the more probable world


class TestGibbsSampler:
    def _program(self):
        program = GroundProgram()
        a = program.add_atom(make_fact("x", "coach", "A", (1, 5), 0.95), is_evidence=True)
        b = program.add_atom(make_fact("x", "coach", "B", (2, 4), 0.55), is_evidence=True)
        program.add_clause([(a.index, True)], a.fact.log_weight, ClauseKind.EVIDENCE, "e")
        program.add_clause([(b.index, True)], b.fact.log_weight, ClauseKind.EVIDENCE, "e")
        program.add_clause([(a.index, False), (b.index, False)], None, ClauseKind.CONSTRAINT, "c")
        return program, a, b

    def test_marginals_respect_relative_confidence(self):
        program, a, b = self._program()
        result = marginals(program, samples=600, burn_in=100, seed=3)
        assert result.probabilities[a.index] > result.probabilities[b.index]
        assert 0.0 <= result.probabilities[b.index] <= 1.0

    def test_probability_of_lookup(self):
        program, a, _ = self._program()
        result = marginals(program, samples=200, burn_in=50)
        assert result.probability_of(program, a.fact) == result.probabilities[a.index]
        with pytest.raises(SolverError):
            result.probability_of(program, make_fact("nobody", "p", "x", (1, 2)))

    def test_deterministic_given_seed(self):
        program, _, _ = self._program()
        first = marginals(program, samples=200, burn_in=50, seed=11)
        second = marginals(program, samples=200, burn_in=50, seed=11)
        assert first.probabilities == second.probabilities

    def test_invalid_parameters(self):
        with pytest.raises(SolverError):
            GibbsSampler(samples=0)

    def test_initial_state_size_checked(self):
        program, _, _ = self._program()
        with pytest.raises(SolverError):
            GibbsSampler(samples=10, burn_in=0).run(program, initial=[True])

    def test_feasible_start_does_not_ping_pong(self, coupled_hard_program):
        # Regression: the cheapest-atom repair ping-ponged the shared atom
        # and started the chain from the infeasible [False, True].
        program, _, _ = coupled_hard_program
        assert GibbsSampler()._make_feasible(program, [True, True]) == [True, False]

    def test_infeasible_program_raises(self):
        program = GroundProgram()
        atom = program.add_atom(make_fact("x", "p", "A", (1, 5), 0.9), is_evidence=True)
        program.add_clause([(atom.index, True)], None, ClauseKind.CONSTRAINT, "must-be-true")
        program.add_clause([(atom.index, False)], None, ClauseKind.CONSTRAINT, "must-be-false")
        with pytest.raises(InfeasibleProgramError):
            GibbsSampler(samples=10, burn_in=0).run(program)
