"""Unit tests for the MLN template model."""

import math

from repro.logic import constraint_c2, rule_f1
from repro.mln import MarkovLogicNetwork


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

