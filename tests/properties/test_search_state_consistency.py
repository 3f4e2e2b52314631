"""Property tests: WalkSAT search-state bookkeeping vs from-scratch truth.

Both MaxWalkSAT kernels keep incremental state — per-clause satisfied-literal
counts, the unsatisfied set/mask, and the penalty — updated literal-by-literal
on every flip.  These properties drive random flip sequences over random
ground programs (the seeded generator from ``program_generators``) and check
the incremental state against a from-scratch recomputation after every flip:

* the object kernel's ``_SearchState`` counts/sets/penalty;
* the array kernel's ``ArraySearchState`` counts/mask/penalty, including
  deduplicated batched flips (``flip_many``);
* object and array state agree with each other on the same flip sequence;
* the objective/hard-violation view of the assignment matches
  ``GroundProgram`` and ``GroundProgramArrays`` exactly.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from program_generators import random_ground_program

from repro.logic import GroundProgramArrays
from repro.mln.solvers.maxwalksat import _SearchState
from repro.mln.solvers.maxwalksat_array import ArraySearchState

HARD_WEIGHT = 1_000.0


def scratch_penalty(program, assignment, hard_weight=HARD_WEIGHT):
    """Penalty recomputed from nothing: weight sum over unsatisfied clauses."""
    total = 0.0
    for clause in program.clauses:
        satisfied = any(assignment[index] == positive for index, positive in clause.literals)
        if not satisfied:
            total += hard_weight if clause.is_hard else float(clause.weight or 0.0)
    return total


def scratch_unsatisfied(program, assignment):
    return {
        clause_index
        for clause_index, clause in enumerate(program.clauses)
        if not any(assignment[index] == positive for index, positive in clause.literals)
    }


program_seeds = st.integers(min_value=0, max_value=200)
flip_sequences = st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=40)


class TestObjectSearchState:
    @given(program_seeds, flip_sequences, st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_flips_match_scratch_recomputation(self, seed, flips, start_true):
        program = random_ground_program(seed, entities=3, max_facts=4)
        assignment = [start_true] * program.num_atoms
        state = _SearchState(program, assignment, HARD_WEIGHT, debug=True)
        for raw in flips:
            state.flip(raw % program.num_atoms)  # debug=True re-checks the invariant
            assert state.unsatisfied == scratch_unsatisfied(program, state.assignment)
            assert state.penalty == pytest.approx(
                scratch_penalty(program, state.assignment), abs=1e-6
            )

    @given(program_seeds)
    @settings(max_examples=20, deadline=None)
    def test_mark_satisfied_twice_cannot_double_subtract(self, seed):
        program = random_ground_program(seed, entities=2)
        state = _SearchState(program, [False] * program.num_atoms, HARD_WEIGHT)
        if not state.unsatisfied:
            return
        clause_index = next(iter(state.unsatisfied))
        before = state.penalty
        weight = state.weights[clause_index]
        state._mark_satisfied(clause_index)
        state._mark_satisfied(clause_index)  # second call must be a no-op
        assert state.penalty == pytest.approx(before - weight)
        state.check_invariant()


class TestArraySearchState:
    @given(program_seeds, flip_sequences, st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_flips_match_scratch_recomputation(self, seed, flips, start_true):
        program = random_ground_program(seed, entities=3, max_facts=4)
        arrays = GroundProgramArrays.from_program(program)
        assignment = np.full(program.num_atoms, start_true, dtype=bool)
        state = ArraySearchState(arrays, assignment, HARD_WEIGHT, debug=True)
        for raw in flips:
            state.flip(raw % program.num_atoms)  # debug=True re-checks the invariant
            values = [bool(v) for v in state.assignment]
            assert set(np.flatnonzero(state.unsat)) == scratch_unsatisfied(program, values)
            assert state.penalty == pytest.approx(scratch_penalty(program, values), abs=1e-6)

    @given(program_seeds, st.lists(st.integers(0, 10_000), min_size=1, max_size=12))
    @settings(max_examples=30, deadline=None)
    def test_batched_flip_equals_distinct_sequential_flips(self, seed, raw_atoms):
        program = random_ground_program(seed, entities=3)
        arrays = GroundProgramArrays.from_program(program)
        atoms = np.unique(np.asarray(raw_atoms) % program.num_atoms)

        batched = ArraySearchState(
            arrays, np.ones(program.num_atoms, dtype=bool), HARD_WEIGHT, debug=True
        )
        batched.flip_many(atoms)

        sequential = ArraySearchState(arrays, np.ones(program.num_atoms, dtype=bool), HARD_WEIGHT)
        for atom in atoms:
            sequential.flip(int(atom))

        assert np.array_equal(batched.assignment, sequential.assignment)
        assert np.array_equal(batched.counts, sequential.counts)
        assert batched.penalty == pytest.approx(sequential.penalty)

    @given(program_seeds, flip_sequences)
    @settings(max_examples=30, deadline=None)
    def test_object_and_array_kernels_agree(self, seed, flips):
        program = random_ground_program(seed, entities=3)
        arrays = GroundProgramArrays.from_program(program)
        object_state = _SearchState(program, [True] * program.num_atoms, HARD_WEIGHT, debug=True)
        array_state = ArraySearchState(
            arrays, np.ones(program.num_atoms, dtype=bool), HARD_WEIGHT, debug=True
        )
        for raw in flips:
            atom = raw % program.num_atoms
            object_state.flip(atom)
            array_state.flip(atom)
            assert [bool(v) for v in array_state.assignment] == object_state.assignment
            assert set(np.flatnonzero(array_state.unsat)) == object_state.unsatisfied
            assert array_state.penalty == pytest.approx(object_state.penalty, abs=1e-6)
            # The evaluation view agrees with the object program exactly.
            values = object_state.assignment
            assert arrays.objective(values) == program.objective(values)
            expected_violations = [
                index
                for index, clause in enumerate(program.clauses)
                if clause.is_hard
                and not any(values[i] == positive for i, positive in clause.literals)
            ]
            unsatisfied = arrays.satisfied_counts(values) == 0
            assert np.flatnonzero(arrays.is_hard & unsatisfied).tolist() == expected_violations
