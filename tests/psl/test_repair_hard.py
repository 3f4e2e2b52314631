"""The hard repair over the clause arrays against the object loops it replaced.

``GroundProgramArrays.repair_hard_violations`` (which
``GroundProgram.repair_hard_violations`` and ``repair_hard`` lower to) keeps
per-clause true-literal counts over the atom→occurrence CSR.  Two oracles
below are the object-path loops it replaced, kept verbatim:

* ``_oracle_repair_hard``, the rounding loop that rescans every clause after
  each flip;
* ``_incremental_object_repair``, the loop that kept the violated set up to
  date by re-checking the flipped atom's hard clauses with
  ``GroundClause.satisfied_by``.

Both must return the same assignment, or both give up, on every program; the
work-bound tests then pin the saving that bit-identity cannot see.
``TestReinsertion`` checks the rounding step that follows the repair on the
same seeded programs.
"""

import heapq
import random

import pytest

from program_generators import random_ground_program
from repro import TeCoRe
from repro.datasets import FootballDBConfig, WikidataConfig, generate_footballdb, generate_wikidata
from repro.errors import InfeasibleProgramError
from repro.kg import make_fact
from repro.logic import ClauseKind, GroundClause, GroundProgram
from repro.logic.arrays import GroundProgramArrays
from repro.psl import ADMMSolver, repair_hard, round_solution, threshold


def _oracle_repair_hard(program: GroundProgram, assignment: list[bool]) -> list[bool]:
    state = list(assignment)
    touching: dict[int, list] = {}
    for clause in program.clauses:
        if clause.is_hard:
            for index, _ in clause.literals:
                touching.setdefault(index, []).append(clause)
    for _ in range(program.num_clauses + 1):
        violations = program.hard_violations(state)
        if not violations:
            return state
        total = len(violations)
        clause = violations[0]
        best = None
        best_key = None
        for index, positive in clause.literals:
            neighbours = touching.get(index, ())
            before = sum(1 for other in neighbours if not other.satisfied_by(state))
            state[index] = positive
            after = sum(1 for other in neighbours if not other.satisfied_by(state))
            state[index] = not positive
            cost = abs(program.atoms[index].fact.log_weight)
            key = (total - before + after, cost, index)
            if best_key is None or key < best_key:
                best, best_key = (index, positive), key
        if best is None:  # pragma: no cover - clauses are never empty
            break
        state[best[0]] = best[1]
    if program.hard_violations(state):
        raise InfeasibleProgramError(
            "rounding could not produce an assignment satisfying the hard constraints"
        )
    return state


def _incremental_object_repair(program: GroundProgram, assignment) -> "list[bool] | None":
    clauses = program.clauses
    state = list(assignment)
    touching: dict[int, list[int]] = {}
    violated: set[int] = set()
    for position, clause in enumerate(clauses):
        if clause.is_hard:
            for index, _ in clause.literals:
                touching.setdefault(index, []).append(position)
            if not clause.satisfied_by(state):
                violated.add(position)
    queue = sorted(violated)  # a sorted list is already a min-heap
    for _ in range(len(clauses) + 1):
        if not violated:
            return state
        while queue[0] not in violated:
            heapq.heappop(queue)
        best_key = None
        for index, positive in clauses[queue[0]].literals:
            neighbours = touching[index]
            before = sum(1 for other in neighbours if other in violated)
            state[index] = positive
            after = sum(1 for other in neighbours if not clauses[other].satisfied_by(state))
            state[index] = not positive
            key = (
                len(violated) - before + after,
                abs(program.atoms[index].fact.log_weight),
                index,
            )
            if best_key is None or key < best_key:
                best_key, flip, value = key, index, positive
        state[flip] = value
        for other in touching[flip]:
            if clauses[other].satisfied_by(state):
                violated.discard(other)
            elif other not in violated:
                violated.add(other)
                heapq.heappush(queue, other)
    return None if program.hard_violations(state) else state


def _outcome(repair, program, assignment):
    try:
        return repair(program, list(assignment))
    except InfeasibleProgramError as error:
        return (type(error), str(error))


def _assert_same_outcome(program, assignment):
    expected = _outcome(_oracle_repair_hard, program, assignment)
    assert _outcome(repair_hard, program, assignment) == expected
    return expected


def _assert_same_as_object_loop(program, assignment):
    expected = _incremental_object_repair(program, assignment)
    assert program.repair_hard_violations(list(assignment)) == expected
    return expected


def _program(confidences):
    program = GroundProgram()
    atoms = [
        program.add_atom(make_fact("x", "p", f"o{i}", (i, i + 2), c), is_evidence=True)
        for i, c in enumerate(confidences)
    ]
    for atom in atoms:
        program.add_clause([(atom.index, True)], atom.fact.log_weight, ClauseKind.EVIDENCE, "e")
    return program, [atom.index for atom in atoms]


def _hard(program, *literals):
    program.add_clause(literals, None, ClauseKind.CONSTRAINT, "h")


def _add_mixed_hard_clauses(program, rng):
    """Hard clauses of any polarity, some repeating an atom, some unit.

    The generator's own hard clauses are all-negative conflicts, which the
    repair always satisfies by dropping facts; these make it meet positive
    literals, coupled clauses, multiplicity and unsatisfiable cores too.
    """
    atoms = range(program.num_atoms)
    for _ in range(rng.randint(1, 6)):
        size = rng.choice((1, 1, 2, 2, 3))
        literals = [(rng.choice(atoms), rng.random() < 0.5) for _ in range(size)]
        if size > 1 and rng.random() < 0.3:
            literals.append(literals[0])  # repeat an atom with the same sign
        _hard(program, *literals)


SEEDS = range(240)


def _generated_program(seed):
    rng = random.Random(seed)
    program = random_ground_program(
        seed,
        entities=rng.randint(2, 8),
        conflict_probability=rng.choice((0.3, 0.5, 0.9)),
        cross_entity_links=rng.randint(0, 3),
    )
    if seed % 2:
        _add_mixed_hard_clauses(program, rng)
    return program, rng


class TestBitIdentityWithRescanningLoop:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_programs(self, seed):
        """Both oracles, on the same three starts per program."""
        program, rng = _generated_program(seed)
        starts = [
            [True] * program.num_atoms,
            [rng.random() < 0.5 for _ in range(program.num_atoms)],
            [rng.random() >= 0.5 for _ in range(program.num_atoms)],
        ]
        for start in starts:
            _assert_same_outcome(program, start)
            _assert_same_as_object_loop(program, start)

    def test_generated_programs_cover_both_outcomes(self):
        # The suite above only means something if it meets repairs that
        # succeed after flips and repairs that run out of iterations.
        flipped = raised = 0
        for seed in SEEDS:
            program, _ = _generated_program(seed)
            start = [True] * program.num_atoms
            outcome = _outcome(_oracle_repair_hard, program, start)
            if isinstance(outcome, tuple):
                raised += 1
            elif outcome != start:
                flipped += 1
        assert flipped >= 100
        assert raised >= 5

    def test_clause_repeating_an_atom(self):
        program, (a, b, c) = _program([0.9, 0.6, 0.7])
        # b appears twice: the multiplicity index counts it twice.
        _hard(program, (a, False), (b, False), (b, False))
        _hard(program, (b, False), (c, False))
        _hard(program, (c, True), (a, False))
        assert _assert_same_outcome(program, [True, True, True]) == [True, False, True]

    def test_hard_unit_clauses(self):
        program, (a, b) = _program([0.9, 0.6])
        _hard(program, (a, False))
        _hard(program, (b, True))
        _hard(program, (a, False), (b, False))
        assert _assert_same_outcome(program, [True, False]) == [False, True]

    def test_contradictory_pair_raises(self):
        program, (a,) = _program([0.9])
        _hard(program, (a, True))
        _hard(program, (a, False))
        outcome = _assert_same_outcome(program, [True])
        assert outcome[0] is InfeasibleProgramError

    def test_feasible_assignment_is_returned_unchanged(self):
        program, (a, b) = _program([0.9, 0.6])
        _hard(program, (a, False), (b, False))
        assert _assert_same_outcome(program, [True, False]) == [True, False]
        assert _assert_same_outcome(program, [False, False]) == [False, False]

    def test_coupled_hard_clauses(self, coupled_hard_program):
        program, _, _ = coupled_hard_program
        assert _assert_same_outcome(program, [True, True]) == [True, False]


def _real_graph(dataset, seed):
    if dataset == "footballdb":
        return generate_footballdb(FootballDBConfig(scale=0.02, noise_ratio=0.5, seed=seed)).graph
    return generate_wikidata(WikidataConfig(scale=1e-4, noise_ratio=0.5, seed=seed)).graph


class TestBitIdentityWithObjectLoop:
    @pytest.mark.parametrize("dataset, pack", [("footballdb", "sports"), ("wikidata", "biography")])
    @pytest.mark.parametrize("seed", [2017, 2018])
    def test_thresholded_admm_states(self, dataset, pack, seed):
        """The state ``round_solution`` repairs (ADMM thresholded at 0.5) and
        the all-true state, on the programs ``npsl`` resolves."""
        graph = _real_graph(dataset, seed)
        program = TeCoRe.from_pack(pack, solver="npsl").translate(graph).program
        thresholded = threshold(ADMMSolver().solve(program).truth_values)
        for start in (thresholded, [True] * program.num_atoms):
            assert not program.is_feasible(start)
            repaired = _assert_same_as_object_loop(program, start)
            assert repaired is not None and repaired != start


class TestReinsertion:
    """``round_solution`` = threshold, the repair above, then re-insertion."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_programs(self, seed):
        program, rng = _generated_program(seed)
        truth_values = [rng.random() for _ in range(program.num_atoms)]
        repaired = _outcome(repair_hard, program, [value >= 0.5 for value in truth_values])
        if isinstance(repaired, tuple):
            with pytest.raises(InfeasibleProgramError):
                round_solution(program, truth_values)
            return
        rounded = list(round_solution(program, truth_values))
        assert program.is_feasible(rounded)
        objective = program.objective(rounded)
        assert objective >= program.objective(repaired)
        # No false atom can still be flipped to true for a feasible gain.
        for index in range(program.num_atoms):
            if not rounded[index]:
                flipped = rounded.copy()
                flipped[index] = True
                assert not program.is_feasible(flipped) or program.objective(flipped) <= objective

    def test_equal_conflict_keeps_lower_index(self):
        # Both facts thresholded away (ADMM leaves each just under 0.5):
        # re-insertion keeps exactly one, the first by atom index.
        program, (a, b) = _program([0.83, 0.83])
        _hard(program, (a, False), (b, False))
        assert round_solution(program, [0.4993, 0.4993]) == (True, False)


class TestWorkBound:
    @staticmethod
    def _conflict_pairs(pairs: int, clauses: int) -> GroundProgram:
        """``pairs`` violated hard conflicts padded with satisfied clauses to
        ``clauses`` in all, the violated pairs spread over the clause list."""
        program, atoms = _program([0.5 + 0.4 * (i % 7) / 7 for i in range(2 * pairs)])
        pad = clauses - program.num_clauses - pairs
        per_gap, extra = divmod(pad, pairs)
        filler = program.add_atom(make_fact("f", "p", "o", (0, 1), 0.8), is_evidence=True)
        for pair in range(pairs):
            _hard(program, (atoms[2 * pair], False), (atoms[2 * pair + 1], False))
            for _ in range(per_gap + (pair < extra)):
                _hard(program, (filler.index, True))
        assert program.num_clauses == clauses
        return program

    @staticmethod
    def _count_calls(monkeypatch):
        """Count the vectorised passes and any object-path clause checks."""
        counts = {"satisfied_counts": 0, "satisfied_by": 0, "hard_violations": 0}
        originals = {
            (GroundProgramArrays, "satisfied_counts"): GroundProgramArrays.satisfied_counts,
            (GroundClause, "satisfied_by"): GroundClause.satisfied_by,
            (GroundProgram, "hard_violations"): GroundProgram.hard_violations,
        }
        for (owner, name), original in originals.items():

            def counting(self, assignment, _name=name, _original=original):
                counts[_name] += 1
                return _original(self, assignment)

            monkeypatch.setattr(owner, name, counting)
        return counts

    @pytest.mark.parametrize("pairs, clauses", [(50, 2_000), (200, 8_000)])
    def test_work_is_linear_in_clauses_plus_flips(self, monkeypatch, pairs, clauses):
        program = self._conflict_pairs(pairs, clauses)
        start = [True] * program.num_atoms
        counts = self._count_calls(monkeypatch)
        repaired = repair_hard(program, start)
        # One vectorised seeding pass over all literals; every flip after it
        # only reads and updates the hard rows of the occurrence CSR, so no
        # clause is evaluated on the object path.  The rescanning loop
        # needed about pairs × clauses checks here.
        assert counts == {"satisfied_counts": 1, "satisfied_by": 0, "hard_violations": 0}
        monkeypatch.undo()
        assert program.is_feasible(repaired)
        assert sum(1 for value in repaired if not value) == pairs

    def test_exhausted_bound_rescans_once(self, monkeypatch):
        program, (a,) = _program([0.9])
        _hard(program, (a, True))
        _hard(program, (a, False))
        counts = self._count_calls(monkeypatch)
        assert program.repair_hard_violations([True]) is None
        # The seeding pass plus one final rescan when the bound runs out.
        assert counts == {"satisfied_counts": 2, "satisfied_by": 0, "hard_violations": 0}
