"""Rounding continuous PSL truth values back to a discrete world.

PSL "computes a soft approximation of the discrete MAP state" (paper,
Section 3): the convex program yields truth values in ``[0, 1]``, which TeCoRe
must turn back into a conflict-free KG.  The procedure here is the standard
one:

1. threshold the soft values at 0.5;
2. repair any hard clause still violated with
   :meth:`GroundProgramArrays.repair_hard_violations`: take the first
   violated hard clause in clause order and flip the atom that leaves the
   fewest hard clauses violated, breaking ties toward the smallest absolute
   evidence weight (for conflict clauses this drops the least confident
   fact, as in the running example, where the weaker Napoli fact is
   removed).  One vectorised pass over the literal arrays seeds per-clause
   true-literal counts; a flip then updates the counts of the hard clauses
   in its row of the atom→occurrence CSR, so a repair costs that pass plus
   the hard degrees of the atoms it considers;
3. re-insert (:func:`reinsert`): flip a false atom to true while that raises
   the objective and violates no hard clause, highest gain first, ties to
   the lowest atom index.  ADMM can leave two conflicting facts of equal
   confidence just under 0.5 each, so thresholding drops both and the hard
   repair, which only fixes violations, never puts either back; this step
   keeps one of them.
"""

from __future__ import annotations

import heapq
import math
from typing import Optional, Sequence

import numpy as np

from ..errors import InfeasibleProgramError
from ..logic.arrays import GroundProgramArrays
from ..logic.ground import GroundProgram


def threshold(truth_values: Sequence[float], cutoff: float = 0.5) -> list[bool]:
    """Plain thresholding of soft truth values."""
    return [float(value) >= cutoff for value in truth_values]


def repair_hard(program: GroundProgram, assignment: list[bool]) -> list[bool]:
    """Greedily repair hard-clause violations in ``assignment``.

    See :meth:`GroundProgramArrays.repair_hard_violations` for the flip rule.
    Raises :class:`InfeasibleProgramError` when the repair leaves a hard
    clause violated.
    """
    return _feasible(program.repair_hard_violations(assignment))


def _feasible(repaired: Optional[list[bool]]) -> list[bool]:
    if repaired is None:
        raise InfeasibleProgramError(
            "rounding could not produce an assignment satisfying the hard constraints"
        )
    return repaired


def reinsert(arrays: GroundProgramArrays, assignment: list[bool]) -> list[bool]:
    """Greedily set false atoms true while that raises the objective.

    ``assignment`` must satisfy every hard clause; the result does too.  A
    false atom's *gain* is the soft weight its flip to true satisfies minus
    the soft weight it falsifies; a flip that would falsify a hard clause is
    blocked.  The atom with the highest positive gain flips first, ties
    going to the lowest atom index, until no unblocked atom has a positive
    gain.  Gains are summed with :func:`math.fsum`, so a flip whose
    contributions cancel exactly is never taken.

    The satisfied counts and candidate atoms are seeded by one vectorised
    pass over the literal arrays; after each flip only the atoms sharing a
    clause with the flipped atom are re-scored.
    """
    state = list(assignment)
    values = np.asarray(state, dtype=bool)
    counts = arrays.satisfied_counts(values).astype(np.int64)

    # Seed: for every (clause, false atom) pair, the change in the clause's
    # true-literal count if the atom were set true.  A hard pair the flip
    # would falsify blocks the atom (every hard clause is satisfied now); a
    # soft pair it would satisfy makes the atom a candidate, whose exact
    # gain is then summed below.
    false_literals = ~values[arrays.literal_atoms]
    atoms = arrays.literal_atoms[false_literals]
    clauses = arrays.literal_clauses[false_literals]
    signs = np.where(arrays.literal_signs[false_literals], 1.0, -1.0)
    pairs, inverse = np.unique(clauses * arrays.num_atoms + atoms, return_inverse=True)
    pair_clauses, pair_atoms = np.divmod(pairs, arrays.num_atoms)
    before = counts[pair_clauses] > 0
    after = counts[pair_clauses] + np.bincount(inverse, weights=signs) > 0
    hard = arrays.is_hard[pair_clauses]
    blocked = pair_atoms[hard & ~after]
    candidates = np.setdiff1d(pair_atoms[~hard & ~before & after], blocked)
    if not candidates.size:
        return state

    offsets, occurrence_clauses, occurrence_signs = (row.tolist() for row in arrays.occurrence)
    counts = counts.tolist()
    weights, is_hard = arrays.weight_list, arrays.is_hard.tolist()

    def gain(atom: int) -> Optional[float]:
        """Objective change of setting false ``atom`` true (None: blocked)."""
        deltas: dict[int, int] = {}
        for position in range(offsets[atom], offsets[atom + 1]):
            clause = occurrence_clauses[position]
            deltas[clause] = deltas.get(clause, 0) + (1 if occurrence_signs[position] else -1)
        contributions = []
        for clause, delta in deltas.items():
            was, will = counts[clause] > 0, counts[clause] + delta > 0
            if was == will:
                continue
            if is_hard[clause]:
                return None
            contributions.append(weights[clause] if will else -weights[clause])
        return math.fsum(contributions)

    scores: dict[int, float] = {}
    heap: list[tuple[float, int]] = []
    for atom in candidates.tolist():
        score = gain(atom)
        if score is not None and score > 0:
            scores[atom] = score
            heap.append((-score, atom))
    heapq.heapify(heap)
    while heap:
        negative_score, atom = heapq.heappop(heap)
        if scores.get(atom) != -negative_score:
            continue  # stale entry: the atom was re-scored or flipped
        del scores[atom]
        state[atom] = True
        neighbours = set()
        for position in range(offsets[atom], offsets[atom + 1]):
            clause = occurrence_clauses[position]
            counts[clause] += 1 if occurrence_signs[position] else -1
            start, stop = arrays.clause_offsets[clause : clause + 2]
            neighbours.update(arrays.literal_atoms[start:stop].tolist())
        for neighbour in neighbours:
            if state[neighbour]:
                continue
            score = gain(neighbour)
            if score is not None and score > 0:
                if scores.get(neighbour) != score:
                    scores[neighbour] = score
                    heapq.heappush(heap, (-score, neighbour))
            else:
                scores.pop(neighbour, None)
    return state


def round_solution(
    program: GroundProgram, truth_values: Sequence[float], cutoff: float = 0.5
) -> tuple[bool, ...]:
    """Threshold, hard repair and re-insertion: the final Boolean assignment.

    The repair and re-insertion both run on ``program``'s CSR
    (:meth:`GroundProgramArrays.from_program`, which the ADMM solver has
    already built and the program keeps).
    """
    arrays = GroundProgramArrays.from_program(program)
    thresholded = threshold(truth_values, cutoff=cutoff)
    assignment = _feasible(arrays.repair_hard_violations(thresholded, program.atoms))
    return tuple(reinsert(arrays, assignment))
