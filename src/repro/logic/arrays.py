"""Array-native compiled view of a ground program.

:class:`GroundProgramArrays` is a :class:`~repro.logic.ground.GroundProgram`'s
clause columns as numpy arrays, the same interned-id / numpy-block layout the
columnar grounding engine uses (``kg/columnar.py``, ``logic/vectorized.py``),
so MAP solver kernels stay vectorized end-to-end instead of walking
per-clause Python objects.  :meth:`GroundProgramArrays.from_program` copies
the columns (no clause object is read or built) and the program keeps the
result until its next clause is added.  The arrays hold no reference back to
the program: a program keeps its CSR, so a back-reference would make a cycle
that only a full garbage collection frees.  The view holds:

* a clause→literal CSR matrix (``clause_offsets`` / ``literal_atoms`` /
  ``literal_signs``) plus the flat ``literal_clauses`` inverse, giving both
  "literals of clause c" slices and one-shot gathers over all literals;
* per-clause ``weights`` / ``is_hard`` vectors for masked objective sums;
* a lazily-built atom→occurrence CSR (``occurrence_offsets`` /
  ``occurrence_clauses`` / ``occurrence_signs``) for the hard repair
  (:meth:`GroundProgramArrays.repair_hard_violations`) and PSL
  re-insertion;
* lazily-labelled connected components (:attr:`components`), which
  ``nrockit`` solves apart.

Float contract: :meth:`objective` is the correctly rounded exact sum of the
satisfied soft weights (:func:`math.fsum`), as :meth:`GroundProgram.objective`
is.  It does not depend on clause order, so a program's objective equals the
exact sum of its components' parts, and sessions, :class:`Decomposition`
merges and stacked solves all report the float a one-shot solve reports.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from itertools import repeat
from operator import is_
from typing import Optional, Sequence

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from ..errors import GroundingError
from .ground import GroundAtom, GroundProgram


def ragged_slices(offsets: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Flat positions of CSR rows ``indices``: concat of ``range(off[i], off[i+1])``.

    The standard trick for gathering many variable-length CSR rows without a
    Python loop: materialise one ``arange`` over the total length and shift
    each segment to its row's start offset.
    """
    indices = np.asarray(indices, dtype=np.int64)
    starts = offsets[indices]
    lengths = offsets[indices + 1] - starts
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    # positions = arange(total) rebased so each segment begins at its start.
    seg_begin = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    return np.arange(total, dtype=np.int64) + np.repeat(starts - seg_begin, lengths)


@dataclass
class GroundProgramArrays:
    """Columnar (CSR) view of a ground program for array solver kernels."""

    num_atoms: int
    #: CSR row pointers: literals of clause ``c`` live at
    #: ``literal_*[clause_offsets[c]:clause_offsets[c+1]]``.
    clause_offsets: np.ndarray
    literal_atoms: np.ndarray
    #: True for a positive literal (satisfied when the atom is true).
    literal_signs: np.ndarray
    #: Inverse map: owning clause of each flat literal.
    literal_clauses: np.ndarray
    #: Soft weights, ``0.0`` where hard (mask with ``is_hard``).
    weights: np.ndarray
    is_hard: np.ndarray
    #: Original per-clause Python weights (``None`` for hard), in clause order.
    weight_list: list[Optional[float]]

    _occurrence: Optional[tuple[np.ndarray, np.ndarray, np.ndarray]] = field(
        default=None, repr=False
    )
    _components: Optional[tuple[np.ndarray, np.ndarray]] = field(default=None, repr=False)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_program(cls, program: GroundProgram) -> "GroundProgramArrays":
        """The CSR of ``program``'s clause columns, cached on the program.

        Clause order, literal order within a clause, and weights are the
        program's exactly, so every array evaluation maps back to the object
        path index-for-index.  The cached arrays are returned again until a
        clause or atom is added; callers must not write to them.
        """
        cached = program._arrays
        if (
            cached is not None
            and cached.num_atoms == program.num_atoms
            and cached.num_clauses == program.num_clauses
        ):
            return cached
        lengths = np.array(program._clause_lengths, dtype=np.int64)
        num_clauses = lengths.size
        clause_offsets = np.zeros(num_clauses + 1, dtype=np.int64)
        np.cumsum(lengths, out=clause_offsets[1:])
        weight_list = program._clause_weights[:]
        is_hard = np.fromiter(map(is_, weight_list, repeat(None)), dtype=bool, count=num_clauses)
        weights = np.array(weight_list, dtype=np.float64)
        weights[is_hard] = 0.0
        arrays = cls(
            num_atoms=program.num_atoms,
            clause_offsets=clause_offsets,
            literal_atoms=np.array(program._literal_atoms, dtype=np.int64),
            literal_signs=np.array(program._literal_signs, dtype=bool),
            literal_clauses=np.repeat(np.arange(num_clauses, dtype=np.int64), lengths),
            weights=weights,
            is_hard=is_hard,
            weight_list=weight_list,
        )
        program._arrays = arrays
        return arrays

    # ------------------------------------------------------------------ #
    # Views
    # ------------------------------------------------------------------ #
    @property
    def num_clauses(self) -> int:
        return len(self.weight_list)

    @property
    def num_literals(self) -> int:
        return int(self.clause_offsets[-1])

    @property
    def occurrence(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Atom→occurrence CSR ``(offsets, clauses, signs)``.

        Row ``a`` lists, in clause order (stable sort), every clause that
        mentions atom ``a`` together with the literal's sign.  Built lazily
        for the hard repair and re-insertion.
        """
        if self._occurrence is None:
            order = np.argsort(self.literal_atoms, kind="stable")
            counts = np.bincount(self.literal_atoms, minlength=self.num_atoms)
            offsets = np.zeros(self.num_atoms + 1, dtype=np.int64)
            np.cumsum(counts, out=offsets[1:])
            self._occurrence = (
                offsets,
                self.literal_clauses[order],
                self.literal_signs[order],
            )
        return self._occurrence

    @property
    def components(self) -> tuple[np.ndarray, np.ndarray]:
        """Connected components of the clause–atom interaction graph, as
        ``(atom_labels, clause_labels)`` with contiguous component ids.

        Two atoms share a component when some chain of clauses links them
        — the same factorisation :func:`repro.logic.decompose` computes over
        objects, and in the same order: component ids ascend with each
        component's smallest atom index.  An atom in no clause is a
        component of its own with no clauses.  Built lazily by
        ``scipy.sparse.csgraph.connected_components`` over an edge between
        each pair of adjacent literals of a clause (enough to connect every
        atom a clause mentions).  ``nrockit`` solves the components apart.
        """
        if self._components is None:
            adjacent = self.literal_clauses[1:] == self.literal_clauses[:-1]
            edges = coo_matrix(
                (
                    np.ones(int(adjacent.sum()), dtype=np.int8),
                    (self.literal_atoms[:-1][adjacent], self.literal_atoms[1:][adjacent]),
                ),
                shape=(self.num_atoms, self.num_atoms),
            )
            _, atom_labels = connected_components(edges, directed=False)
            atom_labels = atom_labels.astype(np.int64)
            clause_labels = atom_labels[self.literal_atoms[self.clause_offsets[:-1]]]
            self._components = (atom_labels, clause_labels)
        return self._components

    # ------------------------------------------------------------------ #
    # Evaluation
    # ------------------------------------------------------------------ #
    def _as_assignment(self, assignment: Sequence[bool]) -> np.ndarray:
        values = np.asarray(assignment, dtype=bool)
        if values.shape != (self.num_atoms,):
            raise GroundingError(f"assignment has {values.size} values for {self.num_atoms} atoms")
        return values

    def satisfied_counts(self, assignment: Sequence[bool]) -> np.ndarray:
        """Per-clause count of true literals (float64, from one bincount)."""
        values = self._as_assignment(assignment)
        true_literals = values[self.literal_atoms] == self.literal_signs
        return np.bincount(
            self.literal_clauses,
            weights=true_literals.astype(np.float64),
            minlength=self.num_clauses,
        )

    def satisfied_mask(self, assignment: Sequence[bool]) -> np.ndarray:
        """Boolean mask: clause satisfied under ``assignment``."""
        return self.satisfied_counts(assignment) > 0

    def objective(self, assignment: Sequence[bool]) -> float:
        """Sum of satisfied soft-clause weights, correctly rounded (see the
        module docstring)."""
        mask = self.satisfied_mask(assignment)
        return math.fsum(self.weights[mask & ~self.is_hard].tolist())

    def repair_hard_violations(
        self, assignment: Sequence[bool], atoms: Sequence[GroundAtom]
    ) -> Optional[list[bool]]:
        """Greedily flip atoms of ``assignment`` until no hard clause is violated.

        Each step satisfies the first violated hard clause in clause order by
        flipping the atom with the smallest key ``(hard violations after the
        flip, |log weight|, atom index)``.  Minimising the violations left
        stops two hard clauses that share an atom with opposite polarities
        from ping-ponging it; the weight then drops the least confident fact
        of a conflict.  Violations are counted once per occurrence of the
        atom in a hard clause.

        One :meth:`satisfied_counts` pass seeds the per-clause true-literal
        counts and the violated set.  After that the repair only reads the
        hard rows of the atom→occurrence CSR (:attr:`occurrence`, which
        re-insertion uses too): a candidate's key comes from its rows'
        count changes, and a flip updates the counts of the clauses in its
        row.  A repair thus costs a few vectorised passes over the literals
        plus the hard degrees of the candidate and flipped atoms.

        ``atoms`` is the program's atom table; the key reads the log weight
        of each candidate's fact from it.

        Returns the repaired copy, or ``None`` when ``num_clauses + 1`` flips
        leave a hard clause violated (checked by one final rescan).
        """
        state = list(assignment)
        counts = self.satisfied_counts(state)
        violated = set(np.flatnonzero(self.is_hard & (counts == 0)).tolist())
        if not violated:
            return state
        counts = counts.astype(np.int64).tolist()
        # The hard rows of the occurrence CSR: clause and sign of every
        # occurrence of an atom in a hard clause, in clause order.
        offsets, occurrence_clauses, occurrence_signs = self.occurrence
        hard = self.is_hard[occurrence_clauses]
        hard_offsets = np.concatenate(([0], np.cumsum(hard)))[offsets].tolist()
        hard_clauses = occurrence_clauses[hard].tolist()
        hard_signs = occurrence_signs[hard].tolist()

        queue = sorted(violated)  # a sorted list is already a min-heap
        for _ in range(self.num_clauses + 1):
            if not violated:
                return state
            while queue[0] not in violated:
                heapq.heappop(queue)
            start, stop = self.clause_offsets[queue[0] : queue[0] + 2].tolist()
            best_key: Optional[tuple[int, float, int]] = None
            for index, positive in zip(
                self.literal_atoms[start:stop].tolist(), self.literal_signs[start:stop].tolist()
            ):
                # The clause is violated, so ``index`` is ``not positive``
                # now; setting it to ``positive`` makes its literals of sign
                # ``positive`` true and the others false.
                row = range(hard_offsets[index], hard_offsets[index + 1])
                deltas: dict[int, int] = {}
                for position in row:
                    clause = hard_clauses[position]
                    deltas[clause] = deltas.get(clause, 0) + (
                        1 if hard_signs[position] == positive else -1
                    )
                before = after = 0
                for position in row:
                    clause = hard_clauses[position]
                    before += counts[clause] == 0
                    after += counts[clause] + deltas[clause] == 0
                key = (
                    len(violated) - before + after,
                    abs(atoms[index].fact.log_weight),
                    index,
                )
                if best_key is None or key < best_key:
                    best_key, flip, value = key, index, positive
            state[flip] = value
            row = range(hard_offsets[flip], hard_offsets[flip + 1])
            for position in row:
                counts[hard_clauses[position]] += 1 if hard_signs[position] == value else -1
            for position in row:
                clause = hard_clauses[position]
                if counts[clause]:
                    violated.discard(clause)
                elif clause not in violated:
                    violated.add(clause)
                    heapq.heappush(queue, clause)
        rescan = self.satisfied_counts(state)
        return None if (self.is_hard & (rescan == 0)).any() else state

    def __repr__(self) -> str:
        return (
            f"GroundProgramArrays(atoms={self.num_atoms}, "
            f"clauses={self.num_clauses}, literals={self.num_literals})"
        )
