"""ILP encoding of MAP inference over a ground program.

MAP inference in an MLN is equivalent to weighted MaxSAT over the ground
clauses, which has the standard integer-linear-programming formulation used
by RockIt/nRockIt (there solved by Gurobi; here by HiGHS through scipy):

* one binary variable ``xᵢ`` per ground atom;
* one binary variable ``z_c`` per *non-unit* soft clause;
* hard clause ``C``:  Σ_{i∈C⁺} xᵢ + Σ_{i∈C⁻} (1−xᵢ) ≥ 1;
* soft clause ``C`` with weight ``w``:  z_c ≤ Σ_{i∈C⁺} xᵢ + Σ_{i∈C⁻} (1−xᵢ),
  contributing ``w·z_c`` to the objective;
* unit soft clauses fold directly into the objective coefficient of their atom.

The encoding records a constant offset so the ILP objective matches
:meth:`GroundProgram.objective`.  :func:`encode_arrays` builds it from the
clause→literal CSR of :class:`~repro.logic.arrays.GroundProgramArrays` for
some of a program's components: ``nrockit`` encodes each component too wide
to eliminate on its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy import sparse

from ..errors import GroundingError
from ..logic.arrays import GroundProgramArrays, ragged_slices


@dataclass
class ILPEncoding:
    """The matrices of the MAP ILP (maximisation form).

    Attributes
    ----------
    objective:
        Coefficients of ``maximise  objective · v`` over all variables
        (atoms first, then auxiliary clause variables).
    constraint_matrix, lower_bounds:
        Rows encode ``constraint_matrix · v ≥ lower_bounds``.
    offset:
        Constant added to the ILP objective so it equals the ground-program
        objective (satisfied soft weight).
    num_atoms, num_aux:
        Variable layout: ``v[:num_atoms]`` are atom indicators, the rest are
        auxiliary soft-clause indicators.
    aux_clauses:
        The soft clause each auxiliary variable stands for (by clause index).
    """

    objective: np.ndarray
    constraint_matrix: sparse.csr_matrix
    lower_bounds: np.ndarray
    offset: float
    num_atoms: int
    num_aux: int
    aux_clauses: list[int] = field(default_factory=list)

    @property
    def num_variables(self) -> int:
        return self.num_atoms + self.num_aux

    @property
    def num_constraints(self) -> int:
        return int(self.constraint_matrix.shape[0])

    def assignment_from(self, values: Sequence[float]) -> tuple[bool, ...]:
        """Round the atom block of an ILP solution vector to booleans."""
        return tuple(bool(round(float(value))) for value in values[: self.num_atoms])


def encode_arrays(
    arrays: GroundProgramArrays, atoms: np.ndarray, clauses: np.ndarray
) -> ILPEncoding:
    """Build the MAP ILP of the part of ``arrays`` made of ``atoms`` and ``clauses``.

    ``atoms`` (ascending global indexes) become variables ``0 … len(atoms) − 1``
    in that order and must include every atom ``clauses`` (ascending) mention;
    ``aux_clauses`` holds global clause indexes.  ``nrockit`` passes one
    component too wide to eliminate at a time, for a HiGHS call of its own.

    The rows come from the clauses' CSR slices in a few numpy passes, and
    unit weights fold into the objective in clause order, so for a whole
    program the result equals a clause-by-clause walk's: the same objective
    floats, CSR arrays, bounds, offset and ``aux_clauses``.
    """
    num_atoms = int(atoms.size)
    if num_atoms == 0:
        raise GroundingError("cannot encode an empty ground program")
    column = np.full(arrays.num_atoms, -1, dtype=np.int64)
    column[atoms] = np.arange(num_atoms, dtype=np.int64)
    lengths = arrays.clause_offsets[clauses + 1] - arrays.clause_offsets[clauses]
    hard = arrays.is_hard[clauses]
    aux = ~hard & (lengths > 1)
    aux_clauses = clauses[aux]
    num_aux = int(aux_clauses.size)

    # Unit soft clauses fold into their atom's coefficient: w·x, or
    # w·(1 − x) = w − w·x for a negated literal.
    units = clauses[~hard & (lengths == 1)]
    unit_literals = arrays.clause_offsets[units]
    unit_positive = arrays.literal_signs[unit_literals]
    unit_weights = arrays.weights[units]
    objective = np.zeros(num_atoms + num_aux, dtype=float)
    np.add.at(
        objective,
        column[arrays.literal_atoms[unit_literals]],
        np.where(unit_positive, unit_weights, -unit_weights),
    )
    negated_weights = unit_weights[~unit_positive]
    # cumsum adds left to right, as the walk's running ``offset += w`` does.
    offset = float(np.cumsum(negated_weights)[-1]) if negated_weights.size else 0.0
    objective[num_atoms:] = arrays.weights[aux_clauses]

    # One row per hard and non-unit soft clause: Σ_{C⁺} x − Σ_{C⁻} x (− z)
    # ≥ 1 − |C⁻| (− 1), the auxiliary z of a soft clause bounded by its
    # satisfaction count.
    is_row = hard | aux
    row_clauses = clauses[is_row]
    row_lengths = lengths[is_row]
    row_aux = aux[is_row]
    positions = ragged_slices(arrays.clause_offsets, row_clauses)
    signs = arrays.literal_signs[positions]
    literal_rows = np.repeat(np.arange(row_clauses.size, dtype=np.int64), row_lengths)
    negatives = np.bincount(literal_rows, weights=~signs, minlength=row_clauses.size)
    lower_bounds = 1.0 - negatives - row_aux
    rows = np.concatenate((literal_rows, np.flatnonzero(row_aux)))
    columns = np.concatenate(
        (column[arrays.literal_atoms[positions]], num_atoms + np.arange(num_aux, dtype=np.int64))
    )
    values = np.concatenate((np.where(signs, 1.0, -1.0), np.full(num_aux, -1.0)))
    if row_clauses.size == 0:
        # No hard or non-unit clauses: one trivially satisfied row keeps the
        # matrix a valid shape for downstream solvers.
        rows, columns, values = np.zeros(1, np.int64), np.zeros(1, np.int64), np.zeros(1)
        lower_bounds = np.full(1, -1.0)
    # The conversion sorts each row's columns and sums repeated atoms, as it
    # does for the walk's entries.
    matrix = sparse.csr_matrix(
        (values, (rows, columns)), shape=(int(lower_bounds.size), num_atoms + num_aux)
    )
    return ILPEncoding(
        objective=objective,
        constraint_matrix=matrix,
        lower_bounds=lower_bounds,
        offset=offset,
        num_atoms=num_atoms,
        num_aux=num_aux,
        aux_clauses=aux_clauses.tolist(),
    )
