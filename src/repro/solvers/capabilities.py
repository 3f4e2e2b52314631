"""Solver expressivity descriptors and input validation.

The paper: "Special care is taken to verify that the input adheres to the
expressivity of the solver."  The MLN path accepts arbitrary weighted ground
clauses; the PSL path is restricted to rules with conjunctive bodies (which
ground to clauses with at most one positive literal) and trades exactness for
scalability.  :func:`check_expressivity` performs that verification before a
program is handed to a back-end.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ExpressivityError
from ..logic.arrays import GroundProgramArrays
from ..logic.ground import GroundClause, GroundProgram


@dataclass(frozen=True, slots=True)
class SolverCapabilities:
    """What a back-end can handle and how it behaves."""

    name: str
    exact: bool
    supports_hard_constraints: bool = True
    supports_negative_clauses: bool = True
    max_positive_literals_per_clause: int | None = None
    max_clause_length: int | None = None
    supports_numeric_conditions: bool = True
    scalable: bool = False
    description: str = ""


#: The nRockIt MLN back-end: fully expressive, exact, not scalable.
MLN_CAPABILITIES = SolverCapabilities(
    name="mln",
    exact=True,
    supports_hard_constraints=True,
    supports_negative_clauses=True,
    max_positive_literals_per_clause=None,
    max_clause_length=None,
    supports_numeric_conditions=True,
    scalable=False,
    description="Markov Logic Network with numerical constraints (exact MAP via ILP)",
)

#: nPSL-style back-ends: Łukasiewicz relaxation, scalable, approximate.
PSL_CAPABILITIES = SolverCapabilities(
    name="psl",
    exact=False,
    supports_hard_constraints=True,
    supports_negative_clauses=True,
    max_positive_literals_per_clause=1,
    max_clause_length=None,
    supports_numeric_conditions=True,
    scalable=True,
    description="Probabilistic Soft Logic over hinge-loss MRFs (convex MAP, rounded)",
)


def check_expressivity(program: GroundProgram, capabilities: SolverCapabilities) -> None:
    """Raise :class:`ExpressivityError` when ``program`` exceeds ``capabilities``.

    Checks performed:

    * hard clauses only if the solver supports them;
    * clauses with negative literals only if supported;
    * the number of positive literals per clause (PSL rules have conjunctive
      bodies, so their clausal form has at most one positive literal);
    * overall clause length, when bounded.

    When the capabilities bound none of these (the MLN back-end), every
    check is vacuous and returns at once.  Otherwise the bounds are tested
    on the program's CSR, and only the first offending clause is built as an
    object, to word the error.
    """
    if (
        capabilities.supports_hard_constraints
        and capabilities.supports_negative_clauses
        and capabilities.max_positive_literals_per_clause is None
        and capabilities.max_clause_length is None
    ):
        return
    arrays = GroundProgramArrays.from_program(program)
    lengths = np.diff(arrays.clause_offsets)
    positives = np.bincount(
        arrays.literal_clauses, weights=arrays.literal_signs, minlength=arrays.num_clauses
    )
    offending = np.zeros(arrays.num_clauses, dtype=bool)
    if not capabilities.supports_hard_constraints:
        offending |= arrays.is_hard
    if not capabilities.supports_negative_clauses:
        offending |= positives < lengths
    if capabilities.max_positive_literals_per_clause is not None:
        offending |= positives > capabilities.max_positive_literals_per_clause
    if capabilities.max_clause_length is not None:
        offending |= lengths > capabilities.max_clause_length
    if offending.any():
        _check_clause(program.clause(int(np.argmax(offending))), capabilities)


def _check_clause(clause: GroundClause, capabilities: SolverCapabilities) -> None:
    """Raise the error :func:`check_expressivity` words for ``clause``."""
    if clause.is_hard and not capabilities.supports_hard_constraints:
        raise ExpressivityError(
            f"solver {capabilities.name!r} does not support hard constraints "
            f"(clause from {clause.origin!r})"
        )
    positives = sum(1 for _, positive in clause.literals if positive)
    negatives = len(clause.literals) - positives
    if negatives and not capabilities.supports_negative_clauses:
        raise ExpressivityError(
            f"solver {capabilities.name!r} does not support negated literals "
            f"(clause from {clause.origin!r})"
        )
    if (
        capabilities.max_positive_literals_per_clause is not None
        and positives > capabilities.max_positive_literals_per_clause
    ):
        raise ExpressivityError(
            f"solver {capabilities.name!r} allows at most "
            f"{capabilities.max_positive_literals_per_clause} positive literal(s) "
            f"per clause, but clause from {clause.origin!r} has {positives}"
        )
    if (
        capabilities.max_clause_length is not None
        and len(clause.literals) > capabilities.max_clause_length
    ):
        raise ExpressivityError(
            f"solver {capabilities.name!r} allows clauses of length at most "
            f"{capabilities.max_clause_length}, got {len(clause.literals)} "
            f"from {clause.origin!r}"
        )
