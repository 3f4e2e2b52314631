"""Rounding continuous PSL truth values back to a discrete world.

PSL "computes a soft approximation of the discrete MAP state" (paper,
Section 3): the convex program yields truth values in ``[0, 1]``, which TeCoRe
must turn back into a conflict-free KG.  The procedure here is the standard
one:

1. threshold the soft values at 0.5;
2. repair any hard clause still violated with
   :meth:`GroundProgram.repair_hard_violations`: take the first violated hard
   clause in clause order and flip the atom that leaves the fewest hard
   clauses violated, breaking ties toward the smallest absolute evidence
   weight (for conflict clauses this drops the least confident fact, as in
   the running example, where the weaker Napoli fact is removed).  The
   violated set is maintained across flips, so a repair costs one pass over
   the hard clauses plus the degrees of the atoms it considers.
"""

from __future__ import annotations

from typing import Sequence

from ..errors import InfeasibleProgramError
from ..logic.ground import GroundProgram


def threshold(truth_values: Sequence[float], cutoff: float = 0.5) -> list[bool]:
    """Plain thresholding of soft truth values."""
    return [float(value) >= cutoff for value in truth_values]


def repair_hard(program: GroundProgram, assignment: list[bool]) -> list[bool]:
    """Greedily repair hard-clause violations in ``assignment``.

    See :meth:`GroundProgram.repair_hard_violations` for the flip rule.
    Raises :class:`InfeasibleProgramError` when the repair leaves a hard
    clause violated.
    """
    repaired = program.repair_hard_violations(assignment)
    if repaired is None:
        raise InfeasibleProgramError(
            "rounding could not produce an assignment satisfying the hard constraints"
        )
    return repaired


def round_solution(
    program: GroundProgram, truth_values: Sequence[float], cutoff: float = 0.5
) -> tuple[bool, ...]:
    """Threshold + hard repair, returning the final Boolean assignment."""
    assignment = threshold(truth_values, cutoff=cutoff)
    assignment = repair_hard(program, assignment)
    return tuple(assignment)
