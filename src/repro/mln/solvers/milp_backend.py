"""Exact MAP inference via mixed-integer linear programming (HiGHS).

This back-end plays the role Gurobi plays inside nRockIt: it solves the MAP
ILP of :mod:`repro.mln.ilp` exactly.  scipy's ``milp`` wraps the HiGHS
branch-and-cut solver, which is bundled with scipy and needs no network or
licence.

A HiGHS call costs about 1.4 ms even on a one-atom program, and 10–13 ms
once it has to branch; that dominates a session or a decomposed solve, which
makes one call per connected component.  Programs of at most
:data:`ENUMERATION_MAX_ATOMS` atoms are therefore solved exactly by scoring
every one of their ``2ⁿ`` assignments in numpy (:func:`enumerate_map`);
larger programs go to HiGHS.  Both paths report the same objective, bit for
bit, and ``stats.solver`` is ``"nrockit-ilp"`` either way.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from ...errors import InfeasibleProgramError, SolverError
from ...logic.ground import GroundProgram
from ...solvers import MAPSolution, MAPSolver, MLN_CAPABILITIES, SolverCapabilities, SolverStats
from ..ilp import ILPEncoding, encode

#: Largest program (in atoms) solved by enumeration instead of HiGHS.  On
#: FootballDB components enumeration's median time roughly doubles per atom,
#: from 0.03 ms at 1 atom to 3.0 ms at 15 and 18 ms at 17, while HiGHS takes
#: 1.4–13 ms at every size; 15 is the last size where enumeration's slowest
#: component (3.6 ms) beats HiGHS's median (per-size table in
#: docs/architecture.md, "Decomposition").
ENUMERATION_MAX_ATOMS = 15


def enumerate_map(program: GroundProgram) -> tuple[bool, ...]:
    """Exact MAP state of a small program, by scoring every assignment.

    State ``s`` is an int64 whose bit ``n − 1 − i`` is atom ``i``, so
    ordering states by value orders them lexicographically by
    ``(x₀, x₁, …)``.  Each clause becomes a positive and a negative atom
    mask and is satisfied where ``(s & pos) != 0 | (s & neg) != neg``.  Hard
    clauses AND into a feasibility mask.  Soft weights are added one clause
    at a time in clause order (adding an exact ``0.0`` where a clause is
    unsatisfied), so every state's total is bit-identical to the
    left-to-right sum of :meth:`GroundProgram.objective`.

    Tie rule: among the optimal feasible states the largest one wins — the
    lexicographically largest ``(x₀, x₁, …)``, which keeps lower-index
    atoms.  It depends only on the program's content (its atom and clause
    order), so a cached or replayed solve returns the same assignment.

    Raises :class:`InfeasibleProgramError` when no state satisfies every
    hard clause.  Memory and time grow as ``2ⁿ``; callers bound ``n``.
    """
    num_atoms = program.num_atoms
    states = np.arange(1 << num_atoms, dtype=np.int64)
    feasible = np.ones(states.size, dtype=bool)
    total = np.zeros(states.size, dtype=np.float64)
    for clause in program.clauses:
        positive_mask = negative_mask = 0
        for index, positive in clause.literals:
            bit = 1 << (num_atoms - 1 - index)
            if positive:
                positive_mask |= bit
            else:
                negative_mask |= bit
        satisfied = (states & positive_mask) != 0
        if negative_mask:
            satisfied |= (states & negative_mask) != negative_mask
        if clause.weight is None:
            feasible &= satisfied
        else:
            total += np.where(satisfied, clause.weight, 0.0)
    if not feasible.any():
        raise InfeasibleProgramError(
            "hard constraints admit no consistent world (no feasible assignment)"
        )
    scores = np.where(feasible, total, -np.inf)
    # argmax returns the first maximum; on the reversed scores that is the
    # largest optimal state.
    best = states.size - 1 - int(np.argmax(scores[::-1]))
    return tuple(bool((best >> (num_atoms - 1 - index)) & 1) for index in range(num_atoms))


class ILPMapSolver(MAPSolver):
    """Exact MAP via the HiGHS MILP solver (the "nRockIt" path).

    Programs of at most :data:`ENUMERATION_MAX_ATOMS` atoms are solved by
    :func:`enumerate_map` instead (always optimal, with the tie rule stated
    there); larger programs by HiGHS.

    Parameters
    ----------
    time_limit:
        Wall-clock limit in seconds handed to HiGHS; the best incumbent found
        within the limit is returned (``stats.optimal`` reports whether it was
        proven optimal).
    mip_gap:
        Relative optimality gap at which HiGHS may stop early.
    """

    name = "nrockit-ilp"

    def __init__(self, time_limit: float = 120.0, mip_gap: float = 1e-6) -> None:
        self.time_limit = time_limit
        self.mip_gap = mip_gap

    @property
    def capabilities(self) -> SolverCapabilities:
        return MLN_CAPABILITIES

    def solve(self, program: GroundProgram) -> MAPSolution:
        started = time.perf_counter()
        if 0 < program.num_atoms <= ENUMERATION_MAX_ATOMS:
            assignment = enumerate_map(program)
            optimal, bound = True, None
        else:
            encoding = encode(program)
            solution_values, optimal = self._solve_encoding(encoding)
            assignment = encoding.assignment_from(solution_values)
            bound = encoding.objective_value(solution_values)
        objective = program.objective(assignment)
        self._check_feasibility(program, assignment)
        elapsed = time.perf_counter() - started
        stats = SolverStats(
            solver=self.name,
            runtime_seconds=elapsed,
            iterations=1,
            atoms=program.num_atoms,
            clauses=program.num_clauses,
            optimal=optimal,
            objective_bound=objective if bound is None else bound,
        )
        return MAPSolution(
            assignment=assignment,
            objective=objective,
            stats=stats,
            truth_values=tuple(1.0 if value else 0.0 for value in assignment),
        )

    # ------------------------------------------------------------------ #
    def _solve_encoding(self, encoding: ILPEncoding) -> tuple[np.ndarray, bool]:
        constraints = LinearConstraint(
            encoding.constraint_matrix,
            lb=encoding.lower_bounds,
            ub=np.full(encoding.num_constraints, np.inf),
        )
        result = milp(
            c=-encoding.objective,  # milp minimises; we maximise
            integrality=np.ones(encoding.num_variables),
            bounds=Bounds(0, 1),
            constraints=[constraints],
            options={"time_limit": self.time_limit, "mip_rel_gap": self.mip_gap},
        )
        if result.status == 2:
            raise InfeasibleProgramError(
                "hard constraints admit no consistent world (ILP infeasible)"
            )
        if result.x is None:
            raise SolverError(f"HiGHS MILP failed: {result.message}")
        return np.asarray(result.x, dtype=float), bool(result.status == 0)
