"""Pure-Python branch & bound MAP solver.

A dependency-free exact solver used to cross-check the HiGHS back-end on
small programs and to keep the library usable if scipy's MILP interface is
unavailable.  It runs best-first branch & bound over the LP relaxation
(solved with ``scipy.optimize.linprog``); when even ``linprog`` is not wanted
the bound falls back to the sum of all remaining satisfiable soft weights.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ...errors import InfeasibleProgramError
from ...logic.ground import GroundProgram
from ...solvers import MAPSolution, MAPSolver, MLN_CAPABILITIES, SolverCapabilities, SolverStats
from ..ilp import ILPEncoding, encode


@dataclass(order=True)
class _Node:
    """A search node: partial assignment with an optimistic bound."""

    priority: float
    counter: int
    fixed: dict[int, int] = field(compare=False, default_factory=dict)


class BranchAndBoundSolver(MAPSolver):
    """Exact MAP via best-first branch & bound on the LP relaxation.

    Parameters
    ----------
    time_limit:
        Wall-clock budget; when exhausted the best incumbent is returned and
        ``stats.optimal`` is False.
    max_nodes:
        Hard cap on explored nodes (safety valve for large programs).
    use_lp_bound:
        When False, use the cheaper (weaker) additive bound instead of LP.
    """

    name = "nrockit-bnb"
    supports_warm_start = True

    def __init__(
        self,
        time_limit: float = 60.0,
        max_nodes: int = 200_000,
        use_lp_bound: bool = True,
    ) -> None:
        self.time_limit = time_limit
        self.max_nodes = max_nodes
        self.use_lp_bound = use_lp_bound

    @property
    def capabilities(self) -> SolverCapabilities:
        return MLN_CAPABILITIES

    # ------------------------------------------------------------------ #
    def solve(
        self, program: GroundProgram, warm_start: Optional[Sequence[float]] = None
    ) -> MAPSolution:
        if program.num_atoms == 0:
            return self._empty_solution()  # encode() rejects an empty program
        started = time.perf_counter()
        encoding = encode(program)
        incumbent, incumbent_value = self._greedy_incumbent(program)
        if warm_start is not None and len(warm_start) == program.num_atoms:
            # Warm start: the previous MAP state, if feasible and better than
            # the greedy incumbent, prunes the tree from the first node.
            candidate = tuple(value >= 0.5 for value in warm_start)
            feasible = program.is_feasible(candidate)
            value = program.objective(candidate) if feasible else -math.inf
            if feasible and (incumbent is None or value > incumbent_value):
                incumbent, incumbent_value = candidate, value
        counter = itertools.count()

        root_bound = self._bound(encoding, {})
        if root_bound is None:
            raise InfeasibleProgramError(
                "hard constraints admit no consistent world (LP relaxation infeasible)"
            )
        queue: list[_Node] = [_Node(-root_bound, next(counter), {})]
        explored = 0
        optimal = True

        while queue:
            if time.perf_counter() - started > self.time_limit or explored >= self.max_nodes:
                optimal = False
                break
            node = heapq.heappop(queue)
            bound = -node.priority
            if bound <= incumbent_value + 1e-9:
                continue
            explored += 1
            branch_variable = self._pick_variable(encoding, node.fixed)
            if branch_variable is None:
                assignment = self._complete(program, node.fixed)
                if assignment is None:
                    continue
                value = program.objective(assignment)
                if value > incumbent_value and program.is_feasible(assignment):
                    incumbent, incumbent_value = assignment, value
                continue
            for value in (1, 0):
                fixed = dict(node.fixed)
                fixed[branch_variable] = value
                child_bound = self._bound(encoding, fixed)
                if child_bound is None or child_bound <= incumbent_value + 1e-9:
                    continue
                heapq.heappush(queue, _Node(-child_bound, next(counter), fixed))

        if incumbent is None:
            raise InfeasibleProgramError(
                "hard constraints admit no consistent world (no feasible assignment found)"
            )
        self._check_feasibility(program, incumbent)
        elapsed = time.perf_counter() - started
        stats = SolverStats(
            solver=self.name,
            runtime_seconds=elapsed,
            iterations=explored,
            atoms=program.num_atoms,
            clauses=program.num_clauses,
            optimal=optimal and not queue,
        )
        return MAPSolution(
            assignment=incumbent,
            objective=incumbent_value,
            stats=stats,
            truth_values=tuple(1.0 if value else 0.0 for value in incumbent),
        )

    # ------------------------------------------------------------------ #
    # Bounds and heuristics
    # ------------------------------------------------------------------ #
    def _bound(self, encoding: ILPEncoding, fixed: dict[int, int]) -> Optional[float]:
        """Optimistic objective bound for a partial assignment (None ⇒ prune).

        scipy's optimizer is imported here, so only an LP bound loads it.
        """
        if not self.use_lp_bound:
            return float(np.maximum(encoding.objective, 0.0).sum()) + encoding.offset
        from scipy.optimize import linprog

        lower = np.zeros(encoding.num_variables)
        upper = np.ones(encoding.num_variables)
        for index, value in fixed.items():
            lower[index] = value
            upper[index] = value
        result = linprog(
            c=-encoding.objective,
            A_ub=-encoding.constraint_matrix,
            b_ub=-encoding.lower_bounds,
            bounds=np.column_stack([lower, upper]),
            method="highs",
        )
        if result.status == 2:  # infeasible under the current fixings
            return None
        if result.status != 0 or result.x is None:
            # Numerical trouble: fall back to the additive bound (never prunes
            # a genuinely better solution).
            return float(np.maximum(encoding.objective, 0.0).sum()) + encoding.offset
        return float(-result.fun) + encoding.offset

    def _pick_variable(self, encoding: ILPEncoding, fixed: dict[int, int]) -> Optional[int]:
        """Next atom to branch on: largest absolute objective coefficient."""
        best_index: Optional[int] = None
        best_score = -1.0
        for index in range(encoding.num_atoms):
            if index in fixed:
                continue
            score = abs(float(encoding.objective[index]))
            if score > best_score:
                best_index, best_score = index, score
        return best_index

    def _complete(
        self, program: GroundProgram, fixed: dict[int, int]
    ) -> Optional[tuple[bool, ...]]:
        return tuple(bool(fixed.get(index, 0)) for index in range(program.num_atoms))

    def _greedy_incumbent(self, program: GroundProgram) -> tuple[Optional[tuple[bool, ...]], float]:
        """A quick feasible starting point: keep everything, then repair.

        Starts from the all-true assignment and runs
        :meth:`GroundProgram.repair_hard_violations`, which flips, for the
        first violated hard clause, the atom leaving the fewest hard clauses
        violated (ties: smallest absolute evidence weight).  Gives branch &
        bound an incumbent to prune against, or ``(None, -inf)`` when the
        repair fails.
        """
        assignment = program.repair_hard_violations([True] * program.num_atoms)
        if assignment is None:
            return None, -math.inf
        return tuple(assignment), program.objective(assignment)
