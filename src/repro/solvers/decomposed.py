"""Component-decomposed MAP solving.

:class:`DecomposedSolver` wraps any :class:`~repro.solvers.base.MAPSolver`:
it splits the ground program into the connected components of its
interaction graph (:mod:`repro.logic.decompose`), hands all components to the
wrapped back-end in one :meth:`~repro.solvers.base.MAPSolver.solve_components`
call, and merges the per-component solutions into one global MAP state.

The wrapper is exact for exact back-ends: components never share a clause,
so the global optimum is the union of the component optima.  For the
approximate PSL back-end the merged answer need not equal a whole-program
solve's, since ADMM then stops per component.

No default path uses it: ``nrockit`` already works per component, and
sessions solve per component through their own cache.  It is the reference
the session and enumeration suites compare against.
"""

from __future__ import annotations

import time
from dataclasses import replace

from ..logic.decompose import decompose
from ..logic.ground import GroundProgram
from .base import MAPSolution, MAPSolver
from .capabilities import SolverCapabilities


class DecomposedSolver(MAPSolver):
    """Solve a ground program component-by-component with a wrapped back-end.

    Parameters
    ----------
    inner:
        The back-end to run on each component (e.g. ``ILPMapSolver()`` or
        ``make_solver("nrockit", time_limit=10)``).
    """

    name = "decomposed"

    def __init__(self, inner: MAPSolver) -> None:
        self._inner = inner
        self.name = f"decomposed({inner.name})"

    @property
    def capabilities(self) -> SolverCapabilities:
        """Expressivity is exactly the wrapped back-end's."""
        return self._inner.capabilities

    # ------------------------------------------------------------------ #
    def solve(self, program: GroundProgram) -> MAPSolution:
        started = time.perf_counter()
        decomposition = decompose(program)
        if decomposition.is_trivial:
            # One component covering every atom: decomposition is a no-op,
            # hand the untouched program straight to the back-end.
            return self._inner.solve(program)

        solutions = self._inner.solve_components(
            [component.program for component in decomposition.components]
        )
        merged = decomposition.merge(solutions)
        self._check_feasibility(program, merged.assignment)
        # Report wall-clock time of the whole decomposed solve (the merged
        # stats carry only the summed per-component solve time).
        stats = replace(
            merged.stats, solver=self.name, runtime_seconds=time.perf_counter() - started
        )
        return replace(merged, stats=stats)
