"""Component-decomposed MAP solving.

:class:`DecomposedSolver` wraps any :class:`~repro.solvers.base.MAPSolver`
factory: it splits the ground program into the connected components of its
interaction graph (:mod:`repro.logic.decompose`), solves each component with
the wrapped back-end — sequentially or on a ``multiprocessing`` pool — and
merges the per-component solutions into one global MAP state.

The wrapper is exact for exact back-ends: components never share a clause,
so the global optimum is the union of the component optima.  For stochastic
or continuous back-ends (MaxWalkSAT, PSL) the decomposition typically
*improves* solution quality, because each subproblem is tiny.

For ``jobs > 1`` the factory must be picklable (a module-level callable or a
``functools.partial`` over one), since it is shipped to the worker processes
together with each component's sub-program.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Callable

from ..errors import SolverError
from ..logic.decompose import decompose
from ..logic.ground import GroundProgram
from .base import MAPSolution, MAPSolver
from .capabilities import SolverCapabilities


def _solve_component(payload: tuple[Callable[[], MAPSolver], GroundProgram]) -> MAPSolution:
    """Pool worker: build a fresh back-end and solve one component."""
    factory, program = payload
    return factory().solve(program)


def wrap_decomposed(
    factory: Callable[[], MAPSolver], decompose: bool = True, jobs: int = 1
) -> MAPSolver:
    """``DecomposedSolver`` over ``factory`` when ``decompose``, else ``factory()``.

    The single place the decompose/jobs configuration turns into a back-end —
    shared by :func:`repro.core.solve_map` and the TeCoRe facade.
    """
    if decompose:
        return DecomposedSolver(factory, jobs=jobs)
    return factory()


class DecomposedSolver(MAPSolver):
    """Solve a ground program component-by-component with a wrapped back-end.

    Parameters
    ----------
    factory:
        Zero-argument callable producing the back-end to run on each
        component (e.g. ``ILPMapSolver`` or
        ``functools.partial(make_solver, "nrockit", time_limit=10)``).
    jobs:
        Number of worker processes.  ``1`` (the default) solves components
        sequentially in-process, reusing a single back-end instance; values
        above one dispatch components to a ``multiprocessing`` pool.
    """

    name = "decomposed"

    def __init__(self, factory: Callable[[], MAPSolver], jobs: int = 1) -> None:
        if jobs < 1:
            raise SolverError(f"jobs must be >= 1, got {jobs}")
        self.factory = factory
        self.jobs = jobs
        self._inner = factory()
        self._pool = None
        self.name = f"decomposed({self._inner.name})"

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

        subprograms = [component.program for component in decomposition.components]
        if self.jobs > 1 and len(subprograms) > 1:
            solutions = self._solve_parallel(subprograms)
        else:
            solutions = [self._inner.solve(subprogram) for subprogram in subprograms]

        merged = decomposition.merge(solutions)
        self._check_feasibility(program, merged.assignment)
        # Report wall-clock time of the whole decomposed solve (the merged
        # stats carry the summed per-component solve time, which under a
        # pool can exceed wall time).
        stats = replace(
            merged.stats,
            solver=self.name,
            runtime_seconds=time.perf_counter() - started,
            extra=merged.stats.extra + (("jobs", float(self.jobs)),),
        )
        return replace(merged, stats=stats)

    def _solve_parallel(self, subprograms: list[GroundProgram]) -> list[MAPSolution]:
        """Fan components out to a process pool (order-preserving).

        The pool is created lazily on first use and reused across ``solve``
        calls, so batched serving (``TeCoRe.resolve_batch``) pays worker
        startup once, not per graph.  ``ProcessPoolExecutor`` (rather than
        ``multiprocessing.Pool``) is used because it raises
        ``BrokenProcessPool`` when a worker dies instead of hanging.
        """
        from concurrent.futures.process import BrokenProcessPool

        payloads = [(self.factory, subprogram) for subprogram in subprograms]
        # Large components dominate; a modest chunksize amortises IPC while
        # keeping the pool load-balanced.
        chunksize = max(1, len(payloads) // (self.jobs * 8))
        try:
            if self._pool is None:
                from concurrent.futures import ProcessPoolExecutor

                self._pool = ProcessPoolExecutor(max_workers=self.jobs)
            return list(self._pool.map(_solve_component, payloads, chunksize=chunksize))
        except (OSError, ImportError, BrokenProcessPool):
            # Restricted environments (no fork/semaphores) or a killed
            # worker: drop the pool and degrade to the sequential path
            # rather than failing the solve.
            self.close()
            return [self._inner.solve(subprogram) for subprogram in subprograms]

    def close(self) -> None:
        """Release the worker pool (also runs on garbage collection)."""
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    def __enter__(self) -> "DecomposedSolver":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter shutdown timing
        try:
            self.close()
        except Exception:
            pass
