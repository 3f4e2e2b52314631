"""Unified solver registry.

TeCoRe dispatches to one of two reasoner families — nRockIt (MLN) or the PSL
solver — and is designed so that "any off-the-shelf ProbFOL system ... can be
seamlessly integrated".  The registry maps user-facing solver names to
back-end factories across both families and is the single place a new
back-end has to be registered.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..errors import SolverNotAvailableError
from ..logic.ground import GroundProgram
from ..mln import ILPMapSolver
from ..psl import ADMMSolver
from ..solvers import MAPSolution, MAPSolver, check_expressivity, instantiate_solver


@dataclass(frozen=True, slots=True)
class SolverEntry:
    """One registered solver."""

    name: str
    family: str
    description: str
    factory: Callable[..., MAPSolver]


_REGISTRY: dict[str, SolverEntry] = {}


def register_solver(
    name: str, family: str, description: str, factory: Callable[..., MAPSolver]
) -> None:
    """Register (or replace) a solver under ``name``."""
    _REGISTRY[name] = SolverEntry(
        name=name, family=family, description=description, factory=factory
    )
    _CAPABILITY_PROBES.pop(name, None)


def available_solvers() -> list[str]:
    """All registered solver names."""
    return sorted(_REGISTRY)


def describe_solvers() -> list[SolverEntry]:
    """All registry entries, sorted by name."""
    return [_REGISTRY[name] for name in available_solvers()]


def make_solver(name: str, **kwargs) -> MAPSolver:
    """Instantiate a registered solver by name."""
    entry = _REGISTRY.get(name)
    if entry is None:
        raise SolverNotAvailableError(f"unknown solver {name!r}; available: {available_solvers()}")
    return instantiate_solver(entry.factory, f"solver {name!r}", **kwargs)


def solver_family(name: str) -> str:
    """The family ("mln" or "psl") a registered solver belongs to."""
    entry = _REGISTRY.get(name)
    if entry is None:
        raise SolverNotAvailableError(f"unknown solver {name!r}; available: {available_solvers()}")
    return entry.family


_CAPABILITY_PROBES: dict[str, MAPSolver] = {}


def solver_capabilities(name: str):
    """Expressivity descriptor of a registered solver.

    Instantiates one probe solver per name (with default options) and caches
    it, so callers that only need the capabilities — the translator's
    expressivity check, run per graph in :meth:`repro.core.TeCoRe.resolve_batch`
    — do not pay for a fresh back-end construction every time.
    """
    probe = _CAPABILITY_PROBES.get(name)
    if probe is None:
        probe = make_solver(name)
        _CAPABILITY_PROBES[name] = probe
    return probe.capabilities


def solve_map(
    program: GroundProgram,
    solver: str,
    *,
    validate: bool = True,
    **options,
) -> MAPSolution:
    """Run MAP inference on ``program`` with the registered solver ``solver``.

    ``validate`` applies the solver's expressivity check first (the paper's
    translator behaviour); disable it only in controlled experiments.
    ``options`` go to the solver factory.
    """
    backend = make_solver(solver, **options)
    if validate:
        check_expressivity(program, backend.capabilities)
    return backend.solve(program)


# --------------------------------------------------------------------------- #
# Built-in registrations: the two reasoners the paper runs.
# --------------------------------------------------------------------------- #
register_solver(
    "nrockit",
    "mln",
    "MLN with numerical constraints, exact MAP by bucket elimination (HiGHS ILP when wide)",
    ILPMapSolver,
)
register_solver(
    "npsl", "psl", "PSL/nPSL MAP via consensus ADMM over the hinge-loss MRF", ADMMSolver
)
