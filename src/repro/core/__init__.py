"""TeCoRe core: translator, solver registry, resolution facade, reports."""

from .registry import (
    SolverEntry,
    available_solvers,
    describe_solvers,
    make_solver,
    register_solver,
    solve_map,
    solver_capabilities,
    solver_family,
)
from .report import render_comparison, render_graph_summary, render_report
from .result import (
    BatchResolution,
    DeltaStatistics,
    ResolutionResult,
    ResolutionStatistics,
)
from .session import ComponentSolutionCache, ResolutionSession
from .tecore import SharedResolver, TeCoRe, detect_conflicts, resolve, resolve_batch
from .threshold import ThresholdFilter, sweep_thresholds
from .translator import TecoreTranslator, TranslatedProgram

__all__ = [
    "BatchResolution",
    "ComponentSolutionCache",
    "DeltaStatistics",
    "ResolutionResult",
    "ResolutionSession",
    "ResolutionStatistics",
    "SharedResolver",
    "SolverEntry",
    "TeCoRe",
    "TecoreTranslator",
    "ThresholdFilter",
    "TranslatedProgram",
    "available_solvers",
    "describe_solvers",
    "detect_conflicts",
    "make_solver",
    "register_solver",
    "render_comparison",
    "render_graph_summary",
    "render_report",
    "resolve",
    "resolve_batch",
    "solve_map",
    "solver_capabilities",
    "solver_family",
    "sweep_thresholds",
]
