"""Resolution results and debugging statistics.

After MAP inference the demo shows "the maximal consistent subset of the
utkg, and displays statistics (e.g., number of noisy facts removed) about the
debugging process", with browsable consistent and conflicting statements
(Figure 8).  :class:`ResolutionResult` is that output as a data structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..kg import TemporalFact, TemporalKnowledgeGraph
from ..logic import ConflictTable
from ..solvers import MAPSolution, SolverStats


@dataclass(frozen=True, slots=True)
class ResolutionStatistics:
    """The numbers shown in the demo's statistics panel."""

    input_facts: int
    consistent_facts: int
    removed_facts: int
    inferred_facts: int
    conflicting_facts: int
    violations: int
    hard_violations: int
    soft_violations: int
    objective: float
    runtime_seconds: float
    solver: str
    ground_atoms: int
    ground_clauses: int
    threshold: float | None = None
    inferred_below_threshold: int = 0

    @property
    def removal_rate(self) -> float:
        """Fraction of input facts removed by the repair."""
        return self.removed_facts / self.input_facts if self.input_facts else 0.0

    @property
    def conflict_rate(self) -> float:
        """Fraction of input facts involved in at least one conflict."""
        return self.conflicting_facts / self.input_facts if self.input_facts else 0.0

    def as_dict(self) -> dict[str, Any]:
        return {
            "input_facts": self.input_facts,
            "consistent_facts": self.consistent_facts,
            "removed_facts": self.removed_facts,
            "inferred_facts": self.inferred_facts,
            "conflicting_facts": self.conflicting_facts,
            "violations": self.violations,
            "hard_violations": self.hard_violations,
            "soft_violations": self.soft_violations,
            "objective": self.objective,
            "runtime_seconds": self.runtime_seconds,
            "solver": self.solver,
            "ground_atoms": self.ground_atoms,
            "ground_clauses": self.ground_clauses,
            "removal_rate": self.removal_rate,
            "conflict_rate": self.conflict_rate,
            "threshold": self.threshold,
            "inferred_below_threshold": self.inferred_below_threshold,
        }


def conflict_statistics(conflicts: ConflictTable) -> dict[str, int]:
    """The :class:`ResolutionStatistics` conflict counters of a result's violations."""
    hard = conflicts.hard_count
    return {
        "conflicting_facts": len(conflicts.facts),
        "violations": len(conflicts),
        "hard_violations": hard,
        "soft_violations": len(conflicts) - hard,
    }


@dataclass(frozen=True, slots=True)
class DeltaStatistics:
    """What one incremental :meth:`ResolutionSession.apply` step did.

    The serving counters of the incremental engine: how big the edit was,
    how much of the ground program it touched, and how much of the MAP solve
    the component cache avoided.
    """

    facts_added: int = 0
    facts_removed: int = 0
    facts_updated: int = 0
    clauses_added: int = 0
    clauses_retracted: int = 0
    components_total: int = 0
    components_dirty: int = 0
    components_cached: int = 0
    warm_started: int = 0
    grounding_seconds: float = 0.0
    solve_seconds: float = 0.0

    @property
    def facts_changed(self) -> int:
        """Total number of evidence statements touched by the edit."""
        return self.facts_added + self.facts_removed + self.facts_updated

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of components answered from the solution cache."""
        if not self.components_total:
            return 0.0
        return self.components_cached / self.components_total

    def as_dict(self) -> dict[str, Any]:
        return {
            "facts_added": self.facts_added,
            "facts_removed": self.facts_removed,
            "facts_updated": self.facts_updated,
            "facts_changed": self.facts_changed,
            "clauses_added": self.clauses_added,
            "clauses_retracted": self.clauses_retracted,
            "components_total": self.components_total,
            "components_dirty": self.components_dirty,
            "components_cached": self.components_cached,
            "cache_hit_rate": self.cache_hit_rate,
            "warm_started": self.warm_started,
            "grounding_seconds": self.grounding_seconds,
            "solve_seconds": self.solve_seconds,
        }


@dataclass(frozen=True)
class ResolutionResult:
    """Everything produced by one TeCoRe resolution run.

    Attributes
    ----------
    input_graph:
        The UTKG handed to :meth:`TeCoRe.resolve`.
    consistent_graph:
        The most probable conflict-free subset of the input (evidence facts
        kept by the MAP state).
    expanded_graph:
        ``consistent_graph`` plus the inferred facts the MAP state accepted
        (after threshold filtering) — the paper's G\\ :sub:`inferred`.
    removed_facts / inferred_facts:
        Evidence facts dropped, and derived facts added, by the MAP state.
    violations / conflicting_facts:
        The grounded constraint violations found in the *input* (a read-only
        :class:`~repro.logic.ConflictTable`, whose objects are built when it
        is first read) and the distinct input facts participating in them
        (Figure 8's counters).
    solution:
        The raw MAP solution (assignment, objective, solver statistics).
    statistics:
        Aggregated numbers for the statistics panel.
    delta:
        For results produced by an incremental
        :class:`~repro.core.session.ResolutionSession`, the edit and cache
        statistics of the step that produced this result; ``None`` for
        one-shot resolutions.
    """

    input_graph: TemporalKnowledgeGraph
    consistent_graph: TemporalKnowledgeGraph
    expanded_graph: TemporalKnowledgeGraph
    removed_facts: tuple[TemporalFact, ...]
    inferred_facts: tuple[TemporalFact, ...]
    violations: ConflictTable
    conflicting_facts: tuple[TemporalFact, ...]
    solution: MAPSolution
    statistics: ResolutionStatistics
    inferred_below_threshold: tuple[TemporalFact, ...] = field(default_factory=tuple)
    delta: DeltaStatistics | None = None

    # ------------------------------------------------------------------ #
    # Convenience accessors
    # ------------------------------------------------------------------ #
    @property
    def solver_stats(self) -> SolverStats:
        return self.solution.stats

    @property
    def objective(self) -> float:
        return self.solution.objective

    def kept(self, fact: TemporalFact) -> bool:
        """True when ``fact`` (an input fact) survived the repair."""
        return fact in self.consistent_graph

    def removed(self, fact: TemporalFact) -> bool:
        """True when ``fact`` was removed by the repair."""
        removed_keys = {removed.statement_key for removed in self.removed_facts}
        return fact.statement_key in removed_keys

    def violations_by_constraint(self) -> dict[str, int]:
        """Number of grounded violations per constraint name."""
        return self.violations.by_constraint()

    def as_dict(self) -> dict[str, Any]:
        """JSON-friendly summary (used by the CLI and benchmark harnesses)."""
        summary = {
            "graph": self.input_graph.name,
            "statistics": self.statistics.as_dict(),
            "violations_by_constraint": self.violations_by_constraint(),
            "removed_facts": [str(fact) for fact in self.removed_facts],
            "inferred_facts": [str(fact) for fact in self.inferred_facts],
        }
        if self.delta is not None:
            summary["delta"] = self.delta.as_dict()
        return summary


@dataclass(frozen=True)
class BatchResolution:
    """Results of resolving many UTKGs with one shared translator/solver.

    Produced by :meth:`repro.core.TeCoRe.resolve_batch` — the heavy-traffic
    serving shape, where the rule/constraint program and the solver back-end
    are built once and reused for every incoming graph.

    Attributes
    ----------
    results:
        One :class:`ResolutionResult` per input graph, in input order.
    runtime_seconds:
        Wall-clock time for the whole batch (shared setup included).
    """

    results: tuple[ResolutionResult, ...]
    runtime_seconds: float

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    def __getitem__(self, index: int) -> ResolutionResult:
        return self.results[index]

    # ------------------------------------------------------------------ #
    # Aggregates
    # ------------------------------------------------------------------ #
    @property
    def total_input_facts(self) -> int:
        return sum(result.statistics.input_facts for result in self.results)

    @property
    def total_removed_facts(self) -> int:
        return sum(result.statistics.removed_facts for result in self.results)

    @property
    def total_inferred_facts(self) -> int:
        return sum(result.statistics.inferred_facts for result in self.results)

    @property
    def total_violations(self) -> int:
        return sum(result.statistics.violations for result in self.results)

    @property
    def graphs_per_second(self) -> float:
        """Batch serving throughput (graphs resolved per wall-clock second)."""
        if self.runtime_seconds <= 0:
            return 0.0
        return len(self.results) / self.runtime_seconds

    def as_dict(self) -> dict[str, Any]:
        """JSON-friendly aggregate summary plus per-graph statistics."""
        return {
            "graphs": len(self.results),
            "runtime_seconds": self.runtime_seconds,
            "graphs_per_second": self.graphs_per_second,
            "total_input_facts": self.total_input_facts,
            "total_removed_facts": self.total_removed_facts,
            "total_inferred_facts": self.total_inferred_facts,
            "total_violations": self.total_violations,
            "results": [result.as_dict() for result in self.results],
        }
