"""The TeCoRe facade: temporal conflict resolution end-to-end.

This is the public entry point of the library, mirroring the demo workflow:

1. select a UTKG, a set of temporal inference rules and temporal constraints
   (hand-built, parsed from the Datalog-style syntax, or taken from a
   predefined pack);
2. choose a reasoner — ``"nrockit"`` (MLN, exact, expressive) or ``"npsl"``
   (PSL, scalable) — and optionally a confidence threshold for derived facts;
3. call :meth:`TeCoRe.resolve` to compute the most probable conflict-free and
   expanded temporal KG, together with the debugging statistics the demo's
   result panel displays.

Example
-------
>>> from repro import TeCoRe
>>> from repro.datasets import ranieri_graph
>>> system = TeCoRe.from_pack("running-example", solver="nrockit")
>>> result = system.resolve(ranieri_graph())
>>> [str(fact.object) for fact in result.removed_facts]
['Napoli']
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Sequence

from ..errors import ProgramLintError
from ..kg import TemporalKnowledgeGraph
from ..logic import DEFAULT_ENGINE, TemporalConstraint, TemporalRule, load_pack, parse_program
from ..solvers import MAPSolution
from .registry import available_solvers, make_solver
from .result import (
    BatchResolution,
    ResolutionResult,
    ResolutionStatistics,
    ResultGraphs,
    conflict_statistics,
)
from .threshold import ThresholdFilter
from .translator import TecoreTranslator, TranslatedProgram

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (session ← tecore)
    from .session import ResolutionSession


@dataclass
class TeCoRe:
    """Temporal conflict resolution over uncertain temporal knowledge graphs.

    Parameters
    ----------
    rules, constraints:
        The temporal inference rules and constraints to enforce.
    solver:
        Registered solver name (see :func:`repro.core.registry.available_solvers`).
    threshold:
        Optional confidence threshold for derived facts.
    max_rounds:
        Forward-chaining bound for rule application during grounding.
    solver_options:
        Extra keyword arguments for the solver factory (e.g. ``time_limit``).
    engine:
        Grounding engine: ``"vectorized"`` (columnar numpy joins, the
        default — :data:`~repro.logic.DEFAULT_ENGINE`), ``"indexed"``
        (semi-naive, the differential reference), ``"naive"`` or
        ``"incremental"``.  All produce identical ground programs.
    lint:
        Static-analysis mode for the rule program (see
        :mod:`repro.analysis`): ``"off"`` (default) skips analysis,
        ``"warn"`` emits a Python warning when the analyzer finds problems,
        ``"strict"`` raises :class:`~repro.errors.ProgramLintError` on
        error-severity findings (and warns on warning-severity ones).
        The report is computed once per rule/constraint set and cached.
    """

    rules: list[TemporalRule] = field(default_factory=list)
    constraints: list[TemporalConstraint] = field(default_factory=list)
    solver: str = "nrockit"
    threshold: float | None = None
    max_rounds: int = 5
    solver_options: dict = field(default_factory=dict)
    engine: str = DEFAULT_ENGINE
    lint: str = "off"
    _lint_cache: tuple | None = field(default=None, init=False, repr=False, compare=False)

    # ------------------------------------------------------------------ #
    # Alternative constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_pack(cls, pack_name: str, solver: str = "nrockit", **kwargs) -> "TeCoRe":
        """Build a system from a predefined rule/constraint pack."""
        pack = load_pack(pack_name)
        return cls(
            rules=list(pack.rules),
            constraints=list(pack.constraints),
            solver=solver,
            **kwargs,
        )

    @classmethod
    def from_text(cls, program_text: str, solver: str = "nrockit", **kwargs) -> "TeCoRe":
        """Build a system from Datalog-style rule/constraint text."""
        parsed = parse_program(program_text)
        return cls(
            rules=list(parsed.rules),
            constraints=list(parsed.constraints),
            solver=solver,
            **kwargs,
        )

    # ------------------------------------------------------------------ #
    # Configuration helpers
    # ------------------------------------------------------------------ #
    def add_rule(self, rule: TemporalRule) -> "TeCoRe":
        self.rules.append(rule)
        return self

    def add_constraint(self, constraint: TemporalConstraint) -> "TeCoRe":
        self.constraints.append(constraint)
        return self

    def with_solver(self, solver: str, **options) -> "TeCoRe":
        """Copy of this system targeting a different solver.

        The new back-end gets exactly ``options`` (its defaults when none
        are given): options of the old back-end are not carried over.
        """
        return TeCoRe(
            rules=list(self.rules),
            constraints=list(self.constraints),
            solver=solver,
            threshold=self.threshold,
            max_rounds=self.max_rounds,
            solver_options=options,
            engine=self.engine,
            lint=self.lint,
        )

    @staticmethod
    def available_solvers() -> list[str]:
        return available_solvers()

    # ------------------------------------------------------------------ #
    # Static analysis
    # ------------------------------------------------------------------ #
    def lint_report(self, graph: TemporalKnowledgeGraph | None = None):
        """The static analyzer's :class:`~repro.analysis.LintReport`.

        Graph-independent reports (``graph=None``) are cached per
        rule/constraint set; passing a graph additionally enables the
        unknown-predicate and grounding-estimate checks.
        """
        translator = TecoreTranslator(max_rounds=self.max_rounds, engine=self.engine)
        if graph is not None:
            return translator.lint_program(self.rules, self.constraints, graph)
        key = (tuple(self.rules), tuple(self.constraints))
        if self._lint_cache is None or self._lint_cache[0] != key:
            report = translator.lint_program(self.rules, self.constraints)
            self._lint_cache = (key, report)
        return self._lint_cache[1]

    def _enforce_lint(self) -> None:
        """Apply the configured ``lint`` mode (called before translation)."""
        if self.lint == "off":
            return
        if self.lint not in ("warn", "strict"):
            raise ValueError(f"unknown lint mode {self.lint!r} (off/warn/strict)")
        report = self.lint_report()
        if not report.findings:
            return
        if self.lint == "strict" and report.errors:
            raise ProgramLintError(
                "static analysis found "
                f"{len(report.errors)} error(s) in the rule program:\n"
                + report.render(),
                report=report,
            )
        if report.errors or report.warnings:
            warnings.warn(
                f"tecore lint: {report.summary_line()}\n{report.render()}",
                stacklevel=3,
            )

    # ------------------------------------------------------------------ #
    # Main operations
    # ------------------------------------------------------------------ #
    def translate(self, graph: TemporalKnowledgeGraph) -> TranslatedProgram:
        """Ground and validate the inputs for the configured solver."""
        self._enforce_lint()
        translator = TecoreTranslator(max_rounds=self.max_rounds, engine=self.engine)
        return translator.translate(graph, self.rules, self.constraints, solver=self.solver)

    def detect_conflicts(self, graph: TemporalKnowledgeGraph):
        """Constraint violations in ``graph`` (no inference, no repair)."""
        translator = TecoreTranslator(max_rounds=self.max_rounds, engine=self.engine)
        return translator.detect_conflicts(graph, self.constraints).violations

    def expand(self, graph: TemporalKnowledgeGraph) -> TemporalKnowledgeGraph:
        """Apply the inference rules only (no conflict resolution).

        Returns the graph expanded with all derivable facts that pass the
        confidence threshold.
        """
        translated = self.translate(graph)
        expanded = graph.copy(name=f"{graph.name}-expanded")
        threshold_filter = ThresholdFilter(self.threshold)
        for fact in translated.grounding.derived_facts():
            if threshold_filter.accepts(fact):
                expanded.add(fact)
        return expanded

    def resolve(self, graph: TemporalKnowledgeGraph) -> ResolutionResult:
        """Compute the most probable conflict-free (and expanded) temporal KG."""
        started = time.perf_counter()
        translated = self.translate(graph)
        solution = make_solver(self.solver, **self.solver_options).solve(translated.program)
        return self._build_result(graph, translated, solution, started)

    def session(
        self,
        graph: TemporalKnowledgeGraph,
        warm_start: bool = False,
        cache_size: int = 8192,
    ) -> "ResolutionSession":
        """Open a stateful incremental-resolution session on ``graph``.

        The session performs the initial resolve immediately (available as
        ``session.result``); subsequent edits go through
        :meth:`~repro.core.session.ResolutionSession.apply`, which re-grounds
        only the delta and re-solves only the dirty components of the ground
        program.  ``warm_start`` seeds dirty-component solves from the
        previous solution on back-ends that support it (``npsl``'s ADMM;
        ``nrockit`` ignores it); ``cache_size`` bounds the component solution
        cache.
        """
        from .session import ResolutionSession

        return ResolutionSession(self, graph, warm_start=warm_start, cache_size=cache_size)

    def shared_resolver(self) -> "SharedResolver":
        """A reusable translate-and-solve pipeline for serving.

        The returned :class:`SharedResolver` holds one translator (with its
        cached expressivity probe) and one solver back-end for this system's
        configuration, so each call only pays for its own grounding and MAP
        solve.  It is **not thread-safe**: confine each instance to a single
        thread (the serving micro-batcher runs one on its flush worker) or
        guard it externally.
        """
        return SharedResolver(self)

    def resolve_batch(
        self,
        graphs: Iterable[TemporalKnowledgeGraph],
        incremental: bool = False,
    ) -> BatchResolution:
        """Resolve many UTKGs, reusing the translated program template and solver.

        This is the heavy-traffic serving shape: the rule/constraint program,
        the translator (with its cached expressivity probe), and the solver
        back-end are constructed once (one :class:`SharedResolver`), and each
        incoming graph only pays for its own (columnar) grounding and MAP
        solve.  Results come back in input order as a
        :class:`~repro.core.result.BatchResolution`.

        With ``incremental=True`` the batch is served by one
        :class:`~repro.core.session.ResolutionSession`: each graph after the
        first is *diffed* against the previous one and applied as an edit, so
        near-duplicate graphs (the common case in tenant fan-out and replayed
        debugging sessions) only pay for the facts that actually differ.
        The edit leaves the session graph with the incoming graph's facts in
        the incoming order, since evidence order decides exact ties.  A
        session's result equals :class:`~repro.solvers.DecomposedSolver`
        over the translated program; for ``nrockit``, whose answers depend
        only on component content, that is the one-shot resolve bit for bit.
        ``npsl``'s ADMM stops per component there, so its answers may differ
        from a monolithic solve's.
        """
        if incremental:
            return self._resolve_batch_incremental(graphs)
        return self.shared_resolver().resolve_many(graphs)

    def _resolve_batch_incremental(
        self, graphs: Iterable[TemporalKnowledgeGraph]
    ) -> BatchResolution:
        """Serve a batch through one session, diffing consecutive graphs.

        The session keeps the longest prefix of the incoming graph that it
        holds in the same relative order and at the same confidence, removes
        every other fact, and re-adds the incoming tail in order.  An
        append-only next graph costs only its new facts.
        """
        batch_started = time.perf_counter()
        session = None
        results = []
        for graph in graphs:
            if session is None:
                session = self.session(graph)
                results.append(session.result)
                continue
            current = session.graph
            incoming = list(graph)
            kept = 0
            last_tick = -1
            for fact in incoming:
                held = current._facts.get(fact.statement_key)
                if held is None or held.confidence != fact.confidence:
                    break
                tick = current._added_at[fact.statement_key]
                if tick < last_tick:
                    break
                last_tick = tick
                kept += 1
            prefix = {fact.statement_key for fact in incoming[:kept]}
            removes = [fact for fact in current if fact.statement_key not in prefix]
            results.append(
                session.apply(adds=incoming[kept:], removes=removes, graph_name=graph.name)
            )
        return BatchResolution(
            results=tuple(results),
            runtime_seconds=time.perf_counter() - batch_started,
        )

    # ------------------------------------------------------------------ #
    # Result assembly
    # ------------------------------------------------------------------ #
    def _build_result(
        self,
        graph: TemporalKnowledgeGraph,
        translated: TranslatedProgram,
        solution: MAPSolution,
        started: float,
    ) -> ResolutionResult:
        """Assemble the result of one resolve.

        The consistent graph is ``graph`` minus the removed statements, built
        by :meth:`TemporalKnowledgeGraph.without_statements`: the kept facts,
        their order, the domain and the name are those a fact-by-fact filter
        gives, but each kept fact also keeps its insertion tick from
        ``graph`` instead of being re-added.  The violations, their counts
        and the conflicting facts come from the grounding's violation table
        (:meth:`~repro.logic.ViolationTable.conflicts`), which holds no
        reference to the program.
        """
        program = translated.program
        threshold_filter = ThresholdFilter(self.threshold)

        removed = tuple(solution.removed_facts(program))
        consistent = graph.without_statements(
            (fact.statement_key for fact in removed), name=f"{graph.name}-consistent"
        )

        derived_kept = solution.derived_kept_facts(program)
        inferred, below_threshold = threshold_filter.split(derived_kept)
        expanded = consistent.copy(name=f"{graph.name}-inferred")
        expanded.add_all(inferred)

        conflicts = translated.grounding.violations.conflicts()
        runtime = time.perf_counter() - started

        statistics = ResolutionStatistics(
            input_facts=len(graph),
            consistent_facts=len(consistent),
            removed_facts=len(removed),
            inferred_facts=len(inferred),
            **conflict_statistics(conflicts),
            objective=solution.objective,
            runtime_seconds=runtime,
            solver=self.solver,
            ground_atoms=program.num_atoms,
            ground_clauses=program.num_clauses,
            threshold=self.threshold,
            inferred_below_threshold=len(below_threshold),
        )
        return ResolutionResult(
            removed_facts=removed,
            inferred_facts=tuple(inferred),
            solution=solution,
            statistics=statistics,
            graphs=ResultGraphs(graph, consistent, expanded, conflicts),
            inferred_below_threshold=tuple(below_threshold),
        )


class SharedResolver:
    """One translator + one solver back-end, reused across many resolves.

    The per-request serving pipeline of :meth:`TeCoRe.resolve_batch` and of
    the ``tecore serve`` micro-batcher: the rule/constraint tuples, the
    translator, and the back-end are built once, and :meth:`resolve` is then
    bit-identical to :meth:`TeCoRe.resolve` for every graph — the translator
    is stateless across graphs and every registered back-end re-seeds per
    solve.

    **Thread confinement:** instances are not thread-safe (some back-ends
    keep per-solve scratch state).  Use one instance per thread, or
    serialise calls — the serving layer funnels all traffic through the
    micro-batcher's single flush worker.
    """

    def __init__(self, system: TeCoRe) -> None:
        self._system = system
        system._enforce_lint()
        self._translator = TecoreTranslator(max_rounds=system.max_rounds, engine=system.engine)
        self._rules = tuple(system.rules)
        self._constraints = tuple(system.constraints)
        self._backend = make_solver(system.solver, **system.solver_options)
        #: Number of graphs resolved through this pipeline (serving counter).
        self.resolves = 0

    @property
    def solver(self) -> str:
        return self._system.solver

    def resolve(self, graph: TemporalKnowledgeGraph) -> ResolutionResult:
        """Resolve one graph through the shared pipeline."""
        started = time.perf_counter()
        translated = self._translator.translate(
            graph, self._rules, self._constraints, solver=self._system.solver
        )
        solution = self._backend.solve(translated.program)
        self.resolves += 1
        return self._system._build_result(graph, translated, solution, started)

    def resolve_many(self, graphs: Iterable[TemporalKnowledgeGraph]) -> BatchResolution:
        """Resolve graphs in order, as one :class:`BatchResolution`."""
        batch_started = time.perf_counter()
        results = tuple(self.resolve(graph) for graph in graphs)
        return BatchResolution(
            results=results,
            runtime_seconds=time.perf_counter() - batch_started,
        )


# --------------------------------------------------------------------------- #
# Module-level convenience functions
# --------------------------------------------------------------------------- #
def resolve(
    graph: TemporalKnowledgeGraph,
    rules: Iterable[TemporalRule] = (),
    constraints: Iterable[TemporalConstraint] = (),
    solver: str = "nrockit",
    threshold: float | None = None,
    **solver_options,
) -> ResolutionResult:
    """One-shot conflict resolution without building a :class:`TeCoRe` object."""
    system = TeCoRe(
        rules=list(rules),
        constraints=list(constraints),
        solver=solver,
        threshold=threshold,
        solver_options=solver_options,
    )
    return system.resolve(graph)


def resolve_batch(
    graphs: Iterable[TemporalKnowledgeGraph],
    rules: Iterable[TemporalRule] = (),
    constraints: Iterable[TemporalConstraint] = (),
    solver: str = "nrockit",
    threshold: float | None = None,
    incremental: bool = False,
    **solver_options,
) -> BatchResolution:
    """One-shot batched conflict resolution over many graphs."""
    system = TeCoRe(
        rules=list(rules),
        constraints=list(constraints),
        solver=solver,
        threshold=threshold,
        solver_options=solver_options,
    )
    return system.resolve_batch(graphs, incremental=incremental)


def detect_conflicts(
    graph: TemporalKnowledgeGraph,
    constraints: Iterable[TemporalConstraint],
) -> Sequence:
    """One-shot conflict detection (the Figure 8 counters)."""
    system = TeCoRe(constraints=list(constraints))
    return system.detect_conflicts(graph)
