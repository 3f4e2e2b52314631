"""Stateful incremental resolution: sessions over an evolving UTKG.

A :class:`ResolutionSession` is the serving shape of the paper's iterative
debugging loop: resolve once, then fold streams of fact insertions and
retractions into the state and re-resolve at a cost proportional to the
*change*, not the graph.  Three layers cooperate:

1. :class:`~repro.logic.incremental.IncrementalGrounder` maintains the match
   state of the ground program under the edits (delta joins for insertions,
   support-set retraction for removals) and exposes it as an
   :class:`~repro.logic.incremental.EmissionPlan` — the program in semantic
   form, ordered exactly as a from-scratch grounding would emit it.
2. A **component-level solution cache**: the plan is split into the
   connected components of its interaction graph *at the statement-key
   level*, so untouched components are recognised — and their cached
   :class:`~repro.solvers.MAPSolution` returned verbatim — without ever
   materialising their clauses.  Only *dirty* components are built as real
   sub-programs (bit-identical to the slices
   :func:`repro.logic.decompose.decompose` would produce) and re-solved, all
   in one :meth:`~repro.solvers.MAPSolver.solve_components` call.
   The merged objective is evaluated by one arithmetic walk over the plan in
   global clause order, reproducing ``GroundProgram.objective`` float-for-
   float — so the merged solution is bit-identical to
   :class:`~repro.solvers.DecomposedSolver` over a from-scratch translation.
3. Optional **warm starts**: dirty components can seed the back-end with the
   previous solution's truth values (restricted to the component's atoms by
   statement key) when the back-end advertises
   :attr:`~repro.solvers.MAPSolver.supports_warm_start` — the previous
   assignment for MaxWalkSAT, an incumbent for branch & bound, the initial
   consensus vector for ADMM.

Sessions are created through :meth:`repro.core.tecore.TeCoRe.session`;
``tecore watch`` drives one from a change-stream file, and
``TeCoRe.resolve_batch(..., incremental=True)`` diffs consecutive graphs
into session edits.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import replace
from typing import TYPE_CHECKING, Iterable, Optional

from ..kg import TemporalKnowledgeGraph
from ..kg.triple import FactLike
from ..logic.decompose import _UnionFind
from ..logic.ground import ClauseKind, GroundProgram, nonzero_weight
from ..logic.grounding import ConflictTable
from ..logic.incremental import EmissionPlan, GroundingDelta, IncrementalGrounder
from ..solvers import MAPSolution, SolverStats
from .registry import make_solver, solver_capabilities, solver_family
from .result import (
    DeltaStatistics,
    ResolutionResult,
    ResolutionStatistics,
    conflict_statistics,
)
from .threshold import ThresholdFilter

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (tecore ← session)
    from .tecore import TeCoRe


class ComponentSolutionCache:
    """Bounded LRU cache from component content keys to MAP solutions."""

    def __init__(self, max_entries: int = 8192) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self._entries: "OrderedDict[tuple, MAPSolution]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: tuple) -> Optional[MAPSolution]:
        solution = self._entries.get(key)
        if solution is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return solution

    def put(self, key: tuple, solution: MAPSolution) -> None:
        self._entries[key] = solution
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        """Drop all entries and reset the hit/miss statistics.

        The statistics are surfaced by ``tecore watch`` summaries and the
        serving ``/stats`` endpoint; a reset must not leak counters from the
        previous generation.
        """
        self._entries.clear()
        self.hits = 0
        self.misses = 0


class _Component:
    """One connected component of the plan's interaction graph (semantic)."""

    __slots__ = ("atom_indices", "firings", "violations", "key")

    def __init__(self) -> None:
        self.atom_indices: list[int] = []
        self.firings: list = []  # (record, emit_prior) pairs, global order
        self.violations: list = []  # records, global order
        self.key: tuple = ()


def component_content_key(program: GroundProgram) -> tuple:
    """Order-sensitive content identity of a materialised (sub-)program.

    Used by the degraded session path (and tests); the fast path computes
    the equivalent identity from the emission plan without building clauses.
    A key collision implies content equality, which is what makes returning
    a cached solution for it sound.
    """
    return (
        tuple(
            (atom.fact.statement_key, atom.is_evidence, atom.derived_by, atom.fact.confidence)
            for atom in program.atoms
        ),
        tuple(
            (clause.literals, clause.weight, clause.kind.value, clause.origin)
            for clause in program.clauses
        ),
    )


class ResolutionSession:
    """A stateful resolve-apply-resolve loop over one evolving UTKG.

    Parameters
    ----------
    system:
        The configured :class:`~repro.core.tecore.TeCoRe` facade providing
        rules, constraints, solver name/options, threshold, and max_rounds.
    graph:
        The initial evidence graph (copied; the caller's graph is never
        mutated by the session).
    warm_start:
        Seed dirty-component solves with the previous solution's truth
        values when the back-end supports it.  Off by default: warm starts
        keep exact back-ends exact but can steer *anytime* back-ends to a
        different (usually better) local optimum than a cold solve, which
        breaks bit-for-bit reproducibility against one-shot resolution.
    cache_size:
        Maximum number of component solutions kept in the LRU cache.

    Attributes
    ----------
    result:
        The most recent :class:`~repro.core.result.ResolutionResult` (the
        initial resolve right after construction).
    """

    def __init__(
        self,
        system: "TeCoRe",
        graph: TemporalKnowledgeGraph,
        warm_start: bool = False,
        cache_size: int = 8192,
    ) -> None:
        self._system = system
        self.warm_start = warm_start
        #: Concurrency seam: a session is single-writer — the grounder's
        #: match state, the solution cache, and ``result`` all mutate on
        #: :meth:`apply`.  Concurrent callers (the serving session pool)
        #: must hold this lock around ``apply``/``result`` accesses; direct
        #: single-threaded use can ignore it.
        self.lock = threading.RLock()
        self._grounder = IncrementalGrounder(
            graph,
            rules=tuple(system.rules),
            constraints=tuple(system.constraints),
            max_rounds=system.max_rounds,
        )
        self._solver = make_solver(system.solver, **system.solver_options)
        # Resolving the capability probe keeps parity with the translator's
        # expressivity verification.  The grounding engines only ever emit
        # clauses with at most one positive literal (evidence/prior units,
        # denial constraints, single-head rule clauses), which every
        # registered family accepts, so no per-apply structural check is
        # needed on the fast path.
        self._capabilities = solver_capabilities(system.solver)
        self._family = solver_family(system.solver)
        self._threshold = ThresholdFilter(system.threshold)
        self.cache = ComponentSolutionCache(max_entries=cache_size)
        self._previous_truth: dict[tuple, float] = {}
        self._previous_clauses: set = set()
        self.steps = 0
        self.result = self._resolve(GroundingDelta())

    # ------------------------------------------------------------------ #
    @property
    def graph(self) -> TemporalKnowledgeGraph:
        """The session's current evidence graph (treat as read-only; use
        :meth:`apply` to mutate)."""
        return self._grounder.graph

    def apply(
        self,
        adds: Iterable[FactLike] = (),
        removes: Iterable[FactLike] = (),
        graph_name: str | None = None,
    ) -> ResolutionResult:
        """Fold an edit into the session and re-resolve incrementally.

        ``removes`` are applied before ``adds``.  Returns the new
        :class:`ResolutionResult` with :attr:`ResolutionResult.delta`
        populated; a no-op edit returns the previous result (with fresh,
        all-zero delta statistics) without re-grounding or re-solving.
        """
        grounding_delta = self._grounder.apply(adds=adds, removes=removes)
        if graph_name is not None:
            self._grounder.graph.name = graph_name
        if grounding_delta.is_empty:
            result = replace(self.result, delta=DeltaStatistics())
            if graph_name is not None and result.input_graph.name != graph_name:
                result = replace(result, input_graph=result.input_graph.copy(name=graph_name))
            self.result = result
            return self.result
        self.result = self._resolve(grounding_delta)
        return self.result

    # ------------------------------------------------------------------ #
    # Resolution over the emission plan
    # ------------------------------------------------------------------ #
    def _resolve(self, grounding_delta: GroundingDelta) -> ResolutionResult:
        started = time.perf_counter()
        grounder = self._grounder
        if not grounder.saturated:
            # Degraded mode (rule set outran the maintained fix point):
            # materialise the whole program and treat it as one dirty
            # component — correct, but without the incremental savings.
            return self._resolve_degraded(grounding_delta, started)

        plan = grounder.emit_plan()
        grounding_seconds = time.perf_counter() - started
        solve_started = time.perf_counter()

        components, unconstrained = self._split_components(plan)
        num_atoms = plan.num_atoms
        assignment = [False] * num_atoms
        truth_values = [0.0] * num_atoms
        warm_started = 0
        runtime_sum = 0.0
        iterations_sum = 0
        all_optimal = True
        inner_name = self._solver.name
        solutions = [self.cache.get(component.key) for component in components]
        misses = [index for index, solution in enumerate(solutions) if solution is None]
        if misses:
            subprograms = [self._materialise(plan, components[index]) for index in misses]
            if self._warm_starts():
                solved = [self._solve_warm(subprogram) for subprogram in subprograms]
                warm_started = len(solved)
            else:
                # All cache misses in one call: a batching back-end pays its
                # fixed cost once per apply.
                solved = self._solver.solve_components(subprograms)
            for index, solution in zip(misses, solved):
                solutions[index] = solution
                self.cache.put(components[index].key, solution)
                # Only work actually performed this step counts as runtime
                # (cached solutions carry their historical solve stats);
                # the solutions of one call share its runtime.
                runtime_sum += solution.stats.runtime_seconds
                iterations_sum += solution.stats.iterations
        dirty = len(misses)
        cached = len(components) - dirty
        for component, solution in zip(components, solutions):
            soft = solution.truth_values or tuple(
                1.0 if value else 0.0 for value in solution.assignment
            )
            for local, global_index in enumerate(component.atom_indices):
                assignment[global_index] = solution.assignment[local]
                truth_values[global_index] = soft[local]
            all_optimal = all_optimal and solution.stats.optimal
        for global_index in unconstrained:
            keep = plan.atoms[global_index].fact.log_weight > 0
            assignment[global_index] = keep
            truth_values[global_index] = 1.0 if keep else 0.0

        objective = self._objective(plan, assignment)
        solve_seconds = time.perf_counter() - solve_started

        stats = SolverStats(
            # Mirror DecomposedSolver: a trivial decomposition is a bypass.
            solver=inner_name if len(components) <= 1 and not unconstrained
            else f"decomposed({inner_name})",
            runtime_seconds=runtime_sum,
            iterations=iterations_sum,
            atoms=num_atoms,
            clauses=plan.num_clauses,
            optimal=all_optimal if components else True,
            extra=(
                ("components", float(len(components))),
                ("components_cached", float(cached)),
                ("unconstrained_atoms", float(len(unconstrained))),
            ),
        )
        solution = MAPSolution(
            assignment=tuple(assignment),
            objective=objective,
            stats=stats,
            truth_values=tuple(truth_values),
        )

        self._previous_truth = {
            atom.fact.statement_key: truth_values[atom.index] for atom in plan.atoms
        }
        clause_ids = self._clause_identities(plan)
        delta = DeltaStatistics(
            facts_added=grounding_delta.facts_added,
            facts_removed=grounding_delta.facts_removed,
            facts_updated=grounding_delta.facts_updated,
            clauses_added=len(clause_ids - self._previous_clauses),
            clauses_retracted=len(self._previous_clauses - clause_ids),
            components_total=len(components),
            components_dirty=dirty,
            components_cached=cached,
            warm_started=warm_started,
            grounding_seconds=grounding_seconds,
            solve_seconds=solve_seconds,
        )
        self._previous_clauses = clause_ids
        self.steps += 1
        return self._assemble_result(plan, solution, delta, started)

    # ------------------------------------------------------------------ #
    def _split_components(self, plan: EmissionPlan):
        """Connected components of the plan's interaction graph, keyed.

        Mirrors :func:`repro.logic.decompose.decompose` — components ordered
        by smallest atom index, atoms ascending, per-component clause lists
        in global emission order — but works entirely on statement keys and
        maintained records, so clean components cost a few appends each.
        """
        num_atoms = plan.num_atoms
        atom_index = plan.atom_index
        union_find = _UnionFind(num_atoms)
        in_clause = [False] * num_atoms
        # Evidence unit clauses.
        for index in range(plan.evidence_count):
            in_clause[index] = True
        # Rule clauses (and their derived-prior units) couple body and head.
        for record, _ in plan.firings:
            head = atom_index[record.head_key]
            in_clause[head] = True
            for key in record.body_keys:
                body = atom_index[key]
                in_clause[body] = True
                union_find.union(head, body)
        # Constraint clauses couple their conflict sets.
        for record in plan.violations:
            first = atom_index[record.fact_keys[0]]
            in_clause[first] = True
            for key in record.fact_keys[1:]:
                other = atom_index[key]
                in_clause[other] = True
                union_find.union(first, other)

        find = union_find.find
        components: dict[int, _Component] = {}
        unconstrained: list[int] = []
        for index in range(num_atoms):
            if not in_clause[index]:
                unconstrained.append(index)
                continue
            root = find(index)
            component = components.get(root)
            if component is None:
                component = components[root] = _Component()
            component.atom_indices.append(index)
        for item in plan.firings:
            components[find(atom_index[item[0].head_key])].firings.append(item)
        for record in plan.violations:
            components[find(atom_index[record.fact_keys[0]])].violations.append(record)

        atoms = plan.atoms
        ordered = list(components.values())
        for component in ordered:
            atom_entries = tuple(
                (
                    atoms[index].fact.statement_key,
                    atoms[index].is_evidence,
                    atoms[index].derived_by,
                    atoms[index].fact.confidence,
                )
                for index in component.atom_indices
            )
            component.key = (
                atom_entries,
                tuple(record.signature for record, _ in component.firings),
                tuple(record.signature for record in component.violations),
            )
        return ordered, unconstrained

    def _materialise(self, plan: EmissionPlan, component: _Component) -> GroundProgram:
        """Build one component's sub-program, identical to a decompose slice."""
        grounder = self._grounder
        sub = GroundProgram()
        local = {}
        atoms = plan.atoms
        for global_index in component.atom_indices:
            atom = atoms[global_index]
            local[global_index] = sub.add_atom(atom.fact, atom.is_evidence, atom.derived_by).index
        for global_index in component.atom_indices:
            atom = atoms[global_index]
            if atom.is_evidence:
                sub.add_clause(
                    [(local[global_index], True)],
                    weight=atom.fact.log_weight + grounder.keep_bias,
                    kind=ClauseKind.EVIDENCE,
                    origin="evidence",
                )
        atom_index = plan.atom_index
        for record, emit_prior in component.firings:
            rule = grounder.rules[record.rule_index]
            head = local[atom_index[record.head_key]]
            if emit_prior:
                sub.add_clause(
                    [(head, True)],
                    weight=-grounder.derived_prior,
                    kind=ClauseKind.PRIOR,
                    origin=f"prior:{record.rule_name}",
                )
            literals = [(local[atom_index[key]], False) for key in record.body_keys]
            literals.append((head, True))
            sub.add_clause(
                literals, weight=rule.weight, kind=ClauseKind.RULE, origin=record.rule_name
            )
        for record in component.violations:
            constraint = grounder.constraints[record.constraint_index]
            sub.add_clause(
                [(local[atom_index[key]], False) for key in record.fact_keys],
                weight=constraint.weight,
                kind=ClauseKind.CONSTRAINT,
                origin=constraint.name,
            )
        return sub

    def _objective(self, plan: EmissionPlan, assignment: list[bool]) -> float:
        """Satisfied soft weight, accumulated in global clause order.

        Reproduces ``GroundProgram.objective`` on the materialised program
        float-for-float: same clause order, same left-to-right summation,
        same weight normalisation (negative unit clauses flip their literal,
        zero weights get :data:`~repro.logic.ground.ZERO_WEIGHT_EPSILON` via
        :func:`~repro.logic.ground.nonzero_weight`).
        """
        grounder = self._grounder
        atom_index = plan.atom_index
        atoms = plan.atoms
        keep_bias = grounder.keep_bias
        derived_prior = grounder.derived_prior
        total = 0.0
        for index in range(plan.evidence_count):
            weight = atoms[index].fact.log_weight + keep_bias
            if weight < 0:
                if not assignment[index]:
                    total += -weight
            elif assignment[index]:
                total += nonzero_weight(weight)
        for record, emit_prior in plan.firings:
            head = atom_index[record.head_key]
            if emit_prior and not assignment[head]:
                total += derived_prior  # the prior unit clause, flipped
            weight = grounder.rules[record.rule_index].weight
            if weight is None:
                continue
            if assignment[head] or any(not assignment[atom_index[key]] for key in record.body_keys):
                total += nonzero_weight(weight)
        for record in plan.violations:
            weight = grounder.constraints[record.constraint_index].weight
            if weight is None:
                continue
            if any(not assignment[atom_index[key]] for key in record.fact_keys):
                total += nonzero_weight(weight)
        return total

    def _clause_identities(self, plan: EmissionPlan) -> set:
        """Content identities of the emitted clauses (for delta statistics)."""
        identities: set = set()
        for index in range(plan.evidence_count):
            fact = plan.atoms[index].fact
            identities.add(("evidence", fact.statement_key, fact.confidence))
        for record, emit_prior in plan.firings:
            identities.add(record.signature)
            if emit_prior:
                identities.add(("prior", record.head_key, record.rule_name))
        for record in plan.violations:
            identities.add(record.signature)
        return identities

    # ------------------------------------------------------------------ #
    def _warm_starts(self) -> bool:
        """True when dirty components are seeded with the previous truth values."""
        return bool(
            self.warm_start
            and self._previous_truth
            and getattr(self._solver, "supports_warm_start", False)
        )

    def _solve_warm(self, program: GroundProgram) -> MAPSolution:
        """Solve one (sub-)program from the previous solution's truth values."""
        warm = [self._previous_truth.get(atom.fact.statement_key, 1.0) for atom in program.atoms]
        return self._solver.solve(program, warm_start=warm)

    def _resolve_degraded(
        self, grounding_delta: GroundingDelta, started: float
    ) -> ResolutionResult:
        """Correct-but-uncached path used when the rule set never saturates."""
        grounding = self._grounder.ground()
        program = grounding.program
        grounding_seconds = time.perf_counter() - started
        solve_started = time.perf_counter()
        key = component_content_key(program)
        solution = self.cache.get(key)
        dirty = cached = warm_started = 0
        if solution is None:
            if self._warm_starts():
                solution, warm_started = self._solve_warm(program), 1
            else:
                solution = self._solver.solve(program)
            self.cache.put(key, solution)
            dirty = 1
        else:
            cached = 1
        solve_seconds = time.perf_counter() - solve_started
        self._previous_truth = {
            atom.fact.statement_key: (
                solution.truth_values[atom.index]
                if solution.truth_values
                else (1.0 if solution.assignment[atom.index] else 0.0)
            )
            for atom in program.atoms
        }
        delta = DeltaStatistics(
            facts_added=grounding_delta.facts_added,
            facts_removed=grounding_delta.facts_removed,
            facts_updated=grounding_delta.facts_updated,
            components_total=1,
            components_dirty=dirty,
            components_cached=cached,
            warm_started=warm_started,
            grounding_seconds=grounding_seconds,
            solve_seconds=solve_seconds,
        )
        self.steps += 1
        snapshot = self.graph.copy(name=self.graph.name)
        from .translator import TranslatedProgram

        translated = TranslatedProgram(
            solver_name=self._system.solver,
            family=self._family,
            grounding=grounding,
            rules=tuple(self._system.rules),
            constraints=tuple(self._system.constraints),
        )
        result = self._system._build_result(snapshot, translated, solution, started)
        return replace(result, delta=delta)

    # ------------------------------------------------------------------ #
    # Result assembly (mirrors TeCoRe._build_result over the plan)
    # ------------------------------------------------------------------ #
    def _assemble_result(
        self,
        plan: EmissionPlan,
        solution: MAPSolution,
        delta: DeltaStatistics,
        started: float,
    ) -> ResolutionResult:
        grounder = self._grounder
        assignment = solution.assignment
        removed = tuple(
            atom.fact for atom in plan.atoms if atom.is_evidence and not assignment[atom.index]
        )
        snapshot = self.graph.copy(name=self.graph.name)
        consistent = snapshot.without_statements(
            (fact.statement_key for fact in removed),
            name=f"{snapshot.name}-consistent",
        )

        derived_kept = [
            atom.fact for atom in plan.atoms if not atom.is_evidence and assignment[atom.index]
        ]
        inferred, below_threshold = self._threshold.split(derived_kept)
        expanded = consistent.copy(name=f"{snapshot.name}-inferred")
        expanded.add_all(inferred)

        constraints = grounder.constraints
        conflicts = ConflictTable.from_violations(
            (
                constraints[record.constraint_index].name,
                constraints[record.constraint_index].weight,
                grounder.fresh_facts(record.facts),
            )
            for record in plan.violations
        )
        runtime = time.perf_counter() - started

        statistics = ResolutionStatistics(
            input_facts=len(snapshot),
            consistent_facts=len(consistent),
            removed_facts=len(removed),
            inferred_facts=len(inferred),
            **conflict_statistics(conflicts),
            objective=solution.objective,
            runtime_seconds=runtime,
            solver=self._system.solver,
            ground_atoms=plan.num_atoms,
            ground_clauses=plan.num_clauses,
            threshold=self._system.threshold,
            inferred_below_threshold=len(below_threshold),
        )
        return ResolutionResult(
            input_graph=snapshot,
            consistent_graph=consistent,
            expanded_graph=expanded,
            removed_facts=removed,
            inferred_facts=tuple(inferred),
            violations=conflicts,
            conflicting_facts=conflicts.facts,
            solution=solution,
            statistics=statistics,
            inferred_below_threshold=tuple(below_threshold),
            delta=delta,
        )

    # ------------------------------------------------------------------ #
    def state_digest(self) -> tuple:
        """Content identity of the session's evidence graph.

        Two sessions with equal digests hold bit-identical evidence state:
        the resolution result is a pure function of exactly this key plus
        the (fixed) system configuration.  The serializability checker in
        :mod:`repro.verify` uses it to memoise replay states and to label
        divergence points in violation reports.
        """
        return self.graph.content_key()

    def state_summary(self) -> dict[str, int]:
        """Maintained-state and cache sizes (diagnostics)."""
        summary = self._grounder.state_summary()
        summary["cache_entries"] = len(self.cache)
        summary["cache_hits"] = self.cache.hits
        summary["cache_misses"] = self.cache.misses
        summary["steps"] = self.steps
        return summary

    def __repr__(self) -> str:
        return (
            f"ResolutionSession(graph={self.graph.name!r}, facts={len(self.graph)}, "
            f"steps={self.steps}, cache={len(self.cache)})"
        )
