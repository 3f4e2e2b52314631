"""Stateful incremental resolution: sessions over an evolving UTKG.

A :class:`ResolutionSession` is the serving shape of the paper's iterative
debugging loop: resolve once, then fold streams of fact insertions and
retractions into the state and re-resolve at a cost proportional to the
*change*, not the graph.  Four layers cooperate:

1. :class:`~repro.logic.incremental.IncrementalGrounder` maintains the match
   state of the ground program under the edits (delta joins for insertions,
   support-set retraction for removals) split into connected components,
   and names the components each edit dirtied and retired.
2. Only dirty components are re-emitted
   (:meth:`~repro.logic.incremental.IncrementalGrounder.emit_component`),
   split into *solver components* (connected components of the emitted
   clauses) and keyed by content.  A **component-level solution cache**
   answers the keys it has seen; the misses are built as real sub-programs
   (bit-identical to the slices :func:`repro.logic.decompose.decompose`
   would produce) and solved in one
   :meth:`~repro.solvers.MAPSolver.solve_components` call.  Every clean
   component keeps what the last apply computed for it: its share of the
   assignment and truth values, its exact objective partial, its clause
   identities and its conflict counts.
3. The objective is the correctly rounded exact sum of the satisfied soft
   weights, as :meth:`~repro.logic.ground.GroundProgram.objective` defines
   it.  Each component keeps its partial exactly, as an integer count of
   ``2**-1074`` (:func:`~repro.logic.ground.exact_units`), and the session
   rounds the running total once, so no step needs global clause order and
   the merged solution is bit-identical to
   :class:`~repro.solvers.DecomposedSolver` over a from-scratch translation.
4. Result graphs and the conflict table are built on first read from an
   immutable capture taken at the apply; the statistics are eager, from
   counters maintained per component.  Only plain list work stays
   proportional to the graph: the assignment in global atom order and the
   removed and inferred facts in order.

Optional **warm starts** seed dirty components with the previous solution's
truth values (restricted to the component's atoms by statement key) when the
back-end advertises :attr:`~repro.solvers.MAPSolver.supports_warm_start`:
``npsl`` starts ADMM from them as its consensus vector.  ``nrockit`` does
not, so its sessions ignore the flag.

Sessions are created through :meth:`repro.core.tecore.TeCoRe.session`;
``tecore watch`` drives one from a change-stream file, and
``TeCoRe.resolve_batch(..., incremental=True)`` diffs consecutive graphs
into session edits.
"""

from __future__ import annotations

import copy
import threading
import time
from bisect import bisect_left, insort
from collections import OrderedDict
from dataclasses import replace
from itertools import chain, compress, islice
from operator import itemgetter, not_
from typing import TYPE_CHECKING, Iterable, Optional

from ..kg import TemporalFact, TemporalKnowledgeGraph
from ..kg.triple import FactLike
from ..logic.decompose import _UnionFind
from ..logic.ground import ClauseKind, GroundProgram, exact_units, units_to_float
from ..logic.grounding import ConflictTable
from ..logic.incremental import (
    ComponentEmission,
    GroundingDelta,
    IncrementalGrounder,
    MaintainedComponent,
    _FiringRecord,
    _ViolationRecord,
    violation_order,
)
from ..solvers import MAPSolution, SolverStats
from .registry import make_solver, solver_capabilities, solver_family
from .result import (
    DeltaStatistics,
    ResolutionResult,
    ResolutionStatistics,
    ResultGraphs,
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


def component_content_key(program: GroundProgram) -> tuple:
    """Order-sensitive content identity of a materialised (sub-)program.

    Used by the degraded session path (and tests); the fast path computes
    the equivalent identity from a component's emission without building
    clauses (:meth:`ResolutionSession._emit`).
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


class _SolverComponent:
    """One connected component of a dirty component's emitted clauses.

    What gets keyed, cached and solved.  Atoms are ``(statement key, fact,
    is_evidence, derived_by)`` in local order (the global atom order
    restricted to the component, so an evidence atom comes first); firings
    ``(record, emit_prior)`` and violations are in global emission order.
    """

    __slots__ = ("atoms", "firings", "violations", "key", "program", "solution")

    def __init__(self) -> None:
        self.atoms: list[tuple[tuple, TemporalFact, bool, Optional[str]]] = []
        self.firings: list[tuple[_FiringRecord, bool]] = []
        self.violations: list[_ViolationRecord] = []
        self.key: tuple = ()
        self.program: Optional[GroundProgram] = None
        self.solution: Optional[MAPSolution] = None


class _Part:
    """What a session keeps for one maintained component between applies.

    The component's emission, the exact objective partial of its solver
    components' solutions (``units``, see :func:`exact_units`), how many of
    those solutions are not optimal, its shares of the session's
    :data:`_TOTALS` (``counts``) and its violations per constraint index.
    Its solutions themselves live on in the session's assignment and truth
    values, and in the cache under their content keys.
    """

    __slots__ = ("emission", "units", "suboptimal", "counts", "by_constraint")

    def __init__(self, emission: ComponentEmission) -> None:
        self.emission = emission
        self.units = 0
        self.suboptimal = 0
        self.counts: tuple[int, ...] = ()
        self.by_constraint: dict[int, int] = {}

    def derived(self):
        """``(order, statement key, fact)`` of each derived atom, in order."""
        return [
            (order, record.head_key, record.head)
            for order, record, first in self.emission.firings
            if first
        ]

    def atom_keys(self):
        """Statement keys of the component's atoms."""
        emission = self.emission
        yield from (fact.statement_key for fact in emission.evidence)
        yield from (record.head_key for _, record, first in emission.firings if first)

    def clause_ids(self, emit_priors: bool) -> set:
        """Content identities of the component's clauses (delta statistics)."""
        emission = self.emission
        ids = {("evidence", fact.statement_key, fact.confidence) for fact in emission.evidence}
        for _, record, first in emission.firings:
            ids.add(record.signature)
            if first and emit_priors:
                ids.add(("prior", record.head_key, record.rule_name))
        ids.update(record.signature for record in emission.violations)
        return ids


#: The per-component counters a session sums, in :attr:`_Part.counts` order.
_TOTALS = (
    "atoms",
    "clauses",
    "solver_components",
    "violations",
    "hard_violations",
    "conflicting_facts",
)
_CLAUSES = _TOTALS.index("clauses")


class _CapturedGraphs(ResultGraphs):
    """A session result's graphs and conflict table, built on first read.

    The capture aliases no mutable session state: the evidence facts and
    their insertion ticks are dict copies, the removed keys, inferred facts
    and each component's violation records immutable tuples.  The
    violations of the result, and their per-constraint counts, are those of
    a from-scratch grounding of the captured graph.
    """

    __slots__ = (
        "_name",
        "_domain",
        "_facts",
        "_ticks",
        "_tick",
        "_removed_keys",
        "_inferred",
        "_records",
        "_constraints",
        "_counts",
    )

    def __init__(
        self,
        graph: TemporalKnowledgeGraph,
        removed_keys: tuple[tuple, ...],
        inferred: tuple[TemporalFact, ...],
        records: tuple[tuple[_ViolationRecord, ...], ...],
        constraints: tuple,
        counts: tuple[int, ...],
    ) -> None:
        super().__init__()
        self._name = graph.name
        self._domain = graph.domain
        self._facts = dict(graph._facts)
        self._ticks = dict(graph._added_at)
        self._tick = graph._tick
        self._removed_keys = removed_keys
        self._inferred = inferred
        self._records = records
        self._constraints = constraints
        self._counts = counts

    @property
    def name(self) -> str:
        return self._name

    def by_constraint(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for constraint, count in zip(self._constraints, self._counts):
            if count:
                counts[constraint.name] = counts.get(constraint.name, 0) + count
        return counts

    def renamed(self, name: str) -> "_CapturedGraphs":
        clone = copy.copy(self)
        clone._name = name
        clone._input_graph = clone._consistent_graph = clone._expanded_graph = None
        return clone

    def _build_input_graph(self) -> TemporalKnowledgeGraph:
        # As TemporalKnowledgeGraph.copy builds one: facts and ticks kept.
        graph = TemporalKnowledgeGraph(name=self._name, domain=self._domain)
        graph._facts = dict(self._facts)
        graph._added_at = dict(self._ticks)
        graph._tick = self._tick
        return graph

    def _build_consistent_graph(self) -> TemporalKnowledgeGraph:
        return self.input_graph.without_statements(
            self._removed_keys, name=f"{self._name}-consistent"
        )

    def _build_expanded_graph(self) -> TemporalKnowledgeGraph:
        expanded = self.consistent_graph.copy(name=f"{self._name}-inferred")
        expanded.add_all(self._inferred)
        return expanded

    def _build_violations(self) -> ConflictTable:
        # Match-time fact snapshots give way to the captured evidence, so
        # violations show the confidences the graph held at the apply.
        facts = self._facts
        constraints = self._constraints
        return ConflictTable.from_violations(
            (
                constraints[record.constraint_index].name,
                constraints[record.constraint_index].weight,
                tuple(facts.get(fact.statement_key, fact) for fact in record.facts),
            )
            for record in sorted(chain.from_iterable(self._records), key=violation_order)
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
        values when the back-end supports it (``npsl``).  Off by default: a
        warm ADMM start can settle on another state than a cold solve, so a
        warm session's answers depend on its edit history.
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
        #: single-threaded use can ignore it.  A result's graphs may be
        #: read without it, also after the next apply (see ResultGraphs).
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
        # What the last apply computed, per maintained component, and the
        # sums over all of them.
        self._parts: dict[MaintainedComponent, _Part] = {}
        self._units = 0
        self._suboptimal = 0
        self._totals = dict.fromkeys(_TOTALS, 0)
        self._constraint_counts = [0] * len(self._grounder.constraints)
        # Assignment and truth value of every atom, by statement key (warm
        # starts read the truth values), and the derived atoms in global
        # order as (order, statement key, fact); see _Part.derived.
        self._values: dict[tuple, bool] = {}
        self._truth: dict[tuple, float] = {}
        self._derived: list[tuple[tuple, tuple, TemporalFact]] = []
        self.steps = 0
        self.result = self._resolve(GroundingDelta(dirty=tuple(self._grounder.components())))

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
            if graph_name is not None and result.graphs.name != graph_name:
                result = replace(result, graphs=result.graphs.renamed(graph_name))
            self.result = result
            return self.result
        self.result = self._resolve(grounding_delta)
        return self.result

    # ------------------------------------------------------------------ #
    # Resolution of the dirty components
    # ------------------------------------------------------------------ #
    def _resolve(self, grounding_delta: GroundingDelta) -> ResolutionResult:
        started = time.perf_counter()
        grounder = self._grounder
        if not grounder.saturated:
            # Degraded mode (rule set outran the maintained fix point):
            # materialise the whole program and treat it as one dirty
            # component — correct, but without the incremental savings.
            return self._resolve_degraded(grounding_delta, started)

        parts = self._parts
        stale = [
            part
            for component in chain(grounding_delta.retired, grounding_delta.dirty)
            if (part := parts.pop(component, None)) is not None
        ]
        fresh = [(component, *self._emit(component)) for component in grounding_delta.dirty]
        grounding_seconds = time.perf_counter() - started
        solve_started = time.perf_counter()
        misses, warm_started, runtime_sum, iterations_sum = self._solve(
            [component for _, _, components in fresh for component in components]
        )
        clauses_added, clauses_retracted = self._fold(stale, fresh)

        # Plain list work over the graph: the assignment in global atom
        # order (evidence in insertion order, then derived atoms).
        graph = grounder.graph
        evidence = graph._facts
        derived = self._derived
        atom_keys = [*evidence, *map(itemgetter(1), derived)]
        assignment = tuple(map(self._values.__getitem__, atom_keys))
        truth_values = tuple(map(self._truth.__getitem__, atom_keys))
        totals = self._totals
        components = totals["solver_components"]
        stats = SolverStats(
            # Mirror DecomposedSolver: a trivial decomposition is a bypass.
            solver=self._solver.name if components <= 1 else f"decomposed({self._solver.name})",
            runtime_seconds=runtime_sum,
            iterations=iterations_sum,
            atoms=totals["atoms"],
            clauses=totals["clauses"],
            optimal=self._suboptimal == 0,
            extra=(
                ("components", float(components)),
                ("components_cached", float(components - len(misses))),
                ("unconstrained_atoms", 0.0),
            ),
        )
        solution = MAPSolution(
            assignment=assignment,
            objective=units_to_float(self._units),
            stats=stats,
            truth_values=truth_values,
        )
        solve_seconds = time.perf_counter() - solve_started
        delta = DeltaStatistics(
            facts_added=grounding_delta.facts_added,
            facts_removed=grounding_delta.facts_removed,
            facts_updated=grounding_delta.facts_updated,
            clauses_added=clauses_added,
            clauses_retracted=clauses_retracted,
            components_total=components,
            components_dirty=len(misses),
            components_cached=components - len(misses),
            warm_started=warm_started,
            grounding_seconds=grounding_seconds,
            solve_seconds=solve_seconds,
        )
        self.steps += 1

        evidence_count = len(evidence)
        removed = tuple(compress(evidence.values(), map(not_, islice(assignment, evidence_count))))
        inferred, below_threshold = self._threshold.split(
            compress(map(itemgetter(2), derived), islice(assignment, evidence_count, None))
        )
        inferred = tuple(inferred)
        graphs = _CapturedGraphs(
            graph,
            removed_keys=tuple(fact.statement_key for fact in removed),
            inferred=inferred,
            records=tuple(
                part.emission.violations
                for part in self._parts.values()
                if part.emission.violations
            ),
            constraints=grounder.constraints,
            counts=tuple(self._constraint_counts),
        )
        violations = totals["violations"]
        hard = totals["hard_violations"]
        statistics = ResolutionStatistics(
            input_facts=evidence_count,
            consistent_facts=evidence_count - len(removed),
            removed_facts=len(removed),
            inferred_facts=len(inferred),
            conflicting_facts=totals["conflicting_facts"],
            violations=violations,
            hard_violations=hard,
            soft_violations=violations - hard,
            objective=solution.objective,
            runtime_seconds=time.perf_counter() - started,
            solver=self._system.solver,
            ground_atoms=totals["atoms"],
            ground_clauses=totals["clauses"],
            threshold=self._system.threshold,
            inferred_below_threshold=len(below_threshold),
        )
        return ResolutionResult(
            removed_facts=removed,
            inferred_facts=inferred,
            solution=solution,
            statistics=statistics,
            graphs=graphs,
            inferred_below_threshold=tuple(below_threshold),
            delta=delta,
        )

    def _solve(
        self, dirty: list[_SolverComponent]
    ) -> tuple[list[_SolverComponent], int, float, int]:
        """Materialise and look up every dirty solver component; solve the misses.

        The misses go to the back-end in one call, in global atom order
        (each solver component's first atom is evidence, so its insertion
        tick orders it).  Returns the misses, the warm-start count and the
        runtime and iterations spent.
        """
        ticks = self._grounder.graph._added_at
        dirty = sorted(dirty, key=lambda component: ticks[component.atoms[0][0]])
        misses = []
        for component in dirty:
            component.program = self._materialise(component)
            component.solution = self.cache.get(component.key)
            if component.solution is None:
                misses.append(component)
        warm_started = iterations = 0
        runtime = 0.0
        if not misses:
            return misses, warm_started, runtime, iterations
        subprograms = [component.program for component in misses]
        if self._warm_starts():
            solved = [self._solve_warm(subprogram) for subprogram in subprograms]
            warm_started = len(solved)
        else:
            # All cache misses in one call: a batching back-end pays its
            # fixed cost once per apply.
            solved = self._solver.solve_components(subprograms)
        for component, solution in zip(misses, solved):
            component.solution = solution
            self.cache.put(component.key, solution)
            # Only work actually performed this step counts as runtime
            # (cached solutions carry their historical solve stats); the
            # solutions of one call share its runtime.
            runtime += solution.stats.runtime_seconds
            iterations += solution.stats.iterations
        return misses, warm_started, runtime, iterations

    def _fold(self, stale: list[_Part], fresh: list[tuple]) -> tuple[int, int]:
        """Swap the stale parts for the fresh ones in every maintained sum.

        Updates the objective units, the counters, the per-atom assignment
        and truth values and the derived-atom order.  Returns the numbers of
        clauses added and retracted.
        """
        values, truth, derived = self._values, self._truth, self._derived
        for part in stale:
            self._account(part, -1)
            for key in part.atom_keys():
                del values[key]
                del truth[key]
            for order, _, _ in part.derived():
                del derived[bisect_left(derived, order, key=itemgetter(0))]
        for component, part, solver_components in fresh:
            self._settle(part, solver_components)
            self._parts[component] = part
            self._account(part, +1)
            for entry in part.derived():
                insort(derived, entry, key=itemgetter(0))
        if not stale:  # clause identities are unique, and none was there before
            return sum(part.counts[_CLAUSES] for _, part, _ in fresh), 0
        emit_priors = self._grounder.derived_prior > 0
        retracted = set().union(*(part.clause_ids(emit_priors) for part in stale))
        added = set().union(*(part.clause_ids(emit_priors) for _, part, _ in fresh))
        return len(added - retracted), len(retracted - added)

    def _account(self, part: _Part, sign: int) -> None:
        """Add (``sign`` = 1) or take away (-1) a part's share of the sums."""
        self._units += sign * part.units
        self._suboptimal += sign * part.suboptimal
        totals = self._totals
        for name, count in zip(_TOTALS, part.counts):
            totals[name] += sign * count
        counts = self._constraint_counts
        for index, count in part.by_constraint.items():
            counts[index] += sign * count

    # ------------------------------------------------------------------ #
    def _emit(self, component: MaintainedComponent) -> tuple[_Part, list[_SolverComponent]]:
        """Emit a dirty component and split it into keyed solver components.

        Mirrors :func:`repro.logic.decompose.decompose` on the component's
        slice of the program: solver components ordered by their first
        atom, atoms ascending, clause lists in global emission order.  The
        key is the content identity :func:`component_content_key` stands
        for — atom entries in local order, firing and violation signatures
        in global order — computed without building clauses.
        """
        grounder = self._grounder
        emission = grounder.emit_component(component)
        emit_priors = grounder.derived_prior > 0
        atoms = [(fact.statement_key, fact, True, None) for fact in emission.evidence]
        atoms += [
            (record.head_key, record.head, False, record.rule_name)
            for _, record, first in emission.firings
            if first
        ]
        firings = [(record, first and emit_priors) for _, record, first in emission.firings]
        violations = emission.violations
        if len(firings) == len(component.firings) and len(violations) == len(component.violations):
            # Nothing was cut at max_rounds: the emitted clauses link the
            # atoms as the maintained records link the keys, so all of them.
            solver_component = _SolverComponent()
            solver_component.atoms = atoms
            solver_component.firings = firings
            solver_component.violations = list(violations)
            solver_components = [solver_component]
        else:
            solver_components = self._split(atoms, firings, violations)
        for solver_component in solver_components:
            solver_component.key = (
                tuple(
                    [
                        (key, is_evidence, derived_by, fact.confidence)
                        for key, fact, is_evidence, derived_by in solver_component.atoms
                    ]
                ),
                tuple([record.signature for record, _ in solver_component.firings]),
                tuple([record.signature for record in solver_component.violations]),
            )

        part = _Part(emission)
        hard = conflicting = 0
        if violations:
            constraints = grounder.constraints
            hard = sum(
                1 for record in violations if constraints[record.constraint_index].weight is None
            )
            conflicting = len({key for record in violations for key in record.fact_keys})
            for record in violations:
                index = record.constraint_index
                part.by_constraint[index] = part.by_constraint.get(index, 0) + 1
        priors = len(atoms) - len(emission.evidence) if emit_priors else 0
        part.counts = (
            len(atoms),
            len(emission.evidence) + len(firings) + priors + len(violations),
            len(solver_components),
            len(violations),
            hard,
            conflicting,
        )
        return part, solver_components

    @staticmethod
    def _split(atoms: list, firings: list, violations: tuple) -> list[_SolverComponent]:
        """Connected components of the emitted clauses, ordered by first atom."""
        position = {atom[0]: index for index, atom in enumerate(atoms)}
        union_find = _UnionFind(len(atoms))
        for record, _ in firings:
            head = position[record.head_key]
            for key in record.body_keys:
                union_find.union(position[key], head)
        for record in violations:
            first = position[record.fact_keys[0]]
            for key in record.fact_keys[1:]:
                union_find.union(position[key], first)
        find = union_find.find
        groups: dict[int, _SolverComponent] = {}
        for index, atom in enumerate(atoms):
            solver_component = groups.get(root := find(index))
            if solver_component is None:
                solver_component = groups[root] = _SolverComponent()
            solver_component.atoms.append(atom)
        for item in firings:
            groups[find(position[item[0].head_key])].firings.append(item)
        for record in violations:
            groups[find(position[record.fact_keys[0]])].violations.append(record)
        return list(groups.values())

    def _settle(self, part: _Part, solver_components: list[_SolverComponent]) -> None:
        """Take in a part's solved components: assignments, exact partial, optimality."""
        values, truth = self._values, self._truth
        units = suboptimal = 0
        for component in solver_components:
            solution = component.solution
            assignment = solution.assignment
            keys = [atom[0] for atom in component.atoms]
            values.update(zip(keys, assignment))
            truth.update(
                zip(keys, solution.truth_values or [1.0 if value else 0.0 for value in assignment])
            )
            units += exact_units(component.program.satisfied_soft_weights(assignment))
            suboptimal += not solution.stats.optimal
        part.units = units
        part.suboptimal = suboptimal

    def _materialise(self, component: _SolverComponent) -> GroundProgram:
        """Build one solver component's sub-program, identical to a decompose slice."""
        grounder = self._grounder
        sub = GroundProgram()
        for _, fact, is_evidence, derived_by in component.atoms:
            sub.add_atom(fact, is_evidence, derived_by)
        for index, (_, fact, is_evidence, _) in enumerate(component.atoms):
            if is_evidence:
                sub.add_clause(
                    [(index, True)],
                    weight=fact.log_weight + grounder.keep_bias,
                    kind=ClauseKind.EVIDENCE,
                    origin="evidence",
                )
        local = {atom[0]: index for index, atom in enumerate(component.atoms)}
        for record, emit_prior in component.firings:
            head = local[record.head_key]
            if emit_prior:
                sub.add_clause(
                    [(head, True)],
                    weight=-grounder.derived_prior,
                    kind=ClauseKind.PRIOR,
                    origin=f"prior:{record.rule_name}",
                )
            literals = [(local[key], False) for key in record.body_keys]
            literals.append((head, True))
            sub.add_clause(
                literals,
                weight=grounder.rules[record.rule_index].weight,
                kind=ClauseKind.RULE,
                origin=record.rule_name,
            )
        for record in component.violations:
            constraint = grounder.constraints[record.constraint_index]
            sub.add_clause(
                [(local[key], False) for key in record.fact_keys],
                weight=constraint.weight,
                kind=ClauseKind.CONSTRAINT,
                origin=constraint.name,
            )
        return sub

    # ------------------------------------------------------------------ #
    def _warm_starts(self) -> bool:
        """True when dirty components are seeded with the previous truth values."""
        return bool(
            self.warm_start and self._truth and getattr(self._solver, "supports_warm_start", False)
        )

    def _solve_warm(self, program: GroundProgram) -> MAPSolution:
        """Solve one (sub-)program from the previous solution's truth values."""
        warm = [self._truth.get(atom.fact.statement_key, 1.0) for atom in program.atoms]
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
        self._truth = {
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
