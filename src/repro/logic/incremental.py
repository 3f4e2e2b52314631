"""Delta-maintained grounding: the incremental engine.

The paper's debugging loop is iterative — resolve, repair facts or receive
new evidence, resolve again — yet a fresh :class:`IndexedGrounder` pass pays
for the whole graph every time.  :class:`IncrementalGrounder` instead keeps a
*materialised match state* between resolutions and maintains it under fact
insertions **and** retractions, so the grounding cost of an update scales
with the size of the change, not the size of the graph:

* **Insertions** re-run the semi-naive join only against the delta: the new
  facts get fresh insertion ticks in the working graph, and the existing
  pivot discipline of :func:`repro.logic.grounding._delta_matches` enumerates
  exactly the rule firings and constraint violations that involve at least
  one new fact (chaining to the rule fix point, so cascading derivations are
  found too).
* **Components.**  The maintained firings and violations link the statement
  keys they mention (a firing its body and head, a violation its facts); the
  engine keeps the connected components of that interaction graph
  (:class:`MaintainedComponent`).  An insertion merges the components its new
  records touch, smaller into larger.
* **Retractions** use support-set bookkeeping: every maintained firing
  records the statement keys of its body.  Removing a fact re-derives the
  *live* statements of its component only (evidence plus anything still
  derivable through the component's firings — a least fix point, so cyclic
  derivations with no remaining evidence support die correctly), drops dead
  firings, violations and working-graph facts, and re-splits that component
  by walking its own records.  Everything else is untouched.  A retracted
  fact that is later re-added gets a fresh tick, so the delta join rebuilds
  exactly the matches that were dropped.
* **Emission** is per component (:meth:`IncrementalGrounder.emit_component`),
  and a component's emission is exactly its slice of the emission the
  from-scratch engines make: a firing's body and head share a component, so
  derivation rounds and the ``max_rounds`` filter depend only on firings
  inside it; evidence keeps graph insertion order; derived atoms are ordered
  by ``(round, rule index, body keys)`` of their first firing; violations by
  ``(constraint index, match order)``.  :meth:`IncrementalGrounder.emit_plan`
  merges every component's emission in that global order and
  :meth:`IncrementalGrounder.ground` materialises it, so the emitted program
  is *identical* to a from-scratch grounding of the current graph: same
  atoms, same clause order, same floats.  Emission is a pass with no joins;
  the joins — the expensive part — only ever run against deltas.  Each
  :meth:`~IncrementalGrounder.apply` names the components it dirtied and
  retired (:class:`GroundingDelta`), so a session re-emits only those.

The engine deliberately maintains a *superset* of the matches the bounded
(``max_rounds``) from-scratch chaining would emit: firings are chained to the
true fix point and filtered to ``max_rounds`` derivation layers at emission
time.  That keeps the state closed under future deltas (a new fact that
shortens a derivation chain can pull an existing deep firing inside the round
bound without any re-join).  It also means a maintained component can hold
several components of the emitted clauses.  Rule sets that do not reach a
fix point within ``fixpoint_rounds`` flip the engine into a
degraded-but-correct mode where :meth:`ground` delegates to a fresh
:class:`IndexedGrounder` pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from typing import Iterable, Optional

from ..errors import InvalidFactError
from ..kg import TemporalFact, TemporalKnowledgeGraph
from ..kg.triple import FactLike, coerce_fact
from .constraint import TemporalConstraint
from .ground import ClauseKind, GroundProgram
from .grounding import (
    GROUNDING_ENGINES,
    ConstraintViolation,
    GroundingResult,
    IndexedGrounder,
    RuleFiring,
    _GrounderBase,
    _compile_body,
    _delta_matches,
)
from .rule import TemporalRule


@dataclass(frozen=True, slots=True, eq=False)
class _FiringRecord:
    """One maintained rule firing (a ground match of a rule body)."""

    rule_index: int
    rule_name: str
    body: tuple[TemporalFact, ...]
    head: TemporalFact
    body_keys: tuple[tuple, ...]
    head_key: tuple
    signature: tuple  # (rule name, body keys, head key) — content identity


@dataclass(frozen=True, slots=True, eq=False)
class _ViolationRecord:
    """One maintained constraint violation (a conflict set)."""

    constraint_index: int
    facts: tuple[TemporalFact, ...]
    fact_keys: tuple[tuple, ...]
    order_key: tuple[tuple, ...]  # body-position statement keys (match order)
    signature: tuple  # (constraint name, sorted fact keys) — content identity


def violation_order(record: _ViolationRecord) -> tuple:
    """Emission order of violations: constraint index, then match order."""
    return (record.constraint_index, record.order_key)


class MaintainedComponent:
    """One connected component of the maintained interaction graph.

    Its vertices are the statement keys of working facts (evidence and
    derived); a firing links its body and head keys, a violation its fact
    keys.  Records are held by identity.  Every live component holds at
    least one evidence key, since its derived keys are derivable from
    evidence through its own firings.
    """

    __slots__ = ("keys", "firings", "violations")

    def __init__(self) -> None:
        self.keys: set[tuple] = set()
        self.firings: set[_FiringRecord] = set()
        self.violations: set[_ViolationRecord] = set()

    @property
    def size(self) -> int:
        """Keys plus records: the work a pass over the component does."""
        return len(self.keys) + len(self.firings) + len(self.violations)

    def __repr__(self) -> str:
        return (
            f"MaintainedComponent(keys={len(self.keys)}, firings={len(self.firings)}, "
            f"violations={len(self.violations)})"
        )


@dataclass(frozen=True, slots=True)
class ComponentEmission:
    """One maintained component's slice of the emitted program.

    Each order is the global emission's restricted to the component:
    evidence facts in graph insertion order; firings as ``(order, record,
    first)`` in ``order`` = ``(round, rule index, body keys)``, where
    ``first`` marks the firing that introduces its (non-evidence) head atom —
    derived atoms follow their first firings, and a derived-prior unit clause
    precedes a first firing's rule clause; violations by
    :func:`violation_order`.  Firings beyond ``max_rounds`` layers, and
    violations touching facts only they derive, are left out.
    """

    evidence: tuple[TemporalFact, ...]
    firings: tuple[tuple[tuple, _FiringRecord, bool], ...]
    violations: tuple[_ViolationRecord, ...]
    rounds: int


@dataclass(frozen=True, slots=True)
class EmissionPlan:
    """The maintained state filtered and ordered for program emission.

    The plan *is* the ground program, represented semantically: the evidence
    facts in graph insertion order, the emitted firings in round → rule →
    lexicographic-body order (paired with whether a derived-prior unit clause
    precedes the firing's rule clause; a firing that introduces its head
    atom comes first among that head's firings), and the emitted violations
    in constraint-major lexicographic order.
    :meth:`IncrementalGrounder.ground` materialises it into a
    :class:`~repro.logic.ground.GroundProgram`.
    """

    evidence: tuple[TemporalFact, ...]
    firings: list[tuple[_FiringRecord, bool]]  # (record, emit_prior_clause)
    violations: list[_ViolationRecord]
    rounds: int


@dataclass(frozen=True, slots=True)
class GroundingDelta:
    """What one :meth:`IncrementalGrounder.apply` call changed.

    ``touched_keys`` are the statement keys the edit touched: evidence that
    was added, removed or had its confidence raised, and the keys of the
    firings and violations that were added or retracted.  ``dirty`` are the
    live components holding any of them — the only ones whose emission can
    have changed — and ``retired`` the components the edit merged away or
    split (a session drops what it kept for those).
    """

    facts_added: int = 0
    facts_removed: int = 0
    facts_updated: int = 0
    firings_added: int = 0
    firings_retracted: int = 0
    violations_added: int = 0
    violations_retracted: int = 0
    touched_keys: frozenset = frozenset()
    dirty: tuple[MaintainedComponent, ...] = ()
    retired: tuple[MaintainedComponent, ...] = ()

    @property
    def facts_changed(self) -> int:
        return self.facts_added + self.facts_removed + self.facts_updated

    @property
    def is_empty(self) -> bool:
        """True when the apply was a no-op (nothing to re-ground or re-solve)."""
        return self.facts_changed == 0


def _partition(
    keys: Iterable[tuple],
    firings: Iterable[_FiringRecord],
    violations: Iterable[_ViolationRecord],
) -> list[MaintainedComponent]:
    """The connected components of ``keys`` linked by the records."""
    keys = list(keys)
    index = {key: position for position, key in enumerate(keys)}
    parent = list(range(len(keys)))

    def find(position: int) -> int:
        while (up := parent[position]) != position:
            parent[position] = position = parent[up]  # path halving
        return position

    firings = [(record, index[record.head_key], record.body_keys) for record in firings]
    violations = [(record, index[record.fact_keys[0]], record.fact_keys) for record in violations]
    for _, first, linked in chain(firings, violations):
        root = find(first)
        for key in linked:
            other = find(index[key])
            if other != root:
                parent[other] = root
    components: dict[int, MaintainedComponent] = {}
    for position, key in enumerate(keys):
        root = find(position)
        component = components.get(root)
        if component is None:
            component = components[root] = MaintainedComponent()
        component.keys.add(key)
    for record, first, _ in firings:
        components[find(first)].firings.add(record)
    for record, first, _ in violations:
        components[find(first)].violations.add(record)
    return list(components.values())


class IncrementalGrounder(_GrounderBase):
    """Grounding engine that maintains its result under graph mutations.

    Construction performs the initial full grounding (as one big delta from
    tick zero); :meth:`apply` folds fact insertions/retractions into the
    maintained state; :meth:`ground` emits the current
    :class:`~repro.logic.grounding.GroundingResult`, bit-identical to a
    from-scratch :class:`IndexedGrounder` pass over the current graph.

    The engine owns private copies of the evidence graph and the working
    graph (evidence plus derived facts); the caller's graph is never mutated.
    Registered as ``"incremental"`` in :data:`GROUNDING_ENGINES`, so it also
    works as a drop-in one-shot engine — but its value is in reuse, via
    :class:`repro.core.session.ResolutionSession`.
    """

    engine = "incremental"

    def __init__(
        self,
        graph: TemporalKnowledgeGraph,
        rules: Iterable[TemporalRule] = (),
        constraints: Iterable[TemporalConstraint] = (),
        max_rounds: int = 5,
        derive_facts: bool = True,
        keep_bias: float = 1e-3,
        derived_prior: float = 5e-4,
        fixpoint_rounds: Optional[int] = None,
    ) -> None:
        super().__init__(
            graph.copy(name=graph.name),
            rules=rules,
            constraints=constraints,
            max_rounds=max_rounds,
            derive_facts=derive_facts,
            keep_bias=keep_bias,
            derived_prior=derived_prior,
        )
        #: Chaining bound for the maintained fix point.  Deliberately looser
        #: than ``max_rounds``: the match state is kept as the *unbounded*
        #: fix point and filtered to ``max_rounds`` layers at emission, so a
        #: later delta can legally shorten a derivation into the bound.
        self.fixpoint_rounds = (
            fixpoint_rounds if fixpoint_rounds is not None else max(4 * max_rounds, 32)
        )
        #: False when chaining hit ``fixpoint_rounds`` while still productive;
        #: the engine then degrades to from-scratch grounding (still correct).
        self.saturated = True
        self._working = self.graph.copy(name=f"{self.graph.name}-working")
        self._firings: dict[tuple, _FiringRecord] = {}
        self._violations: dict[tuple, _ViolationRecord] = {}
        self._rule_plans = [_compile_body(rule.body) for rule in self.rules]
        self._constraint_plans = [_compile_body(c.body) for c in self.constraints]
        self._chain(0)
        self._match_constraints(0)
        #: Component of every working key, and the live components in
        #: creation order.
        self._component_of: dict[tuple, MaintainedComponent] = {}
        self._components: dict[MaintainedComponent, None] = {}
        for component in _partition(
            self._working._facts, self._firings.values(), self._violations.values()
        ):
            self._adopt(component)
        # What the running apply touched and retired.
        self._touched: set[tuple] = set()
        self._retired: list[MaintainedComponent] = []

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def apply(
        self, adds: Iterable[FactLike] = (), removes: Iterable[FactLike] = ()
    ) -> GroundingDelta:
        """Fold fact insertions and retractions into the maintained state.

        ``removes`` are processed first (so a fact in both is replaced and
        gets a fresh insertion tick).  Re-adding an existing statement with a
        *higher* confidence is a pure weight update — no re-matching happens
        because the statement key, the only thing joins see, is unchanged.
        Returns a :class:`GroundingDelta` summarising the state change and
        naming the components it dirtied and retired.

        The whole edit is validated before any state is touched (coercion
        and time-domain checks), so a malformed fact raises without leaving
        the maintained match state half-updated.
        """
        removes = [coerce_fact(fact) for fact in removes]
        adds = [coerce_fact(fact) for fact in adds]
        if self.graph.domain is not None:
            domain = self.graph.domain
            for item in adds:
                if item.interval.start not in domain or item.interval.end not in domain:
                    raise InvalidFactError(
                        f"fact interval {item.interval} outside time domain "
                        f"[{domain.start}, {domain.end}]"
                    )

        touched = self._touched = set()
        self._retired = []
        removed_keys = [fact.statement_key for fact in removes if self.graph.remove(fact)]
        touched.update(removed_keys)
        firings_retracted = violations_retracted = 0
        if removed_keys:
            firings_retracted, violations_retracted = self._retract(removed_keys)

        added = updated = 0
        mark = self._working.mark()
        fresh = False
        for item in adds:
            key = item.statement_key
            existing = key in self.graph._facts
            before = self.graph._facts[key].confidence if existing else None
            stored = self.graph.add(item)
            if not existing:
                added += 1
                touched.add(key)
            elif stored.confidence != before:
                updated += 1
                touched.add(key)
            if key not in self._working._facts:
                self._working.add(stored)  # fresh tick ⇒ the delta join sees it
                self._adopt_key(key)
                fresh = True
            else:
                # Already live (as evidence or derived): at most a confidence
                # bump, which never changes what the joins can match.
                self._working.add(stored)

        firings_added = violations_added = 0
        if fresh:
            new_firings = self._chain(mark)
            new_violations = self._match_constraints(mark)
            firings_added, violations_added = len(new_firings), len(new_violations)
            for record in new_firings:
                self._join((record.head_key, *record.body_keys)).firings.add(record)
                touched.add(record.head_key)
                touched.update(record.body_keys)
            for record in new_violations:
                self._join(record.fact_keys).violations.add(record)
                touched.update(record.fact_keys)

        component_of = self._component_of
        dirty = dict.fromkeys(component_of[key] for key in touched if key in component_of)
        delta = GroundingDelta(
            facts_added=added,
            facts_removed=len(removed_keys),
            facts_updated=updated,
            firings_added=firings_added,
            firings_retracted=firings_retracted,
            violations_added=violations_added,
            violations_retracted=violations_retracted,
            touched_keys=frozenset(touched),
            dirty=tuple(dirty),
            retired=tuple(self._retired),
        )
        self._touched = set()
        self._retired = []
        return delta

    # ------------------------------------------------------------------ #
    # Components
    # ------------------------------------------------------------------ #
    def components(self) -> list[MaintainedComponent]:
        """The live components, in creation order."""
        return list(self._components)

    def _adopt(self, component: MaintainedComponent) -> MaintainedComponent:
        self._components[component] = None
        component_of = self._component_of
        for key in component.keys:
            component_of[key] = component
        return component

    def _adopt_key(self, key: tuple) -> MaintainedComponent:
        component = MaintainedComponent()
        component.keys.add(key)
        return self._adopt(component)

    def _retire(self, component: MaintainedComponent) -> None:
        del self._components[component]
        self._retired.append(component)

    def _join(self, keys: tuple[tuple, ...]) -> MaintainedComponent:
        """The component holding all of ``keys``: theirs merged, smaller into larger.

        A key without a component (a head not yet in the working graph) gets
        a new one first.
        """
        component_of = self._component_of
        target = None
        for key in keys:
            component = component_of.get(key)
            if component is None:
                component = self._adopt_key(key)
            if target is None:
                target = component
            elif component is not target:
                if component.size > target.size:
                    target, component = component, target
                target.keys |= component.keys
                for moved in component.keys:
                    component_of[moved] = target
                target.firings |= component.firings
                target.violations |= component.violations
                self._retire(component)
        return target

    def _retract(self, removed_keys: list[tuple]) -> tuple[int, int]:
        """Drop what the removed facts supported, inside their components only.

        Per component: the least fix point of derivability over its own
        firings (its evidence plus supported heads — derived facts whose
        every support chain lost an evidence fact, including
        mutually-supporting cycles, fall out), then its dead firings,
        violations and working facts, then a re-split of what is left.
        A firing's body and head share its component, so no other
        component's liveness can change.
        """
        component_of = self._component_of
        evidence = self.graph._facts
        working = self._working
        touched = self._touched
        firings_retracted = violations_retracted = 0
        for component in dict.fromkeys(component_of[key] for key in removed_keys):
            live = {key for key in component.keys if key in evidence}
            pending = [record for record in component.firings if record.head_key not in live]
            changed = True
            while changed and pending:
                changed = False
                remaining = []
                for record in pending:
                    if record.head_key in live:
                        continue
                    if live.issuperset(record.body_keys):
                        live.add(record.head_key)
                        changed = True
                    else:
                        remaining.append(record)
                pending = remaining
            dead_firings = [
                record for record in component.firings if not live.issuperset(record.body_keys)
            ]
            dead_violations = [
                record for record in component.violations if not live.issuperset(record.fact_keys)
            ]
            if not dead_firings and not dead_violations and len(live) == len(component.keys):
                continue  # still derivable: at most an evidence → derived flip
            for record in dead_firings:
                del self._firings[record.signature]
                touched.add(record.head_key)
                touched.update(record.body_keys)
            for record in dead_violations:
                del self._violations[record.signature]
                touched.update(record.fact_keys)
            for key in component.keys - live:
                working.remove(working._facts[key])
                del component_of[key]
            firings_retracted += len(dead_firings)
            violations_retracted += len(dead_violations)
            self._retire(component)
            for piece in _partition(
                live,
                component.firings.difference(dead_firings),
                component.violations.difference(dead_violations),
            ):
                self._adopt(piece)
        return firings_retracted, violations_retracted

    # ------------------------------------------------------------------ #
    # Matching
    # ------------------------------------------------------------------ #
    def _chain(self, delta_since: int) -> list[_FiringRecord]:
        """Semi-naive forward chaining of the rules against a delta window.

        Matches every rule body against matches using at least one working
        fact with insertion tick ≥ ``delta_since``, records the firings, adds
        genuinely new heads to the working graph, and repeats on the new
        heads until the fix point (or ``fixpoint_rounds``, which flips the
        engine into degraded mode).  Returns the new firings.
        """
        if not self.derive_facts or not self.rules:
            return []
        firings = self._firings
        working = self._working
        added: list[_FiringRecord] = []
        rounds = 0
        while True:
            rounds += 1
            if rounds > self.fixpoint_rounds:
                self.saturated = False
                break
            round_mark = working.mark()
            new_heads: list[TemporalFact] = []
            for rule_index, (rule, plan) in enumerate(zip(self.rules, self._rule_plans)):
                for substitution, body_facts in _delta_matches(plan, working, delta_since):
                    if not all(condition.holds(substitution) for condition in rule.conditions):
                        continue
                    head_interval = rule.head_interval_for(substitution)
                    if head_interval is None:
                        continue
                    head_fact = rule.head.instantiate(
                        substitution,
                        interval=head_interval,
                        confidence=rule.derived_confidence,
                    )
                    body_keys = tuple(fact.statement_key for fact in body_facts)
                    signature = (rule.name, body_keys, head_fact.statement_key)
                    if signature in firings:
                        continue
                    record = firings[signature] = _FiringRecord(
                        rule_index=rule_index,
                        rule_name=rule.name,
                        body=tuple(body_facts),
                        head=head_fact,
                        body_keys=body_keys,
                        head_key=head_fact.statement_key,
                        signature=signature,
                    )
                    added.append(record)
                    new_heads.append(head_fact)
            grew = False
            for head in new_heads:
                if head not in working:
                    working.add(head)
                    grew = True
            if not grew:
                break
            delta_since = round_mark
        return added

    def _match_constraints(self, delta_since: int) -> list[_ViolationRecord]:
        """Record constraint violations using at least one delta fact.

        A *new* violation signature necessarily contains a delta fact, so
        every body permutation of it is enumerated in this pass; the stored
        representative is the lexicographically smallest one — exactly the
        match the from-scratch engines keep after sorting and deduplicating.
        Ordering compares statement keys only: the engines' sort keys add a
        confidence tie-break, but equal keys always mean the same stored
        fact, so the tie-break never decides an order.  Returns the new
        violations.
        """
        violations = self._violations
        created: dict[tuple, _ViolationRecord] = {}
        for constraint_index, (constraint, plan) in enumerate(
            zip(self.constraints, self._constraint_plans)
        ):
            for substitution, facts in _delta_matches(plan, self._working, delta_since):
                keys = tuple(fact.statement_key for fact in facts)
                if len(set(keys)) != len(keys):
                    continue  # degenerate: the same fact fills two body atoms
                if not constraint.violated_by(substitution):
                    continue
                signature = (constraint.name, tuple(sorted(keys)))
                record = violations.get(signature)
                # Only a record of this pass can be replaced: a live older
                # violation holds no delta fact, so no delta match finds it.
                if record is None or keys < record.order_key:
                    violations[signature] = created[signature] = _ViolationRecord(
                        constraint_index=constraint_index,
                        facts=tuple(facts),
                        fact_keys=keys,
                        order_key=keys,
                        signature=signature,
                    )
        return list(created.values())

    # ------------------------------------------------------------------ #
    # Emission
    # ------------------------------------------------------------------ #
    def emit_component(self, component: MaintainedComponent) -> ComponentEmission:
        """One component's slice of the emission (see :class:`ComponentEmission`).

        Firings are layered into semi-naive rounds (a firing belongs to round
        ``1 + max(availability round of its body facts)``) and ordered
        round → rule → lexicographic-body; firings deeper than ``max_rounds``
        layers — and violations touching facts only derivable beyond the
        bound — are filtered out, reproducing the from-scratch engines'
        truncation semantics exactly.  Requires :attr:`saturated`.
        """
        facts = self.graph._facts
        evidence_keys = sorted(
            [key for key in component.keys if key in facts], key=self.graph._added_at.__getitem__
        )
        available = set(evidence_keys)
        registered = set(available)
        firings: list[tuple[tuple, _FiringRecord, bool]] = []
        pending = list(component.firings)
        rounds = 0
        for round_number in range(1, self.max_rounds + 1):
            if not pending:
                break
            ready: list[_FiringRecord] = []
            remaining: list[_FiringRecord] = []
            for record in pending:
                (ready if available.issuperset(record.body_keys) else remaining).append(record)
            if not ready:
                break
            pending = remaining
            rounds = round_number
            ready.sort(key=lambda record: (record.rule_index, record.body_keys))
            for record in ready:
                # Body atoms are always registered already: every body fact is
                # available, i.e. evidence or the head of an earlier firing.
                first = record.head_key not in registered
                if first:
                    registered.add(record.head_key)
                firings.append(((round_number, record.rule_index, record.body_keys), record, first))
            available.update([record.head_key for record in ready])
        violations = [
            record for record in component.violations if available.issuperset(record.fact_keys)
        ]
        violations.sort(key=violation_order)
        return ComponentEmission(
            evidence=tuple(map(facts.__getitem__, evidence_keys)),
            firings=tuple(firings),
            violations=tuple(violations),
            rounds=rounds,
        )

    def emit_plan(self) -> EmissionPlan:
        """Every component's emission, merged in global emission order.

        Evidence comes in graph insertion order; firings are merged by
        ``(round, rule index, body keys)``, so derived atoms come in
        first-firing order, and violations by :func:`violation_order`.
        Requires :attr:`saturated`.
        """
        emissions = [self.emit_component(component) for component in self._components]
        emit_priors = self.derived_prior > 0
        firings = sorted(
            (entry for emission in emissions for entry in emission.firings), key=itemgetter(0)
        )
        violations = sorted(
            (record for emission in emissions for record in emission.violations),
            key=violation_order,
        )
        return EmissionPlan(
            evidence=tuple(self.graph),
            firings=[(record, first and emit_priors) for _, record, first in firings],
            violations=violations,
            rounds=max((emission.rounds for emission in emissions), default=0),
        )

    def fresh_facts(self, facts: Iterable[TemporalFact]) -> tuple[TemporalFact, ...]:
        """Replace match-time evidence snapshots with current graph objects.

        Maintained records capture fact objects at match time; a later
        confidence update changes the stored evidence fact but not the
        record.  Reporting paths route through this so violations and
        firings show current confidences (derived facts pass through).
        """
        stored = self.graph._facts
        return tuple(stored.get(fact.statement_key, fact) for fact in facts)

    def ground(self) -> GroundingResult:
        """Materialise the maintained state as a from-scratch-identical result.

        The emitted :class:`~repro.logic.ground.GroundProgram` is identical —
        same atoms, same clause emission order, same floats — to a fresh
        :class:`IndexedGrounder` pass over the current graph.
        """
        if not self.saturated:
            # Degraded mode: the rule set outran the maintained fix point;
            # fall back to an exact from-scratch pass over the current graph.
            return IndexedGrounder(
                self.graph,
                rules=self.rules,
                constraints=self.constraints,
                max_rounds=self.max_rounds,
                derive_facts=self.derive_facts,
                keep_bias=self.keep_bias,
                derived_prior=self.derived_prior,
            ).ground()

        plan = self.emit_plan()
        program = GroundProgram()
        result = GroundingResult(program=program, rounds=plan.rounds)

        for fact in plan.evidence:
            added = program.add_atom(fact, is_evidence=True)
            program.add_clause(
                [(added.index, True)],
                weight=fact.log_weight + self.keep_bias,
                kind=ClauseKind.EVIDENCE,
                origin="evidence",
            )
        for record, emit_prior in plan.firings:
            rule = self.rules[record.rule_index]
            # Evidence atoms were all added first, so is_evidence=False can
            # never downgrade one (evidence status is sticky in add_atom).
            head_atom = program.add_atom(record.head, False, derived_by=record.rule_name)
            if emit_prior:
                program.add_clause(
                    [(head_atom.index, True)],
                    weight=-self.derived_prior,
                    kind=ClauseKind.PRIOR,
                    origin=f"prior:{record.rule_name}",
                )
            body_atoms = [program.add_atom(fact, False) for fact in record.body]
            literals = [(atom.index, False) for atom in body_atoms]
            literals.append((head_atom.index, True))
            program.add_clause(
                literals, weight=rule.weight, kind=ClauseKind.RULE, origin=record.rule_name
            )
            result.firings.append(
                RuleFiring(
                    record.rule_name,
                    self.fresh_facts(record.body),
                    record.head,
                    rule.weight,
                )
            )
        for record in plan.violations:
            constraint = self.constraints[record.constraint_index]
            violation_atoms = [program.add_atom(fact, False) for fact in record.facts]
            program.add_clause(
                [(atom.index, False) for atom in violation_atoms],
                weight=constraint.weight,
                kind=ClauseKind.CONSTRAINT,
                origin=constraint.name,
            )
            result.violations.append(
                ConstraintViolation(
                    constraint.name, self.fresh_facts(record.facts), constraint.weight
                )
            )
        return result

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def state_summary(self) -> dict[str, int]:
        """Size of the maintained match state (diagnostics)."""
        return {
            "evidence_facts": len(self.graph),
            "working_facts": len(self._working),
            "firings": len(self._firings),
            "violations": len(self._violations),
            "components": len(self._components),
            "saturated": int(self.saturated),
        }


#: Make the incremental engine selectable wherever "indexed"/"naive" are.
GROUNDING_ENGINES["incremental"] = IncrementalGrounder
