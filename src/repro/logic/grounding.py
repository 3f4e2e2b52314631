"""The grounding engine.

Turns an uncertain temporal KG plus temporal inference rules and constraints
into a :class:`~repro.logic.ground.GroundProgram`:

1. every evidence fact becomes a ground atom with a soft unit clause whose
   weight is the fact's log-odds (certain facts get a large finite weight);
2. inference rules are forward-chained to a fix point; every rule firing adds
   the derived fact as a (hidden) ground atom and a clause
   ``¬b₁ ∨ … ∨ ¬bₖ ∨ h`` carrying the rule's weight;
3. constraints are grounded against evidence *and* derived facts; every
   violated instantiation adds a conflict clause ``¬f₁ ∨ … ∨ ¬fₖ``.

This module holds the two row-oriented engines and the engine registry:

* :class:`IndexedGrounder` — semi-naive forward chaining.  Each round joins
  rule bodies only against the *delta* of facts derived in the previous round
  (via the graph's insertion ticks and hash indexes), skips the per-lookup
  sorting and term coercion of the public
  :meth:`~repro.kg.graph.TemporalKnowledgeGraph.find` API, and deduplicates
  ground clauses by firing/violation signature against a cached atom table.
  Within every round the collected matches are re-ordered into the naive
  enumeration order, so the emitted program is bit-for-bit identical to the
  naive one.  It is the differential reference for the faster engines, the
  incremental engine's from-scratch fallback, and the matcher the columnar
  engine uses for bodies with variable predicates.
* :class:`NaiveGrounder` — the original rescan-everything engine, kept as the
  reference implementation for the differential tests and benchmarks.

A :class:`GroundingResult` keeps its firings and violations in a
:class:`FiringTable` and a :class:`ViolationTable`: the scalar engines append
:class:`RuleFiring` and :class:`ConstraintViolation` objects, the vectorized
engine adds blocks of atom indexes whose objects are built on first read.
:meth:`ViolationTable.conflicts` turns the violations into the
:class:`ConflictTable` a resolution result carries: rows over the distinct
conflicting facts, with the statistics read from the blocks and no
reference to the program.

One-shot grounding, including the pure conflict *detection* of
:func:`find_conflicts` (the Figure 8 statistics), uses :data:`DEFAULT_ENGINE`:
the columnar ``"vectorized"`` engine (:mod:`repro.logic.vectorized`), which
emits the same program faster.  Sessions ground with ``"incremental"``.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import repeat
from typing import Iterable, Iterator, Optional

import numpy as np

from ..errors import GroundingError, LogicError
from ..kg import IRI, TemporalFact, TemporalKnowledgeGraph
from ..temporal import TimeInterval
from .atom import QuadAtom
from .constraint import TemporalConstraint
from .ground import ClauseKind, GroundAtom, GroundProgram
from .rule import TemporalRule
from .substitution import Substitution
from .terms import Variable


@dataclass(frozen=True, slots=True)
class RuleFiring:
    """One ground instantiation of an inference rule."""

    rule: str
    body: tuple[TemporalFact, ...]
    head: TemporalFact
    weight: Optional[float]


@dataclass(frozen=True, slots=True)
class ConstraintViolation:
    """One violated ground instantiation of a constraint (a conflict set)."""

    constraint: str
    facts: tuple[TemporalFact, ...]
    weight: Optional[float]

    @property
    def is_hard(self) -> bool:
        return self.weight is None

    def __str__(self) -> str:
        inner = "; ".join(str(fact) for fact in self.facts)
        return f"{self.constraint}: {{{inner}}}"


class _RecordTable(Sequence):
    """A sequence of records filled as objects or as blocks of index rows.

    The scalar engines append record objects.  The vectorized engine adds
    blocks instead: an owner (a rule or constraint) and rows of indexes, and
    the table builds the block's objects the first time it is read.  The
    length is known without building.  A table compares equal to another
    table, and to a ``list`` (or, for :attr:`_like` ``tuple``, a ``tuple``)
    holding equal records.
    """

    __slots__ = ("_items", "_pending", "_pending_size")

    #: The built-in sequence type a table stands in for (equality, slices).
    _like: type = list

    def __init__(self) -> None:
        self._items: list = []
        self._pending: list[tuple] = []
        self._pending_size = 0

    def _add_block(self, block: tuple, size: int) -> None:
        self._pending.append(block)
        self._pending_size += size

    def _build(self) -> list:
        if self._pending:
            self._items.extend(self._records(self._pending))
            self._pending = []
            self._pending_size = 0
        return self._items

    def _records(self, blocks: list[tuple]) -> Iterable:
        """The record objects of ``blocks``, in order."""
        raise NotImplementedError

    def __len__(self) -> int:
        return len(self._items) + self._pending_size

    def __iter__(self) -> Iterator:
        return iter(self._build())

    def __getitem__(self, index):
        items = self._build()[index]
        return self._like(items) if isinstance(index, slice) else items

    def __eq__(self, other: object) -> bool:
        if isinstance(other, _RecordTable):
            return self._build() == other._build()
        if isinstance(other, self._like):
            return self._build() == list(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return repr(self._like(self._build()))


def _fact_table(atoms: Sequence[GroundAtom]) -> list[TemporalFact]:
    return [atom.fact for atom in atoms]


class FiringTable(_RecordTable):
    """:attr:`GroundingResult.firings`: one :class:`RuleFiring` per rule clause.

    A block is a rule, its firings' body atom indexes (one row each) and
    their head atom indexes, over the program's atom table.  A firing's head
    is its head atom's fact when that fact carries the rule's
    ``derived_confidence``, else a copy with it — the fact the rule
    instantiated, when an evidence fact or another rule's head got the atom
    first.
    """

    __slots__ = ("_atoms",)

    def __init__(self, atoms: Sequence[GroundAtom]) -> None:
        super().__init__()
        self._atoms = atoms

    def append(self, firing: RuleFiring) -> None:
        self._build().append(firing)

    def add_block(self, rule: TemporalRule, body_atoms: np.ndarray, head_atoms: np.ndarray) -> None:
        self._add_block((rule, body_atoms, head_atoms), len(head_atoms))

    def _records(self, blocks):
        facts = _fact_table(self._atoms)
        for rule, body_atoms, head_atoms in blocks:
            confidence = rule.derived_confidence
            bodies = zip(*(map(facts.__getitem__, column) for column in body_atoms.T.tolist()))
            heads = []
            for head in map(facts.__getitem__, head_atoms.tolist()):
                if head.confidence != confidence or type(head.confidence) is not type(confidence):
                    head = head.with_confidence(confidence)
                heads.append(head)
            yield from map(RuleFiring, repeat(rule.name), bodies, heads, repeat(rule.weight))


class ViolationTable(_RecordTable):
    """:attr:`GroundingResult.violations`: one :class:`ConstraintViolation` per conflict clause.

    A block is a constraint and its conflicts' atom indexes (one row each,
    in body order) over the program's atom table.
    """

    __slots__ = ("_atoms", "_blocks", "_appended")

    def __init__(self, atoms: Sequence[GroundAtom]) -> None:
        super().__init__()
        self._atoms = atoms
        self._blocks: list[tuple[TemporalConstraint, np.ndarray]] = []
        self._appended = False

    def append(self, violation: ConstraintViolation) -> None:
        self._build().append(violation)
        self._appended = True

    def add_block(self, constraint: TemporalConstraint, atom_rows: np.ndarray) -> None:
        self._blocks.append((constraint, atom_rows))
        self._add_block((constraint, atom_rows), len(atom_rows))

    def _records(self, blocks):
        facts = _fact_table(self._atoms)
        for constraint, atom_rows in blocks:
            bodies = [tuple(map(facts.__getitem__, row)) for row in atom_rows.tolist()]
            yield from map(
                ConstraintViolation, repeat(constraint.name), bodies, repeat(constraint.weight)
            )

    def conflicts(self) -> "ConflictTable":
        """The violations as a :class:`ConflictTable` over their own facts.

        For blocks this is array work: the distinct atoms in order of first
        appearance (``np.unique``), and each row re-indexed into them.
        """
        if self._appended or not self._blocks:
            return ConflictTable.from_violations((v.constraint, v.weight, v.facts) for v in self)
        flat = np.concatenate([rows.ravel() for _, rows in self._blocks])
        atoms, first, inverse = np.unique(flat, return_index=True, return_inverse=True)
        order = np.argsort(first)
        position = np.empty(order.size, dtype=np.int64)
        position[order] = np.arange(order.size, dtype=np.int64)
        local = position[inverse.ravel()]
        facts = tuple(self._atoms[index].fact for index in atoms[order].tolist())
        blocks = []
        offset = 0
        for constraint, rows in self._blocks:
            stop = offset + rows.size
            blocks.append(
                (constraint.name, constraint.weight, local[offset:stop].reshape(rows.shape))
            )
            offset = stop
        return ConflictTable(facts, blocks)


class ConflictTable(_RecordTable):
    """The violations of a :class:`~repro.core.result.ResolutionResult`.

    A read-only sequence that reads like the tuple of
    :class:`ConstraintViolation` it stands for.  Its blocks are a constraint
    name, a weight and rows of positions in :attr:`facts`, the distinct
    conflicting facts in order of first appearance; it holds no reference
    to the ground program.  The statistics — counts, hard and soft counts,
    :meth:`by_constraint` — come from the blocks without building objects.
    """

    __slots__ = ("facts", "_blocks")

    _like = tuple

    def __init__(
        self,
        facts: tuple[TemporalFact, ...],
        blocks: list[tuple[str, Optional[float], np.ndarray]],
    ) -> None:
        super().__init__()
        self.facts = facts
        self._blocks = blocks
        for block in blocks:
            self._add_block(block, len(block[2]))

    @classmethod
    def from_violations(
        cls, violations: Iterable[tuple[str, Optional[float], Sequence[TemporalFact]]]
    ) -> "ConflictTable":
        """Table of ``(constraint name, weight, facts)`` triples, in order.

        A fact's position is that of the first fact with its statement key.
        """
        positions: dict[tuple, int] = {}
        facts: list[TemporalFact] = []
        blocks: list[tuple[str, Optional[float], np.ndarray]] = []
        group: Optional[tuple] = None
        rows: list[list[int]] = []
        for name, weight, body in violations:
            row = []
            for fact in body:
                position = positions.get(fact.statement_key)
                if position is None:
                    position = positions[fact.statement_key] = len(facts)
                    facts.append(fact)
                row.append(position)
            key = (name, weight, type(weight), len(row))
            if key != group:
                if rows:
                    blocks.append((group[0], group[1], np.array(rows, dtype=np.int64)))
                group, rows = key, []
            rows.append(row)
        if rows:
            blocks.append((group[0], group[1], np.array(rows, dtype=np.int64)))
        return cls(tuple(facts), blocks)

    def _records(self, blocks):
        facts = self.facts
        for name, weight, rows in blocks:
            bodies = [tuple(map(facts.__getitem__, row)) for row in rows.tolist()]
            yield from map(ConstraintViolation, repeat(name), bodies, repeat(weight))

    def __hash__(self) -> int:
        return hash(tuple(self._build()))

    @property
    def hard_count(self) -> int:
        """Number of violations of hard constraints."""
        return sum(len(rows) for _, weight, rows in self._blocks if weight is None)

    def by_constraint(self) -> dict[str, int]:
        """Number of violations per constraint name, in order of first violation."""
        counts: dict[str, int] = {}
        for name, _, rows in self._blocks:
            if len(rows):
                counts[name] = counts.get(name, 0) + len(rows)
        return counts


@dataclass
class GroundingResult:
    """Everything produced by a full grounding pass."""

    program: GroundProgram
    rounds: int = 0
    firings: FiringTable = field(init=False)
    violations: ViolationTable = field(init=False)

    def __post_init__(self) -> None:
        self.firings = FiringTable(self.program.atoms)
        self.violations = ViolationTable(self.program.atoms)

    def derived_facts(self) -> list[TemporalFact]:
        return [atom.fact for atom in self.program.derived_atoms()]

    def conflicting_facts(self) -> list[TemporalFact]:
        """Distinct facts participating in at least one violation."""
        return list(self.violations.conflicts().facts)


# --------------------------------------------------------------------------- #
# Body matching
# --------------------------------------------------------------------------- #
def _match_body(
    body: Sequence[QuadAtom],
    graph: TemporalKnowledgeGraph,
    substitution: Substitution,
    position: int = 0,
) -> Iterator[tuple[Substitution, tuple[TemporalFact, ...]]]:
    """Enumerate all ways of matching ``body`` against ``graph``.

    Standard backtracking join: each body atom queries the graph with the
    most selective pattern available under the current partial substitution.
    Yields ``(substitution, matched facts)`` pairs.
    """
    if position == len(body):
        yield substitution, ()
        return
    atom = body[position]
    subject, predicate, obj = atom.bound_pattern(substitution)
    for fact in graph.find(subject=subject, predicate=predicate, obj=obj):
        extended = atom.match(fact, substitution)
        if extended is None:
            continue
        for final, rest in _match_body(body, graph, extended, position + 1):
            yield final, (fact, *rest)


def match_rule(
    rule: TemporalRule, graph: TemporalKnowledgeGraph
) -> Iterator[tuple[Substitution, tuple[TemporalFact, ...]]]:
    """All body matches of ``rule`` whose conditions hold."""
    for substitution, facts in _match_body(rule.body, graph, Substitution.empty()):
        if all(condition.holds(substitution) for condition in rule.conditions):
            yield substitution, facts


def match_constraint(
    constraint: TemporalConstraint, graph: TemporalKnowledgeGraph
) -> Iterator[tuple[Substitution, tuple[TemporalFact, ...]]]:
    """All body matches of ``constraint`` (conditions *not* yet checked)."""
    yield from _match_body(constraint.body, graph, Substitution.empty())


class _AtomPlan:
    """A :class:`QuadAtom` compiled for the indexed engine's join loop.

    Each position is split at compile time into a constant or a variable
    *name*, so the per-candidate work is string-keyed dictionary stores
    instead of the immutable :class:`Substitution` extension the naive
    engine performs per fact (variable names hash faster than the dataclass
    variables, and str caches its hash).
    """

    __slots__ = ("subject", "predicate", "object", "interval")

    def __init__(self, atom: QuadAtom) -> None:
        def entry(position):
            return (True, position.name) if isinstance(position, Variable) else (False, position)

        self.subject = entry(atom.subject)
        self.predicate = entry(atom.predicate)
        self.object = entry(atom.object)
        self.interval = entry(atom.interval)


def _compile_body(body: Sequence[QuadAtom]) -> list[_AtomPlan]:
    return [_AtomPlan(atom) for atom in body]


class _BindingsView:
    """Zero-copy :class:`Substitution` stand-in over the live bindings dict.

    Conditions, interval expressions, and head instantiation only consume a
    substitution through ``get`` / ``term`` / ``interval`` / ``intervals``;
    backing those with the matcher's name-keyed dict turns the naive
    engine's per-lookup linear scans into O(1) hash lookups and avoids
    materialising a :class:`Substitution` per match.  The view stays current
    as the matcher backtracks, so consumers must read it before resuming the
    match generator (the grounder does).
    """

    __slots__ = ("_bindings",)

    def __init__(self, bindings: dict) -> None:
        self._bindings = bindings

    def get(self, variable: Variable):
        return self._bindings.get(variable.name)

    def term(self, variable: Variable):
        value = self._bindings.get(variable.name)
        return value if not isinstance(value, TimeInterval) else None

    def interval(self, variable: Variable) -> Optional[TimeInterval]:
        value = self._bindings.get(variable.name)
        return value if isinstance(value, TimeInterval) else None

    def intervals(self) -> dict[str, TimeInterval]:
        return {
            name: value for name, value in self._bindings.items() if isinstance(value, TimeInterval)
        }


def _match_compiled(
    plans: Sequence[_AtomPlan],
    graph: TemporalKnowledgeGraph,
    order: Sequence[int],
    bounds: Sequence[tuple[Optional[int], Optional[int]]],
    bindings: dict,
    facts: list[Optional[TemporalFact]],
    step: int = 0,
) -> Iterator[tuple[TemporalFact, ...]]:
    """Backtracking join expanding body positions in ``order``.

    ``bounds[position]`` is an insertion-tick window ``(since, before)``
    restricting which facts the atom at ``position`` may match — the
    semi-naive delta discipline.  Uses the graph's raw (unsorted, uncoerced)
    index scans and a mutable name-keyed ``bindings`` dict with trail-based
    undo; callers needing a deterministic order sort the collected matches
    afterwards.  At yield time ``bindings`` holds the full match's variable
    assignment (snapshot it before resuming the generator).
    """
    if step == len(order):
        yield tuple(facts)  # type: ignore[arg-type]
        return
    position = order[step]
    plan = plans[position]

    # Resolve the index lookup pattern under the current bindings.  Positions
    # passed to iter_matching are guaranteed equal on every returned fact, so
    # only positions left unbound need per-candidate binding work.
    is_var, value = plan.subject
    subject = bindings.get(value) if is_var else value
    is_var, value = plan.object
    obj = bindings.get(value) if is_var else value
    is_var, value = plan.predicate
    if is_var:
        predicate = bindings.get(value)
        if predicate is not None and not isinstance(predicate, IRI):
            if isinstance(predicate, TimeInterval):
                return  # an interval can never equal a fact's predicate
            raise LogicError(f"predicate position bound to non-IRI value {predicate!r}")
    else:
        predicate = value

    checks: list[tuple[int, str, bool]] = []  # (field, variable name, check_only)
    scheduled: set[str] = set()
    for index, (is_var, value), resolved in (
        (0, plan.subject, subject),
        (1, plan.predicate, predicate),
        (2, plan.object, obj),
    ):
        if is_var and resolved is None:
            checks.append((index, value, value in scheduled))
            scheduled.add(value)

    required_interval: Optional[TimeInterval] = None
    is_var, value = plan.interval
    if is_var:
        bound = bindings.get(value)
        if bound is None:
            checks.append((3, value, value in scheduled))
            scheduled.add(value)
        elif isinstance(bound, TimeInterval):
            required_interval = bound
        else:
            return  # interval variable clashed with an entity binding
    else:
        required_interval = value

    since, before = bounds[position]
    last_step = step + 1 == len(order)
    next_step = step + 1
    for fact in graph.iter_matching(subject, predicate, obj, since=since, before=before):
        if required_interval is not None and fact.interval != required_interval:
            continue
        matched = True
        added: list[str] = []
        for index, name, check_only in checks:
            candidate = (
                fact.subject if index == 0
                else fact.predicate if index == 1
                else fact.object if index == 2
                else fact.interval
            )
            if check_only:
                if bindings[name] != candidate:
                    matched = False
                    break
            else:
                bindings[name] = candidate
                added.append(name)
        if matched:
            facts[position] = fact
            if last_step:
                yield tuple(facts)  # type: ignore[arg-type]
            else:
                yield from _match_compiled(plans, graph, order, bounds, bindings, facts, next_step)
        for name in added:
            del bindings[name]


def _delta_matches(
    plans: Sequence[_AtomPlan],
    graph: TemporalKnowledgeGraph,
    delta_since: int,
) -> Iterator[tuple[_BindingsView, tuple[TemporalFact, ...]]]:
    """All body matches using at least one fact added at tick ≥ ``delta_since``.

    Classic semi-naive split: for pivot position ``i`` the pivot atom draws
    from the delta, positions left of it from the pre-delta facts, and
    positions right of it from the whole graph — each qualifying match is
    enumerated exactly once.  The pivot is expanded first, so every
    derivation starts from the (usually small) delta.
    """
    arity = len(plans)
    bindings: dict = {}
    view = _BindingsView(bindings)
    for pivot in range(arity):
        if delta_since <= 0 and pivot > 0:
            # No pre-delta facts exist, so any later pivot has an empty
            # left-hand window; only pivot 0 can produce matches.
            break
        bounds = [
            (delta_since, None) if position == pivot
            else (None, delta_since) if position < pivot
            else (None, None)
            for position in range(arity)
        ]
        order = [pivot, *(position for position in range(arity) if position != pivot)]
        for facts in _match_compiled(plans, graph, order, bounds, bindings, [None] * arity):
            yield view, facts


def _full_matches(
    plans: Sequence[_AtomPlan], graph: TemporalKnowledgeGraph
) -> Iterator[tuple[_BindingsView, tuple[TemporalFact, ...]]]:
    """All body matches against the whole graph (raw index scans, unsorted)."""
    arity = len(plans)
    bindings: dict = {}
    view = _BindingsView(bindings)
    for facts in _match_compiled(
        plans, graph, range(arity), [(None, None)] * arity, bindings, [None] * arity
    ):
        yield view, facts


def _body_sort_key(facts: Sequence[TemporalFact]) -> tuple:
    """Lexicographic key reproducing the naive engine's enumeration order."""
    return tuple(fact.sort_key() for fact in facts)


# --------------------------------------------------------------------------- #
# The grounders
# --------------------------------------------------------------------------- #
class _GrounderBase:
    """Shared pipeline of the grounding engines.

    Parameters
    ----------
    graph:
        The evidence UTKG.
    rules:
        Temporal inference rules to forward-chain.
    constraints:
        Temporal constraints to ground into conflict clauses.
    max_rounds:
        Upper bound on forward-chaining rounds (rules over derived predicates,
        such as f2 over f1's ``worksFor`` output, need more than one round).
    derive_facts:
        When False, rules are ignored entirely (pure conflict detection).
    keep_bias:
        Small positive weight added to every evidence fact's unit clause so
        that, all else equal, the MAP state prefers *keeping* a fact over
        removing it.  This matters for facts with confidence exactly 0.5
        (log-odds 0), such as fact (3) of the paper's running example, which
        Figure 7 keeps.
    derived_prior:
        Small negative prior placed on every derived (hidden) atom.  Without
        it the MAP state is free to assert derived facts whose supporting
        body facts were removed (the rule clause is vacuously satisfied);
        with it a derived fact is only asserted when a rule firing whose body
        survives actually supports it.
    """

    #: Registry name of the engine (a key of :data:`GROUNDING_ENGINES`).
    engine: str = "abstract"

    def __init__(
        self,
        graph: TemporalKnowledgeGraph,
        rules: Iterable[TemporalRule] = (),
        constraints: Iterable[TemporalConstraint] = (),
        max_rounds: int = 5,
        derive_facts: bool = True,
        keep_bias: float = 1e-3,
        derived_prior: float = 5e-4,
    ) -> None:
        self.graph = graph
        self.rules = list(rules)
        self.constraints = list(constraints)
        if max_rounds < 1:
            raise GroundingError("max_rounds must be at least 1")
        self.max_rounds = max_rounds
        self.derive_facts = derive_facts
        self.keep_bias = keep_bias
        self.derived_prior = derived_prior

    # ------------------------------------------------------------------ #
    def ground(self) -> GroundingResult:
        """Run the full grounding pipeline and return the result."""
        program = GroundProgram()
        result = GroundingResult(program=program)

        # 1. Evidence atoms and their soft unit clauses.
        for fact in self.graph:
            atom = program.add_atom(fact, is_evidence=True)
            program.add_clause(
                [(atom.index, True)],
                weight=fact.log_weight + self.keep_bias,
                kind=ClauseKind.EVIDENCE,
                origin="evidence",
            )

        # Working graph that accumulates derived facts so later rounds and
        # constraint grounding can see them.
        working = self.graph.copy(name=f"{self.graph.name}-working")

        # 2. Forward-chain the inference rules.
        if self.derive_facts and self.rules:
            result.rounds = self._chain_rules(program, working, result)

        # 3. Ground the constraints over evidence + derived facts.
        self._ground_constraints(program, working, result)
        return result

    # ------------------------------------------------------------------ #
    def _chain_rules(
        self,
        program: GroundProgram,
        working: TemporalKnowledgeGraph,
        result: GroundingResult,
    ) -> int:
        raise NotImplementedError

    def _ground_constraints(
        self,
        program: GroundProgram,
        working: TemporalKnowledgeGraph,
        result: GroundingResult,
    ) -> None:
        raise NotImplementedError


class NaiveGrounder(_GrounderBase):
    """The reference engine: every round re-joins the whole working graph.

    Kept verbatim as the baseline the indexed engine is differentially
    tested (and benchmarked) against.
    """

    engine = "naive"

    # ------------------------------------------------------------------ #
    def _chain_rules(
        self,
        program: GroundProgram,
        working: TemporalKnowledgeGraph,
        result: GroundingResult,
    ) -> int:
        seen_firings: set[tuple] = set()
        prior_added: set[int] = set()
        rounds_used = 0
        for round_number in range(1, self.max_rounds + 1):
            new_facts: list[tuple[TemporalRule, tuple[TemporalFact, ...], TemporalFact]] = []
            for rule in self.rules:
                for substitution, body_facts in match_rule(rule, working):
                    head_interval = rule.head_interval_for(substitution)
                    if head_interval is None:
                        continue
                    head_fact = rule.head.instantiate(
                        substitution,
                        interval=head_interval,
                        confidence=rule.derived_confidence,
                    )
                    signature = (
                        rule.name,
                        tuple(fact.statement_key for fact in body_facts),
                        head_fact.statement_key,
                    )
                    if signature in seen_firings:
                        continue
                    seen_firings.add(signature)
                    new_facts.append((rule, body_facts, head_fact))

            if not new_facts:
                break
            rounds_used = round_number
            for rule, body_facts, head_fact in new_facts:
                head_atom = program.add_atom(
                    head_fact, is_evidence=head_fact in self.graph, derived_by=rule.name
                )
                if (
                    not head_atom.is_evidence
                    and self.derived_prior > 0
                    and head_atom.index not in prior_added
                ):
                    prior_added.add(head_atom.index)
                    program.add_clause(
                        [(head_atom.index, True)],
                        weight=-self.derived_prior,
                        kind=ClauseKind.PRIOR,
                        origin=f"prior:{rule.name}",
                    )
                if head_fact not in working:
                    working.add(head_fact)
                body_atoms = [
                    program.add_atom(fact, is_evidence=fact in self.graph) for fact in body_facts
                ]
                literals = [(atom.index, False) for atom in body_atoms]
                literals.append((head_atom.index, True))
                program.add_clause(
                    literals,
                    weight=rule.weight,
                    kind=ClauseKind.RULE,
                    origin=rule.name,
                )
                result.firings.append(
                    RuleFiring(rule.name, tuple(body_facts), head_fact, rule.weight)
                )
        return rounds_used

    # ------------------------------------------------------------------ #
    def _ground_constraints(
        self,
        program: GroundProgram,
        working: TemporalKnowledgeGraph,
        result: GroundingResult,
    ) -> None:
        seen: set[tuple] = set()
        for constraint in self.constraints:
            for substitution, facts in match_constraint(constraint, working):
                # Skip degenerate matches where the same fact fills two body
                # atoms (e.g. c2 matching a coach fact against itself).
                keys = tuple(fact.statement_key for fact in facts)
                if len(set(keys)) != len(keys):
                    continue
                if not constraint.violated_by(substitution):
                    continue
                signature = (constraint.name, tuple(sorted(keys)))
                if signature in seen:
                    continue
                seen.add(signature)
                atoms = [program.add_atom(fact, is_evidence=fact in self.graph) for fact in facts]
                program.add_clause(
                    [(atom.index, False) for atom in atoms],
                    weight=constraint.weight,
                    kind=ClauseKind.CONSTRAINT,
                    origin=constraint.name,
                )
                result.violations.append(
                    ConstraintViolation(constraint.name, tuple(facts), constraint.weight)
                )


class IndexedGrounder(_GrounderBase):
    """Semi-naive, index-driven grounding engine (the default).

    Differences from :class:`NaiveGrounder` — all pure optimisations, the
    emitted program is identical:

    * **semi-naive chaining** — after the first round, rule bodies are joined
      only against the delta of facts derived in the previous round, using
      the graph's insertion-tick windows.  The fix-point check degenerates to
      an (empty) delta join instead of a full re-scan.
    * **raw index scans** — body atoms are matched via
      :meth:`~repro.kg.graph.TemporalKnowledgeGraph.iter_matching`, skipping
      the per-lookup sorting and term coercion of :meth:`find`.  Matches are
      re-sorted into the naive enumeration order once per rule and round,
      which is orders of magnitude cheaper than sorting every index lookup.
    * **atom-table cache and clause deduplication** — evidence membership is
      answered from a precomputed statement-key set, and duplicate ground
      clauses are prevented at the source: rule clauses are deduplicated by
      firing signature (rule, body keys, head key) and constraint clauses by
      violation signature (constraint, sorted fact keys), exactly as in the
      naive engine.
    """

    engine = "indexed"

    # ------------------------------------------------------------------ #
    def _chain_rules(
        self,
        program: GroundProgram,
        working: TemporalKnowledgeGraph,
        result: GroundingResult,
    ) -> int:
        evidence_keys = {fact.statement_key for fact in self.graph}
        seen_firings: set[tuple] = set()
        prior_added: set[int] = set()
        rounds_used = 0
        delta_since = 0  # round 1: the delta is the entire evidence graph
        body_plans = [_compile_body(rule.body) for rule in self.rules]
        for round_number in range(1, self.max_rounds + 1):
            round_mark = working.mark()
            new_facts: list[tuple[TemporalRule, tuple[TemporalFact, ...], TemporalFact]] = []
            for rule, plan in zip(self.rules, body_plans):
                matches: list[tuple[tuple[TemporalFact, ...], TemporalFact]] = []
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
                    signature = (
                        rule.name,
                        tuple(fact.statement_key for fact in body_facts),
                        head_fact.statement_key,
                    )
                    if signature in seen_firings:
                        continue
                    seen_firings.add(signature)
                    matches.append((body_facts, head_fact))
                # Re-establish the naive engine's enumeration order (lexicographic
                # in the body facts) so both engines emit identical programs.
                matches.sort(key=lambda match: _body_sort_key(match[0]))
                new_facts.extend((rule, body, head) for body, head in matches)

            if not new_facts:
                break
            rounds_used = round_number
            for rule, body_facts, head_fact in new_facts:
                head_atom = program.add_atom(
                    head_fact,
                    is_evidence=head_fact.statement_key in evidence_keys,
                    derived_by=rule.name,
                )
                if (
                    not head_atom.is_evidence
                    and self.derived_prior > 0
                    and head_atom.index not in prior_added
                ):
                    prior_added.add(head_atom.index)
                    program.add_clause(
                        [(head_atom.index, True)],
                        weight=-self.derived_prior,
                        kind=ClauseKind.PRIOR,
                        origin=f"prior:{rule.name}",
                    )
                if head_fact not in working:
                    working.add(head_fact)
                body_atoms = [
                    program.add_atom(fact, is_evidence=fact.statement_key in evidence_keys)
                    for fact in body_facts
                ]
                literals = [(atom.index, False) for atom in body_atoms]
                literals.append((head_atom.index, True))
                program.add_clause(
                    literals,
                    weight=rule.weight,
                    kind=ClauseKind.RULE,
                    origin=rule.name,
                )
                result.firings.append(
                    RuleFiring(rule.name, tuple(body_facts), head_fact, rule.weight)
                )
            delta_since = round_mark
        return rounds_used

    # ------------------------------------------------------------------ #
    def _ground_constraints(
        self,
        program: GroundProgram,
        working: TemporalKnowledgeGraph,
        result: GroundingResult,
    ) -> None:
        evidence_keys = {fact.statement_key for fact in self.graph}
        for constraint in self.constraints:
            matches: list[tuple[tuple[TemporalFact, ...], tuple]] = []
            for substitution, facts in _full_matches(_compile_body(constraint.body), working):
                # Skip degenerate matches where the same fact fills two body
                # atoms (e.g. c2 matching a coach fact against itself).
                keys = tuple(fact.statement_key for fact in facts)
                if len(set(keys)) != len(keys):
                    continue
                if not constraint.violated_by(substitution):
                    continue
                matches.append((facts, tuple(sorted(keys))))
            # Sort before deduplicating: of two symmetric matches the naive
            # enumeration keeps the lexicographically first one.
            matches.sort(key=lambda match: _body_sort_key(match[0]))
            seen: set[tuple] = set()
            for facts, sorted_keys in matches:
                if sorted_keys in seen:
                    continue
                seen.add(sorted_keys)
                atoms = [
                    program.add_atom(fact, is_evidence=fact.statement_key in evidence_keys)
                    for fact in facts
                ]
                program.add_clause(
                    [(atom.index, False) for atom in atoms],
                    weight=constraint.weight,
                    kind=ClauseKind.CONSTRAINT,
                    origin=constraint.name,
                )
                result.violations.append(
                    ConstraintViolation(constraint.name, tuple(facts), constraint.weight)
                )


#: Engine registry used by :func:`make_grounder`, the translator, and the CLI.
#: ``"vectorized"`` and ``"incremental"`` register themselves on import.
GROUNDING_ENGINES: dict[str, type[_GrounderBase]] = {
    "indexed": IndexedGrounder,
    "naive": NaiveGrounder,
}

#: The engine one-shot grounding uses unless told otherwise.
DEFAULT_ENGINE = "vectorized"


def make_grounder(
    engine: str,
    graph: TemporalKnowledgeGraph,
    rules: Iterable[TemporalRule] = (),
    constraints: Iterable[TemporalConstraint] = (),
    **kwargs,
) -> _GrounderBase:
    """Instantiate a grounding engine by its :data:`GROUNDING_ENGINES` name."""
    grounder_class = GROUNDING_ENGINES.get(engine)
    if grounder_class is None:
        raise GroundingError(
            f"unknown grounding engine {engine!r}; available: {sorted(GROUNDING_ENGINES)}"
        )
    return grounder_class(graph, rules=rules, constraints=constraints, **kwargs)


# --------------------------------------------------------------------------- #
# Convenience entry points
# --------------------------------------------------------------------------- #
def ground(
    graph: TemporalKnowledgeGraph,
    rules: Iterable[TemporalRule] = (),
    constraints: Iterable[TemporalConstraint] = (),
    max_rounds: int = 5,
    engine: str = DEFAULT_ENGINE,
) -> GroundingResult:
    """Ground ``graph`` with ``rules`` and ``constraints`` (full pipeline)."""
    return make_grounder(
        engine, graph, rules=rules, constraints=constraints, max_rounds=max_rounds
    ).ground()


def find_conflicts(
    graph: TemporalKnowledgeGraph,
    constraints: Iterable[TemporalConstraint],
    engine: str = DEFAULT_ENGINE,
) -> ViolationTable:
    """Detect conflicts only (no rule chaining, no MAP).

    This is what the demo's statistics panel reports: the number of
    conflicting facts found in the loaded UTKG.
    """
    grounder = make_grounder(engine, graph, rules=(), constraints=constraints, derive_facts=False)
    return grounder.ground().violations
