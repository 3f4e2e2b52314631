"""Exact MAP inference for ``nrockit``: variable elimination, HiGHS for wide components.

This back-end plays the role Gurobi plays inside nRockIt: it returns an
exact MAP state of a ground program.  The ground programs of the paper's
workloads split into thousands of independent components, almost all of
them small and of low *width*, so :meth:`ILPMapSolver.solve` works per
connected component of the clause CSR
(:class:`~repro.logic.arrays.GroundProgramArrays`):

* every component of at most :data:`ELIMINATION_MAX_ATOMS` atoms whose
  elimination width is at most :data:`ELIMINATION_MAX_WIDTH` is solved
  exactly by bucket elimination, all such components in the same numpy
  arrays (:func:`eliminate_components`);
* every other component gets one HiGHS call of its own (scipy's ``milp``
  wraps the HiGHS branch-and-cut solver), on the MAP ILP
  :func:`~repro.mln.ilp.encode_arrays` builds from its clauses' CSR rows —
  the ILP its sub-program gets;
* atoms in no clause are closed by the sign of their log weight, as
  :meth:`Decomposition.merge` does.

Every component's answer is thus a function of its own content.  The
eliminated ones get the lexicographically largest assignment among those
with the maximal *exact* satisfied weight (:func:`eliminate_components`
states how sums are made exact).  The reported objective is
:meth:`GroundProgram.objective`'s, the correctly rounded exact sum of the
satisfied soft weights, bit for bit, and ``stats.solver`` is
``"nrockit-ilp"`` on every path.
:meth:`ILPMapSolver.solve_components` solves many programs as one stack.
"""

from __future__ import annotations

import math
import time
from typing import Sequence

import numpy as np

from ...errors import InfeasibleProgramError, SolverError
from ...logic.arrays import GroundProgramArrays, ragged_slices
from ...logic.ground import GroundProgram
from ...solvers import MAPSolution, MAPSolver, MLN_CAPABILITIES, SolverCapabilities, SolverStats
from ...solvers.base import split_stacked_solution
from ..ilp import ILPEncoding, encode_arrays

#: Widest elimination scope (atoms besides the eliminated one) a component
#: may have and still be solved by :func:`eliminate_components`; a wider one
#: goes to HiGHS.  A scope of ``w`` atoms costs a ``2ʷ⁺¹``-entry table, and
#: at width 12 a component's tables already cost about what HiGHS takes on
#: it (per-width table in docs/architecture.md, "Decomposition").  No
#: FootballDB component is wider than 8.
ELIMINATION_MAX_WIDTH = 12

#: Largest component (in atoms) :func:`eliminate_components` takes.  Scopes
#: are int64 bitmasks over a component's local atoms whose highest bit is
#: read through float64, exact below 2⁵³.
ELIMINATION_MAX_ATOMS = 53

#: Work one batch of :func:`eliminate_components` may do, in table entries
#: touched (tables plus clause and message passes).  Components are taken in
#: chunks under this budget, which bounds the kernel's arrays (about 100
#: bytes an entry) whatever the program's size.
ELIMINATION_ENTRY_BUDGET = 1 << 16

_INFEASIBLE = "hard constraints admit no consistent world (no feasible assignment)"


def _popcount(masks: np.ndarray) -> np.ndarray:
    """Set bits of each non-negative int64 mask (any shape), by SWAR steps."""
    masks = masks - ((masks >> 1) & 0x5555555555555555)
    masks = (masks & 0x3333333333333333) + ((masks >> 2) & 0x3333333333333333)
    masks = (masks + (masks >> 4)) & 0x0F0F0F0F0F0F0F0F
    return (masks * 0x0101010101010101) >> 56


def _highest_bit(masks: np.ndarray) -> np.ndarray:
    """Index of the highest set bit of each mask in ``[1, 2⁵³)`` (−1 for 0)."""
    return np.frexp(masks.astype(np.float64))[1] - 1


def _ragged_arange(lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(owner, index)``: for each ``i``, the pairs ``(i, 0 … lengths[i] − 1)``."""
    owner = np.repeat(np.arange(lengths.size, dtype=np.int64), lengths)
    starts = np.cumsum(lengths) - lengths
    return owner, np.arange(owner.size, dtype=np.int64) - starts[owner]


def _budget_runs(costs: np.ndarray) -> list[tuple[int, int]]:
    """Consecutive runs of ``costs`` as ``(start, stop)``, split where the
    running total crosses a multiple of :data:`ELIMINATION_ENTRY_BUDGET`: a
    run costs at most the budget plus its first item."""
    group = (np.cumsum(costs) - 1) // ELIMINATION_ENTRY_BUDGET
    edges = [0, *(np.flatnonzero(np.diff(group)) + 1).tolist(), costs.size]
    return list(zip(edges[:-1], edges[1:]))


def _exact_grids(
    arrays: GroundProgramArrays, clause_labels: np.ndarray, num_components: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per component, ``(grid exponent g, exact)``: soft weights split as
    ``hi + lo`` with ``hi`` on the grid ``2ᵍ`` have exact partial sums.

    With ``S`` the component's soft weight, ``u`` the smallest ulp among its
    soft weights and ``n`` their count, ``g`` is chosen so that
    ``S < 2⁵²·2ᵍ``; the split is exact when also ``n·2ᵍ ≤ 2⁵²·u``.  Then
    every partial sum of ``hi`` parts is a multiple of ``2ᵍ`` below
    ``2⁵²·2ᵍ`` and every partial sum of ``lo`` parts a multiple of ``u``
    below ``2⁵²·u``: exact in float64, in any order.
    """
    soft = ~arrays.is_hard
    labels = clause_labels[soft]
    weights = arrays.weights[soft]
    total = np.bincount(labels, weights=weights, minlength=num_components)
    count = np.bincount(labels, minlength=num_components)
    ulp = np.full(num_components, 1 << 20, dtype=np.int64)
    np.minimum.at(ulp, labels, np.frexp(weights)[1].astype(np.int64) - 53)
    # S < 2^e; 2^52·2^g = 2^(e+1) leaves a factor of two for bincount's rounding.
    grid = np.frexp(total)[1].astype(np.int64) - 51
    exact = (
        np.isfinite(total)
        & (grid >= -1074)
        & (np.frexp(count.astype(np.float64))[1] <= 52 + ulp - grid)
    )
    return grid, exact


def _exact_ge(hi_a, lo_a, hi_b, lo_b) -> np.ndarray:
    """``a ≥ b`` for exact split sums: the sign of ``(hi_a − hi_b) + (lo_a − lo_b)``.

    Both differences are exact and rounding never flips the sign of a sum
    of two floats.  ``−∞`` (infeasible) loses to any finite value; two
    ``−∞`` give NaN, which compares false.
    """
    with np.errstate(invalid="ignore"):
        return (hi_a - hi_b) + (lo_a - lo_b) >= 0


class _Elimination:
    """The symbolic part of eliminating a program's components.

    Local atom ``i`` of a component is its ``i``-th atom in global order;
    the highest local index is eliminated first.  An atom's *scope* is its
    neighbours not yet eliminated in the fill-in graph (an int64 mask of
    local indexes); its parent in the elimination tree is the highest of
    them, and its height is its distance from its deepest descendant leaf.
    A clause's bucket is its atom of highest local index.
    """

    def __init__(
        self,
        arrays: GroundProgramArrays,
        atom_labels: np.ndarray,
        clause_labels: np.ndarray,
        sizes: np.ndarray,
        candidates: np.ndarray,
    ) -> None:
        self.atom_labels = atom_labels
        self.clause_labels = clause_labels
        # Atoms grouped by component, ascending within it.
        self.members = members = np.argsort(atom_labels, kind="stable")
        self.first_member = np.cumsum(sizes) - sizes
        local = np.empty(arrays.num_atoms, dtype=np.int64)
        local[members] = np.arange(arrays.num_atoms) - self.first_member[atom_labels[members]]
        taken = candidates[atom_labels]
        self.local = np.where(taken, local, 0)

        bits = np.left_shift(np.int64(1), self.local)
        literal_bits = bits[arrays.literal_atoms]
        clause_masks = np.bitwise_or.reduceat(literal_bits, arrays.clause_offsets[:-1])
        self.bucket = self.atom(clause_labels, _highest_bit(clause_masks))
        scope = np.zeros(arrays.num_atoms, dtype=np.int64)
        np.bitwise_or.at(
            scope, arrays.literal_atoms, clause_masks[arrays.literal_clauses] & (literal_bits - 1)
        )
        self.parent = np.full(arrays.num_atoms, -1, dtype=np.int64)
        self.height = np.zeros(arrays.num_atoms, dtype=np.int64)
        atoms = np.flatnonzero(taken)
        by_local = atoms[np.argsort(self.local[atoms], kind="stable")]
        counts = np.bincount(self.local[atoms])
        ends = np.cumsum(counts)
        for index in range(counts.size - 1, 0, -1):
            step = by_local[ends[index] - counts[index] : ends[index]]
            masks = scope[step]
            top = _highest_bit(masks)
            up = self.atom(atom_labels[step], top)
            self.parent[step] = up
            # One atom per component per step: the parents are distinct.
            scope[up] |= masks & ~np.left_shift(np.int64(1), top)
            self.height[up] = np.maximum(self.height[up], self.height[step] + 1)
        self.scope = scope
        self.width = np.zeros(arrays.num_atoms, dtype=np.int64)
        self.width[atoms] = _popcount(scope[atoms])
        self.component_width = np.zeros(sizes.size, dtype=np.int64)
        np.maximum.at(self.component_width, atom_labels[atoms], self.width[atoms])

    def atom(self, labels: np.ndarray, local: np.ndarray) -> np.ndarray:
        """Global index of local atom ``local`` of component ``labels``."""
        return self.members[self.first_member[labels] + local]


def eliminate_components(
    arrays: GroundProgramArrays,
    selected: np.ndarray,
    elimination: _Elimination,
    grid: np.ndarray,
) -> np.ndarray:
    """Exact MAP states of the components ``selected`` flags, by bucket elimination.

    ``selected`` is a boolean mask over component ids; each flagged
    component must have clauses, an exact grid (:func:`_exact_grids`) and a
    symbolic elimination in ``elimination``.  Returns a boolean assignment
    over all atoms holding every flagged component's MAP state (other atoms
    stay ``False``).

    Atom ``v`` gets a table over ``v`` (bit 0) and its scope (bits 1 … w in
    ascending local order) holding, per entry, the best satisfied weight of
    the clauses in ``v``'s subtree of the elimination tree — less a constant,
    as each clause adds ``−weight`` where it is violated and hard clauses
    ``−∞``.  Its message to its parent is the entrywise maximum over bit 0,
    remembering which half won.  Tables are batched across components:
    unit clauses as per-atom vectors, the other clauses in a few vectorized
    passes, and messages level by level up the tree by height; the traceback
    runs level by level down, setting ``v`` true iff its ``v = 1`` entry is
    at least its ``v = 0`` entry.  Comparisons are exact: weights are split as
    ``hi + lo`` on each component's grid, so every table entry is a pair of
    exact sums (:func:`_exact_ge`).  Given the values of lower-index atoms
    the rest of the objective does not depend on ``v``, so this picks the
    lexicographically largest ``(x₀, x₁, …)`` among the optimal feasible
    states — the tie rule of ``itertools.product`` with exact sums.

    Components are taken in chunks of about :data:`ELIMINATION_ENTRY_BUDGET`
    entries of work.  Raises :class:`InfeasibleProgramError` when some
    flagged component has no state satisfying its hard clauses.
    """
    values = np.zeros(arrays.num_atoms, dtype=bool)
    if not selected.any():
        return values
    atom_labels, clause_labels = elimination.atom_labels, elimination.clause_labels
    lengths = arrays.clause_offsets[1:] - arrays.clause_offsets[:-1]
    entries = np.left_shift(np.int64(2), elimination.width)
    atom_selected = selected[atom_labels]
    # Work per atom: its table, one pass per non-unit clause of its bucket,
    # and its message's pass over its parent's table.
    nonunit = selected[clause_labels] & (lengths > 1)
    passes = 1 + np.bincount(elimination.bucket[nonunit], minlength=arrays.num_atoms)
    has_parent = atom_selected & (elimination.parent >= 0)
    work = np.where(atom_selected, entries * passes, 0)
    np.add.at(work, elimination.parent[has_parent], entries[elimination.parent[has_parent]])
    cost = np.bincount(atom_labels, weights=work, minlength=selected.size)
    chosen = np.flatnonzero(selected)
    runs = _budget_runs(cost[chosen])
    # Chunk ids by component; unselected components sort after every chunk.
    chunk_of = np.full(selected.size, len(runs), dtype=np.int64)
    for chunk, (start, stop) in enumerate(runs):
        chunk_of[chosen[start:stop]] = chunk
    atom_chunk = chunk_of[atom_labels]
    clause_chunk = chunk_of[clause_labels]
    atom_order = np.argsort(atom_chunk, kind="stable")
    clause_order = np.argsort(clause_chunk, kind="stable")
    edges = np.arange(len(runs) + 1)
    atom_edges = np.searchsorted(atom_chunk[atom_order], edges).tolist()
    clause_edges = np.searchsorted(clause_chunk[clause_order], edges).tolist()
    for chunk in range(len(runs)):
        atoms = atom_order[atom_edges[chunk] : atom_edges[chunk + 1]]
        clauses = clause_order[clause_edges[chunk] : clause_edges[chunk + 1]]
        _eliminate_chunk(arrays, atoms, clauses, elimination, grid, values)
    return values


def _eliminate_chunk(
    arrays: GroundProgramArrays,
    atoms: np.ndarray,
    clauses: np.ndarray,
    elimination: _Elimination,
    grid: np.ndarray,
    values: np.ndarray,
) -> None:
    """Write the MAP values of ``atoms`` (whole components) given their
    ``clauses`` into ``values``: the kernel :func:`eliminate_components`
    describes.  Tables are laid out by height, so each level's tables and
    messages are one contiguous block."""
    atoms = atoms[np.argsort(elimination.height[atoms], kind="stable")]
    height = elimination.height[atoms]
    count = atoms.size
    slot = np.full(arrays.num_atoms, count, dtype=np.int64)
    slot[atoms] = np.arange(count)
    local = elimination.local[atoms]
    scope = elimination.scope[atoms]
    width = elimination.width[atoms]
    parent = elimination.parent[atoms]
    parent_slot = np.where(parent >= 0, slot[np.maximum(parent, 0)], -1)
    entries = np.left_shift(np.int64(2), width)
    table_end = np.cumsum(entries)
    table_start = table_end - entries
    total = int(table_end[-1])
    level_end = np.cumsum(np.bincount(height))
    level_entries = np.concatenate(([0], table_end[level_end - 1])).tolist()

    # Scope members as chunk slots, ascending local index (sentinel: count).
    max_width = int(width.max())
    members = np.full((count, max_width), count, dtype=np.int64)
    labels = elimination.atom_labels[atoms]
    rest = scope.copy()
    for column in range(max_width):
        lowest = rest & -rest
        present = np.flatnonzero(rest)
        members[present, column] = slot[
            elimination.atom(labels[present], _highest_bit(lowest[present]))
        ]
        rest ^= lowest

    # Each soft weight as hi + lo on its component's grid.
    weights = arrays.weights[clauses]
    exponent = grid[elimination.clause_labels[clauses]]
    weight_hi = np.ldexp(np.floor(np.ldexp(weights, -exponent)), exponent)
    weight_lo = weights - weight_hi
    hard = arrays.is_hard[clauses]
    lengths = arrays.clause_offsets[clauses + 1] - arrays.clause_offsets[clauses]

    # Unit clauses: per atom, the penalty of each value of bit 0.
    units = lengths == 1
    unit_literals = arrays.clause_offsets[clauses[units]]
    # A unit clause is violated where its atom is the opposite of its sign.
    unit_index = 2 * slot[arrays.literal_atoms[unit_literals]] + np.where(
        arrays.literal_signs[unit_literals], 0, 1
    )
    unit_soft = ~hard[units]
    unit_hi = np.zeros(2 * count)
    unit_lo = np.zeros(2 * count)
    np.subtract.at(unit_hi, unit_index[unit_soft], weight_hi[units][unit_soft])
    np.subtract.at(unit_lo, unit_index[unit_soft], weight_lo[units][unit_soft])
    unit_hi[unit_index[~unit_soft]] = -np.inf
    owner, entry = _ragged_arange(entries)
    unit_entry = 2 * owner + (entry & 1)
    hi = unit_hi[unit_entry]
    lo = unit_lo[unit_entry]

    # Other clauses: violated on the entries of their bucket's table where
    # the clause's atoms take the values that falsify every literal.
    wide = clauses[~units]
    if wide.size:
        wide_lengths = lengths[~units]
        positions = ragged_slices(arrays.clause_offsets, wide)
        bucket = slot[elimination.bucket[wide]]
        literal_bucket = np.repeat(bucket, wide_lengths)
        literal_slot = slot[arrays.literal_atoms[positions]]
        below = np.left_shift(np.int64(1), local[literal_slot]) - 1
        position = np.where(
            literal_slot == literal_bucket, 0, 1 + _popcount(scope[literal_bucket] & below)
        )
        literal_bit = np.left_shift(np.int64(1), position)
        signs = arrays.literal_signs[positions]
        starts = np.cumsum(wide_lengths) - wide_lengths
        positive = np.bitwise_or.reduceat(np.where(signs, literal_bit, 0), starts)
        negative = np.bitwise_or.reduceat(np.where(signs, 0, literal_bit), starts)
        live = (positive & negative) == 0  # an atom of both signs: always satisfied
        mask = (positive | negative)[live]
        target = negative[live]
        bucket = bucket[live]
        penalty_hi = np.where(hard[~units], -np.inf, -weight_hi[~units])[live]
        penalty_lo = -weight_lo[~units][live]
        for start, stop in _budget_runs(entries[bucket]):
            owner, entry = _ragged_arange(entries[bucket[start:stop]])
            owner += start
            violated = np.flatnonzero((entry & mask[owner]) == target[owner])
            owner = owner[violated]
            where = table_start[bucket[owner]] + entry[violated]
            np.add.at(hi, where, penalty_hi[owner])
            np.add.at(lo, where, penalty_lo[owner])

    # Where each child's message lands: for every entry of its parent's
    # table, the message entry its scope members' bits select.
    children = np.flatnonzero(parent_slot >= 0)
    up = parent_slot[children]
    member = members[children]
    member_local = local[np.minimum(member, count - 1)]
    in_parent = np.where(
        member == up[:, None],
        0,
        1 + _popcount(scope[up][:, None] & (np.left_shift(np.int64(1), member_local) - 1)),
    )
    in_parent = np.where(member == count, 63, in_parent)
    child, entry = _ragged_arange(entries[up])
    key = np.zeros(entry.size, dtype=np.int64)
    for column in range(max_width):
        key |= ((entry >> in_parent[child, column]) & 1) << column
    source = (table_start[children] >> 1)[child] + key
    target = table_start[up][child] + entry
    # Children are in height order, so each level's pairs are contiguous.
    pair_end = np.cumsum(entries[up])
    children_end = np.searchsorted(children, level_end)
    pair_bounds = np.concatenate(([0], pair_end))[children_end].tolist()

    # Messages up the tree, one height level at a time.
    message_hi = np.empty(total >> 1)
    message_lo = np.empty(total >> 1)
    choice = np.empty(total >> 1, dtype=bool)
    first_pair = 0
    for level, last_pair in enumerate(pair_bounds):
        first, last = level_entries[level], level_entries[level + 1]
        zero_hi, one_hi = hi[first:last:2], hi[first + 1 : last : 2]
        zero_lo, one_lo = lo[first:last:2], lo[first + 1 : last : 2]
        take = _exact_ge(one_hi, one_lo, zero_hi, zero_lo)
        half = slice(first >> 1, last >> 1)
        choice[half] = take
        message_hi[half] = np.where(take, one_hi, zero_hi)
        message_lo[half] = np.where(take, one_lo, zero_lo)
        pairs = slice(first_pair, last_pair)
        np.add.at(hi, target[pairs], message_hi[source[pairs]])
        np.add.at(lo, target[pairs], message_lo[source[pairs]])
        first_pair = last_pair
    if np.isneginf(message_hi[table_start[parent_slot < 0] >> 1]).any():
        raise InfeasibleProgramError(_INFEASIBLE)

    # Traceback, top level first: every scope member is an ancestor.
    state = np.zeros(count + 1, dtype=bool)
    shifts = np.arange(max_width, dtype=np.int64)
    level_start = np.concatenate(([0], level_end[:-1]))
    for first, last in zip(level_start[::-1].tolist(), level_end[::-1].tolist()):
        key = (state[members[first:last]].astype(np.int64) << shifts).sum(axis=1)
        state[first:last] = choice[(table_start[first:last] >> 1) + key]
    values[atoms] = state[:count]


class ILPMapSolver(MAPSolver):
    """Exact MAP: bucket elimination per narrow component, HiGHS per wide one.

    Components of width at most :data:`ELIMINATION_MAX_WIDTH` are solved by
    :func:`eliminate_components` (always optimal, with its tie rule); each
    other component by a HiGHS call of its own.

    Parameters
    ----------
    time_limit:
        Wall-clock limit in seconds for the whole solve; each HiGHS call
        gets what remains of it and returns the best incumbent found within
        it (``stats.optimal`` reports whether every call proved optimality,
        ``stats.objective_bound`` the eliminated part plus HiGHS's dual
        bounds).
    mip_gap:
        Relative optimality gap at which HiGHS may stop early.
    """

    name = "nrockit-ilp"

    def __init__(self, time_limit: float = 120.0, mip_gap: float = 1e-6) -> None:
        self.time_limit = time_limit
        self.mip_gap = mip_gap

    @property
    def capabilities(self) -> SolverCapabilities:
        return MLN_CAPABILITIES

    def solve(self, program: GroundProgram) -> MAPSolution:
        started = time.perf_counter()
        if program.num_atoms == 0:
            return self._empty_solution()
        assignment, objective, optimal, bound = self._solve_components(program, started)
        elapsed = time.perf_counter() - started
        stats = SolverStats(
            solver=self.name,
            runtime_seconds=elapsed,
            iterations=1,
            atoms=program.num_atoms,
            clauses=program.num_clauses,
            optimal=optimal,
            objective_bound=bound,
        )
        return MAPSolution(
            assignment=assignment,
            objective=objective,
            stats=stats,
            truth_values=tuple(1.0 if value else 0.0 for value in assignment),
        )

    def solve_components(self, programs: Sequence[GroundProgram]) -> list[MAPSolution]:
        """Solve ``programs`` as one stack through :meth:`solve`, then split.

        Each component's answer depends only on its content, so each
        program gets the assignment and objective it gets alone; the
        elimination kernel's fixed cost is paid once per call.
        """
        if len(programs) <= 1:
            return [self.solve(program) for program in programs]
        stacked = GroundProgram.stack(programs)
        return split_stacked_solution(programs, stacked, self.solve(stacked))

    # ------------------------------------------------------------------ #
    def _solve_components(
        self, program: GroundProgram, started: float
    ) -> tuple[tuple[bool, ...], float, bool, float]:
        """Eliminate the narrow components, one HiGHS call per wide one.

        Returns ``(assignment, objective, optimal, objective_bound)``; the
        bound is the eliminated components' objective plus each HiGHS
        call's dual bound, and never below the objective.
        """
        arrays = GroundProgramArrays.from_program(program)
        atom_labels, clause_labels = arrays.components
        sizes = np.bincount(atom_labels)
        constrained = np.bincount(clause_labels, minlength=sizes.size) > 0
        values = np.zeros(arrays.num_atoms, dtype=bool)
        for index in np.flatnonzero(~constrained[atom_labels]).tolist():
            values[index] = program.atoms[index].fact.log_weight > 0

        grid, exact = _exact_grids(arrays, clause_labels, sizes.size)
        candidates = constrained & exact & (sizes <= ELIMINATION_MAX_ATOMS)
        elimination = _Elimination(arrays, atom_labels, clause_labels, sizes, candidates)
        narrow = candidates & (elimination.component_width <= ELIMINATION_MAX_WIDTH)
        values |= eliminate_components(arrays, narrow, elimination, grid)

        optimal = True
        highs_bound = 0.0
        wide = np.flatnonzero(constrained & ~narrow)
        if wide.size:
            clause_order = np.argsort(clause_labels, kind="stable")
            clause_ends = np.cumsum(np.bincount(clause_labels, minlength=sizes.size))
            clause_counts = np.diff(clause_ends, prepend=0)
            deadline = started + self.time_limit
            for component in wide.tolist():
                atoms = elimination.atom(component, np.arange(sizes[component]))
                clauses = clause_order[
                    clause_ends[component] - clause_counts[component] : clause_ends[component]
                ]
                encoding = encode_arrays(arrays, atoms, clauses)
                remaining = max(deadline - time.perf_counter(), 0.0)
                solution_values, call_optimal, dual_bound = self._solve_encoding(
                    encoding, remaining
                )
                values[atoms] = encoding.assignment_from(solution_values)
                optimal = optimal and call_optimal
                highs_bound += -dual_bound + encoding.offset

        satisfied = arrays.satisfied_mask(values)
        violated = np.flatnonzero(arrays.is_hard & ~satisfied)
        if violated.size:
            raise SolverError(
                f"{self.name}: produced an assignment violating "
                f"{violated.size} hard clause(s); first: {program.clause(int(violated[0]))}"
            )
        soft_satisfied = satisfied & ~arrays.is_hard
        objective = math.fsum(arrays.weights[soft_satisfied].tolist())
        bound = objective
        if wide.size:
            # The bound is not compared bit for bit, so numpy's sum will do.
            eliminated = float(arrays.weights[soft_satisfied & narrow[clause_labels]].sum())
            bound = max(objective, eliminated + highs_bound)
        return tuple(values.tolist()), objective, optimal, bound

    def _solve_encoding(
        self, encoding: ILPEncoding, time_limit: float
    ) -> tuple[np.ndarray, bool, float]:
        """HiGHS on ``encoding``: ``(solution vector, proven optimal, dual bound)``.

        The dual bound is of the minimised ``−objective``; when HiGHS
        reports none, the bound of setting every positive coefficient's
        variable is used instead.  scipy's optimizer is imported here, so
        a process that never reaches HiGHS never loads it.
        """
        from scipy.optimize import Bounds, LinearConstraint, milp

        constraints = LinearConstraint(
            encoding.constraint_matrix,
            lb=encoding.lower_bounds,
            ub=np.full(encoding.num_constraints, np.inf),
        )
        result = milp(
            c=-encoding.objective,  # milp minimises; we maximise
            integrality=np.ones(encoding.num_variables),
            bounds=Bounds(0, 1),
            constraints=[constraints],
            options={"time_limit": time_limit, "mip_rel_gap": self.mip_gap},
        )
        if result.status == 2:
            raise InfeasibleProgramError(
                "hard constraints admit no consistent world (ILP infeasible)"
            )
        if result.x is None:
            raise SolverError(f"HiGHS MILP failed: {result.message}")
        dual_bound = getattr(result, "mip_dual_bound", None)
        if dual_bound is None or not math.isfinite(dual_bound):
            dual_bound = -float(encoding.objective[encoding.objective > 0].sum())
        return np.asarray(result.x, dtype=float), bool(result.status == 0), float(dual_bound)
