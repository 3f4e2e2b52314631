"""Exact MAP inference via mixed-integer linear programming (HiGHS).

This back-end plays the role Gurobi plays inside nRockIt: it solves the MAP
ILP of :mod:`repro.mln.ilp` exactly.  scipy's ``milp`` wraps the HiGHS
branch-and-cut solver, which is bundled with scipy and needs no network or
licence.

A HiGHS call costs about 1.4 ms even on a one-atom program, and 10–13 ms
once it has to branch, while the ground programs of the paper's workloads
split into thousands of independent components, almost all of them small.
So :meth:`ILPMapSolver.solve` works per connected component:

* a program of at most :data:`ENUMERATION_MAX_ATOMS` atoms is solved whole
  by scoring every one of its ``2ⁿ`` assignments in numpy
  (:func:`enumerate_map`);
* a larger program is lowered once to
  :class:`~repro.logic.arrays.GroundProgramArrays` and split into its
  components.  Components of at most :data:`ENUMERATION_MAX_ATOMS` atoms are
  enumerated together, all components of one size in the same numpy arrays
  (:func:`enumerate_components`, which gives each the assignment
  :func:`enumerate_map` gives it); all larger components go to **one** HiGHS
  call, whose ILP is built from their clauses' CSR rows
  (:func:`~repro.mln.ilp.encode_arrays`).  Atoms in no clause are closed by
  the sign of their log weight, as :meth:`Decomposition.merge` does.

A program that is one component of more than :data:`ENUMERATION_MAX_ATOMS`
atoms therefore gets the same ILP as the whole-program encoding.  The
objective is :meth:`GroundProgram.objective`'s, bit for bit, on every path,
and ``stats.solver`` is ``"nrockit-ilp"`` either way.
"""

from __future__ import annotations

import math
import time

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from ...errors import InfeasibleProgramError, SolverError
from ...logic.arrays import GroundProgramArrays, ordered_weight_sum, ragged_slices
from ...logic.ground import GroundProgram
from ...solvers import MAPSolution, MAPSolver, MLN_CAPABILITIES, SolverCapabilities, SolverStats
from ..ilp import ILPEncoding, encode_arrays

#: Largest program or component (in atoms) solved by enumeration instead of
#: HiGHS.  On FootballDB components enumeration's median time roughly
#: doubles per atom, from 0.03 ms at 1 atom to 3.0 ms at 15 and 18 ms at 17,
#: while HiGHS takes 1.4–13 ms at every size; 15 is the last size where
#: enumeration's slowest component (3.6 ms) beats HiGHS's median (per-size
#: table in docs/architecture.md, "Decomposition").  The batched kernel
#: holds states as int16, which fits components of up to 15 atoms.
ENUMERATION_MAX_ATOMS = 15

#: States :func:`enumerate_components` scores at once.  The components of
#: one size are taken in chunks of ``ENUMERATION_STATE_BUDGET >> size``
#: (two 15-atom components, 8,192 3-atom ones), which bounds the kernel's
#: working arrays (20 bytes a state) to 1.3 MB whatever the program's size.
ENUMERATION_STATE_BUDGET = 1 << 16

_INFEASIBLE = "hard constraints admit no consistent world (no feasible assignment)"


def enumerate_map(program: GroundProgram) -> tuple[bool, ...]:
    """Exact MAP state of a small program, by scoring every assignment.

    State ``s`` is an int64 whose bit ``n − 1 − i`` is atom ``i``, so
    ordering states by value orders them lexicographically by
    ``(x₀, x₁, …)``.  Each clause becomes a positive and a negative atom
    mask and is satisfied where ``(s & pos) != 0 | (s & neg) != neg``.  Hard
    clauses AND into a feasibility mask.  Soft weights are added one clause
    at a time in clause order (adding an exact ``0.0`` where a clause is
    unsatisfied), so every state's total is bit-identical to the
    left-to-right sum of :meth:`GroundProgram.objective`.

    Tie rule: among the optimal feasible states the largest one wins — the
    lexicographically largest ``(x₀, x₁, …)``, which keeps lower-index
    atoms.  It depends only on the program's content (its atom and clause
    order), so a cached or replayed solve returns the same assignment.

    Raises :class:`InfeasibleProgramError` when no state satisfies every
    hard clause.  Memory and time grow as ``2ⁿ``; callers bound ``n``.
    """
    num_atoms = program.num_atoms
    states = np.arange(1 << num_atoms, dtype=np.int64)
    feasible = np.ones(states.size, dtype=bool)
    total = np.zeros(states.size, dtype=np.float64)
    for clause in program.clauses:
        positive_mask = negative_mask = 0
        for index, positive in clause.literals:
            bit = 1 << (num_atoms - 1 - index)
            if positive:
                positive_mask |= bit
            else:
                negative_mask |= bit
        satisfied = (states & positive_mask) != 0
        if negative_mask:
            satisfied |= (states & negative_mask) != negative_mask
        if clause.weight is None:
            feasible &= satisfied
        else:
            total += np.where(satisfied, clause.weight, 0.0)
    if not feasible.any():
        raise InfeasibleProgramError(_INFEASIBLE)
    scores = np.where(feasible, total, -np.inf)
    # argmax returns the first maximum; on the reversed scores that is the
    # largest optimal state.
    best = states.size - 1 - int(np.argmax(scores[::-1]))
    return tuple(bool((best >> (num_atoms - 1 - index)) & 1) for index in range(num_atoms))


def enumerate_components(arrays: GroundProgramArrays, selected: np.ndarray) -> np.ndarray:
    """Exact MAP states of the components ``selected`` flags, scored in batches.

    ``selected`` is a boolean mask over the component ids of
    ``arrays.components``; each flagged component must have at most
    :data:`ENUMERATION_MAX_ATOMS` atoms and at least one clause.  Returns a
    boolean assignment over all atoms that holds every flagged component's
    MAP state (other atoms stay ``False``).

    Each component is scored as :func:`enumerate_map` scores it as a
    sub-program: local atom ``i`` (in ascending global order) is bit
    ``k − 1 − i`` of a ``k``-atom component's state, soft weights are added
    in the component's clause order, and the largest optimal feasible state
    wins, so each component gets exactly :func:`enumerate_map`'s assignment.
    What is batched is the components: all components of one size share one
    ``(components, 2ᵏ)`` block, taken :data:`ENUMERATION_STATE_BUDGET`
    states at a time.  A clause is satisfied where ``s & (pos | neg) != neg``
    (a clause with an atom of both signs always is).

    Raises :class:`InfeasibleProgramError` when some flagged component has
    no state satisfying its hard clauses.
    """
    values = np.zeros(arrays.num_atoms, dtype=bool)
    if not selected.any():
        return values
    atom_labels, clause_labels = arrays.components
    sizes = np.bincount(atom_labels, minlength=selected.size)
    # Atoms grouped by component, ascending within it, and each atom's
    # local index in its component.
    members = np.argsort(atom_labels, kind="stable")
    first_member = np.cumsum(sizes) - sizes
    local = np.empty(arrays.num_atoms, dtype=np.int64)
    local[members] = np.arange(arrays.num_atoms) - first_member[atom_labels[members]]

    clauses = np.flatnonzero(selected[clause_labels])
    mask, target = _clause_masks(arrays, clauses, sizes[atom_labels] - 1 - local)
    hard = arrays.is_hard[clauses]
    soft_labels, hard_labels = clause_labels[clauses[~hard]], clause_labels[clauses[hard]]
    soft_rank, soft_counts = _ranks(soft_labels, sizes.size)
    hard_rank, hard_counts = _ranks(hard_labels, sizes.size)
    soft_columns = (mask[~hard], target[~hard], arrays.weights[clauses[~hard]])
    hard_columns = (mask[hard], target[hard])
    row = np.empty(sizes.size, dtype=np.int64)
    for size in np.unique(sizes[selected]).tolist():
        group = np.flatnonzero(selected & (sizes == size))
        # By falling soft-clause count, so that the components with an
        # r-th soft clause are a prefix of the group.
        group = group[np.argsort(-soft_counts[group], kind="stable")]
        row[group] = np.arange(group.size)
        soft_shape = (group.size, int(soft_counts[group[0]]))
        soft_tables = _tables(row, size, sizes, soft_labels, soft_rank, soft_columns, soft_shape)
        # Padded hard cells never match (s & 0 != 1), so they violate nothing.
        hard_shape = (group.size, int(hard_counts[group].max()))
        hard_tables = _tables(
            row, size, sizes, hard_labels, hard_rank, hard_columns, hard_shape, fills=(0, 1)
        )

        states = np.arange(1 << size, dtype=np.int16)
        best = np.empty(group.size, dtype=np.int64)
        chunk = max(1, ENUMERATION_STATE_BUDGET >> size)
        for start in range(0, group.size, chunk):
            rows = slice(start, min(start + chunk, group.size))
            best[rows] = _best_states(
                states,
                soft_counts[group[rows]],
                [table[rows] for table in soft_tables],
                [table[rows] for table in hard_tables],
            )
        atoms = members[first_member[group][:, None] + np.arange(size)]
        values[atoms] = (best[:, None] >> (size - 1 - np.arange(size))) & 1
    return values


def _best_states(
    states: np.ndarray,
    soft_counts: np.ndarray,
    soft: list[np.ndarray],
    hard: list[np.ndarray],
) -> np.ndarray:
    """The largest optimal feasible state of each component of one chunk.

    Row ``c`` of the ``soft`` (masks, targets, weights) and ``hard``
    (masks, targets) tables holds component ``c``'s clauses in clause
    order; ``soft_counts`` (falling) says how many of its soft cells are
    real.
    """
    masks, targets, weights = soft
    block = (masks.shape[0], states.size)
    total = np.zeros(block)
    gain = np.empty(block)
    masked = np.empty(block, dtype=np.int16)
    for rank in range(int(soft_counts[0])):
        live = int(np.count_nonzero(soft_counts > rank))
        np.bitwise_and(states, masks[:live, rank, None], out=masked[:live])
        # 1.0 where satisfied, then the weight or an exact 0.0, added in
        # clause order as enumerate_map adds it.
        np.not_equal(masked[:live], targets[:live, rank, None], out=gain[:live])
        np.multiply(gain[:live], weights[:live, rank, None], out=gain[:live])
        np.add(total[:live], gain[:live], out=total[:live])
    masks, targets = hard
    infeasible = np.zeros(block, dtype=bool)
    violated = np.empty(block, dtype=bool)
    for rank in range(masks.shape[1]):
        np.bitwise_and(states, masks[:, rank, None], out=masked)
        np.equal(masked, targets[:, rank, None], out=violated)
        infeasible |= violated
    if infeasible.all(axis=1).any():
        raise InfeasibleProgramError(_INFEASIBLE)
    np.copyto(total, -np.inf, where=infeasible)
    # argmax returns the first maximum; on reversed rows that is the
    # largest optimal state.
    return states.size - 1 - np.argmax(total[:, ::-1], axis=1)


def _tables(
    row: np.ndarray,
    size: int,
    sizes: np.ndarray,
    labels: np.ndarray,
    ranks: np.ndarray,
    columns: tuple[np.ndarray, ...],
    shape: tuple[int, int],
    fills: tuple[int, ...] = (0, 0, 0),
) -> list[np.ndarray]:
    """Per column, the ``shape`` table of the ``size``-atom components:
    cell ``(row[c], r)`` holds the value of component ``c``'s ``r``-th
    clause (``labels`` and ``ranks`` give each clause's component and rank),
    and cells no clause fills hold the column's fill value."""
    in_group = sizes[labels] == size
    cells = (row[labels[in_group]], ranks[in_group])
    tables = []
    for column, fill in zip(columns, fills):
        table = np.full(shape, fill, dtype=column.dtype)
        table[cells] = column[in_group]
        tables.append(table)
    return tables


def _clause_masks(
    arrays: GroundProgramArrays, clauses: np.ndarray, atom_bits: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per clause, ``(mask, target)`` with the clause satisfied in state
    ``s`` where ``s & mask != target``: ``mask`` has the bit of every atom
    the clause mentions, ``target`` those of its negated ones.  A clause
    with an atom of both signs gets ``(0, 1)``, satisfied everywhere."""
    positions = ragged_slices(arrays.clause_offsets, clauses)
    bits = np.left_shift(1, atom_bits[arrays.literal_atoms[positions]])
    signs = arrays.literal_signs[positions]
    lengths = arrays.clause_offsets[clauses + 1] - arrays.clause_offsets[clauses]
    segments = np.cumsum(lengths) - lengths
    positive = np.bitwise_or.reduceat(np.where(signs, bits, 0), segments)
    negative = np.bitwise_or.reduceat(np.where(signs, 0, bits), segments)
    both = (positive & negative) != 0
    mask = np.where(both, 0, positive | negative).astype(np.int16)
    target = np.where(both, 1, negative).astype(np.int16)
    return mask, target


def _ranks(labels: np.ndarray, num_components: int) -> tuple[np.ndarray, np.ndarray]:
    """Each entry's position among the entries of its component (in order),
    and the entry count of every component."""
    order = np.argsort(labels, kind="stable")
    counts = np.bincount(labels, minlength=num_components)
    first = np.cumsum(counts) - counts
    ranks = np.empty(labels.size, dtype=np.int64)
    ranks[order] = np.arange(labels.size) - first[labels[order]]
    return ranks, counts


class ILPMapSolver(MAPSolver):
    """Exact MAP via the HiGHS MILP solver (the "nRockIt" path).

    Programs and components of at most :data:`ENUMERATION_MAX_ATOMS` atoms
    are solved by enumeration (always optimal, with the tie rule stated at
    :func:`enumerate_map`); larger components by one HiGHS call per solve.

    Parameters
    ----------
    time_limit:
        Wall-clock limit in seconds handed to HiGHS; the best incumbent found
        within the limit is returned (``stats.optimal`` reports whether it was
        proven optimal, ``stats.objective_bound`` HiGHS's dual bound).
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
        if program.num_atoms <= ENUMERATION_MAX_ATOMS:
            assignment = enumerate_map(program)
            objective = program.objective(assignment)
            self._check_feasibility(program, assignment)
            optimal, bound = True, objective
        else:
            assignment, objective, optimal, bound = self._solve_components(program)
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

    # ------------------------------------------------------------------ #
    def _solve_components(
        self, program: GroundProgram
    ) -> tuple[tuple[bool, ...], float, bool, float]:
        """Enumerate the small components, send the rest to one HiGHS call.

        Returns ``(assignment, objective, optimal, objective_bound)``; the
        bound is HiGHS's dual bound plus the enumerated components' exact
        objective, and never below the objective.
        """
        arrays = GroundProgramArrays.from_program(program)
        atom_labels, clause_labels = arrays.components
        sizes = np.bincount(atom_labels)
        constrained = np.bincount(clause_labels, minlength=sizes.size) > 0
        small = constrained & (sizes <= ENUMERATION_MAX_ATOMS)
        values = enumerate_components(arrays, small)
        for index in np.flatnonzero(~constrained[atom_labels]).tolist():
            values[index] = program.atoms[index].fact.log_weight > 0

        optimal = True
        highs_bound: float | None = None
        large = constrained & ~small
        if large.any():
            atoms = np.flatnonzero(large[atom_labels])
            encoding = encode_arrays(arrays, atoms, np.flatnonzero(large[clause_labels]))
            solution_values, optimal, dual_bound = self._solve_encoding(encoding)
            values[atoms] = encoding.assignment_from(solution_values)
            highs_bound = -dual_bound + encoding.offset

        satisfied = arrays.satisfied_mask(values)
        violated = np.flatnonzero(arrays.is_hard & ~satisfied)
        if violated.size:
            raise SolverError(
                f"{self.name}: produced an assignment violating "
                f"{violated.size} hard clause(s); first: {program.clause(int(violated[0]))}"
            )
        soft_satisfied = satisfied & ~arrays.is_hard
        objective = ordered_weight_sum(arrays.weight_list, np.flatnonzero(soft_satisfied))
        bound = objective
        if highs_bound is not None:
            # The bound is not compared bit for bit, so numpy's sum will do.
            enumerated = float(arrays.weights[soft_satisfied & small[clause_labels]].sum())
            bound = max(objective, enumerated + highs_bound)
        return tuple(values.tolist()), objective, optimal, bound

    def _solve_encoding(self, encoding: ILPEncoding) -> tuple[np.ndarray, bool, float]:
        """HiGHS on ``encoding``: ``(solution vector, proven optimal, dual bound)``.

        The dual bound is of the minimised ``−objective``; when HiGHS
        reports none, the bound of setting every positive coefficient's
        variable is used instead.
        """
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
            options={"time_limit": self.time_limit, "mip_rel_gap": self.mip_gap},
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
