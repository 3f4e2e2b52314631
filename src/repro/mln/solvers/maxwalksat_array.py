"""Array-native MaxWalkSAT kernel over :class:`GroundProgramArrays`.

Same search as :mod:`.maxwalksat` — weighted WalkSAT with restarts, noise
moves, and greedy repair — but all bookkeeping lives in numpy blocks
(satisfied-literal counts, unsatisfied mask, flip deltas via occurrence-CSR
gathers) instead of per-clause Python objects.

A single numpy flip would lose to the object path: one object flip costs a
few microseconds while ten small numpy calls cost about the same, so the
kernel is **batched**.  Each iteration samples one unsatisfied clause per
connected component of the clause–atom graph (hard before soft, uniform
within the component), computes every candidate literal's flip delta in one
vectorized pass, picks one atom per clause (greedy first-argmax, per-clause
noise moves), and flips all chosen atoms at once.  Because an atom occurs
only in clauses of its own component, the simultaneous moves are exactly
independent — every batch equals some sequential interleaving of
single-clause moves, so search dynamics match the object solver move for
move up to RNG streams.  Ground programs here shatter into hundreds of
components (see BENCH_decomposition), which is what makes the batches wide;
solution quality is tolerance-pinned against the object solver in the
equivalence suite, not bit-matched flip-for-flip.

The batching is also the limit: on a program with one component each step
pays the numpy call overhead to flip a single atom.  On a 2-vCPU machine
pinned to one CPU, the 1,090-atom, 299-component FootballDB 0.02 program
takes 119 ms here against 829 ms with :mod:`.maxwalksat`, but the 11-atom
running example takes 4.4 s against 174 ms, and a 17-atom component 8.9 s
against 306 ms.  So the two stay separate registered back-ends
(``maxwalksat-array`` and ``maxwalksat``), not interchangeable kernels.
"""

from __future__ import annotations

import random
import time
from typing import Optional, Sequence

import numpy as np

from ...errors import InfeasibleProgramError
from ...logic.arrays import GroundProgramArrays, ragged_slices
from ...logic.ground import GroundProgram
from ...solvers import MAPSolution, SolverStats
from ...solvers.base import split_stacked_solution
from .maxwalksat import MaxWalkSATSolver


class ArraySearchState:
    """Vectorized counterpart of ``_SearchState``: counts, mask, penalty."""

    def __init__(
        self,
        arrays: GroundProgramArrays,
        assignment: np.ndarray,
        hard_weight: float,
        debug: bool = False,
    ) -> None:
        self.arrays = arrays
        self.assignment = assignment
        self.debug = debug
        self.weights_eff = np.where(arrays.is_hard, hard_weight, arrays.weights)
        # Float counts: incremented by ±1 bincounts, so values stay exact
        # small integers and ``== 0`` / ``== 1`` comparisons are safe.
        self.counts = arrays.satisfied_counts(assignment)
        self.unsat = self.counts == 0
        self.penalty = float(self.weights_eff @ self.unsat)
        self.occ_offsets, self.occ_clauses, self.occ_signs = arrays.occurrence

    def flip(self, atom_index: int) -> None:
        self.flip_many(np.asarray([atom_index], dtype=np.int64))

    def flip_many(self, atoms: np.ndarray) -> None:
        """Flip a set of distinct atoms at once, updating counts/mask/penalty.

        ``atoms`` is deduplicated here, so passing the same atom twice flips
        it once (matching what "flip these atoms simultaneously" means).
        """
        atoms = np.unique(np.asarray(atoms, dtype=np.int64))
        if atoms.size == 0:
            return
        new_values = ~self.assignment[atoms]
        occ_lengths = self.occ_offsets[atoms + 1] - self.occ_offsets[atoms]
        positions = ragged_slices(self.occ_offsets, atoms)
        clauses = self.occ_clauses[positions]
        signs = self.occ_signs[positions]
        # +1 where the flipped literal becomes true, -1 where it becomes
        # false; one bincount applies every count change at once, and the
        # penalty is recomputed as a single masked dot product — both are
        # O(clauses) vectorized passes, far cheaper per flip than the
        # scatter/gather transition bookkeeping they replace.
        deltas = np.where(np.repeat(new_values, occ_lengths) == signs, 1.0, -1.0)
        self.counts += np.bincount(clauses, weights=deltas, minlength=self.counts.size)
        self.unsat = self.counts == 0
        self.penalty = float(self.weights_eff @ self.unsat)
        self.assignment[atoms] = new_values
        if self.debug:
            self.check_invariant()

    def check_invariant(self) -> None:
        """Debug cross-check: tracked state vs from-scratch recomputation."""
        counts = self.arrays.satisfied_counts(self.assignment)
        if not np.array_equal(counts, self.counts):
            raise AssertionError("satisfied-literal counts drifted from recomputation")
        if not np.array_equal(counts == 0, self.unsat):
            raise AssertionError("unsatisfied mask drifted from recomputation")
        expected = float(self.weights_eff[self.unsat].sum())
        if not np.isclose(self.penalty, expected, rtol=1e-9, atol=1e-6):
            raise AssertionError(
                f"penalty bookkeeping drifted: tracked {self.penalty!r}, "
                f"recomputed {expected!r}"
            )


class ArrayMaxWalkSATSolver(MaxWalkSATSolver):
    """Batched array-kernel MaxWalkSAT (same parameters as the object solver,
    plus ``batch_size``, a cap on simultaneous clause repairs per iteration —
    the effective batch is the number of components with unsatisfied
    clauses, so the cap only binds on unusually shattered programs)."""

    name = "maxwalksat-array"
    supports_warm_start = True

    def __init__(
        self,
        max_flips: int = 20_000,
        max_restarts: int = 3,
        noise: float = 0.2,
        hard_weight: float = 1_000.0,
        seed: int = 2017,
        debug: bool = False,
        batch_size: int = 512,
    ) -> None:
        super().__init__(
            max_flips=max_flips,
            max_restarts=max_restarts,
            noise=noise,
            hard_weight=hard_weight,
            seed=seed,
            debug=debug,
        )
        self.batch_size = max(1, batch_size)

    # ------------------------------------------------------------------ #
    def solve(
        self, program: GroundProgram, warm_start: Optional[Sequence[float]] = None
    ) -> MAPSolution:
        if program.num_atoms == 0:
            return self._empty_solution()
        started = time.perf_counter()
        arrays = GroundProgramArrays.from_program(program)
        init_rng = random.Random(self.seed)
        rng = np.random.default_rng(self.seed)

        warm: Optional[list[bool]] = None
        if warm_start is not None and len(warm_start) == program.num_atoms:
            warm = [value >= 0.5 for value in warm_start]

        # Per-component best-state tracking.  Components are independent, so
        # the returned assignment is assembled from each component's best
        # state across all batches and restarts — finer-grained than the
        # object solver's global snapshot (a batch mixes greedy improvements
        # with noise moves in other components; component-wise tracking keeps
        # the improvements without paying for the unrelated noise).
        atom_labels, clause_labels = arrays.components
        num_components = int(atom_labels.max()) + 1 if atom_labels.size else 0
        best_component_penalty = np.full(num_components, np.inf)
        best_assignment: Optional[np.ndarray] = None
        flips_done = 0

        def fold_best(state: ArraySearchState) -> None:
            component_penalty = np.bincount(
                clause_labels,
                weights=state.weights_eff * state.unsat,
                minlength=num_components,
            )
            improved = component_penalty < best_component_penalty
            if improved.any():
                atom_mask = improved[atom_labels]
                best_assignment[atom_mask] = state.assignment[atom_mask]
                best_component_penalty[improved] = component_penalty[improved]

        for restart in range(self.max_restarts):
            assignment = np.asarray(
                self._initial_assignment(program, init_rng, restart, warm), dtype=bool
            )
            state = ArraySearchState(arrays, assignment, self.hard_weight, debug=self.debug)
            if best_assignment is None:
                best_assignment = state.assignment.copy()
            fold_best(state)
            flips_left = self.max_flips
            while flips_left > 0:
                flipped = self._batch_step(state, rng, flips_left)
                if flipped == 0:
                    break  # every clause satisfied — cannot improve further
                flips_left -= flipped
                flips_done += flipped
                fold_best(state)

        assert best_assignment is not None
        repaired = arrays.repair_hard_violations(best_assignment.tolist(), program.atoms)
        if repaired is None:
            raise InfeasibleProgramError(
                "MaxWalkSAT could not find an assignment satisfying all hard constraints"
            )
        final = tuple(repaired)
        self._check_feasibility(program, final)
        elapsed = time.perf_counter() - started
        stats = SolverStats(
            solver=self.name,
            runtime_seconds=elapsed,
            iterations=flips_done,
            atoms=program.num_atoms,
            clauses=program.num_clauses,
            optimal=False,
        )
        return MAPSolution(
            assignment=final,
            objective=arrays.objective(final),
            stats=stats,
            truth_values=tuple(1.0 if value else 0.0 for value in final),
        )

    def solve_components(self, programs: Sequence[GroundProgram]) -> list[MAPSolution]:
        """Solve ``programs`` as one stack with one run of the kernel, then split.

        The kernel already schedules one move per component per step, so
        the stack costs one flip budget instead of one per program.
        """
        if len(programs) <= 1:
            return [self.solve(program) for program in programs]
        stacked = GroundProgram.stack(programs)
        return split_stacked_solution(programs, stacked, self.solve(stacked))

    # ------------------------------------------------------------------ #
    def _batch_step(
        self, state: ArraySearchState, rng: np.random.Generator, flips_left: int
    ) -> int:
        """One batched iteration: sample clauses, pick one atom each, flip.

        Returns the number of atoms actually flipped (0 ⇒ fully satisfied).
        """
        arrays = state.arrays
        unsat_indices = np.flatnonzero(state.unsat)
        if unsat_indices.size == 0:
            return 0
        # Conflict-free batch: at most ONE clause repair per connected
        # component.  An atom only occurs in clauses of its own component,
        # so the simultaneous flips are exactly independent — the batch is
        # equivalent to some sequential interleaving of single-clause moves.
        # Within each component the pick is uniform over that component's
        # unsatisfied clauses, hard before soft (the object solver's global
        # hard-first rule, applied per component).
        _, clause_components = arrays.components
        components = clause_components[unsat_indices]
        soft_rank = ~arrays.is_hard[unsat_indices]  # False (hard) sorts first
        order = np.lexsort((rng.random(unsat_indices.size), soft_rank, components))
        ranked = unsat_indices[order]
        ranked_components = components[order]
        is_first = np.concatenate(([True], ranked_components[1:] != ranked_components[:-1]))
        selected = ranked[is_first]
        batch = min(self.batch_size, flips_left)
        if selected.size > batch:
            selected = rng.choice(selected, size=batch, replace=False)

        # Candidate literals of every selected clause, as one ragged block.
        cand_lengths = arrays.clause_offsets[selected + 1] - arrays.clause_offsets[selected]
        cand_positions = ragged_slices(arrays.clause_offsets, selected)
        cand_atoms = arrays.literal_atoms[cand_positions]
        seg_starts = np.concatenate(([0], np.cumsum(cand_lengths)[:-1]))
        seg_ids = np.repeat(np.arange(selected.size), cand_lengths)

        # flip_delta for every candidate in one pass: expand each candidate
        # atom's occurrence row, then segment-sum the per-occurrence gains
        # (clause becomes satisfied: count == 0 and literal turns true) and
        # losses (count == 1 and literal turns false).
        new_values = ~state.assignment[cand_atoms]
        occ_lengths = state.occ_offsets[cand_atoms + 1] - state.occ_offsets[cand_atoms]
        occ_positions = ragged_slices(state.occ_offsets, cand_atoms)
        occ_clause = state.occ_clauses[occ_positions]
        occ_sign = state.occ_signs[occ_positions]
        occ_new = np.repeat(new_values, occ_lengths)
        occ_count = state.counts[occ_clause]
        occ_weight = state.weights_eff[occ_clause]
        becomes_true = occ_new == occ_sign
        contribution = np.where(
            becomes_true & (occ_count == 0), occ_weight, 0.0
        ) - np.where(~becomes_true & (occ_count == 1), occ_weight, 0.0)
        owner = np.repeat(np.arange(cand_atoms.size), occ_lengths)
        deltas = np.bincount(owner, weights=contribution, minlength=cand_atoms.size)

        # Greedy pick per clause = FIRST candidate attaining the segment max
        # (same tie-break as ``max(candidates, key=...)`` in the object path).
        seg_max = np.maximum.reduceat(deltas, seg_starts)
        flat = np.arange(deltas.size, dtype=np.int64)
        max_positions = np.where(deltas == seg_max[seg_ids], flat, deltas.size)
        greedy = cand_atoms[np.minimum.reduceat(max_positions, seg_starts)]

        # Noise moves: with probability ``noise`` take a uniform literal.
        noise_mask = rng.random(selected.size) < self.noise
        random_offsets = rng.integers(0, cand_lengths)
        random_pick = cand_atoms[seg_starts + random_offsets]
        chosen = np.where(noise_mask, random_pick, greedy)

        unique_atoms = np.unique(chosen)
        state.flip_many(unique_atoms)
        return int(unique_atoms.size)
