"""Marginal inference by Gibbs sampling (extension).

TeCoRe focuses on MAP inference, but the underlying MLN semantics also
defines marginal probabilities ``P(fact)``.  This Gibbs sampler is provided as
the natural extension (and as a diagnostic: facts whose marginal is far from
their MAP value sit near the decision boundary of the repair).

Hard clauses are respected by conditioning: a flip that would violate a hard
clause is never proposed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Sequence

from ..errors import InfeasibleProgramError, SolverError
from ..kg import TemporalFact
from ..logic.ground import GroundProgram


@dataclass(frozen=True, slots=True)
class MarginalResult:
    """Estimated marginal probabilities for every ground atom."""

    probabilities: tuple[float, ...]
    samples: int
    burn_in: int

    def probability_of(self, program: GroundProgram, fact: TemporalFact) -> float:
        atom = program.atom_for(fact)
        if atom is None:
            raise SolverError(f"fact {fact} is not part of the ground program")
        return self.probabilities[atom.index]


class GibbsSampler:
    """Gibbs sampling over the ground program's log-linear distribution."""

    def __init__(self, samples: int = 2_000, burn_in: int = 500, seed: int = 2017) -> None:
        if samples <= 0:
            raise SolverError("samples must be positive")
        self.samples = samples
        self.burn_in = burn_in
        self.seed = seed

    # ------------------------------------------------------------------ #
    def run(self, program: GroundProgram, initial: Sequence[bool] | None = None) -> MarginalResult:
        rng = random.Random(self.seed)
        if initial is not None:
            state = list(initial)
            if len(state) != program.num_atoms:
                raise SolverError("initial state size does not match the program")
        else:
            state = [True] * program.num_atoms
            state = self._make_feasible(program, state)

        occurrences: dict[int, list[int]] = {index: [] for index in range(program.num_atoms)}
        for clause_index, clause in enumerate(program.clauses):
            for atom_index, _ in clause.literals:
                occurrences[atom_index].append(clause_index)

        counts = [0] * program.num_atoms
        total_kept = 0
        for iteration in range(self.samples + self.burn_in):
            for index in range(program.num_atoms):
                self._resample(program, state, index, occurrences, rng)
            if iteration >= self.burn_in:
                total_kept += 1
                for index, value in enumerate(state):
                    if value:
                        counts[index] += 1
        probabilities = tuple(count / max(total_kept, 1) for count in counts)
        return MarginalResult(
            probabilities=probabilities, samples=self.samples, burn_in=self.burn_in
        )

    # ------------------------------------------------------------------ #
    def _local_energy(
        self,
        program: GroundProgram,
        state: list[bool],
        clause_indexes: list[int],
    ) -> tuple[float, bool]:
        """(soft weight satisfied, all hard clauses satisfied) for the local clauses."""
        weight = 0.0
        feasible = True
        for clause_index in clause_indexes:
            clause = program.clauses[clause_index]
            satisfied = clause.satisfied_by(state)
            if clause.is_hard:
                feasible = feasible and satisfied
            elif satisfied:
                weight += float(clause.weight or 0.0)
        return weight, feasible

    def _resample(
        self,
        program: GroundProgram,
        state: list[bool],
        index: int,
        occurrences: dict[int, list[int]],
        rng: random.Random,
    ) -> None:
        local = occurrences[index]
        state[index] = True
        weight_true, feasible_true = self._local_energy(program, state, local)
        state[index] = False
        weight_false, feasible_false = self._local_energy(program, state, local)
        if feasible_true and not feasible_false:
            state[index] = True
            return
        if feasible_false and not feasible_true:
            state[index] = False
            return
        if not feasible_true and not feasible_false:
            # Neither value satisfies the hard clauses touching this atom; keep
            # the value with higher soft weight (the chain will repair later).
            state[index] = weight_true >= weight_false
            return
        probability_true = 1.0 / (1.0 + math.exp(-(weight_true - weight_false)))
        state[index] = rng.random() < probability_true

    def _make_feasible(self, program: GroundProgram, state: list[bool]) -> list[bool]:
        """Repair ``state`` into a feasible start for the chain.

        Raises :class:`InfeasibleProgramError` rather than start the chain
        from a state that violates a hard clause.
        """
        repaired = program.repair_hard_violations(state)
        if repaired is None:
            raise InfeasibleProgramError(
                "Gibbs sampling found no assignment satisfying the hard constraints to start from"
            )
        return repaired


def marginals(
    program: GroundProgram, samples: int = 2_000, burn_in: int = 500, seed: int = 2017
) -> MarginalResult:
    """Convenience wrapper running a :class:`GibbsSampler`."""
    return GibbsSampler(samples=samples, burn_in=burn_in, seed=seed).run(program)
