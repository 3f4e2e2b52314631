"""Connected-component decomposition of ground programs.

MAP inference over a ground program factorises over the connected components
of its *interaction graph*: ground atoms are the vertices, and every ground
clause links all atoms it mentions.  Two atoms in different components never
co-occur in a clause, so the MaxSAT objective is a sum of independent
per-component objectives and the hard constraints never couple components.
Solving each component separately and taking the union of the per-component
MAP states is therefore exact — and on the paper's workloads (FootballDB,
Wikidata) the conflict graph splits into thousands of small components,
because temporal constraints only couple facts that share an entity and
overlap in time.

This module provides the three pieces of that route:

* :func:`interaction_graph` — the atom adjacency structure;
* :func:`decompose` — connected components as solver-ready sub-programs
  (a :class:`Decomposition` of :class:`Component` objects);
* :meth:`Decomposition.merge` — reassembly of per-component
  ``MAPSolution`` objects into one global solution.

Atoms that appear in no clause at all ("unconstrained" atoms) belong to no
component; the merge step closes them by the sign of their log-odds weight
(keep exactly the facts that are more likely true than false), which is the
MAP-optimal choice for an atom the objective never mentions.

The :class:`repro.solvers.decomposed.DecomposedSolver` wrapper drives this
module from both solver families, sequentially or via a process pool.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from ..errors import SolverError
from .ground import GroundProgram

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (solvers ← logic)
    from ..solvers.base import MAPSolution


@dataclass(frozen=True, slots=True)
class Component:
    """One connected component of the interaction graph, as a sub-program.

    Attributes
    ----------
    index:
        Position of this component in the decomposition (components are
        ordered by their smallest global atom index).
    atom_indices:
        Global atom indexes belonging to this component, ascending.  Local
        atom ``i`` of :attr:`program` is global atom ``atom_indices[i]``.
    clause_indices:
        Global clause indexes of the clauses this component owns, ascending.
    program:
        The reindexed, self-contained sub-program for this component.
    """

    index: int
    atom_indices: tuple[int, ...]
    clause_indices: tuple[int, ...]
    program: GroundProgram

    @property
    def num_atoms(self) -> int:
        return len(self.atom_indices)

    @property
    def num_clauses(self) -> int:
        return len(self.clause_indices)

    def __repr__(self) -> str:
        return (
            f"Component(index={self.index}, atoms={self.num_atoms}, " f"clauses={self.num_clauses})"
        )


@dataclass(frozen=True)
class Decomposition:
    """A ground program split into independent components.

    ``components`` plus ``unconstrained`` partition the atom set of
    ``program``; the clause sets of the components partition its clauses.
    """

    program: GroundProgram
    components: tuple[Component, ...]
    unconstrained: tuple[int, ...]

    @property
    def num_components(self) -> int:
        return len(self.components)

    @property
    def is_trivial(self) -> bool:
        """True when decomposing gained nothing (at most one component)."""
        return len(self.components) <= 1 and not self.unconstrained

    def component_sizes(self) -> list[int]:
        """Atom counts per component, descending."""
        return sorted((component.num_atoms for component in self.components), reverse=True)

    def summary(self) -> dict[str, int]:
        """Size statistics used by reports and the decomposition benchmark."""
        sizes = self.component_sizes()
        return {
            "atoms": self.program.num_atoms,
            "clauses": self.program.num_clauses,
            "components": len(self.components),
            "largest_component": sizes[0] if sizes else 0,
            "singleton_components": sum(1 for size in sizes if size == 1),
            "unconstrained_atoms": len(self.unconstrained),
        }

    # ------------------------------------------------------------------ #
    # Merge
    # ------------------------------------------------------------------ #
    def merge(self, solutions: Sequence["MAPSolution"]) -> "MAPSolution":
        """Reassemble per-component solutions into one global MAP solution.

        The merged assignment is the union of the component assignments;
        unconstrained atoms are closed by the sign of their log-odds weight.
        The objective is :meth:`GroundProgram.objective` of the merged
        assignment: the correctly rounded exact sum, which is the exact sum
        of the component objectives rounded once, so exact back-ends report
        the monolithic solve's float.  Stats are aggregated: iterations sum, runtime is
        the sum of component solve times, and ``optimal`` holds only when
        every component was solved to optimality.
        """
        from ..solvers.base import MAPSolution, SolverStats

        if len(solutions) != len(self.components):
            raise SolverError(
                f"merge got {len(solutions)} solutions for " f"{len(self.components)} components"
            )
        assignment = [False] * self.program.num_atoms
        truth_values = [0.0] * self.program.num_atoms
        for component, solution in zip(self.components, solutions):
            if len(solution.assignment) != component.num_atoms:
                raise SolverError(
                    f"component {component.index} solution has "
                    f"{len(solution.assignment)} values for {component.num_atoms} atoms"
                )
            soft = solution.truth_values or tuple(
                1.0 if value else 0.0 for value in solution.assignment
            )
            for local, global_index in enumerate(component.atom_indices):
                assignment[global_index] = solution.assignment[local]
                truth_values[global_index] = soft[local]
        for global_index in self.unconstrained:
            keep = self.program.atoms[global_index].fact.log_weight > 0
            assignment[global_index] = keep
            truth_values[global_index] = 1.0 if keep else 0.0

        objective = self.program.objective(assignment)
        inner = solutions[0].stats.solver if solutions else "none"
        stats = SolverStats(
            solver=f"decomposed({inner})",
            runtime_seconds=sum(s.stats.runtime_seconds for s in solutions),
            iterations=sum(s.stats.iterations for s in solutions),
            atoms=self.program.num_atoms,
            clauses=self.program.num_clauses,
            optimal=all(s.stats.optimal for s in solutions) if solutions else True,
            extra=(
                ("components", float(len(self.components))),
                ("largest_component", float(max(self.component_sizes(), default=0))),
                ("unconstrained_atoms", float(len(self.unconstrained))),
            ),
        )
        return MAPSolution(
            assignment=tuple(assignment),
            objective=objective,
            stats=stats,
            truth_values=tuple(truth_values),
        )


# --------------------------------------------------------------------------- #
# Interaction graph and component extraction
# --------------------------------------------------------------------------- #
def interaction_graph(program: GroundProgram) -> dict[int, set[int]]:
    """Atom adjacency of ``program``: atoms are linked when they co-occur in
    a ground clause (rule, constraint, evidence, or prior).

    Every atom gets an entry, so isolated atoms show up with an empty
    neighbour set.  The graph is symmetric by construction.
    """
    adjacency: dict[int, set[int]] = {index: set() for index in range(program.num_atoms)}
    for clause in program.clauses:
        members = {index for index, _ in clause.literals}
        for index in members:
            adjacency[index] |= members - {index}
    return adjacency


class _UnionFind:
    """Path-halving union-find over atom indexes."""

    __slots__ = ("parent",)

    def __init__(self, size: int) -> None:
        self.parent = list(range(size))

    def find(self, index: int) -> int:
        parent = self.parent
        while parent[index] != index:
            parent[index] = parent[parent[index]]
            index = parent[index]
        return index

    def union(self, first: int, second: int) -> None:
        root_first, root_second = self.find(first), self.find(second)
        if root_first != root_second:
            self.parent[root_first] = root_second


def decompose(program: GroundProgram) -> Decomposition:
    """Split ``program`` into the connected components of its interaction graph.

    Components are ordered by their smallest global atom index; inside a
    component, atoms and clauses keep their relative program order, so the
    sub-programs are deterministic and (per component) content-identical to
    the monolithic program's slice.
    """
    num_atoms = program.num_atoms
    union_find = _UnionFind(num_atoms)
    in_clause = [False] * num_atoms
    for clause in program.clauses:
        first = clause.literals[0][0]
        in_clause[first] = True
        for index, _ in clause.literals[1:]:
            in_clause[index] = True
            union_find.union(first, index)

    # Group constrained atoms by root, preserving ascending atom order.
    members: dict[int, list[int]] = {}
    unconstrained: list[int] = []
    for index in range(num_atoms):
        if not in_clause[index]:
            unconstrained.append(index)
            continue
        members.setdefault(union_find.find(index), []).append(index)

    # Components ordered by smallest atom index (the dict preserves first-seen
    # order, which is exactly that because atoms are scanned ascending).
    clause_groups: dict[int, list[int]] = {root: [] for root in members}
    for clause_index, clause in enumerate(program.clauses):
        clause_groups[union_find.find(clause.literals[0][0])].append(clause_index)

    components = []
    for component_index, (root, atom_indices) in enumerate(members.items()):
        local_index = {global_index: local for local, global_index in enumerate(atom_indices)}
        sub = GroundProgram()
        for global_index in atom_indices:
            atom = program.atoms[global_index]
            sub.add_atom(atom.fact, atom.is_evidence, atom.derived_by)
        clause_indices = clause_groups[root]
        for clause_index in clause_indices:
            clause = program.clauses[clause_index]
            sub.add_clause(
                [(local_index[index], positive) for index, positive in clause.literals],
                clause.weight,
                clause.kind,
                clause.origin,
            )
        components.append(
            Component(
                index=component_index,
                atom_indices=tuple(atom_indices),
                clause_indices=tuple(clause_indices),
                program=sub,
            )
        )
    return Decomposition(
        program=program,
        components=tuple(components),
        unconstrained=tuple(unconstrained),
    )
