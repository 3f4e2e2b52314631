"""Ground (propositional) programs.

Grounding a UTKG together with its inference rules and constraints produces a
*ground program*: one Boolean variable per temporal fact (evidence or
derived) and a set of weighted ground clauses.  MAP inference over this
program is exactly weighted MaxSAT, which is how both back-ends consume it:

* the MLN path solves it exactly (ILP / branch & bound) or approximately
  (MaxWalkSAT);
* the PSL path relaxes the Boolean variables to ``[0, 1]`` and replaces each
  clause by its Łukasiewicz hinge loss.

A :class:`GroundProgram` stores its clauses once, as columns: per clause the
literal count, the weight (``None`` when hard) and a code into a table of
``(kind, origin)`` pairs; per literal the atom index and the sign.
:meth:`GroundProgram.add_clause` appends one normalised clause;
:meth:`GroundProgram.extend_clauses` appends many straight from arrays (the
vectorized grounder's path, which builds no clause object).  The solver
kernels read the columns as a CSR
(:meth:`~repro.logic.arrays.GroundProgramArrays.from_program`), and
:attr:`GroundProgram.clauses` is a read-only list of :class:`GroundClause`
objects built from the columns on first access, for the object solvers,
sessions, lint, listings and tests.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Sequence

import numpy as np

from ..errors import GroundingError
from ..kg import TemporalFact

if TYPE_CHECKING:
    from .arrays import GroundProgramArrays

#: Weight substituted for zero-weight soft clauses.  A weight of exactly zero
#: carries no information but would make the clause indistinguishable from a
#: hard clause in encoders keyed on truthiness; the epsilon keeps the clause
#: soft (and the objective finite) while perturbing sums by well under any
#: confidence resolution.  Every grounding engine and solver lowering must
#: route zero weights through :func:`nonzero_weight` so programs built by
#: different paths stay float-for-float identical.
ZERO_WEIGHT_EPSILON = 1e-9


def nonzero_weight(weight: Optional[float]) -> Optional[float]:
    """Normalise a soft-clause weight: exact zero becomes the shared epsilon.

    ``None`` (hard) and non-zero weights pass through unchanged.  This is the
    single definition of the zero-weight rewrite used by every grounding
    engine and the array lowering.
    """
    return ZERO_WEIGHT_EPSILON if weight == 0 else weight


#: Every finite double is an integer multiple of ``2**-1074``, the least
#: subnormal, so sums of weights counted in that unit are exact integers.
_UNIT_BITS = 1074
_UNIT = 1 << _UNIT_BITS


def exact_units(weights: Iterable[float]) -> int:
    """The exact sum of ``weights`` as an integer count of ``2**-1074``.

    Partial sums in this form add up exactly in any order;
    :func:`units_to_float` rounds a total once.
    """
    total = 0
    for weight in weights:
        numerator, denominator = weight.as_integer_ratio()  # denominator = 2**k
        total += numerator << (_UNIT_BITS + 1 - denominator.bit_length())
    return total


def units_to_float(units: int) -> float:
    """``units * 2**-1074`` correctly rounded: what :func:`math.fsum` returns
    for the weights the units were counted from (integer true division
    rounds once, half to even)."""
    return units / _UNIT


class ClauseKind(str, Enum):
    """Provenance of a ground clause (used in reports and ablations)."""

    EVIDENCE = "evidence"
    RULE = "rule"
    CONSTRAINT = "constraint"
    PRIOR = "prior"


@dataclass(frozen=True, slots=True)
class GroundAtom:
    """A propositional variable standing for one temporal fact.

    Attributes
    ----------
    index:
        Position in the program's atom table (also the solver variable index).
    fact:
        The temporal fact this atom asserts.
    is_evidence:
        True when the fact came from the input UTKG (as opposed to being
        derived by an inference rule during grounding).
    derived_by:
        Name of the rule that derived the fact, when not evidence.
    """

    index: int
    fact: TemporalFact
    is_evidence: bool
    derived_by: Optional[str] = None

    def __str__(self) -> str:
        origin = "evidence" if self.is_evidence else f"derived:{self.derived_by}"
        return f"x{self.index}[{origin}] {self.fact}"


@dataclass(frozen=True, slots=True)
class GroundClause:
    """A weighted disjunction of literals over ground atoms.

    ``literals`` is a sequence of ``(atom_index, positive)`` pairs; the clause
    is satisfied when at least one literal evaluates to true.  ``weight`` is
    ``None`` for hard clauses.
    """

    literals: tuple[tuple[int, bool], ...]
    weight: Optional[float]
    kind: ClauseKind
    origin: str = ""

    def __post_init__(self) -> None:
        if not self.literals:
            raise GroundingError(f"empty ground clause from {self.origin!r}")
        if self.weight is not None and self.weight <= 0 and len(self.literals) > 1:
            raise GroundingError(
                f"non-unit soft clause from {self.origin!r} must have positive weight"
            )

    @property
    def is_hard(self) -> bool:
        return self.weight is None

    @property
    def is_unit(self) -> bool:
        return len(self.literals) == 1

    def satisfied_by(self, assignment: Sequence[bool]) -> bool:
        """Evaluate the clause under a Boolean assignment (indexed by atom)."""
        return any(assignment[index] == positive for index, positive in self.literals)

    def __str__(self) -> str:
        parts = " ∨ ".join(
            ("" if positive else "¬") + f"x{index}" for index, positive in self.literals
        )
        weight = "hard" if self.weight is None else f"{self.weight:g}"
        return f"({parts}) [{weight}, {self.kind.value}:{self.origin}]"


class _ClauseView(list):
    """The read-only list :attr:`GroundProgram.clauses` returns.

    Reads run at list speed; every mutator raises, because the program's
    columns, not this list, are its clause storage.
    """

    __slots__ = ()

    def _read_only(self, *args, **kwargs):
        raise TypeError("GroundProgram.clauses is read-only; add clauses with add_clause")

    append = extend = insert = pop = remove = clear = sort = reverse = _read_only
    __setitem__ = __delitem__ = __iadd__ = __imul__ = _read_only


class GroundProgram:
    """The full propositional MAP problem produced by the grounder.

    Atoms are a list of :class:`GroundAtom`; clauses live in columns (see
    the module docstring).  ``_arrays`` caches the program's CSR
    (:class:`~repro.logic.arrays.GroundProgramArrays`) until the next clause
    is added; the CSR holds no reference back to the program.
    """

    def __init__(self) -> None:
        self.atoms: list[GroundAtom] = []
        self._atom_index: dict[tuple, int] = {}
        self._clause_lengths = array("q")
        self._clause_weights: list[Optional[float]] = []
        self._clause_codes = array("q")
        self._literal_atoms = array("q")
        self._literal_signs = array("b")
        self._origins: list[tuple[ClauseKind, str]] = []
        self._origin_codes: dict[tuple[ClauseKind, str], int] = {}
        # The materialised prefix of the clause view, and how many literals
        # it covers (where the next clause to build starts).
        self._view = _ClauseView()
        self._view_literals = 0
        self._arrays: Optional["GroundProgramArrays"] = None

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def add_atom(
        self,
        fact: TemporalFact,
        is_evidence: bool,
        derived_by: Optional[str] = None,
    ) -> GroundAtom:
        """Register a fact as a ground atom (idempotent on the statement key)."""
        key = fact.statement_key
        existing = self._atom_index.get(key)
        if existing is not None:
            atom = self.atoms[existing]
            # Evidence status is sticky: once a fact is known to be evidence it
            # stays evidence even if a rule also derives it.  The deriving
            # rule's name is kept through the upgrade so summary()/reports can
            # still attribute the atom to the rule that (also) produced it.
            if is_evidence and not atom.is_evidence:
                upgraded = GroundAtom(atom.index, fact, True, atom.derived_by)
                self.atoms[existing] = upgraded
                return upgraded
            return atom
        atom = GroundAtom(len(self.atoms), fact, is_evidence, derived_by)
        self.atoms.append(atom)
        self._atom_index[key] = atom.index
        return atom

    def atom_for(self, fact: TemporalFact) -> Optional[GroundAtom]:
        """Look up the atom of a fact (by statement key), if registered."""
        index = self._atom_index.get(fact.statement_key)
        return self.atoms[index] if index is not None else None

    def origin_code(self, kind: ClauseKind, origin: str) -> int:
        """Code of ``(kind, origin)`` in the program's clause-origin table."""
        entry = (kind, origin)
        code = self._origin_codes.get(entry)
        if code is None:
            code = len(self._origins)
            self._origins.append(entry)
            self._origin_codes[entry] = code
        return code

    def add_clause(
        self,
        literals: Iterable[tuple[int, bool]],
        weight: Optional[float],
        kind: ClauseKind,
        origin: str = "",
    ) -> GroundClause:
        """Add a weighted clause over existing atom indexes.

        Soft unit clauses with negative weight are normalised by flipping the
        literal (``w·sat(l) ≡ const + (−w)·sat(¬l)``), so downstream encoders
        only ever see positive soft weights.  When the clause view is fully
        built, the returned clause object is appended to it.
        """
        items = tuple(literals)
        for index, _ in items:
            if index < 0 or index >= len(self.atoms):
                raise GroundingError(f"clause references unknown atom index {index}")
        if weight is not None and weight < 0:
            if len(items) != 1:
                raise GroundingError(
                    f"negative-weight non-unit clause from {origin!r} is not representable"
                )
            index, positive = items[0]
            items = ((index, not positive),)
            weight = -weight
        # Zero-weight clauses carry no information; substitute the shared
        # epsilon so they stay soft (see ZERO_WEIGHT_EPSILON).
        weight = nonzero_weight(weight)
        clause = GroundClause(items, weight, kind, origin)
        if len(self._view) == len(self._clause_weights):
            list.append(self._view, clause)
            self._view_literals += len(items)
        code = self._origin_codes.get((kind, origin))
        self._clause_lengths.append(len(items))
        self._clause_weights.append(weight)
        self._clause_codes.append(self.origin_code(kind, origin) if code is None else code)
        literal_atoms, literal_signs = self._literal_atoms, self._literal_signs
        for index, positive in items:
            literal_atoms.append(index)
            literal_signs.append(positive)
        self._arrays = None
        return clause

    def extend_clauses(
        self,
        lengths: np.ndarray,
        literal_atoms: np.ndarray,
        literal_signs: np.ndarray,
        weights: list[Optional[float]],
        codes: np.ndarray,
    ) -> None:
        """Append clauses straight to the columns, building no clause object.

        The caller has already normalised them as :meth:`add_clause` would:
        atom indexes exist, negative unit weights are flipped, zero weights
        are :data:`ZERO_WEIGHT_EPSILON` and non-unit soft weights positive.
        :class:`GroundClause` re-checks the last two when the view is built.
        ``codes`` come from :meth:`origin_code`.
        """
        self._clause_lengths.frombytes(np.asarray(lengths, dtype=np.int64).tobytes())
        self._clause_weights.extend(weights)
        self._clause_codes.frombytes(np.asarray(codes, dtype=np.int64).tobytes())
        self._literal_atoms.frombytes(np.asarray(literal_atoms, dtype=np.int64).tobytes())
        self._literal_signs.frombytes(np.asarray(literal_signs, dtype=bool).tobytes())
        self._arrays = None

    @classmethod
    def stack(cls, programs: Sequence["GroundProgram"]) -> "GroundProgram":
        """``programs`` side by side as one program, to be solved in one call.

        Atom ``i`` of a program becomes atom ``offset + i`` of the stack,
        where ``offset`` counts the atoms of the programs before it; clauses
        follow in program order, their columns copied.  No clause links two
        programs, so the stack's components are the programs' components.
        Atoms are not registered by statement key (two programs may hold the
        same fact), so :meth:`atom_for` finds none of them.
        """
        stacked = cls()
        atoms = stacked.atoms
        for program in programs:
            offset = len(atoms)
            atoms.extend(
                GroundAtom(offset + atom.index, atom.fact, atom.is_evidence, atom.derived_by)
                for atom in program.atoms
            )
            codes = [stacked.origin_code(kind, origin) for kind, origin in program._origins]
            stacked._clause_lengths.extend(program._clause_lengths)
            stacked._clause_weights.extend(program._clause_weights)
            stacked._clause_codes.extend(codes[code] for code in program._clause_codes)
            shifted = np.array(program._literal_atoms, dtype=np.int64) + offset
            stacked._literal_atoms.frombytes(shifted.tobytes())
            stacked._literal_signs.extend(program._literal_signs)
        return stacked

    # ------------------------------------------------------------------ #
    # Views
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.atoms)

    @property
    def num_atoms(self) -> int:
        return len(self.atoms)

    @property
    def num_clauses(self) -> int:
        return len(self._clause_weights)

    @property
    def clauses(self) -> list[GroundClause]:
        """The clauses as :class:`GroundClause` objects, in clause order.

        Read-only.  Built from the columns on first access; clauses added
        later extend the list instead of rebuilding it.
        """
        view = self._view
        start = len(view)
        if start < len(self._clause_weights):
            position = self._view_literals
            atoms = self._literal_atoms[position:].tolist()
            signs = [sign == 1 for sign in self._literal_signs[position:]]
            origins = self._origins
            built = []
            offset = 0
            for length, weight, code in zip(
                self._clause_lengths[start:],
                self._clause_weights[start:],
                self._clause_codes[start:],
            ):
                stop = offset + length
                kind, origin = origins[code]
                literals = tuple(zip(atoms[offset:stop], signs[offset:stop]))
                built.append(GroundClause(literals, weight, kind, origin))
                offset = stop
            list.extend(view, built)
            self._view_literals = position + offset
        return view

    def clause(self, index: int) -> GroundClause:
        """Clause ``index`` as an object, without building the whole view."""
        if index < len(self._view):
            return self._view[index]
        from .arrays import GroundProgramArrays  # arrays.py builds on this module

        offsets = GroundProgramArrays.from_program(self).clause_offsets
        start, stop = offsets[index : index + 2].tolist()
        signs = [sign == 1 for sign in self._literal_signs[start:stop]]
        literals = tuple(zip(self._literal_atoms[start:stop].tolist(), signs))
        kind, origin = self._origins[self._clause_codes[index]]
        return GroundClause(literals, self._clause_weights[index], kind, origin)

    def evidence_atoms(self) -> list[GroundAtom]:
        return [atom for atom in self.atoms if atom.is_evidence]

    def derived_atoms(self) -> list[GroundAtom]:
        return [atom for atom in self.atoms if not atom.is_evidence]

    def hard_clauses(self) -> list[GroundClause]:
        return [clause for clause in self.clauses if clause.is_hard]

    def soft_clauses(self) -> list[GroundClause]:
        return [clause for clause in self.clauses if not clause.is_hard]

    def clauses_of_kind(self, kind: ClauseKind) -> list[GroundClause]:
        return [clause for clause in self.clauses if clause.kind is kind]

    def iter_facts(self) -> Iterator[TemporalFact]:
        return (atom.fact for atom in self.atoms)

    # ------------------------------------------------------------------ #
    # Evaluation
    # ------------------------------------------------------------------ #
    def objective(self, assignment: Sequence[bool]) -> float:
        """Sum of satisfied soft-clause weights under ``assignment``.

        The correctly rounded exact sum (:func:`math.fsum`), so it does not
        depend on clause order and equals the exact sum of any split of the
        program into parts.
        """
        return math.fsum(self.satisfied_soft_weights(assignment))

    def satisfied_soft_weights(self, assignment: Sequence[bool]) -> list[float]:
        """Weights of the soft clauses ``assignment`` satisfies, in clause order.

        Read from the clause columns, building no clause object.
        """
        if len(assignment) != len(self.atoms):
            raise GroundingError(
                f"assignment has {len(assignment)} values for {len(self.atoms)} atoms"
            )
        atoms, signs = self._literal_atoms, self._literal_signs
        satisfied = []
        start = 0
        for length, weight in zip(self._clause_lengths, self._clause_weights):
            stop = start + length
            if weight is not None:
                for position in range(start, stop):
                    if assignment[atoms[position]] == (signs[position] == 1):
                        satisfied.append(weight)
                        break
            start = stop
        return satisfied

    def hard_violations(self, assignment: Sequence[bool]) -> list[GroundClause]:
        """Hard clauses violated by ``assignment`` (empty list ⇒ feasible)."""
        return [
            clause
            for clause in self.clauses
            if clause.is_hard and not clause.satisfied_by(assignment)
        ]

    def repair_hard_violations(self, assignment: Sequence[bool]) -> Optional[list[bool]]:
        """Greedily flip atoms of ``assignment`` until no hard clause is violated.

        Lowers the program to :class:`~repro.logic.arrays.GroundProgramArrays`
        and runs :meth:`~repro.logic.arrays.GroundProgramArrays.repair_hard_violations`,
        which documents the flip rule.  Callers that already hold the arrays
        (PSL rounding, ``maxwalksat-array``) call that method directly.

        Returns the repaired copy, or ``None`` when ``num_clauses + 1`` flips
        leave a hard clause violated.
        """
        from .arrays import GroundProgramArrays  # arrays.py builds on this module

        return GroundProgramArrays.from_program(self).repair_hard_violations(assignment, self.atoms)

    def is_feasible(self, assignment: Sequence[bool]) -> bool:
        """True when no hard clause is violated."""
        return not self.hard_violations(assignment)

    def max_soft_weight(self) -> float:
        """Sum of *all* soft-clause weights (upper bound on the objective).

        Every stored soft weight is positive by construction —
        :meth:`add_clause` flips negative unit clauses and rewrites exact
        zeros to :data:`ZERO_WEIGHT_EPSILON` — so summing all of them is the
        same as summing the positive ones.
        """
        return sum(weight for weight in self._clause_weights if weight is not None)

    def canonical_signature(self) -> tuple:
        """Order-independent content signature of the program.

        Atoms are identified by statement key (plus evidence status and
        deriving rule) and clauses by their literals rewritten to statement
        keys, so two programs built by different grounding engines — or with
        different atom numbering — compare equal exactly when they encode the
        same MAP problem.  Used by the differential tests and the grounding
        benchmark to prove the indexed engine matches the naive one.
        """
        atom_entries = sorted(
            (atom.fact.statement_key, atom.is_evidence, atom.derived_by or "")
            for atom in self.atoms
        )
        clause_entries = sorted(
            (
                (
                    tuple(
                        sorted(
                            (self.atoms[index].fact.statement_key, positive)
                            for index, positive in clause.literals
                        )
                    ),
                    clause.weight,
                    clause.kind.value,
                    clause.origin,
                )
                for clause in self.clauses
            ),
            # Hard clauses carry weight=None, which float comparison chokes
            # on when two clauses tie on their literals; order them first.
            key=lambda entry: (entry[0], entry[1] is not None, entry[1] or 0.0, entry[2], entry[3]),
        )
        return (tuple(atom_entries), tuple(clause_entries))

    def summary(self) -> dict[str, int]:
        """Size statistics used by reports and benchmark output."""
        return {
            "atoms": self.num_atoms,
            "evidence_atoms": len(self.evidence_atoms()),
            "derived_atoms": len(self.derived_atoms()),
            "clauses": self.num_clauses,
            "hard_clauses": len(self.hard_clauses()),
            "soft_clauses": len(self.soft_clauses()),
            "constraint_clauses": len(self.clauses_of_kind(ClauseKind.CONSTRAINT)),
            "rule_clauses": len(self.clauses_of_kind(ClauseKind.RULE)),
            "evidence_clauses": len(self.clauses_of_kind(ClauseKind.EVIDENCE)),
        }

    def __repr__(self) -> str:
        return f"GroundProgram(atoms={self.num_atoms}, clauses={self.num_clauses})"
