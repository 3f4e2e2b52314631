"""The TeCoRe translator.

"The translator parses data, inference rules, and temporal constraints, and
transforms those into the specific syntax of the chosen solver (e.g. nRockIt,
PSL).  Special care is taken to verify that the input adheres to the
expressivity of the solver." (paper, Section 2.1)

In this reproduction both solver families consume the same ground program, so
the translator's tasks are:

1. ground the UTKG with the rules and constraints (shared front-end);
2. verify the result against the chosen solver's expressivity;
3. optionally emit a human-readable program listing in the style of the
   target system (an ``.mln``-like listing for nRockIt, a rule listing for
   PSL) — useful for debugging and for the demo walk-through.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from ..kg import TemporalKnowledgeGraph
from ..logic import (
    DEFAULT_ENGINE,
    GroundingResult,
    TemporalConstraint,
    TemporalRule,
    make_grounder,
)
from ..solvers import check_expressivity
from .registry import solver_capabilities, solver_family


@dataclass
class TranslatedProgram:
    """Output of the translator: a solver-ready ground program plus metadata."""

    solver_name: str
    family: str
    grounding: GroundingResult
    rules: tuple[TemporalRule, ...] = field(default_factory=tuple)
    constraints: tuple[TemporalConstraint, ...] = field(default_factory=tuple)

    @property
    def program(self):
        return self.grounding.program

    # ------------------------------------------------------------------ #
    # Program listings in the flavour of the target system
    # ------------------------------------------------------------------ #
    def template_listing(self) -> str:
        """First-order (template) listing: weighted rules and constraints."""
        lines = [f"// TeCoRe program for {self.solver_name} ({self.family})"]
        for rule in self.rules:
            lines.append(str(rule))
        for constraint in self.constraints:
            lines.append(str(constraint))
        return "\n".join(lines)

    def ground_listing(self, limit: int | None = 50) -> str:
        """Ground-clause listing (truncated to ``limit`` clauses by default)."""
        program = self.program
        lines = [f"// {program.num_atoms} ground atoms, {program.num_clauses} ground clauses"]
        clauses = program.clauses if limit is None else program.clauses[:limit]
        for clause in clauses:
            lines.append(str(clause))
        if limit is not None and program.num_clauses > limit:
            lines.append(f"// ... {program.num_clauses - limit} more clauses")
        return "\n".join(lines)

    def evidence_listing(self, limit: int | None = 50) -> str:
        """Evidence listing (the ``.db`` file of an MLN system)."""
        atoms = self.program.evidence_atoms()
        shown = atoms if limit is None else atoms[:limit]
        lines = [f"// {len(atoms)} evidence atoms"]
        lines += [str(atom.fact) for atom in shown]
        if limit is not None and len(atoms) > limit:
            lines.append(f"// ... {len(atoms) - limit} more atoms")
        return "\n".join(lines)

    def summary(self) -> dict[str, int]:
        summary = self.program.summary()
        summary["rule_templates"] = len(self.rules)
        summary["constraint_templates"] = len(self.constraints)
        return summary


class TecoreTranslator:
    """Grounds and validates inputs for a chosen solver.

    ``engine`` selects the grounding engine (a :data:`GROUNDING_ENGINES`
    name, default :data:`DEFAULT_ENGINE`: the columnar "vectorized" engine;
    all emit identical programs).  A translator instance is reusable across
    graphs: solver capabilities are resolved through the registry's cached
    probes, which is what makes :meth:`repro.core.TeCoRe.resolve_batch`
    cheap per graph.
    """

    def __init__(
        self, max_rounds: int = 5, keep_bias: float = 1e-3, engine: str = DEFAULT_ENGINE
    ) -> None:
        self.max_rounds = max_rounds
        self.keep_bias = keep_bias
        self.engine = engine

    def translate(
        self,
        graph: TemporalKnowledgeGraph,
        rules: Iterable[TemporalRule],
        constraints: Iterable[TemporalConstraint],
        solver: str = "nrockit",
    ) -> TranslatedProgram:
        """Ground ``graph`` with the rules/constraints and validate for ``solver``."""
        rules = tuple(rules)
        constraints = tuple(constraints)
        family = solver_family(solver)
        grounder = make_grounder(
            self.engine,
            graph,
            rules=rules,
            constraints=constraints,
            max_rounds=self.max_rounds,
            keep_bias=self.keep_bias,
        )
        grounding = grounder.ground()
        # Expressivity verification against the actual back-end capabilities.
        check_expressivity(grounding.program, solver_capabilities(solver))
        return TranslatedProgram(
            solver_name=solver,
            family=family,
            grounding=grounding,
            rules=rules,
            constraints=constraints,
        )

    def lint_program(
        self,
        rules: Iterable[TemporalRule],
        constraints: Iterable[TemporalConstraint],
        graph: TemporalKnowledgeGraph | None = None,
    ):
        """Static analysis of the rule program *before* any grounding.

        Returns the :class:`~repro.analysis.LintReport` of the full analyzer
        (safety, schema, temporal satisfiability, hard-conflict coupling,
        duplicates, vectorization-coverage lints).  Passing ``graph`` enables
        the graph-dependent checks (unknown predicates, grounding estimate).
        """
        from ..analysis import analyze_program

        return analyze_program(tuple(rules), tuple(constraints), graph)

    def detect_conflicts(
        self,
        graph: TemporalKnowledgeGraph,
        constraints: Iterable[TemporalConstraint],
    ) -> GroundingResult:
        """Constraint-only grounding (conflict detection without inference)."""
        grounder = make_grounder(
            self.engine,
            graph,
            rules=(),
            constraints=tuple(constraints),
            derive_facts=False,
            keep_bias=self.keep_bias,
        )
        return grounder.ground()
