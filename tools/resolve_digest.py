#!/usr/bin/env python3
"""Digest every observable of ``TeCoRe.resolve``, one line per graph.

Each line is a graph's name and a SHA-256 over what resolving it yields:
the ground program (atoms, and clauses with the ``repr`` of each weight),
the violations, rule firings and chaining rounds, the MAP assignment, the
``repr`` of the objective, the solver statistics, the removed and inferred
facts, the consistent and expanded graphs with their names, the result
statistics, and the JSON payload ``tecore serve`` answers ``/resolve`` with
(graphs included, key order kept).  Run times are left out, so two commits
that resolve a graph bit for bit print the same line for it.

``repro`` is imported from ``PYTHONPATH``, so one copy of this script
digests any checkout::

    PYTHONPATH=src python tools/resolve_digest.py --dataset footballdb \\
        --scale 0.25 --noise 0.5 --pack sports --seed 4 --graphs 10 > change.txt
    PYTHONPATH=../parent/src python tools/resolve_digest.py --dataset footballdb \\
        --scale 0.25 --noise 0.5 --pack sports --seed 4 --graphs 10 > parent.txt
    diff parent.txt change.txt

Graph ``i`` of ``--graphs`` is generated with seed ``1000 * seed + i``, as
the repository benchmark (``perfbench``) generates its inputs, so
``--seed 4 --graphs 10`` digests the ten graphs of a ``repair-football``
run with ``--seed 4``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from typing import Iterable, Optional, Sequence

from repro import TeCoRe
from repro.datasets import load_dataset
from repro.kg import TemporalKnowledgeGraph
from repro.serve.protocol import encode_result, stable_view


def _graph_lines(graph: TemporalKnowledgeGraph) -> Iterable[str]:
    yield f"graph {graph.name!r} {len(graph)}"
    yield from map(repr, graph)


def _observables(system: TeCoRe, graph: TemporalKnowledgeGraph) -> Iterable[str]:
    # resolve() keeps only the result; the same translation, made again,
    # shows its program, firings and rounds.
    grounding = system.translate(graph).grounding
    program = grounding.program
    yield f"atoms {program.num_atoms}"
    yield from map(repr, program.atoms)
    yield f"clauses {program.num_clauses}"
    for clause in program.clauses:
        yield f"{clause.literals!r} {clause.weight!r} {clause.kind.value} {clause.origin!r}"
    yield f"violations {len(grounding.violations)}"
    yield from map(repr, grounding.violations)
    yield f"firings {len(grounding.firings)} rounds {grounding.rounds}"
    yield from map(repr, grounding.firings)

    result = system.resolve(graph)
    solution = result.solution
    yield f"assignment {''.join('1' if value else '0' for value in solution.assignment)}"
    yield f"objective {solution.objective!r}"
    yield f"truth values {solution.truth_values!r}"
    stats = dataclasses.replace(solution.stats, runtime_seconds=0.0)
    yield f"solver stats {stats!r}"
    yield f"removed {len(result.removed_facts)}"
    yield from map(repr, result.removed_facts)
    yield f"inferred {len(result.inferred_facts)}"
    yield from map(repr, result.inferred_facts)
    yield f"below threshold {len(result.inferred_below_threshold)}"
    yield from map(repr, result.inferred_below_threshold)
    yield f"conflicting {len(result.conflicting_facts)}"
    yield from map(repr, result.conflicting_facts)
    yield from map(repr, result.violations)
    yield from _graph_lines(result.consistent_graph)
    yield from _graph_lines(result.expanded_graph)
    statistics = result.statistics.as_dict()
    del statistics["runtime_seconds"]
    yield f"statistics {sorted(statistics.items())!r}"
    yield f"payload {json.dumps(stable_view(encode_result(result, include_graphs=True)))}"


def resolve_digest(system: TeCoRe, graph: TemporalKnowledgeGraph) -> str:
    """SHA-256 (hex) over every observable of ``system.resolve(graph)``."""
    digest = hashlib.sha256()
    for line in _observables(system, graph):
        digest.update(line.encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--dataset", choices=("ranieri", "footballdb", "wikidata"), default="ranieri"
    )
    parser.add_argument("--scale", type=float, default=0.01)
    parser.add_argument("--noise", type=float, default=0.5)
    parser.add_argument("--pack", default="running-example")
    parser.add_argument("--solver", default="nrockit")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--graphs", type=int, default=1)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    system = TeCoRe.from_pack(args.pack, solver=args.solver)
    for index in range(args.graphs):
        seed = 1000 * args.seed + index
        graph = load_dataset(
            args.dataset, scale=args.scale, noise_ratio=args.noise, seed=seed
        ).graph
        print(f"{graph.name} seed={seed} {resolve_digest(system, graph)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
