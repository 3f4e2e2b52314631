"""A9 — component decomposition of the MAP problem: statistics and exactness.

On the multi-entity FootballDB workload the ground program's interaction
graph splits into hundreds of small components (temporal constraints only
couple facts that share an entity and overlap in time), so the MAP solve
factorises.  This benchmark pins two guarantees:

* component statistics of the workload (the graph really shatters — hundreds
  of components, the largest a few dozen atoms at most);
* ``DecomposedSolver(nrockit)``, which builds one sub-program per component
  and solves them in one ``solve_components`` call, reaches ``nrockit``'s
  objective bit for bit.

It gates no speedup: ``nrockit`` already solves per component (bucket
elimination over all components at once, HiGHS for the wide ones), so the
wrapper only adds per-component sub-programs.  Both timings are reported.
"""

import time

import pytest

from _report import write_bench_json
from conftest import format_rows, record_report
from repro.core import make_solver, solve_map
from repro.datasets import FootballDBConfig, generate_footballdb
from repro.logic import decompose, ground, sports_pack
from repro.solvers import DecomposedSolver

#: FootballDB scale of the workload (≈1.1k ground atoms at 50% noise).
SCALE = 0.02

#: The back-end both ways: exact, so the objectives must match bit for bit.
BACKEND = "nrockit"


@pytest.fixture(scope="module")
def workload():
    """Noisy multi-entity FootballDB ground program plus its decomposition."""
    dataset = generate_footballdb(FootballDBConfig(scale=SCALE, noise_ratio=0.5, seed=2017))
    pack = sports_pack()
    program = ground(dataset.graph, pack.rules, pack.constraints).program
    return program, decompose(program)


def test_component_statistics(workload):
    """The conflict graph shatters: many small independent components."""
    program, decomposition = workload
    summary = decomposition.summary()

    assert summary["components"] >= 200, summary
    assert summary["largest_component"] <= 50, summary
    covered = sum(decomposition.component_sizes()) + summary["unconstrained_atoms"]
    assert covered == program.num_atoms

    sizes = decomposition.component_sizes()
    lines = [
        f"ground atoms        : {summary['atoms']}",
        f"ground clauses      : {summary['clauses']}",
        f"components          : {summary['components']}",
        f"largest component   : {summary['largest_component']} atoms",
        f"median component    : {sizes[len(sizes) // 2]} atoms",
        f"singleton components: {summary['singleton_components']}",
        f"unconstrained atoms : {summary['unconstrained_atoms']}",
    ]
    record_report("A9a", "interaction-graph component statistics (FootballDB)", lines)


def test_decomposed_objective_is_exact(benchmark, workload):
    """``DecomposedSolver(nrockit)`` has ``nrockit``'s objective, bit for bit."""
    program, decomposition = workload

    started = time.perf_counter()
    monolithic = solve_map(program, BACKEND)
    monolithic_seconds = time.perf_counter() - started

    decomposed_solver = DecomposedSolver(make_solver(BACKEND))
    decomposed = benchmark.pedantic(
        decomposed_solver.solve, args=(program,), rounds=1, iterations=1
    )
    decomposed_seconds = decomposed.stats.runtime_seconds

    assert decomposed.objective == monolithic.objective
    assert program.is_feasible(decomposed.assignment)

    rows = [
        [
            BACKEND,
            f"{monolithic_seconds:.3f}",
            f"{decomposed_seconds:.3f}",
            f"{decomposed.objective:.2f}",
        ],
    ]
    lines = format_rows(rows, ["backend", "one-shot s", "decomposed s", "objective"])
    lines.append("")
    lines.append(
        f"{decomposition.num_components} components, largest "
        f"{decomposition.component_sizes()[0]} atoms; objectives bit-identical "
        "both ways (components never share a clause, so the MAP factorises)."
    )
    record_report("A9b", "one-shot vs decomposed nrockit solve (FootballDB)", lines)
    summary = decomposition.summary()
    write_bench_json(
        "decomposition",
        workload={
            "dataset": "footballdb",
            "scale": SCALE,
            "noise_ratio": 0.5,
            "seed": 2017,
            "solver": BACKEND,
            "atoms": summary["atoms"],
            "clauses": summary["clauses"],
        },
        timings={
            "monolithic_seconds": monolithic_seconds,
            "decomposed_seconds": decomposed_seconds,
        },
        stats={
            "components": summary["components"],
            "largest_component": summary["largest_component"],
            "singleton_components": summary["singleton_components"],
            "unconstrained_atoms": summary["unconstrained_atoms"],
            "objective": decomposed.objective,
        },
    )
    benchmark.extra_info["components"] = decomposition.num_components
