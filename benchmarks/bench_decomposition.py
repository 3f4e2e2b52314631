"""A9 — component-decomposed MAP inference: monolithic vs decomposed solve.

On the multi-entity FootballDB workload the ground program's interaction
graph splits into hundreds of small components (temporal constraints only
couple facts that share an entity and overlap in time), so the MAP solve
factorises.  This benchmark pins two guarantees:

* component statistics of the workload (the graph really shatters — hundreds
  of components, the largest a few dozen atoms at most);
* the sequential decomposed solve beats the monolithic solve by at least
  ``MIN_SPEEDUP`` (2×) on the superlinear branch & bound back-end, with a
  bit-identical MAP objective.

A context section also reports the exact-ILP timings both ways.  ``nrockit``
already solves per component (small components enumerated in batches, the
rest in one HiGHS call), so wrapping it only adds per-component
sub-programs and HiGHS calls — the win comes from back-ends whose cost grows
superlinearly in program size.
"""

import time

import pytest

from _report import write_bench_json
from conftest import format_rows, record_report
from repro.core import make_solver, solve_map
from repro.datasets import FootballDBConfig, generate_footballdb
from repro.logic import decompose, ground, sports_pack
from repro.solvers import DecomposedSolver

#: The acceptance floor for the decomposed solve on the headline back-end.
MIN_SPEEDUP = 2.0

#: FootballDB scale of the workload (≈1.1k ground atoms at 50% noise).
SCALE = 0.02

#: The headline back-end: pure-Python branch & bound, whose cost grows
#: steeply with program size — exactly the regime decomposition targets.
BACKEND = "nrockit-bnb"
BACKEND_OPTIONS = {"time_limit": 300.0}


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


def test_decomposed_speedup(benchmark, workload):
    """≥2× sequentially, with a bit-identical MAP objective."""
    program, decomposition = workload

    monolithic_solver = make_solver(BACKEND, **BACKEND_OPTIONS)
    started = time.perf_counter()
    monolithic = monolithic_solver.solve(program)
    monolithic_seconds = time.perf_counter() - started

    decomposed_solver = DecomposedSolver(make_solver(BACKEND, **BACKEND_OPTIONS))
    decomposed = benchmark.pedantic(
        decomposed_solver.solve, args=(program,), rounds=1, iterations=1
    )
    decomposed_seconds = decomposed.stats.runtime_seconds

    assert decomposed.objective == monolithic.objective
    assert program.is_feasible(decomposed.assignment)

    speedup = monolithic_seconds / decomposed_seconds
    assert speedup >= MIN_SPEEDUP, (
        f"decomposed solve only {speedup:.2f}x faster than monolithic "
        f"({decomposed_seconds:.1f} s vs {monolithic_seconds:.1f} s)"
    )

    # Context: the exact ILP back-end both ways (report only — it already
    # solves per component, so the wrapper only adds overhead).
    started = time.perf_counter()
    ilp_monolithic = solve_map(program, "nrockit")
    ilp_monolithic_seconds = time.perf_counter() - started
    started = time.perf_counter()
    ilp_decomposed = DecomposedSolver(make_solver("nrockit")).solve(program)
    ilp_decomposed_seconds = time.perf_counter() - started
    assert ilp_decomposed.objective == ilp_monolithic.objective

    rows = [
        [
            BACKEND,
            f"{monolithic_seconds:.2f}",
            f"{decomposed_seconds:.2f}",
            f"{speedup:.2f}x",
            f"{decomposed.objective:.2f}",
        ],
        [
            "nrockit",
            f"{ilp_monolithic_seconds:.2f}",
            f"{ilp_decomposed_seconds:.2f}",
            f"{ilp_monolithic_seconds / ilp_decomposed_seconds:.2f}x",
            f"{ilp_decomposed.objective:.2f}",
        ],
    ]
    lines = format_rows(rows, ["backend", "monolithic s", "decomposed s", "speedup", "objective"])
    lines.append("")
    lines.append(
        f"{decomposition.num_components} components, largest "
        f"{decomposition.component_sizes()[0]} atoms; objectives bit-identical "
        "both ways (components never share a clause, so the MAP factorises)."
    )
    record_report("A9b", "monolithic vs decomposed MAP solve (FootballDB)", lines)
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
            "ilp_monolithic_seconds": ilp_monolithic_seconds,
            "ilp_decomposed_seconds": ilp_decomposed_seconds,
        },
        speedup=speedup,
        stats={
            "components": summary["components"],
            "largest_component": summary["largest_component"],
            "singleton_components": summary["singleton_components"],
            "unconstrained_atoms": summary["unconstrained_atoms"],
        },
    )
    benchmark.extra_info["speedup"] = round(speedup, 2)
    benchmark.extra_info["components"] = decomposition.num_components
