"""A13 — array-native solver kernels vs the object solvers.

The columnar :class:`~repro.logic.GroundProgramArrays` lowering carries the
interned-id/numpy-block layout of the vectorized grounder through clause
construction into the MAP solvers.  This benchmark pins the three kernel
contracts on the noisy FootballDB workload (the same ground program the
decomposition benchmark uses):

* the batched array MaxWalkSAT kernel beats the object local search by at
  least ``MIN_SPEEDUP`` (3×) while matching its solution quality;
* the array ADMM runs the identical iteration over a matrix lowered from the
  arrays — bit-identical truth values, objective, and iteration count;
* branch & bound with array bounding returns bit-identical assignments on
  the workload's components (the exact kernels are drop-in replacements).
"""

import time

import pytest

from _report import write_bench_json
from conftest import format_rows, record_report
from repro.datasets import FootballDBConfig, generate_footballdb
from repro.logic import GroundProgramArrays, decompose, ground, sports_pack
from repro.mln import map_inference as mln_map
from repro.psl import map_inference as psl_map

#: Acceptance floor: array MaxWalkSAT vs object MaxWalkSAT wall clock.
MIN_SPEEDUP = 3.0

#: FootballDB scale of the workload (≈1.1k ground atoms at 50% noise).
SCALE = 0.02

#: Shared local-search budget (object and array kernels get the same one).
SEARCH_OPTIONS = {"max_flips": 20_000, "max_restarts": 3, "seed": 2017}

#: Components checked for branch & bound bit-identity (largest first; the
#: monolithic exact solve is the decomposition benchmark's job).
BNB_COMPONENTS = 25


@pytest.fixture(scope="module")
def workload():
    """Noisy multi-entity FootballDB ground program plus its lowering."""
    dataset = generate_footballdb(FootballDBConfig(scale=SCALE, noise_ratio=0.5, seed=2017))
    pack = sports_pack()
    program = ground(dataset.graph, pack.rules, pack.constraints).program
    return program, GroundProgramArrays.from_program(program)


def test_maxwalksat_kernel_speedup(benchmark, workload):
    """The tentpole claim: batched array WalkSAT ≥3× the object solver."""
    program, arrays = workload

    object_solver = mln_map.make_solver("maxwalksat", **SEARCH_OPTIONS)
    started = time.perf_counter()
    object_solution = object_solver.solve(program)
    object_seconds = time.perf_counter() - started

    array_solver = mln_map.make_solver("maxwalksat-array", **SEARCH_OPTIONS)
    array_solution = benchmark.pedantic(array_solver.solve, args=(program,), rounds=1, iterations=1)
    array_seconds = array_solution.stats.runtime_seconds

    assert program.is_feasible(array_solution.assignment)
    # Same search budget, per-component best tracking: the array kernel must
    # not trade quality for speed.
    assert array_solution.objective >= object_solution.objective * (1 - 1e-3)

    speedup = object_seconds / array_seconds
    assert speedup >= MIN_SPEEDUP, (
        f"array MaxWalkSAT only {speedup:.2f}x faster than the object solver "
        f"({array_seconds:.2f} s vs {object_seconds:.2f} s)"
    )

    # ADMM both ways — the lowered potential matrix must reproduce the object
    # iterates bit-for-bit, so the timing comparison is apples-to-apples.
    started = time.perf_counter()
    admm_object = psl_map.solve_map(program, "admm")
    admm_object_seconds = time.perf_counter() - started
    started = time.perf_counter()
    admm_array = psl_map.solve_map(program, "admm-array")
    admm_array_seconds = time.perf_counter() - started
    assert admm_array.truth_values == admm_object.truth_values
    assert admm_array.objective == admm_object.objective
    assert admm_array.stats.iterations == admm_object.stats.iterations

    decomposition = decompose(program)
    rows = [
        [
            "maxwalksat",
            f"{object_seconds:.2f}",
            f"{array_seconds:.2f}",
            f"{speedup:.2f}x",
            f"{array_solution.objective / object_solution.objective:.4f}",
        ],
        [
            "npsl (admm)",
            f"{admm_object_seconds:.3f}",
            f"{admm_array_seconds:.3f}",
            f"{admm_object_seconds / admm_array_seconds:.2f}x",
            "bit-identical",
        ],
    ]
    lines = format_rows(
        rows, ["solver", "object s", "array s", "speedup", "quality (array/object)"]
    )
    lines.append("")
    lines.append(
        f"{arrays.num_atoms} atoms, {arrays.num_clauses} clauses, "
        f"{decomposition.num_components} components; both kernels run the same "
        f"flip budget ({SEARCH_OPTIONS['max_flips']} flips × "
        f"{SEARCH_OPTIONS['max_restarts']} restarts)."
    )
    record_report("A13", "array solver kernels vs object solvers (FootballDB)", lines)
    write_bench_json(
        "solver_kernels",
        workload={
            "dataset": "footballdb",
            "scale": SCALE,
            "noise_ratio": 0.5,
            "seed": 2017,
            "solver": "maxwalksat",
            "atoms": arrays.num_atoms,
            "clauses": arrays.num_clauses,
            **SEARCH_OPTIONS,
        },
        timings={
            "object_seconds": object_seconds,
            "array_seconds": array_seconds,
            "admm_object_seconds": admm_object_seconds,
            "admm_array_seconds": admm_array_seconds,
        },
        speedup=speedup,
        stats={
            "components": decomposition.num_components,
            "objective_object": round(object_solution.objective, 6),
            "objective_array": round(array_solution.objective, 6),
            "admm_bit_identical": True,
        },
    )
    benchmark.extra_info["speedup"] = round(speedup, 2)
    benchmark.extra_info["quality_ratio"] = round(
        array_solution.objective / object_solution.objective, 4
    )


def test_branch_and_bound_kernel_is_bit_identical(workload):
    """Exact kernel contract on real components: same assignment, objective,
    and explored-node count as the object branch & bound."""
    program, _ = workload
    decomposition = decompose(program)
    components = sorted(
        decomposition.components, key=lambda component: -component.num_atoms
    )[:BNB_COMPONENTS]
    assert components, "decomposition produced no components"
    for component in components:
        object_solution = mln_map.solve_map(component.program, "branch-and-bound")
        array_solution = mln_map.solve_map(component.program, "branch-and-bound-array")
        assert array_solution.assignment == object_solution.assignment
        assert array_solution.objective == object_solution.objective
        assert array_solution.stats.iterations == object_solution.stats.iterations
