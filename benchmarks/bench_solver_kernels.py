"""A13 — array-native solvers vs the object constructions.

The columnar :class:`~repro.logic.GroundProgramArrays` lowering carries the
interned-id/numpy-block layout of the vectorized grounder through clause
construction into the MAP solvers.  This benchmark pins two contracts on the
noisy FootballDB workload (the same ground program the decomposition
benchmark uses):

* the batched ``maxwalksat-array`` search beats ``maxwalksat`` by at least
  ``MIN_SPEEDUP`` (3×) while matching its solution quality;
* ``npsl`` (ADMM over a potential matrix lowered from the arrays) runs the
  identical iteration as the object construction from ``HingeLossMRF``
  potentials — bit-identical truth values, objective, and iteration count.
"""

import time

import pytest

from _report import write_bench_json
from conftest import format_rows, record_report
from repro.core import make_solver
from repro.datasets import FootballDBConfig, generate_footballdb
from repro.logic import GroundProgramArrays, decompose, ground, sports_pack
from repro.psl import ADMMSolver, HingeLossMRF, PotentialMatrix, round_solution

#: Acceptance floor: array MaxWalkSAT vs object MaxWalkSAT wall clock.
MIN_SPEEDUP = 3.0

#: FootballDB scale of the workload (≈1.1k ground atoms at 50% noise).
SCALE = 0.02

#: Shared local-search budget (object and array kernels get the same one).
SEARCH_OPTIONS = {"max_flips": 20_000, "max_restarts": 3, "seed": 2017}


def object_admm(program):
    """``npsl`` built the object way: ``HingeLossMRF`` potentials → matrix →
    the same ADMM loop and rounding.  Returns truth values, objective and
    iteration count."""
    solver = ADMMSolver()
    mrf = HingeLossMRF.from_program(program, hard_weight=solver.hard_weight, squared=solver.squared)
    matrix = PotentialMatrix(mrf.potentials, mrf.num_variables)
    truth_values, iterations = solver._admm(matrix, mrf.initial_state())
    assignment = round_solution(program, truth_values)
    truth_values = tuple(float(value) for value in truth_values)
    return truth_values, program.objective(assignment), iterations


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

    object_solver = make_solver("maxwalksat", **SEARCH_OPTIONS)
    started = time.perf_counter()
    object_solution = object_solver.solve(program)
    object_seconds = time.perf_counter() - started

    array_solver = make_solver("maxwalksat-array", **SEARCH_OPTIONS)
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
    object_truth, object_objective, object_iterations = object_admm(program)
    admm_object_seconds = time.perf_counter() - started
    started = time.perf_counter()
    admm_array = make_solver("npsl").solve(program)
    admm_array_seconds = time.perf_counter() - started
    assert admm_array.truth_values == object_truth
    assert admm_array.objective == object_objective
    assert admm_array.stats.iterations == object_iterations

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
