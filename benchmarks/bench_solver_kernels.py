"""A13 — ``npsl``'s array-lowered ADMM vs the object construction.

The columnar :class:`~repro.logic.GroundProgramArrays` lowering carries the
interned-id/numpy-block layout of the vectorized grounder through clause
construction into the MAP solvers.  This benchmark pins, on the noisy
FootballDB workload (the same ground program the decomposition benchmark
uses), that ``npsl`` (ADMM over a potential matrix lowered from the arrays)
runs the identical iteration as the object construction from
``HingeLossMRF`` potentials — bit-identical truth values, objective, and
iteration count — and reports both timings.  It gates no speedup.
"""

import time

import pytest

from _report import write_bench_json
from conftest import format_rows, record_report
from repro.core import make_solver
from repro.datasets import FootballDBConfig, generate_footballdb
from repro.logic import GroundProgramArrays, decompose, ground, sports_pack
from repro.psl import ADMMSolver, HingeLossMRF, PotentialMatrix, round_solution

#: FootballDB scale of the workload (≈1.1k ground atoms at 50% noise).
SCALE = 0.02


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


def test_admm_array_kernel_is_bit_identical(benchmark, workload):
    """The lowered potential matrix reproduces the object iterates bit for bit."""
    program, arrays = workload

    started = time.perf_counter()
    object_truth, object_objective, object_iterations = object_admm(program)
    admm_object_seconds = time.perf_counter() - started
    started = time.perf_counter()
    admm_array = benchmark.pedantic(
        make_solver("npsl").solve, args=(program,), rounds=1, iterations=1
    )
    admm_array_seconds = time.perf_counter() - started
    assert admm_array.truth_values == object_truth
    assert admm_array.objective == object_objective
    assert admm_array.stats.iterations == object_iterations

    decomposition = decompose(program)
    rows = [
        [
            "npsl (admm)",
            f"{admm_object_seconds:.3f}",
            f"{admm_array_seconds:.3f}",
            f"{admm_array.stats.iterations}",
            "bit-identical",
        ],
    ]
    lines = format_rows(rows, ["solver", "object s", "array s", "iterations", "result"])
    lines.append("")
    lines.append(
        f"{arrays.num_atoms} atoms, {arrays.num_clauses} clauses, "
        f"{decomposition.num_components} components."
    )
    record_report("A13", "npsl array kernel vs object construction (FootballDB)", lines)
    write_bench_json(
        "solver_kernels",
        workload={
            "dataset": "footballdb",
            "scale": SCALE,
            "noise_ratio": 0.5,
            "seed": 2017,
            "solver": "npsl",
            "atoms": arrays.num_atoms,
            "clauses": arrays.num_clauses,
        },
        timings={
            "admm_object_seconds": admm_object_seconds,
            "admm_array_seconds": admm_array_seconds,
        },
        stats={
            "components": decomposition.num_components,
            "iterations": admm_array.stats.iterations,
            "objective": admm_array.objective,
            "admm_bit_identical": True,
        },
    )
