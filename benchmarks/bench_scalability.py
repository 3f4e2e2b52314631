"""A1 — scalability sweep: expressiveness vs scalability.

The demo's discussion goal (i): "inference expressiveness and scalability
(i.e., nRockIt versus PSL)".  We sweep the FootballDB size and measure, for
each reasoner family, the pure MAP-solving time over the shared ground
program.  The report records the full series so the growth trends can be
compared; the pytest-benchmark timing covers the largest size.
"""

import time

import pytest

from conftest import format_rows, record_report
from repro.core import make_solver
from repro.datasets import FootballDBConfig, generate_footballdb
from repro.logic import ground, sports_pack

#: FootballDB scales swept (≈ facts: 290, 580, 1.4k, 2.9k).
SCALES = [0.01, 0.02, 0.05, 0.1]
SOLVERS = ["nrockit", "npsl"]

_SERIES: dict[float, dict[str, float]] = {}


def _workload(scale: float):
    dataset = generate_footballdb(FootballDBConfig(scale=scale, noise_ratio=0.5, seed=2017))
    pack = sports_pack()
    return dataset, ground(dataset.graph, pack.rules, pack.constraints).program


@pytest.fixture(scope="module")
def sweep_series():
    """Measure solver-only runtime over the whole size sweep (once)."""
    for scale in SCALES:
        dataset, program = _workload(scale)
        entry: dict[str, float] = {
            "facts": len(dataset.graph),
            "clauses": program.num_clauses,
        }
        for solver_name in SOLVERS:
            solver = make_solver(solver_name)
            started = time.perf_counter()
            solution = solver.solve(program)
            entry[solver_name] = (time.perf_counter() - started) * 1000.0
            entry[f"{solver_name}_objective"] = solution.objective
        _SERIES[scale] = entry
    return _SERIES


@pytest.mark.parametrize("solver_name", SOLVERS)
def test_scalability_largest_size(benchmark, sweep_series, solver_name):
    _, program = _workload(SCALES[-1])
    solver = make_solver(solver_name)
    solution = benchmark(solver.solve, program)
    assert program.is_feasible(solution.assignment)

    if solver_name == SOLVERS[-1]:
        rows = []
        for scale in SCALES:
            entry = sweep_series[scale]
            rows.append(
                [
                    scale,
                    int(entry["facts"]),
                    int(entry["clauses"]),
                    f"{entry['nrockit']:.1f}",
                    f"{entry['npsl']:.1f}",
                    f"{entry['nrockit'] / entry['npsl']:.2f}x",
                ]
            )
        lines = format_rows(
            rows,
            ["scale", "facts", "ground clauses", "nrockit ms", "npsl ms", "ratio"],
        )
        lines.append("")
        lines.append(
            "Both reasoners share the grounding front-end; times are pure MAP solving. "
            "The PSL path scales linearly in the number of hinge potentials, the ILP "
            "path depends on the LP/branch-and-cut behaviour of HiGHS."
        )
        record_report("A1", "scalability sweep: nRockIt vs nPSL MAP runtime", lines)
