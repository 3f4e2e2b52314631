"""A10 — incremental resolution: delta-maintained sessions vs full re-resolves.

The paper's debugging loop is iterative — resolve, repair facts or receive
new evidence, resolve again — which this benchmark simulates as an *edit
stream* over the noisy FootballDB workload: every step mutates 1% of the
evidence facts (half retractions, half re-insertions of previously retracted
facts), then the UTKG is resolved again.  Two servers are compared under the
**same solver configuration** — the component-decomposed exact branch & bound
back-end PR 2 established as the viable exact setup for this shattered
workload (the interaction graph splits into ~300 components; monolithic
branch & bound is hopeless here):

* **full** — per step, a fresh ``TeCoRe.translate`` re-grounds the whole
  graph and ``DecomposedSolver`` re-solves every component from scratch
  (no result assembly);
* **incremental** — one ``TeCoRe.session``: the delta-maintained grounder
  folds the edit in (semi-naive tick-window joins for insertions,
  support-set retraction for removals), and the component-level solution
  cache re-solves only the components the edit touched.

Two guarantees are asserted, not just reported:

* every step's incremental MAP state is **bit-identical** to the
  from-scratch one — same merged objective floats, same assignment (the
  back-end is exact, and the session materialises byte-identical component
  sub-programs);
* the incremental session serves the stream at least ``MIN_SPEEDUP`` (5×)
  faster than full re-resolution (measured ~20–30×).

A context section reports the exact-ILP timings: HiGHS is so fast that a
*monolithic* ILP re-resolve is within ~2× of the incremental session — the
cache's win grows with per-component solve cost, which is exactly the
anytime/warm-start regime the session targets.

Results go to ``results/A10.txt`` (human-readable) and
``results/BENCH_incremental.json`` (machine-readable trajectory record).
"""

import random
import time

import pytest

from _report import write_bench_json
from conftest import format_rows, record_report
from repro import TeCoRe
from repro.core import make_solver
from repro.datasets import FootballDBConfig, generate_footballdb
from repro.logic import sports_pack
from repro.solvers import DecomposedSolver

#: The acceptance floor for the incremental session on the edit stream.
MIN_SPEEDUP = 5.0

#: FootballDB scale of the workload (noisy, multi-entity, ~300 components).
SCALE = 0.02
NOISE = 0.5
SEED = 2017

#: Edit stream shape: fraction of facts mutated per step, number of steps.
MUTATION_RATIO = 0.01
STEPS = 6

#: The headline back-end: exact branch & bound, component-decomposed — the
#: PR-2 configuration for this workload (see bench_decomposition.py).
SOLVER = "nrockit-bnb"
SOLVER_OPTIONS = {"time_limit": 300.0}


def build_edit_stream(graph, steps=STEPS, ratio=MUTATION_RATIO, seed=SEED):
    """Deterministic 1%-mutation stream: retract, then re-add last step's."""
    rng = random.Random(seed)
    per_step = max(1, int(len(graph) * ratio))
    working = graph.copy(name="edit-stream")
    stream = []
    previous_removed = []
    for _ in range(steps):
        facts = working.facts()
        removes = rng.sample(facts, per_step)
        adds = previous_removed
        for fact in removes:
            working.remove(fact)
        for fact in adds:
            working.add(fact)
        stream.append((adds, removes))
        previous_removed = removes
    return stream


@pytest.fixture(scope="module")
def workload():
    dataset = generate_footballdb(FootballDBConfig(scale=SCALE, noise_ratio=NOISE, seed=SEED))
    pack = sports_pack()
    graph = dataset.graph
    return graph, list(pack.rules), list(pack.constraints), build_edit_stream(graph)


def replay(system, graph, stream, resolve):
    """Run ``resolve(replica)`` after each edit; returns (seconds, results)."""
    replica = graph.copy(name=graph.name)
    total = 0.0
    results = []
    for adds, removes in stream:
        for fact in removes:
            replica.remove(fact)
        for fact in adds:
            replica.add(fact)
        started = time.perf_counter()
        results.append(resolve(replica))
        total += time.perf_counter() - started
    return total, results


def test_incremental_session_speedup(benchmark, workload):
    """The tentpole claim: ≥5× on the 1%-mutation stream, bit-identical MAP."""
    graph, rules, constraints, stream = workload
    system = TeCoRe(
        rules=rules,
        constraints=constraints,
        solver=SOLVER,
        solver_options=dict(SOLVER_OPTIONS),
    )

    # Full re-resolution baseline: fresh grounding + all-component solve.
    full_solver = DecomposedSolver(make_solver(SOLVER, **SOLVER_OPTIONS))
    full_seconds, full_results = replay(
        system, graph, stream, lambda replica: full_solver.solve(system.translate(replica).program)
    )

    # Incremental session: delta grounding + component solution cache.
    started = time.perf_counter()
    session = system.session(graph)
    session_setup = time.perf_counter() - started
    incremental_seconds = 0.0
    incremental_results = []
    cache_hits = dirty = total = 0
    for adds, removes in stream:
        started = time.perf_counter()
        result = session.apply(adds=adds, removes=removes)
        incremental_seconds += time.perf_counter() - started
        incremental_results.append(result)
        cache_hits += result.delta.components_cached
        dirty += result.delta.components_dirty
        total += result.delta.components_total

    for incremental, full in zip(incremental_results, full_results):
        assert incremental.objective == full.objective
        assert incremental.solution.assignment == full.assignment

    speedup = full_seconds / incremental_seconds
    assert speedup >= MIN_SPEEDUP, (
        f"incremental session only {speedup:.2f}x faster than full re-resolution "
        f"({incremental_seconds * 1000:.0f} ms vs {full_seconds * 1000:.0f} ms)"
    )

    # One representative timed apply for the pytest-benchmark table (reverts
    # and replays the last edit).
    last_adds, last_removes = stream[-1]
    session.apply(adds=last_removes, removes=last_adds)
    benchmark.pedantic(
        lambda: session.apply(adds=last_adds, removes=last_removes),
        rounds=1,
        iterations=1,
    )

    # Context: the exact-ILP back-end, monolithic full re-resolve vs an
    # ILP-backed session (report only — HiGHS solves the whole program in
    # tens of milliseconds, so per-call overhead bounds the cache's win).
    ilp_system = TeCoRe(rules=rules, constraints=constraints, solver="nrockit")
    ilp_full_seconds, ilp_results = replay(ilp_system, graph, stream, ilp_system.resolve)
    ilp_session = ilp_system.session(graph)
    ilp_incremental_seconds = 0.0
    for (adds, removes), full in zip(stream, ilp_results):
        started = time.perf_counter()
        result = ilp_session.apply(adds=adds, removes=removes)
        ilp_incremental_seconds += time.perf_counter() - started
        assert result.objective == full.objective

    summary = session.state_summary()
    per_step = max(1, int(len(graph) * MUTATION_RATIO))
    rows = [
        [
            f"{SOLVER} (decomposed)",
            f"{full_seconds * 1000:.0f}",
            f"{incremental_seconds * 1000:.0f}",
            f"{speedup:.1f}x",
        ],
        [
            "nrockit ILP (monolithic)",
            f"{ilp_full_seconds * 1000:.0f}",
            f"{ilp_incremental_seconds * 1000:.0f}",
            f"{ilp_full_seconds / ilp_incremental_seconds:.1f}x",
        ],
    ]
    lines = format_rows(rows, ["backend", "full ms (6 steps)", "incremental ms", "speedup"])
    lines += [
        "",
        f"facts / mutated per step : {len(graph)} / {per_step * 2} "
        f"({MUTATION_RATIO:.0%} retract + re-add)",
        f"session setup (initial resolve): {session_setup * 1000:.0f} ms",
        f"components per step      : {total // STEPS} "
        f"({cache_hits / total:.1%} served from the solution cache, "
        f"{dirty / STEPS:.1f} dirty)",
        f"maintained firings/violations: {summary['firings']} / {summary['violations']}",
        "",
        "Per-step MAP states are bit-identical to from-scratch resolution",
        "(same objective floats, same assignments). The session re-grounds",
        "only the delta (semi-naive tick windows + support-set retraction)",
        "and re-solves only the dirty components.",
    ]
    record_report(
        "A10",
        "incremental resolution vs full re-resolution (FootballDB edit stream)",
        lines,
    )

    write_bench_json(
        "incremental",
        workload={
            "dataset": "footballdb",
            "scale": SCALE,
            "noise_ratio": NOISE,
            "seed": SEED,
            "facts": len(graph),
            "steps": STEPS,
            "mutation_ratio": MUTATION_RATIO,
            "solver": SOLVER,
        },
        timings={
            "full_seconds": full_seconds,
            "incremental_seconds": incremental_seconds,
            "session_setup_seconds": session_setup,
            "ilp_monolithic_full_seconds": ilp_full_seconds,
            "ilp_incremental_seconds": ilp_incremental_seconds,
        },
        speedup=speedup,
        stats={
            "components_per_step": total // STEPS,
            "components_dirty_per_step": round(dirty / STEPS, 2),
            "cache_hit_rate": round(cache_hits / total, 4),
            "maintained_firings": summary["firings"],
            "maintained_violations": summary["violations"],
        },
    )
    benchmark.extra_info["speedup"] = round(speedup, 2)
    benchmark.extra_info["cache_hit_rate"] = round(cache_hits / total, 3)
