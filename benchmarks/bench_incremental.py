"""A10 — incremental resolution: delta-maintained sessions vs full re-resolves.

The paper's debugging loop is iterative — resolve, repair facts or receive
new evidence, resolve again — which this benchmark simulates as an *edit
stream* over the noisy FootballDB workload: every step mutates 1% of the
evidence facts (half retractions, half re-insertions of previously retracted
facts), then the UTKG is resolved again.  Both sides run ``nrockit``, the
exact default back-end:

* **full** — per step, a one-shot ``TeCoRe.resolve`` of the edited graph:
  grounding, the per-component solve and result assembly, from scratch;
* **incremental** — one ``TeCoRe.session``: the delta-maintained grounder
  folds the edit in (semi-naive tick-window joins for insertions,
  support-set retraction for removals), and only the components the edit
  touched are re-emitted, looked up in the solution cache and solved.

Two guarantees are asserted, not just reported:

* every step's session result is **bit-identical** to the one-shot resolve —
  same assignment, same objective float (``nrockit``'s answer for a
  component depends only on its content, and objectives are exact sums);
* the session serves the stream at least ``MIN_SPEEDUP`` times faster than
  one-shot re-resolution.

Results go to ``results/A10.txt`` (human-readable) and
``results/BENCH_incremental.json`` (machine-readable trajectory record).
"""

import random
import time

import pytest

from _report import write_bench_json
from conftest import format_rows, record_report
from repro import TeCoRe
from repro.datasets import FootballDBConfig, generate_footballdb
from repro.logic import sports_pack

#: The acceptance floor for the session over one-shot resolves on the stream.
MIN_SPEEDUP = 2.0

#: FootballDB scale of the workload (noisy, multi-entity, ~300 components).
SCALE = 0.02
NOISE = 0.5
SEED = 2017

#: Edit stream shape: fraction of facts mutated per step, number of steps.
MUTATION_RATIO = 0.01
STEPS = 6

#: The back-end on both sides: the exact default.
SOLVER = "nrockit"


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


def replay(graph, stream, resolve):
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
    """≥ MIN_SPEEDUP over one-shot resolves on the 1%-mutation stream, bit-identical."""
    graph, rules, constraints, stream = workload
    system = TeCoRe(rules=rules, constraints=constraints, solver=SOLVER)

    # Full re-resolution baseline: a one-shot resolve of each edited graph.
    full_seconds, full_results = replay(graph, stream, system.resolve)

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
        assert incremental.solution.assignment == full.solution.assignment

    speedup = full_seconds / incremental_seconds
    assert speedup >= MIN_SPEEDUP, (
        f"incremental session only {speedup:.2f}x faster than one-shot re-resolution "
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

    summary = session.state_summary()
    per_step = max(1, int(len(graph) * MUTATION_RATIO))
    rows = [
        [
            SOLVER,
            f"{full_seconds * 1000:.0f}",
            f"{incremental_seconds * 1000:.0f}",
            f"{speedup:.1f}x",
        ],
    ]
    lines = format_rows(rows, ["backend", f"one-shot ms ({STEPS} steps)", "session ms", "speedup"])
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
        "Per-step results are bit-identical to one-shot resolution (same",
        "assignment, same objective float). The session re-grounds only the",
        "delta (semi-naive tick windows + support-set retraction) and",
        "re-solves only the dirty components.",
    ]
    record_report(
        "A10",
        "incremental resolution vs one-shot re-resolution (FootballDB edit stream)",
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
