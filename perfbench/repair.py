"""``repair-football`` and ``repair-wikidata-psl``: the library in a closed loop.

One process, one caller: ``TeCoRe.resolve`` over a stream of distinct
noisy graphs, each resolve starting when the previous one returns.
"""

from __future__ import annotations

import contextlib
import gc
import statistics
import time
from dataclasses import dataclass

import harness
import layers
import speed


@dataclass(frozen=True)
class RepairSpec:
    pack: str
    solver: str
    dataset: str
    scale: float
    tiny_scale: float
    #: Distinct graphs generated per run and resolved in turn.  Wikidata
    #: graphs differ more in cost (ADMM on 2.4k facts: 19% coefficient of
    #: variation, against 6% at 4.7k), so that workload draws more of them.
    distinct: int


WORKLOADS = {
    "repair-football": RepairSpec(
        pack="sports",
        solver="nrockit",
        dataset="footballdb",
        scale=0.25,
        tiny_scale=0.01,
        distinct=10,
    ),
    "repair-wikidata-psl": RepairSpec(
        pack="biography",
        solver="npsl",
        dataset="wikidata",
        scale=0.0003,
        tiny_scale=0.00005,
        distinct=16,
    ),
}

NOISE = 0.5
#: Set-up samples taken before and after the window (their median is reported).
SETUP_SAMPLES = (1, 2)


def generate(spec: RepairSpec, scale: float, seed: int):
    """One noisy graph with its planted-noise ground truth."""
    if spec.dataset == "footballdb":
        from repro.datasets.footballdb import FootballDBConfig, generate_footballdb

        return generate_footballdb(FootballDBConfig(scale=scale, noise_ratio=NOISE, seed=seed))
    from repro.datasets.wikidata import WikidataConfig, generate_wikidata

    return generate_wikidata(WikidataConfig(scale=scale, noise_ratio=NOISE, seed=seed))


def run(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> bool:
    harness.use_program()
    # The program, its set-up probes and the speed probe share one CPU.
    cpu, _ = speed.work_cpus()
    speed.pin(cpu)
    with speed.SpeedProbe(cpu) as probe:
        return _run(name, seed, seconds, trace, tiny, probe)


def _run(name, seed, seconds, trace, tiny, probe) -> bool:
    spec = WORKLOADS[name]
    probe_args = (spec.pack, spec.solver, spec.dataset)
    before, after = (1, 0) if tiny else SETUP_SAMPLES
    setups = [harness.time_probe(probe_args) for _ in range(before)]

    from launcher import warmup_graph
    from repro import TeCoRe
    from repro.metrics import RepairQuality, repair_quality

    scale = spec.tiny_scale if tiny else spec.scale
    count = 3 if tiny else spec.distinct
    inputs = [generate(spec, scale, seed * 1000 + index) for index in range(count)]
    system = TeCoRe.from_pack(spec.pack, solver=spec.solver)
    system.resolve(warmup_graph(spec.dataset))

    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        layers.install_library(tracer, system.engine)
    # The pre-generated inputs stay resident for the whole window; freezing
    # them keeps the collector from re-scanning them on every collection,
    # as it would not in a process holding one graph at a time.
    gc.collect()
    gc.freeze()

    # The window is the time spent inside resolve calls.  Each result is
    # checked (untimed) as soon as it returns and then dropped, so memory
    # does not grow with the number of resolves a run completes: every
    # repaired graph must be free of hard violations, and its removals are
    # scored against the planted noise.
    log = harness.OpLog()
    spent = 0.0
    index = true_pos = false_pos = false_neg = facts = 0
    while spent < seconds:
        dataset = inputs[index % len(inputs)]
        index += 1
        began = time.perf_counter()
        try:
            result = system.resolve(dataset.graph)
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
            spent += time.perf_counter() - began
            log.fail("resolve", repr(exc))
            continue
        ended = time.perf_counter()
        spent += ended - began
        log.ok("resolve", began, ended)
        with tracer.paused() if tracer is not None else contextlib.nullcontext():
            conflicts = system.detect_conflicts(result.consistent_graph)
        hard = sum(1 for violation in conflicts if violation.is_hard)
        if hard:
            log.mark_wrong("resolve", f"graph {index - 1}: {hard} hard violations remain")
        quality = repair_quality(result.removed_facts, dataset.noise_facts)
        true_pos += quality.true_positives
        false_pos += quality.false_positives
        false_neg += quality.false_negatives
        facts += len(dataset.graph)
        del result, conflicts
    if tracer is not None:
        tracer.uninstall()
    rss = harness.peak_rss_mb()
    f1 = RepairQuality(true_pos, false_pos, false_neg).f1
    setups += [harness.time_probe(probe_args) for _ in range(after)]
    probe.stop()

    latencies = log.latencies.get("resolve", [])
    correct = not log.wrong and bool(latencies)
    notes = [
        f"workload {name}: pack={spec.pack} solver={spec.solver} dataset={spec.dataset} "
        f"scale={scale} noise={NOISE} seed={seed} loop=closed clients=1 cpu={probe.cpu}",
        f"inputs: {len(inputs)} graphs, mean {statistics.mean(len(d.graph) for d in inputs):.0f} "
        f"facts; resolved {len(latencies)} (recycled {max(0, index - len(inputs))})",
        f"resolve latency, wall: {harness.describe([v * 1000 for v in latencies], 'ms')}",
        f"setup probes, wall (s): {', '.join(f'{end - start:.3f}' for start, end in setups)}",
        f"speed: kernel {probe.kernel_ms():.2f} ms median over {len(probe.samples)} samples "
        f"(reference {1000 * speed.KERNEL_REFERENCE_S:g} ms)",
    ]
    if latencies:
        reference = log.reference_latencies(probe)["resolve"]
        notes.append(
            f"resolve latency, reference: {harness.describe([v * 1000 for v in reference], 'ms')}"
        )
    streams = [(log, facts)]
    if tracer is None:
        metrics = harness.end_to_end(
            probe=probe, setups=setups, rss=rss, log=log, streams=streams, f1=f1
        )
    else:
        metrics = layers.per_layer(tracer.spans, tracer.counters, log, streams, probe)
        notes.append(f"largest layers: {layers.largest_layers(metrics)}")
    harness.emit(correct, log, metrics, notes)
    return correct
