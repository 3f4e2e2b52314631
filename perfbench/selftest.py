"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/selftest.py -q      # or: python3 perfbench/selftest.py

Covers the percentile rule, self time on nested spans, failure counting,
and a tiny-size smoke run of every workload (untraced and traced).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import harness  # noqa: E402
import layers  # noqa: E402
import speed  # noqa: E402
from tracing import Span, Tracer, covered, self_times  # noqa: E402


# --------------------------------------------------------------------------- #
# Percentiles
# --------------------------------------------------------------------------- #
def test_tail_percentile_needs_ten_samples_beyond():
    assert harness.tail_percentile(list(range(10))) is None
    assert harness.tail_percentile(list(range(11))) == (100 / 11, 0)


def test_tail_percentile_is_highest_with_ten_beyond():
    values = list(range(1, 101))  # 1..100
    percent, value = harness.tail_percentile(values)
    assert percent == 90.0
    assert value == 90
    assert sum(1 for v in values if v > value) == 10


def test_tail_percentile_ignores_input_order():
    values = [5.0, 1.0, 9.0, 3.0, 7.0] * 5  # 25 samples
    percent, value = harness.tail_percentile(values)
    assert percent == 60.0
    assert sum(1 for v in values if v > value) == 10


def test_percentile_interpolates_between_ranks():
    assert harness.percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
    assert harness.percentile([10.0], 90) == 10.0
    assert harness.percentile([0.0, 10.0], 90) == 9.0
    with pytest.raises(ValueError):
        harness.percentile([], 50)


# --------------------------------------------------------------------------- #
# Spans
# --------------------------------------------------------------------------- #
def test_self_time_subtracts_nested_children():
    spans = [
        Span(1, "outer", 0.0, 10.0),
        Span(2, "child", 1.0, 4.0, parent=1),
        Span(3, "grandchild", 2.0, 3.0, parent=2),
        Span(4, "child", 5.0, 6.0, parent=1),
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(6.0)
    assert own[2] == pytest.approx(2.0)
    assert own[3] == pytest.approx(1.0)
    assert own[4] == pytest.approx(1.0)


def test_self_time_counts_overlapping_children_once():
    spans = [
        Span(1, "outer", 0.0, 10.0),
        Span(2, "a", 1.0, 5.0, parent=1),
        Span(3, "b", 3.0, 7.0, parent=1),  # overlaps a (another thread)
        Span(4, "c", 9.0, 12.0, parent=1),  # runs past the parent's end
    ]
    assert self_times(spans)[1] == pytest.approx(10.0 - 6.0 - 1.0)
    assert covered([(0, 1), (0.5, 2), (3, 4)]) == pytest.approx(3.0)


def test_tracer_records_parents_requests_and_restores():
    class Layer:
        def outer(self, graph):
            return self.inner() + 1

        def inner(self):
            return 1

    class Graph:
        name = "g-7"

    tracer = Tracer()
    tracer.wrap(Layer, "outer", "outer", request_of=lambda args, kwargs: args[1].name)
    tracer.wrap(Layer, "inner", "inner")
    assert Layer().outer(Graph()) == 2
    worker = threading.Thread(target=Layer().inner)
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    tracer.uninstall()
    inner, outer, lone = tracer.spans
    assert (outer.name, outer.parent, outer.request) == ("outer", 0, "g-7")
    assert (inner.parent, inner.request) == (outer.id, "g-7")
    assert (lone.parent, lone.request) == (0, f"#{lone.id}")
    assert "inner" not in vars(Layer) or not hasattr(Layer.inner, "__wrapped__")
    Layer().outer(Graph())
    assert len(tracer.spans) == 3


def test_span_metrics_self_time_and_shares():
    spans = [
        Span(1, "core.resolve", 0.0, 10.0, request="g"),
        Span(2, "translate", 0.0, 6.0, parent=1, request="g"),
        Span(3, "ground", 0.5, 5.5, 2, "g", {"atoms": 4, "clauses": 6, "facts": 10}),
        Span(4, "mln.solve", 6.0, 9.0, parent=1, request="g", attrs={"optimal": True}),
    ]
    values = layers.span_metrics(spans)
    assert values["core.assemble_self_s"] == pytest.approx(1.0)
    assert values["translate.self_s"] == pytest.approx(1.0)
    assert values["share.ground"] == pytest.approx(0.5)
    assert values["share.mln"] == pytest.approx(0.3)
    assert values["ground.facts_per_s"] == pytest.approx(2.0)
    assert values["mln.optimal_share"] == 1.0
    assert set(values) <= set(layers.PER_LAYER)


# --------------------------------------------------------------------------- #
# Failure counting
# --------------------------------------------------------------------------- #
def test_oplog_counts_attempted_succeeded_failed():
    log = harness.OpLog()
    log.ok("edit", 0.0, 0.1)
    log.ok("edit", 0.1, 0.3)
    log.fail("edit", "HTTP 503")
    log.ok("resolve", 0.3, 0.6)
    log.mark_wrong("resolve", "payload differs")
    assert log.total_attempted == 4
    assert log.total_failed == 2
    assert log.succeeded == 2
    assert log.summary() == {
        "edit": {"attempted": 3, "succeeded": 2, "failed": 1},
        "resolve": {"attempted": 1, "succeeded": 0, "failed": 1},
    }
    other = harness.OpLog()
    other.fail("read", "connection reset")
    log.merge(other)
    assert log.total_attempted == 5 and log.total_failed == 3
    assert len(log.wrong) == 3


def test_emit_prints_contract_json_last(capsys):
    log = harness.OpLog()
    log.ok("resolve", 0.0, 0.5)
    harness.emit(True, log, {"setup_s": harness.metric(1.25, "s")}, ["note"])
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert json.loads(last) == {
        "correct": True,
        "attempted": 1,
        "failed": 0,
        "metrics": {"setup_s": {"value": 1.25, "unit": "s"}},
    }


# --------------------------------------------------------------------------- #
# Speed calibration
# --------------------------------------------------------------------------- #
def _probe_with(samples):
    probe = speed.SpeedProbe.__new__(speed.SpeedProbe)
    probe.samples, probe._times, probe._smoothed = list(samples), [], []
    return probe


def test_reference_time_follows_the_sampled_speed():
    ref = speed.KERNEL_REFERENCE_S
    # Full speed for 10 s, then half speed (the kernel takes twice as long).
    samples = [(t * speed.PERIOD_S, ref) for t in range(40)]
    samples += [(10 + t * speed.PERIOD_S, 2 * ref) for t in range(40)]
    probe = _probe_with(samples)
    assert probe.reference(2.0, 4.0) == pytest.approx(2.0)
    assert probe.reference(14.0, 16.0) == pytest.approx(1.0)
    # An interval between two samples takes the nearest one.
    assert probe.reference(15.01, 15.02) == pytest.approx(0.005)
    assert probe.kernel_ms() == pytest.approx(1500 * ref)


def test_reference_time_ignores_a_lone_outlier():
    ref = speed.KERNEL_REFERENCE_S
    samples = [(t * speed.PERIOD_S, ref) for t in range(20)]
    at = samples[10][0]
    samples[10] = (at, 5 * ref)  # an interrupt during one kernel
    assert _probe_with(samples).reference(at - 0.05, at + 0.05) == pytest.approx(0.1)


def test_speed_probe_samples_and_stops():
    cpu, _ = speed.work_cpus()
    with speed.SpeedProbe(cpu) as probe:
        probe.wait_for_samples(4)
    assert probe.process.returncode == 0
    assert all(value > 0 for _, value in probe.samples)
    assert probe.scale(probe.samples[0][0], probe.samples[-1][0]) > 0


# --------------------------------------------------------------------------- #
# Smoke runs
# --------------------------------------------------------------------------- #
def _benchmark():
    with open(os.path.join(harness.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("workload", [w["name"] for w in _benchmark()["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_smoke_run(workload, trace):
    spec = _benchmark()
    command = [sys.executable, os.path.join(harness.ROOT, "perfbench", "run.py")]
    command += ["--workload", workload, "--seed", "3", "--seconds", "2", "--trace", str(trace)]
    done = subprocess.run(
        command + ["--tiny"], capture_output=True, text=True, cwd=harness.ROOT, timeout=170
    )
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: entry["unit"] for name, entry in result["metrics"].items()
    }
    if not trace:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
