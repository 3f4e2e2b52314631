"""The whole-resolve digest (tools/resolve_digest.py)."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import repro
from repro import TeCoRe
from repro.core.result import ResolutionResult
from repro.datasets import FootballDBConfig, generate_footballdb, ranieri_graph

_REPO_ROOT = Path(__file__).resolve().parents[2]
_SCRIPT = _REPO_ROOT / "tools" / "resolve_digest.py"
sys.path.insert(0, str(_SCRIPT.parent))

from resolve_digest import resolve_digest  # noqa: E402


def _run_script(*args: str) -> str:
    source_root = str(Path(repro.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [source_root, os.environ.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, str(_SCRIPT), *args],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    return completed.stdout


def test_digest_repeats_across_processes_and_tracks_the_graph():
    args = ("--dataset", "ranieri", "--pack", "running-example", "--solver", "nrockit")
    first = _run_script(*args)
    assert first == _run_script(*args)
    name, seed, digest = first.split()
    assert (name, seed) == ("ranieri", "seed=1000")

    system = TeCoRe.from_pack("running-example", solver="nrockit")
    graph = ranieri_graph()
    assert resolve_digest(system, graph) == digest
    smaller = graph.copy()
    smaller.remove(next(iter(graph)))
    assert resolve_digest(system, smaller) != digest


def test_digest_covers_the_served_payload_key_order(monkeypatch):
    """Only the `/resolve` payload shows the order of `violations_by_constraint`."""
    system = TeCoRe.from_pack("sports", solver="nrockit")
    graph = generate_footballdb(FootballDBConfig(scale=0.01, noise_ratio=0.5, seed=5)).graph
    digest = resolve_digest(system, graph)
    counts = system.resolve(graph).violations_by_constraint()
    assert len(counts) > 1

    def reordered(result):
        return dict(reversed(result.violations.by_constraint().items()))

    monkeypatch.setattr(ResolutionResult, "violations_by_constraint", reordered)
    assert resolve_digest(system, graph) != digest


def _session_lines(*extra: str) -> list[str]:
    return _run_script(
        "--dataset", "footballdb", "--scale", "0.01", "--pack", "sports", "--edits", "4", *extra
    ).splitlines()


def test_session_digest_repeats_across_processes():
    lines = _session_lines()
    assert lines == _session_lines()
    assert [line.split()[2] for line in lines] == [f"step={step}" for step in range(5)]
    assert len({line.split()[3] for line in lines}) == 5


def test_a_changed_edit_changes_its_step_and_every_later_one(monkeypatch):
    import resolve_digest

    system = TeCoRe.from_pack("sports", solver="nrockit")
    graph = generate_footballdb(FootballDBConfig(scale=0.01, noise_ratio=0.5, seed=6)).graph
    digests = resolve_digest.session_digests(system, graph, edits=5, seed=6)
    assert digests == resolve_digest.session_digests(system, graph, edits=5, seed=6)

    class OtherThirdEdit(random.Random):
        """Retracts other facts in the third edit only."""

        draws = 0

        def sample(self, population, k):
            chosen = super().sample(population, k)
            OtherThirdEdit.draws += 1
            if OtherThirdEdit.draws == 3:
                chosen = [item for item in population if item not in chosen][:k]
            return chosen

    monkeypatch.setattr(resolve_digest.random, "Random", OtherThirdEdit)
    changed = resolve_digest.session_digests(system, graph, edits=5, seed=6)
    assert changed[:3] == digests[:3]
    assert all(new != old for new, old in zip(changed[3:], digests[3:]))
