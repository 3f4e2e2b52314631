"""The columnar engine is the one default for one-shot grounding.

``DEFAULT_ENGINE`` is the only place the default is written; every facade,
the CLI and the template-level MLN/PSL programs must reach
:class:`~repro.logic.VectorizedGrounder` through it.
"""

import pytest

from repro import TeCoRe
from repro.cli import _build_parser, main
from repro.core.translator import TecoreTranslator
from repro.datasets import ranieri_graph
from repro.logic import (
    DEFAULT_ENGINE,
    IndexedGrounder,
    VectorizedGrounder,
    running_example_constraints,
    running_example_rules,
)
from repro.mln import MarkovLogicNetwork
from repro.psl import PSLProgram


def test_default_engine_is_vectorized():
    assert DEFAULT_ENGINE == "vectorized"
    assert TeCoRe().engine == DEFAULT_ENGINE
    assert TecoreTranslator().engine == DEFAULT_ENGINE


@pytest.mark.parametrize(
    "argv", [["detect"], ["resolve"], ["resolve-batch", "graph.csv"], ["serve"]]
)
def test_cli_engine_default(argv):
    # No command takes an engine option: each builds its TeCoRe with the
    # default (the "tecore resolve" entry point below runs one).
    assert not hasattr(_build_parser().parse_args(argv), "engine")


@pytest.fixture
def ground_calls(monkeypatch):
    """Record which engine's ``ground`` runs: vectorized vs indexed."""
    calls = []
    for engine_class in (VectorizedGrounder, IndexedGrounder):
        original = engine_class.ground

        def spy(self, _original=original, _name=engine_class.engine):
            calls.append(_name)
            return _original(self)

        monkeypatch.setattr(engine_class, "ground", spy)
    return calls


def _system():
    return TeCoRe(rules=running_example_rules(), constraints=running_example_constraints())


ENTRY_POINTS = {
    "TeCoRe.resolve": lambda graph: _system().resolve(graph),
    "SharedResolver.resolve": lambda graph: _system().shared_resolver().resolve(graph),
    "TeCoRe.detect_conflicts": lambda graph: _system().detect_conflicts(graph),
    "MarkovLogicNetwork.ground": lambda graph: MarkovLogicNetwork(
        rules=running_example_rules(), constraints=running_example_constraints()
    ).ground(graph),
    "PSLProgram.ground": lambda graph: PSLProgram(
        rules=running_example_rules(), constraints=running_example_constraints()
    ).ground(graph),
    # Loads the same graph itself (--dataset ranieri).
    "tecore resolve": lambda _graph: main(
        ["resolve", "--dataset", "ranieri", "--pack", "running-example", "--json"]
    ),
}


@pytest.mark.parametrize("entry_point", sorted(ENTRY_POINTS))
def test_entry_point_grounds_with_the_columnar_engine(ground_calls, entry_point):
    ENTRY_POINTS[entry_point](ranieri_graph())
    assert ground_calls == ["vectorized"]
