"""Child-process entry points of the benchmark.

Either mode may be preceded by ``--cpu N``, which pins the process to
CPU ``N`` before it starts (see ``speed.py``).

``launcher.py probe <pack> <solver> <dataset>``
    Time-to-ready of the library: import ``repro``, load the pack, build
    ``TeCoRe``, run one warm-up resolve on a small graph, print ``ready``.

``launcher.py serve [--trace-out FILE] -- <tecore serve arguments>``
    Run ``tecore serve`` in this process.  With ``--trace-out`` the span
    wrappers are installed first and the spans are written to FILE when
    the server shuts down (SIGINT).
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import harness  # noqa: E402


def probe(pack: str, solver: str, dataset: str) -> int:
    harness.use_program()
    from repro import TeCoRe

    system = TeCoRe.from_pack(pack, solver=solver)
    system.resolve(warmup_graph(dataset))
    print("ready", flush=True)
    return 0


def warmup_graph(dataset: str):
    """A fixed small graph of the workload's dataset (pays first-call costs)."""
    if dataset == "footballdb":
        from repro.datasets.footballdb import FootballDBConfig, generate_footballdb

        return generate_footballdb(FootballDBConfig(scale=0.01, noise_ratio=0.5, seed=7)).graph
    from repro.datasets.wikidata import WikidataConfig, generate_wikidata

    return generate_wikidata(WikidataConfig(scale=0.00005, noise_ratio=0.5, seed=7)).graph


def serve(argv: list[str]) -> int:
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    harness.use_program()
    from repro import cli

    tracer = None
    if trace_out is not None:
        import layers
        from tracing import Tracer

        tracer = Tracer()
        layers.install_server(tracer)
    try:
        return cli.main(["serve", *argv])
    finally:
        if tracer is not None:
            tracer.uninstall()
            tracer.dump(trace_out)


def main(argv: list[str]) -> int:
    if argv[:1] == ["--cpu"] and len(argv) > 1:
        import speed

        speed.pin(int(argv[1]))
        argv = argv[2:]
    if argv[:1] == ["probe"] and len(argv) == 4:
        return probe(*argv[1:])
    if argv[:1] == ["serve"]:
        return serve(argv[1:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
