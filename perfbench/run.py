"""The repository benchmark: one command per workload run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (details in ``perfbench/README.md``):

* ``repair-football``     — ``TeCoRe.resolve`` (nrockit, HiGHS ILP) over noisy
  FootballDB graphs at about half the paper's size, closed loop, one caller;
* ``repair-wikidata-psl`` — the same loop with the PSL reasoner (npsl, ADMM)
  over noisy Wikidata relation-mix graphs;
* ``serve-mixed``         — ``tecore serve`` with a WAL, driven by two
  closed-loop clients mixing session edits/reads with one-shot resolves.

With ``--trace 0`` the last stdout line is a JSON object holding every
end-to-end metric; with ``--trace 1`` it holds every per-layer metric,
measured through span wrappers around the program's entry points.  The
run exits 1 when an output check fails and 2 when the program's sources
are missing.
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import harness  # noqa: E402

WORKLOADS = ("repair-football", "repair-wikidata-psl", "serve-mixed")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny",
        action="store_true",
        help="smoke-test sizes (small graphs, one set-up probe); not for measurement",
    )
    args = parser.parse_args(argv)
    try:
        harness.program_path()
    except harness.ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload == "serve-mixed":
        import serve_mixed

        correct = serve_mixed.run(args.seed, args.seconds, bool(args.trace), args.tiny)
    else:
        import repair

        correct = repair.run(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
