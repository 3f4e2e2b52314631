#!/usr/bin/env python3
"""Static lock-discipline check for the serve tier.

Walks the AST of every module in ``src/repro/serve`` and verifies that each
mutation of shared serving state happens under the owning lock:

* :class:`~repro.serve.sessions.SessionPool`'s id → entry map and counters
  mutate under ``self._lock``;
* :class:`~repro.serve.sessions.SessionEntry`'s ``closed`` flag and edit
  counter mutate under the session lock (``entry.lock``);
* :class:`~repro.serve.wal.WriteAheadLog`'s handle, sequencing state and
  counters mutate under ``self._lock``;
* :class:`~repro.serve.batcher.MicroBatcher`'s queue, flags and counters
  mutate under ``self._wakeup`` / ``self._lock``;
* the front-end (:class:`~repro.serve.server.ResolutionService`), which
  carries every request: its routing table and failure counters mutate
  under ``self._routes_lock``, its response cache and cache counters under
  ``self._responses_lock``;
* :class:`~repro.serve.sharding.WorkerHandle`'s pending calls and
  in-flight count mutate under ``self._lock``.

"Under the lock" means the mutation has an ancestor that is either a
``with <...>.lock / ._lock / ._wakeup:`` block or a ``try`` whose
``finally`` releases such a lock (the manual acquire/try/release pattern
``_apply_edits`` uses for deadline-bounded acquisition).

The check is name-based, not type-based: any attribute whose name appears
in :data:`GUARDED_ATTRS` must be mutated under a lock, wherever it occurs
in the serve package.  That is deliberately conservative — a new module
that reuses one of these names for unshared state should either rename it
or extend :data:`ALLOWED_UNLOCKED`.

Exemptions:

* ``__init__`` — the object is not yet published to other threads;
* methods whose name ends ``_locked`` and the ones in
  :data:`CALLER_HOLDS_LOCK` — their contract is that the caller already
  holds the lock;
* the explicit ``(file, function, attribute)`` sites in
  :data:`ALLOWED_UNLOCKED`, each with a recorded reason.

Exit status is the number of violations (0 when clean), so the script
works directly as a CI gate:  ``python tools/lint_locks.py``.
"""

from __future__ import annotations

import argparse
import ast
import os
import sys
from typing import Iterator, List, Optional, Sequence

#: Attribute names that constitute shared serving state.
GUARDED_ATTRS = frozenset(
    {
        # SessionPool — under self._lock.
        "_entries",
        "created_total",
        "evicted_total",
        "deleted_total",
        "restored_total",
        # SessionEntry — under the session lock (entry.lock).
        "closed",
        "edits_applied",
        # WriteAheadLog — under self._lock.
        "_closed",
        "_unsynced",
        "_next_seq",
        "_segment_number",
        "_handle",
        "_last_sync",
        "appended_total",
        "synced_total",
        "append_errors_total",
        "compactions_total",
        "records_since_compaction",
        # MicroBatcher — under self._wakeup (which wraps self._lock).
        "_queue",
        "_paused",
        "requests_total",
        "enqueued_total",
        "rejected_total",
        "batches_flushed",
        "resolves_total",
        "coalesced_total",
        "max_batch_seen",
        # ResolutionService (the front-end) — under self._routes_lock …
        "_routes",
        "dropped_connections_total",
        "respawns_total",
        # … and under self._responses_lock.
        "_responses",
        "response_cache_hits",
        "response_cache_misses",
        # WorkerHandle — under self._lock.
        "_calls",
        "inflight",
    }
)

#: Final attribute (or bare name) of an expression that counts as a lock.
LOCK_NAMES = frozenset({"lock", "_lock", "_wakeup", "_routes_lock", "_responses_lock"})

#: Methods whose docstring contract is "caller holds the lock".
CALLER_HOLDS_LOCK = frozenset({"_maybe_sync"})

#: Mutating container/file-handle methods: ``obj.guarded.<method>(...)``.
MUTATOR_METHODS = frozenset(
    {
        "add",
        "append",
        "appendleft",
        "clear",
        "close",
        "discard",
        "extend",
        "flush",
        "insert",
        "move_to_end",
        "pop",
        "popitem",
        "popleft",
        "remove",
        "seek",
        "setdefault",
        "truncate",
        "update",
        "write",
    }
)

#: Reviewed unlocked mutations: (file basename, function name, attribute).
ALLOWED_UNLOCKED = {
    # The entry was created this call and serving has not started routing
    # edits to it; the counter seed races with nothing.
    ("sessions.py", "restore", "edits_applied"),
}


class Violation:
    __slots__ = ("path", "line", "col", "attr", "context")

    def __init__(self, path: str, line: int, col: int, attr: str, context: str):
        self.path = path
        self.line = line
        self.col = col
        self.attr = attr
        self.context = context

    def render(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col + 1}: attribute "
            f"{self.attr!r} mutated outside its owning lock (in {self.context})"
        )


def _final_name(expr: ast.expr) -> Optional[str]:
    if isinstance(expr, ast.Attribute):
        return expr.attr
    if isinstance(expr, ast.Name):
        return expr.id
    return None


def _is_lock_expr(expr: ast.expr) -> bool:
    return _final_name(expr) in LOCK_NAMES


def _under_lock(ancestors: Sequence[ast.AST]) -> bool:
    """True when some ancestor holds a lock around the mutation."""
    for node in ancestors:
        if isinstance(node, (ast.With, ast.AsyncWith)):
            if any(_is_lock_expr(item.context_expr) for item in node.items):
                return True
        elif isinstance(node, ast.Try):
            # Manual acquisition: try: ... finally: <...>.lock.release()
            for stmt in node.finalbody:
                for sub in ast.walk(stmt):
                    if (
                        isinstance(sub, ast.Call)
                        and isinstance(sub.func, ast.Attribute)
                        and sub.func.attr == "release"
                        and _is_lock_expr(sub.func.value)
                    ):
                        return True
    return False


def _mutated_attrs(node: ast.AST) -> Iterator[str]:
    """Guarded attribute names this single statement/expression mutates."""

    def from_target(target: ast.expr) -> Iterator[str]:
        if isinstance(target, ast.Attribute) and target.attr in GUARDED_ATTRS:
            yield target.attr
        elif isinstance(target, ast.Subscript):
            inner = target.value
            if isinstance(inner, ast.Attribute) and inner.attr in GUARDED_ATTRS:
                yield inner.attr
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                yield from from_target(element)

    if isinstance(node, ast.Assign):
        for target in node.targets:
            yield from from_target(target)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        if not (isinstance(node, ast.AnnAssign) and node.value is None):
            yield from from_target(node.target)
    elif isinstance(node, ast.Delete):
        for target in node.targets:
            yield from from_target(target)
    elif isinstance(node, ast.Call):
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in MUTATOR_METHODS
            and isinstance(func.value, ast.Attribute)
            and func.value.attr in GUARDED_ATTRS
        ):
            yield func.value.attr


def _function_exempt(name: str) -> bool:
    return name == "__init__" or name.endswith("_locked") or name in CALLER_HOLDS_LOCK


def check_source(source: str, path: str) -> List[Violation]:
    """All lock-discipline violations in one module's source text."""
    tree = ast.parse(source, filename=path)
    basename = os.path.basename(path)
    violations: List[Violation] = []

    def walk(node: ast.AST, ancestors: List[ast.AST]) -> None:
        for attr in _mutated_attrs(node):
            functions = [
                a for a in ancestors if isinstance(a, (ast.FunctionDef, ast.AsyncFunctionDef))
            ]
            if not functions:
                continue  # class/module-level definition, not a mutation
            function = functions[-1]
            if _function_exempt(function.name):
                continue
            if (basename, function.name, attr) in ALLOWED_UNLOCKED:
                continue
            if _under_lock(ancestors):
                continue
            classes = [a for a in ancestors if isinstance(a, ast.ClassDef)]
            context = f"{classes[-1].name}.{function.name}" if classes else function.name
            violations.append(Violation(path, node.lineno, node.col_offset, attr, context))
        ancestors.append(node)
        for child in ast.iter_child_nodes(node):
            walk(child, ancestors)
        ancestors.pop()

    walk(tree, [])
    return violations


def check_file(path: str) -> List[Violation]:
    with open(path, "r", encoding="utf-8") as handle:
        return check_source(handle.read(), path)


def _default_targets() -> List[str]:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    return [os.path.join(root, "src", "repro", "serve")]


def iter_python_files(targets: Sequence[str]) -> Iterator[str]:
    for target in targets:
        if os.path.isfile(target):
            yield target
            continue
        for dirpath, _dirnames, filenames in os.walk(target):
            for filename in sorted(filenames):
                if filename.endswith(".py"):
                    yield os.path.join(dirpath, filename)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="check that serve-tier shared state mutates under its lock"
    )
    parser.add_argument(
        "targets",
        nargs="*",
        help="files or directories to check (default: src/repro/serve)",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="list every file checked")
    args = parser.parse_args(argv)

    targets = list(args.targets) or _default_targets()
    violations: List[Violation] = []
    checked = 0
    for path in iter_python_files(targets):
        checked += 1
        if args.verbose:
            print(f"checking {path}", file=sys.stderr)
        violations.extend(check_file(path))

    for violation in violations:
        print(violation.render())
    if violations:
        print(
            f"lint_locks: {len(violations)} unlocked mutation(s) across "
            f"{checked} file(s)",
            file=sys.stderr,
        )
    elif args.verbose:
        print(f"lint_locks: {checked} file(s) clean", file=sys.stderr)
    return min(len(violations), 125)


if __name__ == "__main__":
    raise SystemExit(main())
