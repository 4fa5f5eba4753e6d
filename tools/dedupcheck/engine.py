"""dedupcheck execution engine: file discovery, parsing, analysis context.

Rules are small objects with a ``code``, a one-line ``summary`` and a
``check(tree, path)`` method yielding :class:`Violation`\\ s.  Path
applicability (which packages a rule polices, which modules are
exempt) is decided *inside* each rule from the posix-normalised file
path, so fixture tests can exercise a rule by handing
:func:`check_source` any virtual path they like.

Two engine layers sit under the rules:

* **Analysis context.**  Rules that set ``needs_context = True``
  receive a :class:`FileContext` as a third ``check`` argument.  The
  context carries per-file facts (which functions are coroutines,
  which names the module imported from ``time``) plus a
  :class:`ProjectContext` built over *every* file in the run: a
  function table and a small name-based call graph rooted at
  fleet-submission sites (``pool.submit(...)``,
  ``loop.run_in_executor(pool, ...)``, the ``_run_in_fleet`` wrapper,
  ``puts.put_nowait(...)`` handing a write to a connection's FIFO,
  ``add_done_callback``), so concurrency rules can ask "does this
  function run on a fleet thread?" across module boundaries — and,
  from the coroutines, "does this service helper run on the event
  loop?"

* **Suppressions.**  A source line may carry
  ``# ddc: ignore[DDC101]`` (comma-separate multiple codes) to
  silence a finding on that line.  Suppressions are themselves
  checked: one that silences nothing is reported as ``DDC000`` so
  stale ignores can't accumulate.
"""

from __future__ import annotations

import ast
import os
import re
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from typing import Protocol, Union

__all__ = [
    "FileContext",
    "FunctionInfo",
    "ProjectContext",
    "Rule",
    "SUPPRESSION_CODE",
    "SUPPRESSION_SUMMARY",
    "Violation",
    "check_paths",
    "check_source",
    "iter_python_files",
]

#: Pseudo-rule code reported for a suppression comment that silenced
#: nothing (listed in the catalogue alongside the real rules).
SUPPRESSION_CODE = "DDC000"
SUPPRESSION_SUMMARY = "unused `# ddc: ignore[...]` suppression comment"

#: ``# ddc: ignore[DDC101]`` / ``# ddc: ignore[DDC101, DDC102]``.
_SUPPRESS_RE = re.compile(r"#\s*ddc:\s*ignore\[([A-Za-z0-9,\s]+)\]")

_FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda]


@dataclass(frozen=True, order=True)
class Violation:
    """One rule hit at a source location."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def render(self) -> str:
        """The canonical ``path:line:col: CODE message`` output line."""
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


class Rule(Protocol):
    """Structural contract for a dedupcheck rule.

    Rules with ``needs_context = True`` are called as
    ``check(tree, path, context)`` and receive the
    :class:`FileContext`; plain rules keep the two-argument shape.
    """

    #: ``DDCnnn`` identifier, unique across the rule pack.
    code: str
    #: One-line description shown by ``--list``.
    summary: str

    def check(self, tree: ast.Module, path: str) -> Iterator[Violation]:
        """Yield every violation of this rule in ``tree``."""
        ...


def _normalize(path: str) -> str:
    """Posix-style path used for rule applicability decisions."""
    return path.replace(os.sep, "/")


# -- analysis context ------------------------------------------------------

#: Where the sync helpers that run on the event loop live: a coroutine
#: reaching a function by name elsewhere is too loose an edge to police.
_LOOP_HELPERS = "repro/service/"

#: Callables whose *arguments* start running on a fleet/pool thread.
#: ``submit`` and ``run_in_executor`` hand a callable to an executor;
#: the ``_run_in_*`` names are the service's thin wrappers around them;
#: ``put_nowait`` is how the server queues a write on a connection's
#: FIFO, whose drain task runs it on the fleet; ``add_done_callback``
#: callbacks run on whichever thread completes the future (for pool
#: futures: the fleet thread).
_SUBMIT_CALLEES = frozenset(
    {
        "submit",
        "run_in_executor",
        "_run_in_lane",
        "_run_in_fleet",
        "put_nowait",
        "add_done_callback",
    }
)


@dataclass
class FunctionInfo:
    """One function (or submitted lambda) the project context knows."""

    #: Dotted name within its module (``Class.method``); lambdas get
    #: ``<lambda@line>``.
    qualname: str
    #: Posix-normalised path of the defining file.
    path: str
    node: _FunctionNode
    is_async: bool = False
    #: Tail names of every call made in the body (name-based edges).
    calls: frozenset[str] = frozenset()
    #: True when the function is itself a fleet-submission argument.
    fleet_root: bool = False


def _tail(node: ast.expr) -> str | None:
    """Terminal identifier of a ``Name``/``Attribute`` chain, if any."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _body_walk(node: _FunctionNode) -> Iterator[ast.AST]:
    """Walk a function body without descending into nested functions."""
    if isinstance(node, ast.Lambda):
        roots: list[ast.AST] = [node.body]
    else:
        roots = list(node.body)
    stack = roots
    while stack:
        current = stack.pop()
        yield current
        if not isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(current))


def _called_names(node: _FunctionNode) -> frozenset[str]:
    """Tail names of calls in the body (nested defs contribute edges only)."""
    names = set()
    for child in _body_walk(node):
        if isinstance(child, ast.Call):
            tail = _tail(child.func)
            if tail is not None:
                names.add(tail)
    return frozenset(names)


class ProjectContext:
    """Cross-file facts shared by every :class:`FileContext` of a run.

    The call graph is *name-based* and deliberately over-approximates:
    an edge ``f -> g`` exists when ``f``'s body calls anything whose
    terminal name is ``g``, and every function named ``g`` in the run
    matches.  For a deadlock linter, erring towards reachability is
    the right bias — a miss is a production hang, a false hit is one
    inline suppression.
    """

    def __init__(self) -> None:
        #: Bare function name → every definition carrying it.
        self.functions: dict[str, list[FunctionInfo]] = {}
        #: Names submitted to the fleet pool anywhere in the run.
        self.root_names: set[str] = set()
        #: Submitted lambdas (fleet roots with no name to look up).
        self.root_lambdas: list[FunctionInfo] = []
        self._reachable: set[int] | None = None
        self._loop_reachable: set[int] | None = None

    # -- construction ----------------------------------------------------

    def add_module(self, tree: ast.Module, path: str) -> None:
        """Index one module's functions and fleet-submission sites."""
        self._reachable = self._loop_reachable = None
        for info in self._collect_functions(tree, path):
            self.functions.setdefault(info.node.name, []).append(info)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                callee = _tail(node.func)
                if callee in _SUBMIT_CALLEES:
                    for arg in node.args:
                        self._add_root(arg, path)

    @staticmethod
    def _collect_functions(
        tree: ast.Module, path: str
    ) -> Iterator[FunctionInfo]:
        stack: list[tuple[ast.AST, str]] = [(tree, "")]
        while stack:
            node, prefix = stack.pop()
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = f"{prefix}{child.name}"
                    yield FunctionInfo(
                        qualname=qualname,
                        path=path,
                        node=child,
                        is_async=isinstance(child, ast.AsyncFunctionDef),
                        calls=_called_names(child),
                    )
                    stack.append((child, f"{qualname}."))
                elif isinstance(child, ast.ClassDef):
                    stack.append((child, f"{prefix}{child.name}."))
                else:
                    stack.append((child, prefix))

    def _add_root(self, arg: ast.expr, path: str) -> None:
        if isinstance(arg, ast.Lambda):
            self.root_lambdas.append(
                FunctionInfo(
                    qualname=f"<lambda@{arg.lineno}>",
                    path=path,
                    node=arg,
                    calls=_called_names(arg),
                    fleet_root=True,
                )
            )
        else:
            tail = _tail(arg)
            if tail is not None:
                self.root_names.add(tail)

    # -- queries ---------------------------------------------------------

    def fleet_functions(self) -> list[FunctionInfo]:
        """Every function reachable from a fleet-submission site."""
        if self._reachable is None:
            self._compute_reachable()
        assert self._reachable is not None
        out = list(self.root_lambdas)
        out += [
            info
            for infos in self.functions.values()
            for info in infos
            if id(info.node) in self._reachable
        ]
        return out

    def loop_functions(self) -> list[FunctionInfo]:
        """Sync functions under ``repro/service/`` that a coroutine
        reaches by name, directly or through each other: the event
        loop runs them."""
        if self._loop_reachable is None:
            coroutine_calls = [
                name
                for infos in self.functions.values()
                for info in infos
                if info.is_async
                for name in info.calls
            ]
            self._loop_reachable = self._reach(
                coroutine_calls,
                lambda info: not info.is_async and _LOOP_HELPERS in info.path,
            )
        return [
            info
            for infos in self.functions.values()
            for info in infos
            if id(info.node) in self._loop_reachable
        ]

    def is_fleet_reachable(self, node: _FunctionNode) -> bool:
        """Whether this def runs (transitively) on a fleet thread."""
        if self._reachable is None:
            self._compute_reachable()
        assert self._reachable is not None
        return id(node) in self._reachable

    def _compute_reachable(self) -> None:
        frontier: list[str] = list(self.root_names)
        for lam in self.root_lambdas:
            frontier.extend(lam.calls)
        reachable = self._reach(frontier, lambda info: True)
        self._reachable = reachable | {id(lam.node) for lam in self.root_lambdas}

    def _reach(
        self, frontier: list[str], follow: Callable[[FunctionInfo], bool]
    ) -> set[int]:
        """ids of the functions ``follow`` admits that the names in
        ``frontier`` reach, through calls of admitted functions."""
        reachable: set[int] = set()
        seen_names: set[str] = set()
        while frontier:
            name = frontier.pop()
            if name in seen_names:
                continue
            seen_names.add(name)
            for info in self.functions.get(name, ()):
                if id(info.node) in reachable or not follow(info):
                    continue
                reachable.add(id(info.node))
                frontier.extend(info.calls)
        return reachable


@dataclass
class FileContext:
    """Everything the context-aware rules know about one file."""

    tree: ast.Module
    path: str
    source: str
    project: ProjectContext
    #: Names the module imported straight out of blocking-call modules
    #: (``from time import sleep`` → ``{"sleep": "time.sleep"}``).
    from_imports: dict[str, str] = field(default_factory=dict)

    @classmethod
    def build(
        cls, tree: ast.Module, path: str, source: str, project: ProjectContext
    ) -> FileContext:
        """Collect the per-file facts (imports) for ``tree``."""
        from_imports: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                for alias in node.names:
                    local = alias.asname or alias.name
                    from_imports[local] = f"{node.module}.{alias.name}"
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    from_imports.setdefault(local, alias.name)
        return cls(
            tree=tree,
            path=path,
            source=source,
            project=project,
            from_imports=from_imports,
        )


# -- suppressions ----------------------------------------------------------


def _parse_suppressions(source: str) -> dict[int, set[str]]:
    """Line number → codes suppressed on that line."""
    suppressions: dict[int, set[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        m = _SUPPRESS_RE.search(line)
        if m is not None:
            codes = {c.strip().upper() for c in m.group(1).split(",") if c.strip()}
            if codes:
                suppressions[lineno] = codes
    return suppressions


def _apply_suppressions(
    violations: list[Violation], source: str, path: str
) -> list[Violation]:
    """Drop suppressed findings; flag suppressions that drop nothing."""
    suppressions = _parse_suppressions(source)
    if not suppressions:
        return violations
    used: set[tuple[int, str]] = set()
    kept: list[Violation] = []
    for violation in violations:
        codes = suppressions.get(violation.line, set())
        if violation.code in codes:
            used.add((violation.line, violation.code))
        else:
            kept.append(violation)
    for lineno, codes in suppressions.items():
        for code in sorted(codes):
            if (lineno, code) not in used:
                kept.append(
                    Violation(
                        path,
                        lineno,
                        0,
                        SUPPRESSION_CODE,
                        f"suppression of {code} matches no finding on this "
                        "line; remove the stale `# ddc: ignore`",
                    )
                )
    return kept


# -- running ---------------------------------------------------------------


def _run_rules(
    file_ctx: FileContext, rules: Sequence[Rule]
) -> list[Violation]:
    violations: list[Violation] = []
    for rule in rules:
        if getattr(rule, "needs_context", False):
            violations.extend(rule.check(file_ctx.tree, file_ctx.path, file_ctx))
        else:
            violations.extend(rule.check(file_ctx.tree, file_ctx.path))
    return _apply_suppressions(violations, file_ctx.source, file_ctx.path)


def check_source(
    source: str,
    path: str,
    rules: Sequence[Rule],
    project: ProjectContext | None = None,
) -> list[Violation]:
    """Run ``rules`` over one module's source text.

    ``path`` is only used for reporting and applicability — it does not
    have to exist on disk, which is how the fixture tests pin a rule to
    a package ("src/repro/core/...") without creating files there.
    When ``project`` is omitted, a single-file context is built, so
    the call-graph rules see just this module's submissions.
    """
    norm = _normalize(path)
    tree = ast.parse(source, filename=path)
    if project is None:
        project = ProjectContext()
        project.add_module(tree, norm)
    file_ctx = FileContext.build(tree, norm, source, project)
    return sorted(_run_rules(file_ctx, rules))


def iter_python_files(paths: Iterable[str]) -> Iterator[str]:
    """Expand files/directories into a sorted stream of ``.py`` paths."""
    for path in paths:
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(
                    d for d in dirnames if d != "__pycache__"
                )
                for name in sorted(filenames):
                    if name.endswith(".py"):
                        yield os.path.join(dirpath, name)
        else:
            yield path


def check_paths(
    paths: Iterable[str], rules: Sequence[Rule]
) -> list[Violation]:
    """Run ``rules`` over every Python file reachable from ``paths``.

    Two passes: the first parses everything and builds the shared
    :class:`ProjectContext` (function table, fleet call graph), the
    second runs the rules with full cross-file knowledge.
    """
    project = ProjectContext()
    parsed: list[tuple[ast.Module, str, str]] = []
    for file_path in iter_python_files(paths):
        with open(file_path, encoding="utf-8") as fh:
            source = fh.read()
        norm = _normalize(file_path)
        tree = ast.parse(source, filename=file_path)
        project.add_module(tree, norm)
        parsed.append((tree, norm, source))
    violations: list[Violation] = []
    for tree, norm, source in parsed:
        file_ctx = FileContext.build(tree, norm, source, project)
        violations.extend(_run_rules(file_ctx, rules))
    return sorted(violations)
