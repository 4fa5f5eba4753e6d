"""The DDC1xx concurrency rule pack.

PR 6 turned the reproduction into a concurrent system — an asyncio
JSON-lines server over a thread fleet — and its first review found a
pool-starvation deadlock: a fleet thread blocking on a tenant lock
while the queued tasks that would release it starved.  The fix
established invariants that, until this rule pack, lived only in
docstrings and review memory:

======  ==============================================================
DDC101  coroutines never block the event loop (no ``time.sleep``,
        sync sockets/file I/O, untimed lock acquires, ``subprocess``
        or ``requests``-style calls inside ``async def``, nor in the
        service's sync helpers a coroutine calls)
DDC102  fleet threads never *wait*: functions reachable from a
        fleet-pool submission (``submit``, ``run_in_executor``, a
        write queued on a connection's FIFO) may not block on
        locks/conditions/queues/futures without a timeout
DDC103  no ``await`` while holding a non-async (threading) lock
DDC104  tenant metrics registries are touched only through the locked
        ``inc_metric``/``merge_metrics``/``metrics_snapshot`` helpers
DDC105  every ``create_task``/``ensure_future`` handle is retained
        (a dropped task is silently garbage-collected mid-flight)
DDC106  protocol handlers never except-and-drop: every caught error
        replies or re-raises (the "always answer" rule)
======  ==============================================================

Every rule decides applicability from the posix-normalised path, like
the DDC0xx pack; DDC101 and DDC102 additionally consult the
:class:`~tools.dedupcheck.engine.ProjectContext` call graph (what the
event loop runs, what the fleet runs).
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from .engine import FileContext, FunctionInfo, Violation

__all__ = ["CONCURRENCY_RULES"]


def _tail(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _receiver_tail(node: ast.expr) -> str | None:
    """Tail name of a call's receiver (``a.b.c()`` → ``b``)."""
    if isinstance(node, ast.Attribute):
        return _tail(node.value)
    return None


def _has_keyword(call: ast.Call, name: str) -> bool:
    return any(kw.arg == name for kw in call.keywords)


def _is_false_const(node: ast.expr) -> bool:
    return isinstance(node, ast.Constant) and node.value is False


def _acquire_is_bounded(call: ast.Call) -> bool:
    """``acquire`` with a timeout, or non-blocking — either is fine."""
    if _has_keyword(call, "timeout"):
        return True
    if call.args and _is_false_const(call.args[0]):
        return True  # acquire(False)
    if len(call.args) >= 2:
        return True  # acquire(True, timeout)
    for kw in call.keywords:
        if kw.arg == "blocking" and _is_false_const(kw.value):
            return True
    return False


def _body_walk(node: ast.AST) -> Iterator[ast.AST]:
    """Walk a body without descending into nested function scopes."""
    stack = list(ast.iter_child_nodes(node))
    while stack:
        current = stack.pop()
        yield current
        if not isinstance(
            current, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            stack.extend(ast.iter_child_nodes(current))


def _awaited_calls(func: ast.AST) -> set[int]:
    """ids of Call nodes an ``await`` waits on: the call directly under
    it, or the one it bounds as ``await asyncio.wait_for(call, timeout)``."""
    awaited: set[int] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Await) and isinstance(node.value, ast.Call):
            call = node.value
            awaited.add(id(call))
            if _tail(call.func) == "wait_for" and call.args:
                awaited.add(id(call.args[0]))
    return awaited


#: Receiver names that clearly denote a threading-style lock.
_LOCKISH = ("lock", "mutex", "sem", "cond")


def _names_a_lock(node: ast.expr) -> bool:
    tail = _tail(node)
    return tail is not None and any(part in tail.lower() for part in _LOCKISH)


class NoBlockingInCoroutine:
    """DDC101 — coroutine bodies must not block the event loop.

    One blocked coroutine stalls *every* connection the loop serves:
    the server's whole design (PR 6) moves blocking work to fleet
    threads and keeps waits as ``asyncio`` primitives.  Flags, inside
    any ``async def`` (not its nested sync helpers): ``time.sleep``,
    synchronous socket construction/connection, sync file ``open``,
    un-awaited ``.acquire()`` without a timeout, ``subprocess`` use
    and ``requests``/``urllib`` HTTP calls.  The same ban covers the
    sync functions under ``repro/service/`` that a coroutine calls,
    directly or through each other (``DedupSession.admit``,
    ``TokenBucket.reserve`` …): they run on the loop too.
    """

    code = "DDC101"
    summary = "blocking call on the event loop (a coroutine or a service helper it calls)"
    needs_context = True

    #: (receiver-or-module, attr) calls that park the calling thread.
    _BLOCKING_ATTRS = {
        ("time", "sleep"): "time.sleep() blocks the event loop; use asyncio.sleep",
        ("socket", "socket"): "sync socket on the event loop; use asyncio streams",
        ("socket", "create_connection"): (
            "sync connect on the event loop; use asyncio.open_connection"
        ),
        ("subprocess", "run"): (
            "subprocess.run() blocks; use asyncio.create_subprocess_exec"
        ),
        ("subprocess", "check_output"): (
            "subprocess.check_output() blocks; use asyncio subprocesses"
        ),
        ("subprocess", "check_call"): (
            "subprocess.check_call() blocks; use asyncio subprocesses"
        ),
        ("subprocess", "call"): (
            "subprocess.call() blocks; use asyncio subprocesses"
        ),
        ("requests", "get"): "sync HTTP on the event loop",
        ("requests", "post"): "sync HTTP on the event loop",
        ("requests", "request"): "sync HTTP on the event loop",
        ("urllib", "urlopen"): "sync HTTP on the event loop",
        ("request", "urlopen"): "sync HTTP on the event loop",
    }

    def check(
        self, tree: ast.Module, path: str, ctx: FileContext
    ) -> Iterator[Violation]:
        """Scan every ``async def`` body, and every loop-run sync
        helper defined here, for blocking primitives."""
        for node in ast.walk(tree):
            if isinstance(node, ast.AsyncFunctionDef):
                yield from self._check_body(node, path, ctx, f"coroutine {node.name!r}")
        for info in ctx.project.loop_functions():
            if info.path == path:
                where = f"{info.qualname!r}, a sync helper a coroutine calls"
                yield from self._check_body(info.node, path, ctx, where)

    def _check_body(
        self, func: ast.AST, path: str, ctx: FileContext, where: str
    ) -> Iterator[Violation]:
        awaited = _awaited_calls(func)
        for node in _body_walk(func):
            if not isinstance(node, ast.Call):
                continue
            message = self._blocking_message(node, ctx, awaited)
            if message is not None:
                yield Violation(
                    path, node.lineno, node.col_offset, self.code, f"{message} (in {where})"
                )

    def _blocking_message(
        self, call: ast.Call, ctx: FileContext, awaited: set[int]
    ) -> str | None:
        func = call.func
        if isinstance(func, ast.Attribute):
            receiver = _tail(func.value)
            if receiver is not None:
                message = self._BLOCKING_ATTRS.get((receiver, func.attr))
                if message is not None:
                    return message
            if (
                func.attr == "acquire"
                and id(call) not in awaited
                and not _acquire_is_bounded(call)
            ):
                return (
                    "untimed blocking acquire() on the event loop; await an "
                    "asyncio primitive or pass blocking=False/timeout="
                )
            return None
        if isinstance(func, ast.Name):
            origin = ctx.from_imports.get(func.id, "")
            if func.id == "open" or origin == "builtins.open":
                return "sync file open() on the event loop; do file I/O on the fleet"
            if origin in ("time.sleep",):
                return "time.sleep() blocks the event loop; use asyncio.sleep"
            if origin in ("urllib.request.urlopen", "requests.get", "requests.post"):
                return "sync HTTP on the event loop"
        return None


class FleetThreadWaitBan:
    """DDC102 — functions on fleet threads may not wait without a timeout.

    *The* PR 6 deadlock class: ``workers`` fleet threads all parked on
    an untimed wait (a busy tenant's session lock) while the queued
    tasks that would release it could never get a thread.  Any
    function reachable from a fleet-pool submission site therefore
    may not call ``acquire``/``wait``/
    ``wait_for`` without a timeout, ``Future.result()``/queue
    ``get()``/thread ``join()`` untimed, or ``time.sleep``.  Bounded
    critical sections (``with lock:``) stay legal — the ban is on
    *waiting for cross-task state*, not on mutual exclusion.
    """

    code = "DDC102"
    summary = "untimed blocking wait on a fleet-thread code path"
    needs_context = True

    #: Receiver-name hints for queue-like and thread-like objects
    #: (``.get()``/``.join()`` are too generic to flag bare).
    _QUEUEISH = ("queue", "jobs", "tasks", "inbox")
    _THREADISH = ("thread", "worker", "proc", "pool")

    def check(
        self, tree: ast.Module, path: str, ctx: FileContext
    ) -> Iterator[Violation]:
        """Check every fleet-reachable function defined in this file."""
        for info in ctx.project.fleet_functions():
            if info.path != path or info.is_async:
                continue
            yield from self._check_function(info, path, ctx)

    def _check_function(
        self, info: FunctionInfo, path: str, ctx: FileContext
    ) -> Iterator[Violation]:
        for node in _body_walk(info.node):
            if not isinstance(node, ast.Call):
                continue
            message = self._wait_message(node, ctx)
            if message is not None:
                yield Violation(
                    path,
                    node.lineno,
                    node.col_offset,
                    self.code,
                    f"{message} in {info.qualname!r}, which runs on a fleet "
                    "thread (reachable from a fleet submission); fleet "
                    "threads must never wait without a timeout",
                )

    def _wait_message(self, call: ast.Call, ctx: FileContext) -> str | None:
        func = call.func
        if isinstance(func, ast.Name):
            if ctx.from_imports.get(func.id) == "time.sleep":
                return "time.sleep()"
            return None
        if not isinstance(func, ast.Attribute):
            return None
        attr = func.attr
        receiver = _tail(func.value)
        if receiver == "time" and attr == "sleep":
            return "time.sleep()"
        if attr == "acquire" and not _acquire_is_bounded(call):
            return "untimed lock.acquire()"
        if attr == "wait" and not call.args and not _has_keyword(call, "timeout"):
            return "untimed .wait()"
        if (
            attr == "wait_for"
            and len(call.args) <= 1
            and not _has_keyword(call, "timeout")
        ):
            return "untimed .wait_for()"
        if attr == "result" and not call.args and not _has_keyword(call, "timeout"):
            return "untimed Future.result()"
        if (
            attr == "get"
            and not call.args
            and not call.keywords
            and receiver is not None
            and any(h in receiver.lower() for h in self._QUEUEISH)
        ):
            return "untimed queue .get()"
        if (
            attr == "join"
            and not call.args
            and not call.keywords
            and receiver is not None
            and any(h in receiver.lower() for h in self._THREADISH)
        ):
            return "untimed .join()"
        return None


class NoAwaitUnderLock:
    """DDC103 — never ``await`` while holding a non-async lock.

    An ``await`` suspends the coroutine with the threading lock still
    held; any fleet thread (or other coroutine) that then touches the
    lock blocks for as long as the event loop takes to resume — and if
    resumption itself needs the blocked thread, forever.  Threading
    locks must bracket straight-line critical sections only; locks
    held across suspension points must be ``asyncio`` locks held via
    ``async with``.
    """

    code = "DDC103"
    summary = "await while holding a non-async (threading) lock"
    needs_context = False

    def check(self, tree: ast.Module, path: str) -> Iterator[Violation]:
        """Find ``with <lock>:`` blocks containing ``await``."""
        for node in ast.walk(tree):
            if isinstance(node, ast.AsyncFunctionDef):
                yield from self._check_coroutine(node, path)

    def _check_coroutine(
        self, func: ast.AsyncFunctionDef, path: str
    ) -> Iterator[Violation]:
        for node in _body_walk(func):
            # `async with` is fine — that's the asyncio-lock idiom.
            if not isinstance(node, ast.With):
                continue
            if not any(_names_a_lock(item.context_expr) for item in node.items):
                continue
            stack: list[ast.AST] = list(node.body)
            while stack:
                sub = stack.pop()
                if isinstance(
                    sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
                ):
                    continue  # nested scope: its awaits are its own
                if isinstance(sub, ast.Await):
                    yield Violation(
                        path,
                        sub.lineno,
                        sub.col_offset,
                        self.code,
                        "await inside a `with <lock>:` block suspends "
                        "with the threading lock held; release first "
                        "or use an asyncio.Lock via `async with`",
                    )
                stack.extend(ast.iter_child_nodes(sub))


class TenantMetricsDiscipline:
    """DDC104 — tenant metrics move only through the locked helpers.

    The per-tenant :class:`~repro.obs.metrics.MetricsRegistry` is
    lock-free by design (it is the same registry the dedup core uses
    process-locally), so *shared* access must serialise on
    ``Tenant.metrics_lock`` — which is exactly what the
    ``inc_metric`` / ``merge_metrics`` / ``metrics_snapshot`` helpers
    do.  Reaching through another object's ``.metrics`` attribute
    (``tenant.metrics.counter(...).inc()``) bypasses that lock and
    races the ``/metrics`` renderer; an object's *own* registry
    (``self.metrics``) stays legal — that is how the helpers
    themselves, and single-threaded owners like the server's
    loop-only registry, are written.
    """

    code = "DDC104"
    summary = "foreign .metrics registry access bypassing the locked helpers"

    _APPLIES = "repro/service/"

    def check(self, tree: ast.Module, path: str) -> Iterator[Violation]:
        """Flag non-``self`` ``.metrics`` attribute access in the service."""
        if self._APPLIES not in path:
            return
        for node in ast.walk(tree):
            if not isinstance(node, ast.Attribute):
                continue
            if node.attr != "metrics":
                continue
            if isinstance(node.value, ast.Name) and node.value.id == "self":
                continue
            yield Violation(
                path,
                node.lineno,
                node.col_offset,
                self.code,
                "direct access to another object's .metrics registry "
                "bypasses its metrics_lock; use inc_metric/merge_metrics/"
                "metrics_snapshot",
            )


class NoLostTasks:
    """DDC105 — every spawned task handle must be retained.

    ``asyncio.create_task()`` results the caller drops are only held
    by a weak set: the garbage collector can reap a running task
    mid-flight, and its exceptions vanish with it.  A handle must be
    assigned, awaited, returned, or passed somewhere that keeps it.
    """

    code = "DDC105"
    summary = "create_task()/ensure_future() result dropped (lost task)"

    _SPAWNERS = frozenset({"create_task", "ensure_future"})

    def check(self, tree: ast.Module, path: str) -> Iterator[Violation]:
        """Flag bare expression statements spawning a task."""
        for node in ast.walk(tree):
            if not isinstance(node, ast.Expr):
                continue
            call = node.value
            if not isinstance(call, ast.Call):
                continue
            callee = _tail(call.func)
            if callee in self._SPAWNERS:
                yield Violation(
                    path,
                    node.lineno,
                    node.col_offset,
                    self.code,
                    f"{callee}() result is dropped; the task can be "
                    "garbage-collected mid-flight — retain the handle "
                    "(assign/await/track) and consume its result",
                )


class AlwaysAnswer:
    """DDC106 — protocol handlers must reply or re-raise, never drop.

    PR 6's review rule: a server that swallows an exception without
    answering leaves the client hanging on a read, which is
    indistinguishable from a network hang.  In ``repro/service/``, an
    ``except`` whose body does nothing (only ``pass``/``...``) is
    banned unless the caught types are all connection-teardown
    exceptions — once the peer is gone there is no one left to
    answer.
    """

    code = "DDC106"
    summary = "except-and-drop in a protocol handler (must reply or re-raise)"

    _APPLIES = "repro/service/"

    #: Peer-is-gone exceptions: dropping these is teardown, not
    #: swallowing (there is no live connection to answer on).
    _TEARDOWN = frozenset(
        {
            "ConnectionError",
            "ConnectionResetError",
            "ConnectionAbortedError",
            "BrokenPipeError",
            "IncompleteReadError",
            "CancelledError",
            "TimeoutError",
        }
    )

    def check(self, tree: ast.Module, path: str) -> Iterator[Violation]:
        """Flag drop-body except handlers over non-teardown exceptions."""
        if self._APPLIES not in path:
            return
        for node in ast.walk(tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not self._body_is_drop(node.body):
                continue
            offender = self._non_teardown_type(node.type)
            if offender is not None:
                yield Violation(
                    path,
                    node.lineno,
                    node.col_offset,
                    self.code,
                    f"except {offender} is silently dropped; protocol "
                    "handlers must reply (send an error payload) or "
                    "re-raise — only connection-teardown exceptions "
                    "may be dropped",
                )

    @staticmethod
    def _body_is_drop(body: list[ast.stmt]) -> bool:
        for stmt in body:
            if isinstance(stmt, ast.Pass):
                continue
            if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
                continue  # docstring / `...`
            return False
        return True

    def _non_teardown_type(self, exc_type: ast.expr | None) -> str | None:
        """First caught type that is not teardown; None when all are."""
        if exc_type is None:
            return "(bare)"
        types = (
            list(exc_type.elts) if isinstance(exc_type, ast.Tuple) else [exc_type]
        )
        for t in types:
            tail = _tail(t)
            if tail is None or tail not in self._TEARDOWN:
                return tail or "(unknown)"
        return None


#: The concurrency pack, in catalogue order.
CONCURRENCY_RULES = (
    NoBlockingInCoroutine(),
    FleetThreadWaitBan(),
    NoAwaitUnderLock(),
    TenantMetricsDiscipline(),
    NoLostTasks(),
    AlwaysAnswer(),
)
