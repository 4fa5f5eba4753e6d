"""The DDC rule pack — one class per machine-checked invariant.

Rule catalogue (see docs/DEVELOPMENT.md for the full rationale):

======  ==============================================================
DDC001  ``hashlib`` only inside ``repro/hashing/`` (canonical digests)
DDC002  Manifest entries mutated only by HHR/SHM (and the manifest
        classes themselves)
DDC003  no whole-file bytes access inside ``_ingest_chunks`` hooks
DDC004  no nondeterminism (unseeded RNG, wall clock) in algorithm
        modules
DDC005  no ``bytes +=`` accumulation inside loops on hot paths
DDC006  dedup counters updated only via the ``Deduplicator`` helpers
DDC007  ``repro/obs/`` is a read-only leaf: no dedup-machinery imports,
        no calls that mutate the observed pipeline
DDC008  backend object calls on a store namespace only inside the
        ``Store``, the per-kind stores and the backends
======  ==============================================================

The DDC1xx concurrency pack (blocking calls in coroutines, fleet-thread
wait bans, lock discipline, lost tasks, protocol always-answer) lives
in :mod:`tools.dedupcheck.concurrency` and is folded into
:data:`ALL_RULES` below.

Every rule decides its own applicability from the posix-normalised
file path, so the same classes serve both the repository scan and the
fixture tests (which pass virtual paths).
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from .concurrency import CONCURRENCY_RULES
from .engine import Violation

__all__ = ["ALL_RULES"]

#: Attribute calls that mutate a list in place.
_LIST_MUTATORS = frozenset(
    {"append", "insert", "extend", "pop", "remove", "clear", "sort", "reverse"}
)


def _tail_name(node: ast.expr) -> str | None:
    """Terminal identifier of a ``Name`` / ``Attribute`` chain, if any."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


class HashlibConfinement:
    """DDC001 — ``hashlib`` may only be imported under ``repro/hashing/``.

    The paper budgets every piece of metadata as 20-byte SHA-1 values;
    routing all digest creation through :mod:`repro.hashing.digest`
    (``sha1`` / ``sha1_many`` / ``sha1_spans``) keeps that budget — and the
    ``Digest`` NewType boundary — a checked fact.
    """

    code = "DDC001"
    summary = "hashlib imported outside repro/hashing/"

    def check(self, tree: ast.Module, path: str) -> Iterator[Violation]:
        """Flag ``import hashlib`` / ``from hashlib import`` elsewhere."""
        if "repro/hashing/" in path:
            return
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "hashlib":
                        yield Violation(
                            path,
                            node.lineno,
                            node.col_offset,
                            self.code,
                            "direct hashlib import; use repro.hashing "
                            "(sha1/sha1_many/sha1_spans) instead",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.level == 0 and (node.module or "").split(".")[0] == "hashlib":
                    yield Violation(
                        path,
                        node.lineno,
                        node.col_offset,
                        self.code,
                        "direct hashlib import; use repro.hashing "
                        "(sha1/sha1_many/sha1_spans) instead",
                    )


class ManifestMutationConfinement:
    """DDC002 — manifest entries are rewritten only by HHR/SHM.

    Sections III-B/III-D of the paper: hysteresis re-chunking
    (``core/hhr.py``) is the *only* machinery allowed to split a
    manifest entry, and hash merging (``core/shm.py``) the only one
    appending merged-entry groups.  The manifest classes themselves
    implement the primitives.  Everyone else treats manifests as
    read-only hash tables.
    """

    code = "DDC002"
    summary = "manifest entry mutation outside core/hhr.py / core/shm.py"

    _ALLOWED = (
        "repro/core/hhr.py",
        "repro/core/shm.py",
        "repro/storage/manifest.py",
        "repro/storage/multi_manifest.py",
    )

    def check(self, tree: ast.Module, path: str) -> Iterator[Violation]:
        """Flag ``replace_entry`` calls and ``.entries`` mutations."""
        if path.endswith(self._ALLOWED):
            return
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Attribute):
                    if func.attr == "replace_entry":
                        yield Violation(
                            path,
                            node.lineno,
                            node.col_offset,
                            self.code,
                            "replace_entry() outside the HHR machinery; "
                            "use repro.core.hhr.apply_split",
                        )
                    elif (
                        func.attr in _LIST_MUTATORS
                        and isinstance(func.value, ast.Attribute)
                        and func.value.attr == "entries"
                    ):
                        yield Violation(
                            path,
                            node.lineno,
                            node.col_offset,
                            self.code,
                            f".entries.{func.attr}() outside the manifest "
                            "machinery; use the manifest's public API",
                        )
            elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    base = (
                        target.value
                        if isinstance(target, ast.Subscript)
                        else target
                    )
                    if isinstance(base, ast.Attribute) and base.attr == "entries":
                        yield Violation(
                            path,
                            node.lineno,
                            node.col_offset,
                            self.code,
                            "assignment into .entries outside the manifest "
                            "machinery",
                        )


class StreamingPurity:
    """DDC003 — ``_ingest_chunks`` must not touch whole-file bytes.

    The streaming ingest contract
    (:meth:`repro.core.base.Deduplicator._ingest_chunks`) requires
    batch-boundary invariance; materialising the file via
    ``BackupFile.read_bytes()`` or ``<file>.data`` inside the hook is
    the canonical way to break it (and the bounded-memory guarantee).
    """

    code = "DDC003"
    summary = "whole-file bytes access inside _ingest_chunks"

    def check(self, tree: ast.Module, path: str) -> Iterator[Violation]:
        """Flag ``read_bytes``/file ``.data`` access in the hook body."""
        for node in ast.walk(tree):
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name == "_ingest_chunks"
            ):
                yield from self._check_hook(node, path)

    def _check_hook(
        self, func: ast.FunctionDef | ast.AsyncFunctionDef, path: str
    ) -> Iterator[Violation]:
        for node in ast.walk(func):
            if not isinstance(node, ast.Attribute):
                continue
            if node.attr == "read_bytes":
                yield Violation(
                    path,
                    node.lineno,
                    node.col_offset,
                    self.code,
                    "read_bytes() inside _ingest_chunks breaks streaming "
                    "(batch-boundary invariance)",
                )
            elif node.attr == "data":
                # Heuristic: `.data` on something that names a *file*
                # (file.data, self._file.data, ctx.file.data) is the
                # whole input; `.data` on chunks/tokens is stream-local.
                receiver = _tail_name(node.value)
                if receiver is not None and "file" in receiver.lower():
                    yield Violation(
                        path,
                        node.lineno,
                        node.col_offset,
                        self.code,
                        f"{receiver}.data inside _ingest_chunks breaks "
                        "streaming (whole-file bytes)",
                    )


class AlgorithmDeterminism:
    """DDC004 — algorithm modules are bit-for-bit deterministic.

    Cut decisions, sampling and dedup outcomes must replay identically
    across runs (the CDC survey shows how silently DER drifts
    otherwise).  Algorithm packages therefore may not import entropy
    sources or read wall-clock time; seeded generators must receive
    their seed explicitly.
    """

    code = "DDC004"
    summary = "nondeterminism (unseeded RNG / wall clock) in algorithm module"

    _PACKAGES = ("repro/core/", "repro/chunking/", "repro/baselines/")
    _ENTROPY_MODULES = frozenset({"random", "secrets", "uuid"})
    _CLOCK_CALLS = {
        ("time", "time"),
        ("time", "time_ns"),
        ("time", "monotonic"),
        ("time", "perf_counter"),
        ("datetime", "now"),
        ("datetime", "utcnow"),
        ("os", "urandom"),
    }

    def check(self, tree: ast.Module, path: str) -> Iterator[Violation]:
        """Flag entropy imports, clock reads and unseeded ``default_rng``."""
        if not any(pkg in path for pkg in self._PACKAGES):
            return
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] in self._ENTROPY_MODULES:
                        yield self._violation(
                            path, node, f"import of entropy module {alias.name!r}"
                        )
            elif isinstance(node, ast.ImportFrom):
                root = (node.module or "").split(".")[0]
                if node.level == 0 and root in self._ENTROPY_MODULES:
                    yield self._violation(
                        path, node, f"import from entropy module {root!r}"
                    )
            elif isinstance(node, ast.Call):
                yield from self._check_call(path, node)

    def _check_call(self, path: str, node: ast.Call) -> Iterator[Violation]:
        func = node.func
        if isinstance(func, ast.Attribute):
            receiver = _tail_name(func.value)
            if receiver is not None and (receiver, func.attr) in self._CLOCK_CALLS:
                yield self._violation(
                    path, node, f"{receiver}.{func.attr}() is time/entropy-dependent"
                )
                return
        callee = _tail_name(func)
        if callee == "default_rng" and not node.args and not node.keywords:
            yield self._violation(
                path, node, "default_rng() without an explicit seed"
            )

    def _violation(self, path: str, node: ast.stmt | ast.expr, msg: str) -> Violation:
        return Violation(
            path,
            node.lineno,
            node.col_offset,
            self.code,
            f"{msg}; algorithm modules must be deterministic",
        )


class NoQuadraticBytes:
    """DDC005 — no ``bytes +=`` accumulation inside loops on hot paths.

    ``bytes`` is immutable: ``buf += piece`` in a loop copies the whole
    accumulator every iteration (quadratic).  Hot-path code must use a
    ``bytearray`` or collect parts and ``b"".join`` them — exactly the
    fix applied to the streaming chunker buffer.
    """

    code = "DDC005"
    summary = "bytes += accumulation in a loop on a hot path"

    _PACKAGES = (
        "repro/core/",
        "repro/chunking/",
        "repro/storage/",
        "repro/baselines/",
    )

    def check(self, tree: ast.Module, path: str) -> Iterator[Violation]:
        """Flag ``name += ...`` in loops where ``name`` held ``bytes``."""
        if not any(pkg in path for pkg in self._PACKAGES):
            return
        yield from self._check_scope(tree.body, path)

    def _check_scope(
        self, body: list[ast.stmt], path: str
    ) -> Iterator[Violation]:
        """Process one function (or module) scope, recursing into nested."""
        bytes_names = set()
        for node in self._scope_walk(body):
            if isinstance(node, ast.Assign) and self._is_bytes_expr(node.value):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        bytes_names.add(target.id)
        yield from self._flag_aug_in_loops(body, path, bytes_names, in_loop=False)
        for node in self._scope_walk(body):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_scope(node.body, path)

    def _scope_walk(self, body: list[ast.stmt]) -> Iterator[ast.AST]:
        """Walk statements without descending into nested functions."""
        stack: list[ast.AST] = list(body)
        while stack:
            node = stack.pop()
            yield node
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                stack.extend(ast.iter_child_nodes(node))

    def _flag_aug_in_loops(
        self,
        body: list[ast.stmt],
        path: str,
        bytes_names: set[str],
        in_loop: bool,
    ) -> Iterator[Violation]:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue  # nested scopes handled separately
            if (
                in_loop
                and isinstance(stmt, ast.AugAssign)
                and isinstance(stmt.op, ast.Add)
                and isinstance(stmt.target, ast.Name)
                and stmt.target.id in bytes_names
            ):
                yield Violation(
                    path,
                    stmt.lineno,
                    stmt.col_offset,
                    self.code,
                    f"bytes accumulation `{stmt.target.id} +=` in a loop is "
                    "quadratic; use bytearray or b''.join",
                )
            child_in_loop = in_loop or isinstance(stmt, (ast.For, ast.While))
            for _field, value in ast.iter_fields(stmt):
                if isinstance(value, list) and value and isinstance(
                    value[0], ast.stmt
                ):
                    yield from self._flag_aug_in_loops(
                        value, path, bytes_names, child_in_loop
                    )

    @staticmethod
    def _is_bytes_expr(node: ast.expr) -> bool:
        if isinstance(node, ast.Constant) and isinstance(node.value, bytes):
            return True
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "bytes"
            and not node.args
            and not node.keywords
        )


class StatsViaHelpers:
    """DDC006 — dedup counters move only through their helper methods.

    Duplicate-slice accounting has run-tracking semantics
    (``_count_duplicate(run_continues=...)`` etc. in
    ``repro/core/base.py``); a direct ``self._duplicate_chunks += 1``
    silently desynchronises chunk, byte and slice counts.
    """

    code = "DDC006"
    summary = "direct DedupStats counter update outside core/base.py"

    _COUNTERS = frozenset(
        {
            "_unique_chunks",
            "_unique_bytes",
            "_duplicate_chunks",
            "_duplicate_bytes",
            "_duplicate_slices",
            "_in_dup_run",
        }
    )

    def check(self, tree: ast.Module, path: str) -> Iterator[Violation]:
        """Flag assignments to the counter attributes."""
        if path.endswith("repro/core/base.py"):
            return
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                continue
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and target.attr in self._COUNTERS
                ):
                    yield Violation(
                        path,
                        node.lineno,
                        node.col_offset,
                        self.code,
                        f"direct write to {target.attr}; use the counting "
                        "helpers (_count_unique_many/_count_duplicate/"
                        "_break_dup_run)",
                    )


class ObsReadOnly:
    """DDC007 — ``repro/obs/`` observes the pipeline; it never drives it.

    The telemetry layer is wired *into* the dedup stack (every
    instrumented package imports ``repro.obs``), so an import in the
    other direction would create a cycle — and a sink that calls back
    into ingest or the disk meter would corrupt the very counters it
    reports.  Observation must be read-only: ``repro/obs/`` may import
    only the standard library and its own modules, and may not invoke
    the state-mutating dedup APIs on observed objects.
    """

    code = "DDC007"
    summary = "repro/obs importing dedup machinery or mutating observed state"

    #: Methods that advance or mutate pipeline state; calling any of
    #: them on a non-``self`` receiver from inside obs is a write.
    #: The quota/rate names guard the SLO engine specifically: an SLO
    #: that *charges* ledgers or *reserves* bucket tokens while
    #: computing burn rates is admission control, not observation.
    _MUTATING_CALLS = frozenset(
        {
            "process",
            "ingest",
            "record",
            "apply_split",
            "replace_entry",
            "_ingest_chunks",
            "_end_file",
            "_count_unique_many",
            "_count_duplicate",
            "_break_dup_run",
            "charge_bytes",
            "charge_file",
            "check_admit",
            "reserve",
        }
    )

    def check(self, tree: ast.Module, path: str) -> Iterator[Violation]:
        """Flag escapes from the leaf: sibling imports, mutating calls."""
        if "repro/obs/" not in path:
            return
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                if node.level >= 2:
                    yield self._violation(
                        path,
                        node,
                        "relative import above the obs package",
                    )
                elif node.level == 0:
                    yield from self._check_absolute(
                        path, node, (node.module or "")
                    )
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    yield from self._check_absolute(path, node, alias.name)
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in self._MUTATING_CALLS
                    and _tail_name(func.value) != "self"
                ):
                    yield self._violation(
                        path,
                        node,
                        f".{func.attr}() mutates the observed pipeline",
                    )

    def _check_absolute(
        self, path: str, node: ast.stmt, module: str
    ) -> Iterator[Violation]:
        parts = module.split(".")
        if parts[0] == "repro" and (len(parts) < 2 or parts[1] != "obs"):
            yield self._violation(
                path, node, f"import of dedup machinery {module!r}"
            )

    def _violation(self, path: str, node: ast.stmt | ast.expr, msg: str) -> Violation:
        return Violation(
            path,
            node.lineno,
            node.col_offset,
            self.code,
            f"{msg}; repro.obs is a read-only observation leaf",
        )


class StoreConfinement:
    """DDC008 — store objects are touched only through the ``Store``.

    Table II meters the four object kinds (plus the cluster's recipes
    and membership) in one place: :class:`repro.storage.store.Store`
    and the per-kind stores it owns.  A backend ``put``/``put_like``/
    ``get``/``get_range``/``object_size``/``delete``/``keys``/``exists``
    on a store namespace anywhere else reads or writes a store object behind
    the meter's back, and re-states a kind's namespace, key rule and
    codec.  A namespace is a store namespace if its expression names a
    ``DiskModel`` kind, ``RECIPE_NAMESPACE`` / ``META_NAMESPACE`` /
    ``QUARANTINE_PREFIX``, or spells one of their values.
    """

    code = "DDC008"
    summary = "backend object call on a store namespace outside the Store"

    _ALLOWED = tuple(
        f"repro/storage/{name}.py"
        for name in (
            "store",
            "chunk_store",
            "manifest",
            "hooks",
            "file_manifest",
            "cluster_recipe",
            "backend",
            "faults",
        )
    )
    _METHODS = frozenset(
        {"put", "put_like", "get", "get_range", "object_size", "delete", "keys", "exists"}
    )
    _KINDS = frozenset({"CHUNK", "MANIFEST", "HOOK", "FILE_MANIFEST"})
    _NAMES = frozenset({"RECIPE_NAMESPACE", "META_NAMESPACE", "QUARANTINE_PREFIX"})
    _VALUES = frozenset(
        {"chunk", "manifest", "hook", "file_manifest", "cluster.recipe", "cluster.meta"}
    )

    def check(self, tree: ast.Module, path: str) -> Iterator[Violation]:
        """Flag object-method calls whose namespace names a store kind."""
        if path.endswith(self._ALLOWED):
            return
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in self._METHODS
            ):
                continue
            namespace = node.args[0] if node.args else next(
                (k.value for k in node.keywords if k.arg == "namespace"), None
            )
            if namespace is not None and self._names_store_kind(namespace):
                yield Violation(
                    path,
                    node.lineno,
                    node.col_offset,
                    self.code,
                    f".{node.func.attr}() on a store namespace outside the Store; "
                    "go through repro.storage.Store and its per-kind stores",
                )

    def _names_store_kind(self, expr: ast.expr) -> bool:
        for node in ast.walk(expr):
            if isinstance(node, ast.Attribute) and node.attr in self._KINDS:
                if _tail_name(node.value) == "DiskModel":
                    return True
            elif isinstance(node, ast.Name) and node.id in self._NAMES:
                return True
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if node.value in self._VALUES or node.value.startswith("quarantine."):
                    return True
        return False


#: The full rule pack, in catalogue order (DDC0xx invariants first,
#: then the DDC1xx concurrency pack).
ALL_RULES = (
    HashlibConfinement(),
    ManifestMutationConfinement(),
    StreamingPurity(),
    AlgorithmDeterminism(),
    NoQuadraticBytes(),
    StatsViaHelpers(),
    ObsReadOnly(),
    StoreConfinement(),
) + CONCURRENCY_RULES
