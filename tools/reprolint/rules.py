"""The RPL rule set: one AST checker per repo invariant.

========  ====================================================================
ID        Invariant guarded
========  ====================================================================
RPL001    All randomness flows through injected ``np.random.Generator``
          objects; no global RNG state, no unseeded ``default_rng()``.
RPL002    Code that runs under virtual time never reads the wall clock.
RPL003    Operator hot loops access distances through ``DistView`` rows,
          never raw ``instance.dist`` / matrix indexing.
RPL004    Types crossing the multiprocessing boundary are frozen, slotted
          dataclasses with picklable, immutable field types.
RPL005    Blocking queue/pipe reads in ``distributed/`` always carry a
          timeout (the hang class PR 1 eliminated).
RPL006    No bare or silent ``except`` handlers.
RPL007    No blocking calls (``time.sleep``, sync ``queue.get``, file/
          socket/subprocess ops) inside ``async def`` — they stall the
          whole event loop.
RPL008    No read-modify-write of shared service state spanning an
          ``await`` without a lock or ``# reprolint: atomic-section``.
RPL009    Every ``asyncio.create_task`` handle is retained and awaited
          (or cancelled *and* awaited) — no fire-and-forget tasks.
RPL010    Determinism taint: wall-clock / ``os.urandom`` / ``id()`` /
          unordered-set values never flow into wire types, job results
          or persisted records.
RPL011    ``except`` handlers in async code never swallow
          ``asyncio.CancelledError``.
========  ====================================================================

RPL001–006 are single-pass (one AST walk over the file); RPL007–011 are
the dataflow tier, built on :mod:`tools.reprolint.dataflow`'s
await-epoch flow walk and project-wide attribute index.  Each rule's
full rationale — the bug it prevents and the PR that established the
invariant — is catalogued in ``docs/CHECKS.md``.
"""

from __future__ import annotations

import ast
from typing import Iterator, Sequence

from .config import Config
from .dataflow import (
    FunctionFlow,
    ModuleInfo,
    ProjectIndex,
    TaintEnv,
    dotted_name,
    iter_functions,
)
from .engine import Violation

__all__ = ["Rule", "ALL_RULES", "rule_ids"]


class Rule:
    """Base class: subclasses set ``id``/``title``/``rationale`` and
    implement :meth:`check`, receiving the parsed module plus the shared
    project index."""

    id = "RPL000"
    title = "abstract rule"
    rationale = ""

    def check(
        self, module: ModuleInfo, config: Config, index: ProjectIndex
    ) -> Iterator[Violation]:
        raise NotImplementedError

    def violation(self, path: str, node: ast.AST, message: str) -> Violation:
        return Violation(
            rule_id=self.id,
            path=path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


def _import_map(tree: ast.Module) -> dict[str, str]:
    """Local alias -> full dotted path, from the module's imports."""
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                aliases[a.asname or a.name.split(".")[0]] = (
                    a.name if a.asname else a.name.split(".")[0]
                )
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for a in node.names:
                aliases[a.asname or a.name] = f"{node.module}.{a.name}"
    # Conventional numpy alias even without the import in this file.
    aliases.setdefault("np", "numpy")
    return aliases


def _dotted(node: ast.AST, aliases: dict[str, str]) -> str | None:
    """Resolve an attribute chain to a dotted path through import aliases."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(aliases.get(node.id, node.id))
    return ".".join(reversed(parts))


# ---------------------------------------------------------------------------


class NoGlobalRngRule(Rule):
    """RPL001 — randomness must come from an injected Generator."""

    id = "RPL001"
    title = "no global RNG state"
    rationale = (
        "Reproducibility of DistCLK runs (paper §4) depends on every "
        "stochastic choice drawing from an injected np.random.Generator; "
        "global RNG state couples unrelated components and an unseeded "
        "default_rng() makes a run unrepeatable."
    )

    #: numpy.random module-level functions that mutate the legacy global
    #: RandomState (or read it): any use is hidden global state.
    LEGACY = frozenset(
        {
            "seed", "rand", "randn", "randint", "random", "random_sample",
            "ranf", "sample", "choice", "shuffle", "permutation", "uniform",
            "normal", "standard_normal", "binomial", "poisson", "exponential",
            "beta", "gamma", "bytes", "random_integers", "get_state",
            "set_state", "vonmises", "laplace", "lognormal", "geometric",
        }
    )

    def check(self, module, config, index):
        tree, path = module.tree, module.path
        aliases = _import_map(tree)
        stdlib_random_aliases = {
            alias
            for alias, target in aliases.items()
            if target == "random" or target.startswith("random.")
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for a in node.names:
                    if a.name == "random" or a.name.startswith("random."):
                        yield self.violation(
                            path, node,
                            "import of the stdlib 'random' module (global "
                            "RNG state); use repro.utils.rng instead",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random" and not node.level:
                    yield self.violation(
                        path, node,
                        "import from the stdlib 'random' module (global "
                        "RNG state); use repro.utils.rng instead",
                    )
            elif isinstance(node, ast.Call):
                dotted = _dotted(node.func, aliases)
                if dotted is None:
                    continue
                head, _, fn = dotted.rpartition(".")
                if dotted.startswith("numpy.random.") and fn in self.LEGACY:
                    yield self.violation(
                        path, node,
                        f"np.random.{fn}() uses the legacy global "
                        "RandomState; pass an np.random.Generator instead",
                    )
                elif (
                    dotted in ("numpy.random.default_rng", "default_rng")
                    or dotted.endswith(".default_rng")
                ) and not node.args and not node.keywords:
                    yield self.violation(
                        path, node,
                        "default_rng() without a seed argument is "
                        "unrepeatable; thread a seed or Generator through",
                    )
                elif head in stdlib_random_aliases:
                    yield self.violation(
                        path, node,
                        f"stdlib random.{fn}() uses global RNG state; "
                        "use an injected np.random.Generator",
                    )


class NoWallClockRule(Rule):
    """RPL002 — virtual-time code must not read the wall clock."""

    id = "RPL002"
    title = "no wall-clock reads under virtual time"
    rationale = (
        "The simulator's determinism and budget accounting (PR 1) rest on "
        "all timing flowing from WorkMeter operation counts; one "
        "time.time() in the engine makes runs machine-dependent."
    )

    BANNED = frozenset(
        {
            "time.time", "time.time_ns", "time.monotonic",
            "time.monotonic_ns", "time.perf_counter", "time.perf_counter_ns",
            "time.process_time", "time.process_time_ns", "time.sleep",
            "datetime.datetime.now", "datetime.datetime.utcnow",
            "datetime.datetime.today", "datetime.date.today",
        }
    )

    def check(self, module, config, index):
        tree, path = module.tree, module.path
        aliases = _import_map(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module in (
                "time", "datetime"
            ):
                for a in node.names:
                    if f"{node.module}.{a.name}" in self.BANNED or (
                        node.module == "datetime" and a.name == "datetime"
                    ):
                        yield self.violation(
                            path, node,
                            f"import of wall-clock symbol "
                            f"'{node.module}.{a.name}' in virtual-time "
                            "code; use WorkMeter vsec accounting",
                        )
            elif isinstance(node, ast.Call):
                dotted = _dotted(node.func, aliases)
                if dotted in self.BANNED:
                    yield self.violation(
                        path, node,
                        f"wall-clock call {dotted}() in virtual-time code; "
                        "time must come from WorkMeter / node clocks",
                    )


class NoRawDistanceRule(Rule):
    """RPL003 — hot loops go through DistView, not instance.dist."""

    id = "RPL003"
    title = "no DistView bypass in operator hot loops"
    rationale = (
        "The engine layer (PR 2) routes hot-loop distance access through "
        "row-cached DistView and distance-sorted candidate rows; raw "
        "instance.dist calls bypass the cache (~3x slower) and invite "
        "scans over unsorted rows, silently corrupting early-break "
        "pruning (cf. Heins et al. 2024 on candidate-list sensitivity)."
    )

    METHODS = frozenset({"dist", "dist_many", "distance_matrix"})
    INSTANCE_PARAMS = frozenset({"instance", "inst"})

    def check(self, module, config, index):
        tree, path = module.tree, module.path
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            yield from self._check_function(fn, path)

    def _check_function(self, fn, path):
        instance_names = {
            arg.arg
            for arg in list(fn.args.args) + list(fn.args.kwonlyargs)
            if arg.arg in self.INSTANCE_PARAMS
        }
        # One pre-pass for names bound from `<expr>.instance`.
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign) and isinstance(
                node.value, ast.Attribute
            ):
                if node.value.attr == "instance":
                    for tgt in node.targets:
                        if isinstance(tgt, ast.Name):
                            instance_names.add(tgt.id)
        for node in ast.walk(fn):
            if isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ):
                attr = node.func.attr
                if attr not in self.METHODS:
                    continue
                recv = node.func.value
                if isinstance(recv, ast.Name) and recv.id in instance_names:
                    yield self.violation(
                        path, node,
                        f"raw {recv.id}.{attr}() in an operator hot-loop "
                        "module; route through DistView (view.dist / "
                        "view.row)",
                    )
                elif isinstance(recv, ast.Attribute) and recv.attr == "instance":
                    yield self.violation(
                        path, node,
                        f"raw <...>.instance.{attr}() in an operator "
                        "hot-loop module; route through DistView",
                    )
            elif isinstance(node, ast.Subscript) and isinstance(
                node.value, ast.Attribute
            ):
                if node.value.attr == "matrix":
                    yield self.violation(
                        path, node,
                        "direct distance-matrix indexing in an operator "
                        "hot-loop module; use DistView rows",
                    )


class WireTypeRule(Rule):
    """RPL004 — mp-boundary dataclasses are frozen, slotted, picklable."""

    id = "RPL004"
    title = "wire types frozen/slotted with picklable fields"
    rationale = (
        "Types pickled into worker processes (or rebuilt from wire "
        "tuples) must be immutable value objects: a mutable or unpicklable "
        "field either crashes the spawn path or — worse — ships shared "
        "mutable state across the process boundary."
    )

    def check(self, module, config, index):
        tree, path = module.tree, module.path
        wire_classes = set(config.wire_classes_for(path))
        if not wire_classes:
            return
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if node.name not in wire_classes:
                continue
            deco = self._dataclass_decorator(node)
            if deco is None:
                yield self.violation(
                    path, node,
                    f"wire type {node.name} must be a "
                    "@dataclass(frozen=True, slots=True)",
                )
                continue
            missing = [
                kw
                for kw in ("frozen", "slots")
                if not self._kw_is_true(deco, kw)
            ]
            if missing:
                yield self.violation(
                    path, node,
                    f"wire type {node.name} must set "
                    f"{', '.join(f'{m}=True' for m in missing)} on its "
                    "@dataclass decorator",
                )
            allowed = set(config.picklable_names)
            for stmt in node.body:
                if not isinstance(stmt, ast.AnnAssign):
                    continue
                if (
                    isinstance(stmt.target, ast.Name)
                    and stmt.target.id.startswith("_")
                ):
                    continue
                bad = self._first_disallowed(stmt.annotation, allowed)
                if bad is not None:
                    name = (
                        stmt.target.id
                        if isinstance(stmt.target, ast.Name)
                        else "<field>"
                    )
                    yield self.violation(
                        path, stmt,
                        f"wire type {node.name}.{name} has non-picklable/"
                        f"mutable annotation component {bad!r}; allowed "
                        "leaves are immutable scalars, tuples, ndarray, "
                        "enums and nested wire types",
                    )

    @staticmethod
    def _dataclass_decorator(node: ast.ClassDef):
        for deco in node.decorator_list:
            target = deco.func if isinstance(deco, ast.Call) else deco
            name = None
            if isinstance(target, ast.Name):
                name = target.id
            elif isinstance(target, ast.Attribute):
                name = target.attr
            if name == "dataclass":
                return deco if isinstance(deco, ast.Call) else ast.Call(
                    func=target, args=[], keywords=[]
                )
        return None

    @staticmethod
    def _kw_is_true(deco: ast.Call, name: str) -> bool:
        for kw in deco.keywords:
            if kw.arg == name:
                return (
                    isinstance(kw.value, ast.Constant)
                    and kw.value.value is True
                )
        return False

    def _first_disallowed(self, node: ast.AST, allowed: set) -> str | None:
        """Depth-first search for the first disallowed leaf name."""
        if isinstance(node, ast.Constant):
            if node.value is None or node.value is Ellipsis:
                return None
            if isinstance(node.value, str):  # string annotation: parse it
                try:
                    inner = ast.parse(node.value, mode="eval").body
                except SyntaxError:
                    return node.value
                return self._first_disallowed(inner, allowed)
            return repr(node.value)
        if isinstance(node, ast.Name):
            return None if node.id in allowed else node.id
        if isinstance(node, ast.Attribute):
            return None if node.attr in allowed else node.attr
        if isinstance(node, ast.Subscript):
            bad = self._first_disallowed(node.value, allowed)
            if bad is not None:
                return bad
            return self._first_disallowed(node.slice, allowed)
        if isinstance(node, ast.Tuple):
            for elt in node.elts:
                bad = self._first_disallowed(elt, allowed)
                if bad is not None:
                    return bad
            return None
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
            return self._first_disallowed(
                node.left, allowed
            ) or self._first_disallowed(node.right, allowed)
        return ast.dump(node)


class QueueTimeoutRule(Rule):
    """RPL005 — blocking queue/pipe reads must carry a timeout."""

    id = "RPL005"
    title = "blocking queue reads need a timeout"
    rationale = (
        "A bare queue.get()/recv() blocks forever when the producer died "
        "— the silent-hang class PR 1 eliminated; every blocking read in "
        "the transport layer must bound its wait.  The asyncio face of "
        "the same hang is `await q.get()` outside asyncio.wait_for: a "
        "coroutine parked on a queue whose producer task died waits "
        "forever, so awaited gets must be wrapped in a finite wait_for."
    )

    def check(self, module, config, index):
        tree, path = module.tree, module.path
        guarded = self._wait_for_guarded(tree) | self._poll_guarded(tree)
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
            ):
                continue
            if node in guarded:
                continue
            attr = node.func.attr
            if attr == "recv" and not node.args and not node.keywords:
                yield self.violation(
                    path, node,
                    "recv() without a timeout/poll guard blocks forever "
                    "on a dead peer; poll with a deadline first",
                )
            elif attr == "get":
                yield from self._check_get(node, path)

    @staticmethod
    def _wait_for_guarded(tree: ast.Module) -> set:
        """Calls appearing inside the awaitable argument of a
        ``wait_for(...)`` with a finite timeout — bounded by
        construction, so exempt from the timeout checks."""
        guarded: set = set()
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Call)
                and (
                    (isinstance(node.func, ast.Attribute)
                     and node.func.attr == "wait_for")
                    or (isinstance(node.func, ast.Name)
                        and node.func.id == "wait_for")
                )
                and node.args
            ):
                continue
            timeout = None
            if len(node.args) > 1:
                timeout = node.args[1]
            for kw in node.keywords:
                if kw.arg == "timeout":
                    timeout = kw.value
            if timeout is None or (
                isinstance(timeout, ast.Constant) and timeout.value is None
            ):
                continue
            for sub in ast.walk(node.args[0]):
                if isinstance(sub, ast.Call):
                    guarded.add(sub)
        return guarded

    @staticmethod
    def _poll_guarded(tree: ast.Module) -> set:
        """``recv()`` calls on a receiver ``R`` inside the body of an
        ``if``/``while`` whose test calls ``R.poll()`` with no timeout
        (zero) or one that is not the literal None: the poll bounds the
        wait, and end-of-file makes the recv raise rather than block."""
        guarded: set = set()
        for node in ast.walk(tree):
            if not isinstance(node, (ast.If, ast.While)):
                continue
            receivers = set()
            for call in ast.walk(node.test):
                if not (isinstance(call, ast.Call)
                        and isinstance(call.func, ast.Attribute)
                        and call.func.attr == "poll"):
                    continue
                timeout = call.args[0] if call.args else next(
                    (kw.value for kw in call.keywords
                     if kw.arg == "timeout"), None)
                if not (isinstance(timeout, ast.Constant)
                        and timeout.value is None):
                    receivers.add(ast.dump(call.func.value))
            for stmt in node.body if receivers else ():
                for sub in ast.walk(stmt):
                    if (isinstance(sub, ast.Call)
                            and isinstance(sub.func, ast.Attribute)
                            and sub.func.attr == "recv"
                            and ast.dump(sub.func.value) in receivers):
                        guarded.add(sub)
        return guarded

    def _check_get(self, node: ast.Call, path: str):
        kwargs = {kw.arg: kw.value for kw in node.keywords if kw.arg}
        timeout = kwargs.get("timeout")
        if timeout is not None:
            if isinstance(timeout, ast.Constant) and timeout.value is None:
                yield self.violation(
                    path, node,
                    "get(timeout=None) blocks forever; pass a finite "
                    "timeout",
                )
            return
        blocking_kw = kwargs.get("block")
        explicit_blocking = (
            isinstance(blocking_kw, ast.Constant)
            and blocking_kw.value is True
        ) or (
            len(node.args) == 1
            and isinstance(node.args[0], ast.Constant)
            and node.args[0].value is True
        )
        # `.get()` with no arguments is ambiguous between dict.get and
        # queue.get only in the former's degenerate zero-arg form, which
        # is a TypeError — so zero-arg get is always a blocking queue
        # read.  One non-True argument (dict.get(key[, default]) or
        # queue.get(block, timeout)) is left alone.
        if explicit_blocking or (not node.args and not node.keywords):
            yield self.violation(
                path, node,
                "blocking queue get() without a timeout hangs when the "
                "producer is gone; use get(timeout=...) or get_nowait()",
            )


class NoSilentExceptRule(Rule):
    """RPL006 — no bare or silent exception swallowing."""

    id = "RPL006"
    title = "no bare/silent except"
    rationale = (
        "`except Exception: pass` hides the first symptom of every other "
        "invariant violation; failures must surface, be logged, or be "
        "narrowed to the exact expected exception type."
    )

    BROAD = frozenset({"Exception", "BaseException"})

    def check(self, module, config, index):
        tree, path = module.tree, module.path
        for node in ast.walk(tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.violation(
                    path, node,
                    "bare 'except:' also swallows KeyboardInterrupt/"
                    "SystemExit; name the exception type",
                )
            elif self._is_broad(node.type) and self._is_silent(node.body):
                yield self.violation(
                    path, node,
                    "silently swallowed broad exception; narrow the type "
                    "or handle/log the failure",
                )

    def _is_broad(self, type_node: ast.AST) -> bool:
        if isinstance(type_node, ast.Name):
            return type_node.id in self.BROAD
        if isinstance(type_node, ast.Attribute):
            return type_node.attr in self.BROAD
        if isinstance(type_node, ast.Tuple):
            return any(self._is_broad(elt) for elt in type_node.elts)
        return False

    @staticmethod
    def _is_silent(body: Sequence[ast.stmt]) -> bool:
        for stmt in body:
            if isinstance(stmt, ast.Pass) or isinstance(stmt, ast.Continue):
                continue
            if isinstance(stmt, ast.Expr) and isinstance(
                stmt.value, ast.Constant
            ):
                continue  # docstring or Ellipsis
            return False
        return True


# ---------------------------------------------------------------------------
# dataflow tier (RPL007–011)


def _own_nodes(fn: ast.AST) -> Iterator[ast.AST]:
    """Every node in ``fn``'s body except those inside nested
    functions/classes/lambdas (which execute at an unknown time and are
    analyzed as scopes of their own)."""
    stack: list[ast.AST] = list(getattr(fn, "body", []))
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child,
                (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
                 ast.Lambda),
            ):
                continue
            stack.append(child)


def _call_tail(node: ast.Call, aliases: dict[str, str]) -> str:
    dotted = dotted_name(node.func, aliases) or dotted_name(node.func) or ""
    return dotted.rsplit(".", 1)[-1]


class NoBlockingAsyncRule(Rule):
    """RPL007 — no blocking calls inside ``async def``."""

    id = "RPL007"
    title = "no blocking calls on the event loop"
    rationale = (
        "A synchronous sleep, queue read, file open or subprocess wait "
        "inside a coroutine stalls the *entire* event loop: every other "
        "job's slice, every stream, every client connection freezes for "
        "the duration.  Use the asyncio equivalent (asyncio.sleep, "
        "asyncio.Queue) or push the call off-loop via asyncio.to_thread "
        "/ run_in_executor."
    )

    BLOCKING = frozenset(
        {
            "time.sleep", "os.system", "os.wait", "os.waitpid",
            "subprocess.run", "subprocess.call", "subprocess.check_call",
            "subprocess.check_output", "subprocess.Popen",
            "socket.create_connection", "socket.socket",
            "urllib.request.urlopen", "input", "open",
        }
    )
    #: Receivers constructed from these classes make `.join()`/`.start()`
    #: blocking (spawn + pickling for Process.start, unbounded or bounded
    #: wall-clock block for join).
    PROCLIKE = frozenset({"Process", "Thread"})

    def check(self, module, config, index):
        for fn, _cls in iter_functions(module.tree):
            if not isinstance(fn, ast.AsyncFunctionDef):
                continue
            proclike = {
                tgt.id
                for node in _own_nodes(fn)
                if isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Call)
                and _call_tail(node.value, module.aliases) in self.PROCLIKE
                for tgt in node.targets
                if isinstance(tgt, ast.Name)
            }
            for node in _own_nodes(fn):
                if not isinstance(node, ast.Call):
                    continue
                dotted = dotted_name(node.func, module.aliases)
                if dotted in self.BLOCKING:
                    yield self.violation(
                        module.path, node,
                        f"blocking call {dotted}() inside 'async def "
                        f"{fn.name}' stalls the event loop; use the "
                        "asyncio equivalent or asyncio.to_thread",
                    )
                    continue
                if not isinstance(node.func, ast.Attribute):
                    continue
                attr = node.func.attr
                if attr == "get" and self._sync_queue_get(node):
                    yield self.violation(
                        module.path, node,
                        f"synchronous queue get() inside 'async def "
                        f"{fn.name}' blocks the event loop; wrap it in "
                        "asyncio.to_thread (or use an asyncio.Queue)",
                    )
                elif attr in ("join", "start") and isinstance(
                    node.func.value, ast.Name
                ) and node.func.value.id in proclike:
                    yield self.violation(
                        module.path, node,
                        f"blocking {node.func.value.id}.{attr}() inside "
                        f"'async def {fn.name}' stalls the event loop; "
                        "wrap it in asyncio.to_thread",
                    )

    @staticmethod
    def _sync_queue_get(node: ast.Call) -> bool:
        """The sync ``queue.Queue.get(block, timeout)`` signature —
        distinguishable from ``dict.get(key, default)`` (non-bool first
        arg) and ``asyncio.Queue.get()`` (no args)."""
        for kw in node.keywords:
            if kw.arg in ("timeout", "block"):
                return True
        return bool(
            node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, bool)
        )


class AwaitRmwRule(Rule):
    """RPL008 — no read-modify-write of shared state across an await."""

    id = "RPL008"
    title = "no read-modify-write of shared state across an await"
    rationale = (
        "Every await is a scheduling point: any other coroutine may run "
        "and mutate shared service state between a read and the write "
        "derived from it.  The classic lost-update — check self.jobs, "
        "await something, then write self.jobs based on the stale read — "
        "only bites under a hostile interleaving, which is exactly what "
        "the schedule fuzzer generates.  Hold an asyncio.Lock across the "
        "sequence, restructure to read-after-await, or annotate a "
        "reviewed exception with '# reprolint: atomic-section'."
    )

    def check(self, module, config, index):
        for fn, cls in iter_functions(module.tree):
            if not isinstance(fn, ast.AsyncFunctionDef):
                continue
            cls_name = cls.name if cls is not None else None
            flow = FunctionFlow(fn, module, index, cls_name)
            if flow.await_count() == 0:
                continue
            by_name: dict[str, list] = {}
            for ev in flow.attribute_events():
                if ev.name and index.shared_state(cls_name, ev.name):
                    by_name.setdefault(ev.name, []).append(ev)
            for name, evs in by_name.items():
                yield from self._check_name(module, fn, flow, name, evs)

    def _check_name(self, module, fn, flow, name, evs):
        reads = [e for e in evs if e.kind == "read" and not e.lock_depth]
        writes = [e for e in evs if e.kind == "write" and not e.lock_depth]
        for r in reads:
            for w in writes:
                if w.position > r.position and w.epoch > r.epoch:
                    if self._atomic(module, fn, r, w):
                        return
                    yield self.violation(
                        module.path, w.node,
                        f"read of shared {name!r} (line "
                        f"{r.node.lineno}) and this write span an "
                        "await without a lock; any interleaved "
                        "coroutine may have mutated it — hold a lock "
                        "or annotate '# reprolint: atomic-section'",
                    )
                    return
        # Cyclic form: a loop whose body crosses an await and both
        # reads and writes the name — iteration i's write races with
        # iteration i+1's read.
        for loop_id, has_await in flow.loop_awaits.items():
            if not has_await:
                continue
            lr = [e for e in reads if e.loop_id == loop_id]
            lw = [e for e in writes if e.loop_id == loop_id]
            if lr and lw and not self._atomic(module, fn, lr[0], lw[0]):
                yield self.violation(
                    module.path, lw[0].node,
                    f"loop body reads and writes shared {name!r} across "
                    "an await; state may shift between iterations — "
                    "hold a lock or annotate "
                    "'# reprolint: atomic-section'",
                )
                return

    @staticmethod
    def _atomic(module, fn, r, w) -> bool:
        lines = {fn.lineno, r.node.lineno, w.node.lineno}
        return bool(lines & module.atomic_lines)


class TaskRetentionRule(Rule):
    """RPL009 — create_task handles are retained and awaited."""

    id = "RPL009"
    title = "no fire-and-forget tasks"
    rationale = (
        "A dropped asyncio.Task handle is a task whose exception vanishes "
        "into 'Task exception was never retrieved' at garbage-collection "
        "time — or never; and a cancelled task that is not awaited may be "
        "destroyed while pending, skipping its finally blocks (the "
        "close() leak this rule was built to catch).  Store every handle, "
        "and after cancel(), await the task (expecting CancelledError) so "
        "cleanup actually runs."
    )

    CREATORS = frozenset({"create_task", "ensure_future"})

    def check(self, module, config, index):
        for fn, cls in iter_functions(module.tree):
            cls_name = cls.name if cls is not None else None
            yield from self._check_fn(module, index, fn, cls_name)

    def _check_fn(self, module, index, fn, cls_name):
        aliases = module.aliases
        # (a) bare-expression create_task: the handle is discarded on
        # the spot.
        for node in _own_nodes(fn):
            if isinstance(node, ast.Expr) and isinstance(
                node.value, ast.Call
            ) and _call_tail(node.value, aliases) in self.CREATORS:
                yield self.violation(
                    module.path, node,
                    "create_task() result discarded — a fire-and-forget "
                    "task whose exceptions vanish; store the handle and "
                    "await or cancel-and-await it",
                )
        # (b) locals bound to a new task but never read again.
        created: dict[str, ast.AST] = {}
        for node in _own_nodes(fn):
            if isinstance(node, ast.Assign) and isinstance(
                node.value, ast.Call
            ) and _call_tail(node.value, aliases) in self.CREATORS:
                if len(node.targets) == 1 and isinstance(
                    node.targets[0], ast.Name
                ):
                    created[node.targets[0].id] = node
        for name, node in created.items():
            loads = [
                n for n in _own_nodes(fn)
                if isinstance(n, ast.Name) and n.id == name
                and isinstance(n.ctx, ast.Load)
            ]
            if not loads:
                yield self.violation(
                    module.path, node,
                    f"task handle {name!r} is never awaited, stored or "
                    "passed on; a dropped handle is a fire-and-forget "
                    "task",
                )
        # (c) cancel() without a subsequent await of the same handle.
        if not isinstance(fn, ast.AsyncFunctionDef):
            return
        flow = FunctionFlow(fn, module, index, cls_name)
        awaited = [
            ev for ev in flow.events if ev.kind == "await_name" and ev.name
        ]
        tasklike = set(created) | {ev.name for ev in awaited} | {
            name
            for node in _own_nodes(fn)
            if isinstance(node, (ast.For, ast.AsyncFor))
            and isinstance(node.target, ast.Name)
            for name in [node.target.id]
            if self._iterates_tasks(node.iter)
        }
        for ev in flow.events:
            if ev.kind != "call" or not ev.name or not ev.name.endswith(
                ".cancel"
            ):
                continue
            recv = ev.name[: -len(".cancel")]
            if recv not in tasklike and not index.is_task_attr(
                cls_name, recv
            ):
                continue
            if any(
                a.name == recv and a.position > ev.position for a in awaited
            ):
                continue
            yield self.violation(
                module.path, ev.node,
                f"{recv}.cancel() without awaiting the cancelled task; "
                "it may be destroyed while pending and its finally "
                "blocks never run — 'await' it and absorb "
                "CancelledError",
            )

    @staticmethod
    def _iterates_tasks(iter_node: ast.expr) -> bool:
        for sub in ast.walk(iter_node):
            if isinstance(sub, ast.Attribute) and "task" in sub.attr.lower():
                return True
            if isinstance(sub, ast.Name) and "task" in sub.id.lower():
                return True
        return False


class DeterminismTaintRule(Rule):
    """RPL010 — nondeterministic values must not reach persisted state."""

    id = "RPL010"
    title = "determinism taint must not reach results or the wire"
    rationale = (
        "The service's contract is that a job with seed S is bit-identical "
        "to solve(rng=S).  Wall-clock reads, os.urandom, id() and "
        "unordered set iteration are all fine for *bookkeeping* (latency "
        "metrics, log lines) but the moment one flows into a wire type, a "
        "JobRecord result or a persisted run file, reproducibility is "
        "gone and no test that compares two runs can tell you why."
    )

    PERSIST_TAILS = frozenset(
        {"run_to_json", "save_jobs", "save_run", "save_trace", "write_trace"}
    )
    SINK_ATTRS = frozenset({"result"})

    def check(self, module, config, index):
        wire_names = index.wire_type_names()
        for classes in config.wire_types.values():
            wire_names |= set(classes)
        for fn, _cls in iter_functions(module.tree):
            env = TaintEnv(module.aliases)
            yield from self._walk(fn.body, env, wire_names, module)

    def _walk(self, stmts, env, wire_names, module):
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue
            for value in self._stmt_exprs(stmt):
                yield from self._check_sinks(value, env, wire_names, module)
            if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                value = stmt.value
                if value is None:
                    continue
                tainted = env.expr_tainted(value) or env.is_unordered(value)
                targets = (
                    stmt.targets if isinstance(stmt, ast.Assign)
                    else [stmt.target]
                )
                if isinstance(stmt, ast.AugAssign):
                    tainted = tainted or env.expr_tainted(stmt.target)
                for target in targets:
                    if tainted and isinstance(target, ast.Attribute) and \
                            target.attr in self.SINK_ATTRS:
                        name = dotted_name(target) or target.attr
                        yield self.violation(
                            module.path, stmt,
                            f"nondeterministic value assigned to {name!r} "
                            "(a persisted result field); results must be "
                            "pure functions of the instance and seed",
                        )
                env.assign(targets, tainted)
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                if env.is_unordered(stmt.iter):
                    env.assign([stmt.target], True)
                yield from self._walk(stmt.body, env, wire_names, module)
                yield from self._walk(stmt.orelse, env, wire_names, module)
            elif isinstance(stmt, ast.While):
                yield from self._walk(stmt.body, env, wire_names, module)
                yield from self._walk(stmt.orelse, env, wire_names, module)
            elif isinstance(stmt, ast.If):
                yield from self._walk(stmt.body, env, wire_names, module)
                yield from self._walk(stmt.orelse, env, wire_names, module)
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                yield from self._walk(stmt.body, env, wire_names, module)
            elif isinstance(stmt, ast.Try):
                yield from self._walk(stmt.body, env, wire_names, module)
                for handler in stmt.handlers:
                    yield from self._walk(
                        handler.body, env, wire_names, module)
                yield from self._walk(stmt.orelse, env, wire_names, module)
                yield from self._walk(
                    stmt.finalbody, env, wire_names, module)

    @staticmethod
    def _stmt_exprs(stmt):
        """Expressions evaluated by a simple statement (for sink scan)."""
        if isinstance(stmt, ast.Expr):
            return [stmt.value]
        if isinstance(stmt, (ast.Assign, ast.AugAssign)) or (
            isinstance(stmt, ast.AnnAssign) and stmt.value is not None
        ):
            return [stmt.value]
        if isinstance(stmt, ast.Return) and stmt.value is not None:
            return [stmt.value]
        return []

    def _check_sinks(self, expr, env, wire_names, module):
        for node in ast.walk(expr):
            if not isinstance(node, ast.Call):
                continue
            tail = _call_tail(node, module.aliases)
            sink = None
            if tail in wire_names:
                sink = f"wire type {tail}"
            elif tail in self.PERSIST_TAILS:
                sink = f"persistence call {tail}()"
            elif tail == "append" and isinstance(node.func, ast.Attribute) \
                    and isinstance(node.func.value, ast.Attribute) \
                    and node.func.value.attr == "incumbents":
                sink = "the incumbents record"
            if sink is None:
                continue
            args = list(node.args) + [kw.value for kw in node.keywords]
            for arg in args:
                if env.expr_tainted(arg) or env.is_unordered(arg):
                    yield self.violation(
                        module.path, node,
                        f"nondeterministic value flows into {sink}; "
                        "wall-clock/urandom/id()/set-order data must "
                        "stay out of persisted state (sort or derive "
                        "from the seeded RNG instead)",
                    )
                    break


class CancelSwallowRule(Rule):
    """RPL011 — async except handlers must not swallow CancelledError."""

    id = "RPL011"
    title = "never swallow CancelledError"
    rationale = (
        "asyncio cancellation is cooperative: CancelledError must "
        "propagate for cancel()/timeout/shutdown to terminate a "
        "coroutine.  A handler that catches it (explicitly, bare, or via "
        "BaseException) and does not re-raise produces unkillable tasks "
        "— close() hangs forever on them.  'except Exception' is fine "
        "(CancelledError derives from BaseException since 3.8); the one "
        "sanctioned swallow is the reap pattern: awaiting a task you "
        "just cancelled yourself."
    )

    def check(self, module, config, index):
        for fn, _cls in iter_functions(module.tree):
            if not isinstance(fn, ast.AsyncFunctionDef):
                continue
            cancels = [
                (node.lineno, dotted_name(node.func.value))
                for node in _own_nodes(fn)
                if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "cancel"
            ]
            for node in _own_nodes(fn):
                if isinstance(node, ast.Try):
                    for handler in node.handlers:
                        if not self._catches_cancelled(handler.type):
                            continue
                        if self._reraises(handler.body):
                            continue
                        if self._is_reap(node, cancels):
                            continue
                        yield self.violation(
                            module.path, handler,
                            "handler swallows asyncio.CancelledError — "
                            "the task becomes uncancellable; re-raise "
                            "it (cleanup, then 'raise'), or narrow the "
                            "except to the exceptions you mean",
                        )
                elif isinstance(node, (ast.With, ast.AsyncWith)):
                    for item in node.items:
                        if self._suppresses_cancelled(item.context_expr):
                            yield self.violation(
                                module.path, item.context_expr,
                                "contextlib.suppress over "
                                "CancelledError makes the task "
                                "uncancellable; re-raise instead",
                            )

    def _catches_cancelled(self, type_node) -> bool:
        if type_node is None:
            return True  # bare except catches everything
        if isinstance(type_node, (ast.Name, ast.Attribute)):
            tail = getattr(type_node, "id", None) or getattr(
                type_node, "attr", None)
            return tail in ("CancelledError", "BaseException")
        if isinstance(type_node, ast.Tuple):
            return any(self._catches_cancelled(e) for e in type_node.elts)
        return False

    @staticmethod
    def _reraises(body) -> bool:
        for stmt in body:
            for sub in ast.walk(stmt):
                if isinstance(sub, ast.Raise):
                    return True
        return False

    @staticmethod
    def _is_reap(try_node: ast.Try, cancels) -> bool:
        """The sanctioned swallow: every await in the try body is a bare
        await of a handle that was ``.cancel()``ed earlier in the
        function — reaping your own cancellation."""
        awaited: list[str] = []
        for stmt in try_node.body:
            for sub in ast.walk(stmt):
                if not isinstance(sub, ast.Await):
                    continue
                value = sub.value
                if isinstance(value, ast.Call):
                    tail = (dotted_name(value.func) or "").rsplit(
                        ".", 1)[-1]
                    if tail in ("wait_for", "shield") and value.args:
                        value = value.args[0]
                name = dotted_name(value)
                if name is None:
                    return False  # awaiting something unreapable
                awaited.append(name)
        if not awaited:
            return False
        cancelled_before = {
            recv for lineno, recv in cancels
            if recv is not None and lineno < try_node.lineno
        }
        return all(name in cancelled_before for name in awaited)

    def _suppresses_cancelled(self, expr) -> bool:
        if not isinstance(expr, ast.Call):
            return False
        tail = (dotted_name(expr.func) or "").rsplit(".", 1)[-1]
        if tail != "suppress":
            return False
        return any(
            (dotted_name(arg) or "").rsplit(".", 1)[-1] == "CancelledError"
            for arg in expr.args
        )


ALL_RULES: tuple[Rule, ...] = (
    NoGlobalRngRule(),
    NoWallClockRule(),
    NoRawDistanceRule(),
    WireTypeRule(),
    QueueTimeoutRule(),
    NoSilentExceptRule(),
    NoBlockingAsyncRule(),
    AwaitRmwRule(),
    TaskRetentionRule(),
    DeterminismTaintRule(),
    CancelSwallowRule(),
)


def rule_ids() -> tuple[str, ...]:
    return tuple(rule.id for rule in ALL_RULES)
