"""Call ledger: call counts and self time of wrapped program functions.

The benchmark measures layers from the outside.  A :class:`Ledger`
replaces chosen functions and methods of the program with timing
wrappers for the length of a ``with`` block and restores the originals
on exit; the program itself is not changed.

Self time is a call's duration minus the time covered by wrapped calls
nested inside it (directly or through unwrapped frames).  Durations are
integer nanoseconds from :func:`time.perf_counter_ns`, so a child can
never cover more than its parent and no self time is negative.  The
self times of all calls therefore sum to at most the wall time of the
outermost calls.  Recursion is allowed: an inner activation of a key is
a child of the outer one, and ``wall_ns`` counts only the outermost
activation of each key.

Only synchronous calls on the calling thread are folded correctly;
calls that run in worker processes are invisible to the parent.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional

__all__ = ["Entry", "Ledger"]

#: The program's top-level package; only its modules are patched.
_PACKAGE = "repro"


@dataclass
class Entry:
    """Totals for one ledger key."""

    calls: int = 0
    #: Duration minus wrapped children, summed over calls.
    self_ns: int = 0
    #: Duration of outermost activations only (no double count).
    wall_ns: int = 0

    @property
    def wall_s(self) -> float:
        return self.wall_ns / 1e9


class Ledger:
    """Wraps functions for the duration of a ``with`` block.

    ``before(args, kwargs)`` runs ahead of each wrapped call and its
    return value is handed to ``after(token, args, kwargs, result)``,
    which runs once the call returned; hooks feed :attr:`counts`.
    """

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        self.entries: dict[str, Entry] = {}
        #: Free-form counters filled by hooks (ops, accepted kicks...).
        self.counts: dict[str, float] = {}
        self._stack: list[list] = []  # [child_ns] per open call
        self._depth: dict[str, int] = {}
        self._patches: list[tuple] = []

    # -- folding ---------------------------------------------------------------

    def entry(self, key: str) -> Entry:
        entry = self.entries.get(key)
        if entry is None:
            entry = self.entries[key] = Entry()
        return entry

    def add(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def wrap(self, key: str, fn: Callable, before: Optional[Callable] = None,
             after: Optional[Callable] = None) -> Callable:
        """Return ``fn`` wrapped so each call is folded under ``key``."""
        stack = self._stack
        depth = self._depth
        clock = self.clock
        entry = self.entry(key)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = before(args, kwargs) if before is not None else None
            frame = [0]
            stack.append(frame)
            level = depth.get(key, 0)
            depth[key] = level + 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                depth[key] = level
                entry.calls += 1
                entry.self_ns += dur - frame[0]
                if level == 0:
                    entry.wall_ns += dur
                if stack:
                    stack[-1][0] += dur
            if after is not None:
                after(token, args, kwargs, result)
            return result

        return wrapper

    # -- patching --------------------------------------------------------------

    def _set(self, owner, name: str, value, original) -> None:
        if isinstance(owner, dict):
            owner[name] = value
        else:
            setattr(owner, name, value)
        self._patches.append((owner, name, original))

    def patch_method(self, cls: type, name: str, key: str, **hooks) -> None:
        """Wrap ``cls.name`` (a plain function in the class body)."""
        original = cls.__dict__[name]
        self._set(cls, name, self.wrap(key, original, **hooks), original)

    def patch_item(self, table: dict, name: str, key: str, **hooks) -> None:
        """Wrap a registry entry ``table[name]``."""
        original = table[name]
        self._set(table, name, self.wrap(key, original, **hooks), original)

    def patch_function(self, fn: Callable, key: str, **hooks) -> None:
        """Wrap ``fn`` under every module-level name bound to it.

        A function imported with ``from m import f`` is bound in each
        importing module; every binding inside the ``repro`` package is
        replaced by one wrapper.
        """
        wrapped = self.wrap(key, fn, **hooks)
        patched = 0
        for mod_name, module in list(sys.modules.items()):
            if module is None or mod_name.partition(".")[0] != _PACKAGE:
                continue
            for name, value in list(vars(module).items()):
                if value is fn:
                    self._set(module, name, wrapped, fn)
                    patched += 1
        if patched == 0:
            raise LookupError(f"{fn!r} is not bound in any {_PACKAGE} module")

    def restore(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[name] = original
            else:
                setattr(owner, name, original)

    def __enter__(self) -> "Ledger":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- reading -----------------------------------------------------------------

    def self_s(self, *keys: str) -> float:
        return sum(self.entry(k).self_ns for k in keys) / 1e9

    def calls(self, *keys: str) -> int:
        return sum(self.entry(k).calls for k in keys)
