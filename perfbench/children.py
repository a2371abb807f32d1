"""Every process a benchmark run starts ends, and is reaped, before it exits.

Worker pools and the job server start helpers of their own (the
``multiprocessing`` resource tracker, job workers) that may outlive
their parent.  :func:`adopt_orphans` makes this process the reaper of
such orphans (Linux ``PR_SET_CHILD_SUBREAPER``), so :func:`stop_all`
can wait for every one of them, and kill those that do not end.
"""

from __future__ import annotations

import ctypes
import gc
import multiprocessing
import os
import signal
import time

__all__ = ["adopt_orphans", "stop_all"]

_PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Reparent orphaned descendants to this process instead of init."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # not Linux: stop_all still reaps direct children


def _descendants() -> list:
    """Pids of every live process below this one, from ``/proc``."""
    parent = {}
    try:
        entries = os.listdir("/proc")
    except OSError:
        return []
    for entry in entries:
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as f:
                stat = f.read()
        except OSError:
            continue
        # "pid (comm) state ppid ...": comm may hold spaces and parens.
        parent[int(entry)] = int(stat[stat.rindex(b")") + 2:].split()[1])
    found, frontier = [], [os.getpid()]
    while frontier:
        pid = frontier.pop()
        kids = [child for child, p in parent.items() if p == pid]
        found += kids
        frontier += kids
    return found


def _reap() -> bool:
    """Reap every exited child; True when no child is left."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return True
        if pid == 0:
            return False


def _stop_resource_tracker() -> None:
    """End this process's resource tracker now, not after it exits."""
    from multiprocessing import resource_tracker

    gc.collect()  # release pool semaphores so none is reported leaked
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def stop_all(grace: float = 15.0) -> None:
    """Stop and reap every process started below this one.

    Children get ``grace`` seconds to end on their own, then every
    descendant still alive is killed and reaped.
    """
    for proc in multiprocessing.active_children():
        proc.terminate()
        proc.join(grace)
    _stop_resource_tracker()
    deadline = time.monotonic() + grace
    killed = False
    while not _reap():
        if time.monotonic() >= deadline:
            if killed:
                return
            for pid in _descendants():
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            killed = True
            deadline = time.monotonic() + grace
        time.sleep(0.02)
