"""Tests that a benchmark run leaves no process behind.

    python3 -m pytest perfbench/test_children.py

Each case runs in a fresh interpreter, because :func:`stop_all` reaps
every child of the process that calls it.
"""

from __future__ import annotations

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent

pytestmark = pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                                reason="needs /proc")


def _run(body: str) -> dict:
    script = textwrap.dedent("""
        import json, subprocess, sys
        sys.path.insert(0, {root!r})
        from perfbench.children import _descendants, adopt_orphans, stop_all
        adopt_orphans()
    """).format(root=str(_ROOT)) + textwrap.dedent(body) + textwrap.dedent("""
        stop_all(grace=0.5)
        print(json.dumps({"left": _descendants(), "pids": pids}))
    """)
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def _gone(pid: int) -> bool:
    return not Path(f"/proc/{pid}").exists()


def test_orphaned_grandchild_is_killed_and_reaped():
    # The shell exits at once; its background sleep outlives it.
    out = _run("""
        sh = subprocess.run(["sh", "-c", "sleep 60 >/dev/null 2>&1 & echo $!"],
                            capture_output=True, text=True)
        pids = [int(sh.stdout)]
    """)
    assert out["left"] == []
    assert all(_gone(pid) for pid in out["pids"])


def test_live_child_and_its_child_are_stopped():
    out = _run("""
        proc = subprocess.Popen(["sh", "-c", "sleep 60 & sleep 60"])
        pids = [proc.pid]
    """)
    assert out["left"] == []
    assert all(_gone(pid) for pid in out["pids"])


def test_pool_and_resource_tracker_end():
    out = _run("""
        import multiprocessing as mp
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import resource_tracker

        if __name__ == "__main__":
            ctx = mp.get_context("spawn")
            with ProcessPoolExecutor(1, mp_context=ctx) as pool:
                assert pool.submit(abs, -3).result() == 3
            pids = [resource_tracker._resource_tracker._pid]
    """)
    assert out["left"] == []
    assert all(_gone(pid) for pid in out["pids"])
