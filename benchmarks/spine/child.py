"""The server child: the shipped ``python -m repro serve`` as a subprocess.

It builds its own copy of the data exactly as a deployment would, pinned to
the last CPU the benchmark may use (the benchmark pins itself to the first).
This module imports nothing from ``repro`` so the child can be spawned before
the benchmark pays its own ``import repro``, and the two start-ups overlap.

No process outlives a run: the benchmark adopts every orphaned descendant
(``adopt_orphans``) and ``stop_descendants`` ends and reaps whatever is left on
every path out.  That covers what the program starts behind the harness's
back, such as ``multiprocessing``'s resource tracker of the traced run's
process pool, which otherwise exits only *after* the process that started it.
"""

from __future__ import annotations

import ctypes
import os
import select
import signal
import subprocess
import sys
import time
from typing import List, Optional, Tuple

import paths
from profiles import Profile


_PR_SET_PDEATHSIG = 1
_PR_SET_CHILD_SUBREAPER = 36


def _prctl(option: int, value: int) -> bool:
    try:
        return ctypes.CDLL(None, use_errno=True).prctl(option, value, 0, 0, 0) == 0
    except (OSError, AttributeError):  # not Linux
        return False


def adopt_orphans() -> bool:
    """Make this process the parent of every descendant whose own parent ends."""
    return _prctl(_PR_SET_CHILD_SUBREAPER, 1)


def _die_with_parent() -> None:
    """In a new child: be killed if the benchmark dies without cleaning up."""
    _prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)


def _children() -> List[int]:
    """Pids whose parent is this process, zombies included (Linux ``/proc``)."""
    me, found = os.getpid(), []
    try:
        entries = os.listdir("/proc")
    except OSError:
        return found
    for entry in entries:
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as stat:
                fields = stat.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue  # ended while we looked
        if int(fields[1]) == me:
            found.append(int(entry))
    return found


def stop_descendants(grace: float = 5.0) -> int:
    """End and reap every process this one started or adopted; returns how many.

    The resource tracker is asked to stop the way ``multiprocessing`` itself
    does at shutdown; anything else gets SIGTERM, and SIGKILL after ``grace``
    seconds.  Killing a child hands its own children to this process (see
    ``adopt_orphans``), so the sweep repeats until nothing is left.
    """
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    stop = getattr(getattr(tracker, "_resource_tracker", None), "_stop", None)
    if stop is not None:
        try:
            stop()
        except (OSError, ValueError):
            pass
    reaped = 0
    deadline = time.monotonic() + grace
    signalled: set = set()
    while True:
        pids = _children()
        if not pids or time.monotonic() >= deadline + grace:
            return reaped
        overdue = time.monotonic() >= deadline
        for pid in pids:
            try:
                if overdue:
                    os.kill(pid, signal.SIGKILL)
                elif pid not in signalled:
                    os.kill(pid, signal.SIGTERM)
                    signalled.add(pid)
            except ProcessLookupError:
                pass
            try:
                if os.waitpid(pid, os.WNOHANG)[0] == pid:
                    reaped += 1
            except ChildProcessError:
                pass  # a Popen object reaped it first
        time.sleep(0.01)


def cpu_pair() -> Tuple[Optional[int], Optional[int]]:
    """``(benchmark cpu, server cpu)``, or ``(None, None)`` where unsupported."""
    if not hasattr(os, "sched_getaffinity"):
        return None, None
    cpus = sorted(os.sched_getaffinity(0))
    return cpus[0], cpus[-1]


class ServerChild:
    """``python -m repro serve`` on an ephemeral port, as a child process."""

    def __init__(self, profile: Profile, cpu: Optional[int] = None) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(paths.SRC)
        self.spawned = time.perf_counter()
        self.ready_after: Optional[float] = None
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--workload", profile.family,
                "--scale-factor", repr(profile.scale_factor),
                "--overlap-scale", repr(profile.overlap_scale),
                "--seed", str(profile.data_seed),
                "--port", "0",
            ],
            stdout=subprocess.PIPE,
            env=env,
            cwd=str(paths.REPO_ROOT),
            text=True,
            preexec_fn=_die_with_parent,
        )
        if cpu is not None:
            os.sched_setaffinity(self.process.pid, {cpu})

    def wait_ready(self, timeout: float = 150.0) -> int:
        """Block until the child prints the port it bound."""
        stdout = self.process.stdout
        assert stdout is not None
        ready, _, _ = select.select([stdout], [], [], timeout)
        line = stdout.readline() if ready else ""
        if "http://" not in line:
            self.stop()
            raise RuntimeError(f"server child did not start (printed {line!r})")
        port = int(line.rsplit(":", 1)[1])
        self.ready_after = time.perf_counter() - self.spawned
        return port

    def peak_rss_mb(self) -> float:
        """The child's resident-set high-water mark (MiB), read while it lives."""
        with open(f"/proc/{self.process.pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM line in /proc status")

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()


__all__ = ["ServerChild", "adopt_orphans", "cpu_pair", "stop_descendants"]
