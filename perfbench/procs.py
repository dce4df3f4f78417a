"""Child-process helpers: ready-line handshakes and /proc readings."""

from __future__ import annotations

import os
import select
import subprocess
import time
from contextlib import contextmanager
from typing import Callable, Iterator


def vmhwm_mb(pid: str = "self") -> float:
    """Peak resident set of a process, from ``/proc/<pid>/status``."""
    with open(f"/proc/{pid}/status", encoding="ascii") as stream:
        for line in stream:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def cpu_seconds(pid: int) -> float:
    """User + system CPU time a process has used so far."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as stream:
        fields = stream.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


@contextmanager
def sharing_one_cpu(pid: int) -> Iterator[int]:
    """Run this process and ``pid`` on one CPU (the lowest this process
    may use) until the block ends; this process then gets its CPUs back.

    On a host whose vCPUs are hyperthreads of one core, or share it with
    other tenants, two busy processes on two vCPUs slow each other by a
    varying amount; on one CPU they take turns at a steady pace.
    """
    allowed = os.sched_getaffinity(0)
    cpu = min(allowed)
    os.sched_setaffinity(pid, {cpu})
    os.sched_setaffinity(0, {cpu})
    try:
        yield cpu
    finally:
        os.sched_setaffinity(0, allowed)


def read_lines_until(
    proc: subprocess.Popen, done: Callable[[str], bool], timeout: float
) -> list[str]:
    """Lines from ``proc``'s unbuffered stdout up to the first that is ``done``.

    Raises ``RuntimeError`` when the process exits or ``timeout`` passes
    first.  The pipe must be binary and unbuffered (``bufsize=0``):
    ``select`` sees only what the kernel holds, not a reader's buffer.
    """
    label = " ".join(os.path.basename(str(arg)) for arg in proc.args[1:3])
    deadline = time.monotonic() + timeout
    fd = proc.stdout.fileno()
    pending = b""
    lines = []
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
            raise RuntimeError(f"{label} did not report in {timeout:.0f} s")
        chunk = os.read(fd, 65536)
        if not chunk:
            raise RuntimeError(f"{label} exited with status {proc.wait()}")
        *complete, pending = (pending + chunk).split(b"\n")
        for raw in complete:
            line = raw.decode()
            lines.append(line)
            if done(line):
                return lines
