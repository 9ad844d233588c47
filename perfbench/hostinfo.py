"""Host signature and resource accounting of the system under test."""

from __future__ import annotations

import os
import platform
import re
import resource
import select
import statistics
import subprocess
import sys
import time

import numpy as np

#: What one calibration pass takes on the reference host (the 2-core
#: development container in its fast state). Scaled timings are
#: "seconds on the reference host".
CALIBRATION_REF_S = 0.010
#: CPU seconds one memory pass (:func:`memory_pass_cpu_s`) takes on the
#: reference host; scaled ``serve`` timings are "seconds on the
#: reference host" by this measure.
MEMORY_PASS_REF_S = 0.001
#: Seconds between two passes of the :class:`SpeedProbe`.
PROBE_INTERVAL_S = 0.1
_DENSE = re.compile(r"^(.*?)(\d+)$")
_WORDS = np.arange(1 << 18, dtype=np.uint64)


def visible_cores() -> int:
    """CPUs this process may run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def signature() -> dict:
    """What must match before two records may be compared."""
    return {
        "visible_cores": visible_cores(),
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "numpy": np.__version__,
        "machine": platform.machine(),
        "system": platform.system(),
    }


def cpu_seconds() -> tuple:
    """``(self, children)`` user + system CPU seconds: this process, and
    every child it has reaped.

    Forked sweep workers are joined before ``parallel_sweep`` returns,
    so a difference of two readings around a sweep counts their CPU.
    """
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (own.ru_utime + own.ru_stime, kids.ru_utime + kids.ru_stime)


def peak_rss_mb() -> float:
    """High-water RSS of the largest process: this one or any reaped
    child (``ru_maxrss`` is in KiB on Linux)."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
               ) / 1024.0


def proc_tree_cpu_seconds(pid: int) -> float:
    """CPU seconds so far of a live process and its live children, read
    from ``/proc`` (utime + stime of each)."""
    ticks = os.sysconf("SC_CLK_TCK")
    total = 0.0
    for member in proc_tree(pid):
        try:
            with open(f"/proc/{member}/stat", encoding="ascii") as stream:
                fields = stream.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        total += (int(fields[11]) + int(fields[12])) / ticks
    return total


def proc_tree_hwm_mb(pid: int) -> float:
    """Largest ``VmHWM`` (peak RSS) among a live process and its children."""
    peak = 0
    for member in proc_tree(pid):
        try:
            with open(f"/proc/{member}/status", encoding="ascii") as stream:
                for line in stream:
                    if line.startswith("VmHWM:"):
                        peak = max(peak, int(line.split()[1]))
        except OSError:
            continue
    return peak / 1024.0


def proc_tree(pid: int) -> list:
    """``pid`` and its descendants, from ``/proc/<pid>/task/*/children``."""
    out, frontier = [], [pid]
    while frontier:
        current = frontier.pop()
        out.append(current)
        try:
            tasks = os.listdir(f"/proc/{current}/task")
        except OSError:
            continue
        for task in tasks:
            try:
                with open(f"/proc/{current}/task/{task}/children",
                          encoding="ascii") as stream:
                    frontier.extend(int(c) for c in stream.read().split())
            except OSError:
                continue
    return out


class _Row:
    __slots__ = ("age", "gender")

    def __init__(self, age: int, gender: str) -> None:
        self.age = age
        self.gender = gender


def _calibration_pass() -> float:
    """One fixed pass of the kind of work the program does most: id
    formatting and parsing, small objects, dict counting, a numpy pass."""
    started = time.perf_counter()
    counts: dict = {}
    for i in range(4000):
        user_id = f"cal-user-{i:06d}"
        match = _DENSE.match(user_id)
        row = _Row(int(match.group(2)) % 80, user_id[-1])
        key = f"{row.age // 10}|{row.gender}"
        counts[key] = counts.get(key, 0) + 1
    words = _WORDS ^ (_WORDS >> np.uint64(7))
    words &= _WORDS
    return time.perf_counter() - started


def calibrate(passes: int = 5) -> float:
    """Median seconds of ``passes`` calibration passes: how fast this
    host runs right now. The development host's speed drifts by up to
    half over spans of seconds to minutes; dividing a timing by a
    calibration taken around it removes most of that drift."""
    return statistics.median(_calibration_pass() for _ in range(passes))


def speed_scale(before: float, after: float) -> float:
    """Factor that turns seconds measured between two calibrations into
    reference-host seconds."""
    return CALIBRATION_REF_S / ((before + after) / 2.0)


def memory_pass_cpu_s() -> float:
    """CPU seconds of one fixed pass over 2 MiB arrays: how fast this
    host's cores and memory run right now, excluding time spent waiting
    for a core."""
    started = time.thread_time()
    words = _WORDS ^ (_WORDS >> np.uint64(7))
    words &= _WORDS
    return time.thread_time() - started


class SpeedProbe:
    """A child process that times :func:`memory_pass_cpu_s` every
    :data:`PROBE_INTERVAL_S` while the system under test runs, so that
    a phase can be scaled by the host's speed *during* that phase (about
    1% of one core)."""

    def __init__(self) -> None:
        self.process = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--probe"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE)

    def stop(self) -> list:
        """End the child; returns its ``(perf_counter, cpu_s)`` passes."""
        out, _ = self.process.communicate(b"", timeout=30.0)
        return [tuple(map(float, line.split())) for line in
                out.decode("ascii").splitlines()]

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()


def phase_speed(passes: list, start: float, end: float) -> float:
    """Median pass CPU seconds of the passes that began in
    ``[start, end]`` (``perf_counter`` is system-wide on Linux); one
    pass measured now when none did."""
    inside = [cpu for at, cpu in passes if start <= at <= end]
    return statistics.median(inside) if inside else memory_pass_cpu_s()


def _probe_main() -> None:
    """Pass after pass until standard input closes, then print them."""
    passes = []
    while not select.select([sys.stdin], [], [], PROBE_INTERVAL_S)[0]:
        passes.append((time.perf_counter(), memory_pass_cpu_s()))
    for at, cpu in passes:
        print(f"{at!r} {cpu!r}")


if __name__ == "__main__" and sys.argv[1:] == ["--probe"]:
    _probe_main()
