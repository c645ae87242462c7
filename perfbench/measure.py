"""Spawn a command, time it from spawn to exit, and summarise samples."""

from __future__ import annotations

import os
import pathlib
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Sequence


@dataclass
class Sample:
    """One spawned command: wall time, peak RSS, output, line arrival times."""

    wall_s: float
    peak_rss_mb: float
    returncode: int
    stdout: bytes
    #: perf_counter() at which each stdout line was read from the pipe
    line_times: List[float] = field(default_factory=list)


def checkout_env(root: pathlib.Path, *extra: pathlib.Path) -> Dict[str, str]:
    """Environment that runs the checkout's ``src`` without installing it."""
    env = dict(os.environ)
    paths = [str(root / "src"), *(str(p) for p in extra)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def spawn(
    argv: Sequence[str], env: Dict[str, str], cwd: pathlib.Path,
    stderr_path: pathlib.Path,
) -> Sample:
    """Run ``argv`` to completion, reading stdout line by line.

    Peak RSS is :class:`TreePeakRss`'s peak sum over the command's live
    process tree, or ``wait4``'s largest single resident set if larger.
    """
    with open(stderr_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(
            list(argv), stdout=subprocess.PIPE, stderr=err, env=env, cwd=cwd
        )
        rss = TreePeakRss(proc.pid)
        rss.start()
        try:
            lines, times = [], []
            for line in proc.stdout:
                times.append(perf_counter())
                lines.append(line)
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            rss.stop()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(
        wall_s=wall,
        peak_rss_mb=max(rss.peak_kb, usage.ru_maxrss) / 1024.0,
        returncode=proc.returncode,
        stdout=b"".join(lines),
        line_times=times,
    )


class TreePeakRss(threading.Thread):
    """Peak resident set of a process tree, summed over its live processes.

    Every :data:`INTERVAL` seconds the thread finds the root's live
    descendants in ``/proc`` and sums each one's own peak so far
    (``VmHWM``); :attr:`peak_kb` is the largest such sum.  So a command that
    runs twice the pool workers at once reads about twice the memory, while
    pools that replace one another are not added up.  Pages that forked
    workers share with their parent count once per process, as RSS counts
    them.  A process that lives less than one interval may be missed, and
    so may growth in a process's last interval.
    """

    INTERVAL = 0.1

    def __init__(self, root: int) -> None:
        super().__init__(daemon=True)
        self.root = root
        self.peak_kb = 0
        self._done = threading.Event()

    def run(self) -> None:
        while not self._done.wait(self.INTERVAL):
            self.sample()

    def stop(self) -> None:
        self._done.set()
        self.join()

    def sample(self) -> None:
        children = {}
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                with open(f"/proc/{entry}/stat", "rb") as f:
                    ppid = int(f.read().rsplit(b")", 1)[1].split()[1])
            except OSError:
                continue
            children.setdefault(ppid, []).append(int(entry))
        total, frontier = 0, [self.root]
        while frontier:
            pid = frontier.pop()
            frontier += children.get(pid, [])
            total += _vm_hwm_kb(pid)
        self.peak_kb = max(self.peak_kb, total)


def _vm_hwm_kb(pid: int) -> int:
    """``VmHWM`` of ``pid`` in kB (0 once it has exited)."""
    try:
        with open(f"/proc/{pid}/status", "rb") as f:
            for line in f:
                if line.startswith(b"VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


#: A fixed job that uses nothing of the program under test: interpreter
#: start, the numpy import, and some list and array work.
PROBE = (
    "import numpy\n"
    "rows = [list(range(i % 50)) for i in range(20000)]\n"
    "a = numpy.arange(1 << 20)\n"
    "for _ in range(10):\n"
    "    a = (a * 3 + 1) % 1000003\n"
)

#: Median :data:`PROBE` spawn-to-exit seconds on the reference host
#: (2-vCPU x86-64 VM, CPython 3.11.7, numpy 2.4).
REFERENCE_PROBE_S = 0.3


def probe(env: Dict[str, str], cwd: pathlib.Path, stderr_path: pathlib.Path) -> float:
    """Spawn-to-exit seconds of :data:`PROBE`: the host's speed right now.

    The host's speed drifts by tens of percent over minutes, for every
    process alike, and start-up-heavy work such as this probe and the
    program's own commands feel it together.  A run scales its timed
    metrics by ``median(probe) / REFERENCE_PROBE_S`` so that runs on a
    slow and on a fast spell report the same work alike.
    """
    return spawn([sys.executable, "-c", PROBE], env, cwd, stderr_path).wall_s


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def quartiles(values: Sequence[float]):
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0 < q < 100) of ``values``."""
    if len(values) < 2:
        return float(values[0])
    return statistics.quantiles(values, n=100)[int(q) - 1]
