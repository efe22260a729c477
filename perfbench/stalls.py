"""Host stalls: spans in which the host ran something else on one of our CPUs.

On a shared host the hypervisor takes a virtual CPU away now and then, for
milliseconds at a time.  A request in flight then waits out the stall, so
the tail of a latency distribution measures how busy the neighbours were,
not the program: on a 2-CPU VM the same commit's ``surface`` p99 moved by
a quarter between two sets of ten runs while its median held.

:class:`StallWatch` runs one watcher process per CPU, pinned to it, at
real-time priority (``SCHED_FIFO``).  A watcher sleeps :data:`SLEEP_S` in
a loop and records every wake-up that came :data:`LATE_S` or more late.
Real-time priority preempts every ordinary process at once, so a late
wake-up means the CPU was not ours to give -- a hypervisor stall, an
interrupt storm, a higher-priority task -- never load from the benchmark
or the program it measures, which run at ordinary priority.  A request
whose span overlaps a stall on any CPU is left out of latency percentiles;
the share left out is in the report.

Where real-time priority is refused, nothing is left out and the report
says why.  Run as a script, this file is one watcher:
``python3 stalls.py <cpu> <output file>``.
"""

from __future__ import annotations

import bisect
import gc
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional, Tuple

#: Seconds a watcher sleeps per wake-up.
SLEEP_S = 0.0005
#: A wake-up this much later than due marks a stall.
LATE_S = 0.001
#: ``SCHED_FIFO`` priority of a watcher: the lowest real-time level.
PRIORITY = 1
#: Seconds a watcher may take to report ready, or to exit once told to.
WAIT_S = 10.0


class StallWatch:
    """One watcher per CPU between :meth:`start` and :meth:`stop`."""

    def __init__(self, work: Path):
        self.work = work
        self.cpus = sorted(os.sched_getaffinity(0))
        #: Disjoint, sorted ``(start, end)`` spans, ``time.perf_counter``.
        self.stalls: List[Tuple[float, float]] = []
        #: Why nothing is left out, or ``None`` when the watchers ran.
        self.unavailable: Optional[str] = None
        self._procs: List[subprocess.Popen] = []

    def _out(self, cpu: int) -> Path:
        return self.work / f"stalls-cpu{cpu}.json"

    def start(self) -> None:
        self.work.mkdir(parents=True, exist_ok=True)
        script = str(Path(__file__).resolve())
        for cpu in self.cpus:
            argv = [sys.executable, script, str(cpu), str(self._out(cpu))]
            self._procs.append(
                subprocess.Popen(argv, stdout=subprocess.PIPE, text=True)
            )
        for proc in self._procs:
            line = proc.stdout.readline().strip()
            if line != "ready" and self.unavailable is None:
                self.unavailable = line or f"watcher exited ({proc.poll()})"
        if self.unavailable is not None:
            self.stop()

    def stop(self) -> None:
        """Stop every watcher, wait for it, and collect its stalls."""
        if not self._procs:
            return
        spans = []
        for proc in self._procs:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=WAIT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        self._procs = []
        if self.unavailable is None:
            for cpu in self.cpus:
                spans += [tuple(s) for s in json.loads(self._out(cpu).read_text())]
        self.stalls = _union(spans)

    def overlaps(self, start: float, end: float) -> bool:
        """Did a stall on any CPU fall within ``[start, end]``?"""
        # The first stall that starts at or after ``end`` ...
        i = bisect.bisect_left(self.stalls, (end,))
        # ... so only the one before it can reach back past ``start``.
        return i > 0 and self.stalls[i - 1][1] > start

    def report(self) -> dict:
        return {
            "unavailable": self.unavailable,
            "stalls": len(self.stalls),
            "stalled_s": sum(b - a for a, b in self.stalls),
        }


def _union(spans) -> List[Tuple[float, float]]:
    merged: List[Tuple[float, float]] = []
    for a, b in sorted(spans):
        if merged and a <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], b))
        else:
            merged.append((a, b))
    return merged


def _watch(cpu: int, out: Path) -> int:
    try:
        os.sched_setaffinity(0, {cpu})
        os.sched_setscheduler(0, os.SCHED_FIFO, os.sched_param(PRIORITY))
    except (AttributeError, OSError) as exc:
        print(f"real-time priority refused on CPU {cpu}: {exc}", flush=True)
        return 0
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
    # Nothing here makes cycles; a collection would be a stall of our own.
    gc.disable()
    stalls = []
    clock = time.perf_counter
    print("ready", flush=True)
    before = clock()
    while not stop:
        time.sleep(SLEEP_S)
        now = clock()
        if now - before > SLEEP_S + LATE_S:
            stalls.append((before, now))
        before = now
    out.write_text(json.dumps(stalls))
    return 0


if __name__ == "__main__":
    sys.exit(_watch(int(sys.argv[1]), Path(sys.argv[2])))
