"""Pieces every workload shares: the run outcome, spans, statistics, RSS.

Nothing here imports ``repro``; the workload modules do, after ``run.py``
has put the checkout's ``src/`` on the import path.
"""

from __future__ import annotations

import heapq
import itertools
import json
import math
import os
import platform
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

#: The checkout root: ``perfbench/`` sits directly under it.
ROOT = Path(__file__).resolve().parents[1]

#: Where runs keep scratch files (models, logs) and write spans/reports.
OUT_DIR = ROOT / ".perfbench"

#: Every end-to-end metric with its unit; each workload reports all of them.
END_TO_END_UNITS = {
    "setup_s": "s",
    "p50_ms": "ms",
    "p99_ms": "ms",
    "peak_rps": "1/s",
    "configs_per_s": "1/s",
    "wall_s": "s",
    "accuracy_pct": "%",
    "ok_ratio": "ratio",
    "primary_ratio": "ratio",
    "peak_rss_mb": "MB",
}

#: Every per-layer metric with its unit.  A layer a workload does not run
#: through reports 0 and is listed, with the reason, under ``unmeasured``.
PER_LAYER_UNITS = {
    "serving.server.wire_ms": "ms",
    "serving.server.http_ms": "ms",
    "serving.server.parse_ms": "ms",
    "serving.client.overhead_ms": "ms",
    "serving.engine.predict_ms": "ms",
    "serving.batcher.queue_wait_ms": "ms",
    "serving.batcher.execute_ms": "ms",
    "serving.batcher.mean_batch": "count",
    "serving.cache.hit_ratio": "ratio",
    "serving.cache.lookup_ms": "ms",
    "cluster.predict_ms": "ms",
    "cluster.worker_call_ms": "ms",
    "cluster.ipc_ms": "ms",
    "cluster.worker_execute_ms": "ms",
    "cluster.failovers": "count",
    "cluster.restarts": "count",
    "nn.mlp_predict_us.1": "us",
    "nn.mlp_predict_us.99": "us",
    "models.predict_us.1": "us",
    "models.predict_us.99": "us",
    "serving.engine.direct_us.1": "us",
    "serving.engine.default_us.1": "us",
    "observability.span_us": "us",
    "workload.des.events_per_s": "1/s",
    "workload.des.run_s": "s",
    "traces.replay_s": "s",
    "traces.etl.lines_per_s": "1/s",
    "traces.fit_s": "s",
    "nn.train.epochs_per_s": "1/s",
    "nn.train.epochs": "count",
    "model_selection.cv_s": "s",
    "analysis.surfaces_s": "s",
    "bench.gen.lag_p99_ms": "ms",
    "bench.trace_overhead_pct": "%",
}


#: Set-ups per run behind ``setup_s``; the median is reported.
SETUP_LAUNCHES = 5

#: Spans recorded per trial of :func:`span_cost_s`.
SPAN_COST_TRIALS = 20000


class Unmeasurable(RuntimeError):
    """The workload cannot run here; the reason is reported, never a pass."""


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    end_to_end: Dict[str, float] = field(default_factory=dict)
    per_layer: Dict[str, float] = field(default_factory=dict)
    #: Per-layer metric -> why this workload cannot measure it.
    unmeasured: Dict[str, str] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: Correctness checks: name -> passed.
    checks: Dict[str, bool] = field(default_factory=dict)
    #: Phase -> {"sent", "succeeded", "failed"}.
    phases: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: Metric -> number of samples behind it.
    samples: Dict[str, int] = field(default_factory=dict)
    details: dict = field(default_factory=dict)

    def count(self, ok: bool, n: int = 1) -> None:
        """Count ``n`` operations that all succeeded or all failed."""
        self.attempted += n
        if not ok:
            self.failed += n

    def check(self, name: str, ok: bool) -> bool:
        """Record one correctness check; a failed check is a failed op."""
        self.checks[name] = self.checks.get(name, True) and bool(ok)
        self.count(bool(ok))
        return bool(ok)

    def phase(self, name: str, sent: int, failed: int) -> None:
        self.phases[name] = {
            "sent": int(sent),
            "succeeded": int(sent - failed),
            "failed": int(failed),
        }

    def set_up(self, once: Callable[[bool], float]) -> None:
        """Set up :data:`SETUP_LAUNCHES` times and report the median.

        ``once(last)`` performs one set-up and returns its seconds; ``last``
        is true for the final one, whose result the run goes on to use.
        Each time is scaled to the reference host speed (:class:`HostClock`).
        """
        clock = HostClock()
        times = []
        for i in range(SETUP_LAUNCHES):
            took = once(i == SETUP_LAUNCHES - 1)
            times.append((took, took * clock.scale()))
        self.end_to_end["setup_s"] = median([scaled for _, scaled in times])
        self.samples["setup_s"] = len(times)
        self.details["setup_s_each"] = [took for took, _ in times]
        self.details["setup_kernel_s"] = clock.kernel_s

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(self.checks.values())


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of a non-empty sample."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie beyond the nearest-rank ``q`` point."""
    return n - max(1, math.ceil(q / 100.0 * n))


#: Samples per block behind :func:`p99`: enough for 10 beyond the p99.
P99_BLOCK = 1000


def p99(values: Sequence[float]) -> float:
    """Median over consecutive blocks of >= 1000 samples of each block's p99.

    With fewer than 2000 samples this is the plain nearest-rank p99.  With
    more, one slow stretch of the run (a neighbour's burst on a shared
    host) moves one block's p99, not the reported figure.
    """
    blocks = max(1, len(values) // P99_BLOCK)
    size = len(values) // blocks
    edges = [i * size for i in range(blocks)] + [len(values)]
    return median(
        [percentile(values[a:b], 99) for a, b in zip(edges, edges[1:])]
    )


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def mean(values: Sequence[float]) -> float:
    return float(statistics.fmean(values))


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------


class SpanLog:
    """Spans recorded at the benchmark's own boundaries, kept in memory.

    A span is ``(span id, parent id, request id, name, start, end)`` with
    ``time.perf_counter`` times; the spans of one request (or one pipeline
    pass) share its request id.  Disabled logs record nothing, which is
    the whole difference between a traced and an untraced run.
    """

    def __init__(self, enabled: bool):
        self.enabled = bool(enabled)
        self.spans: List[tuple] = []
        self._ids = itertools.count(1)

    def record(
        self,
        name: str,
        start: float,
        end: float,
        request_id: object,
        parent: Optional[int] = None,
    ) -> Optional[int]:
        if not self.enabled:
            return None
        span_id = next(self._ids)
        self.spans.append((span_id, parent, request_id, name, start, end))
        return span_id

    def finish(self, span_id: Optional[int], end: float) -> None:
        """Set the end of a span recorded before its children."""
        if span_id is None:
            return
        for i in range(len(self.spans) - 1, -1, -1):
            if self.spans[i][0] == span_id:
                self.spans[i] = self.spans[i][:5] + (end,)
                return

    def write(self, path: Path) -> Path:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for span_id, parent, rid, name, start, end in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "span_id": span_id,
                            "parent": parent,
                            "request_id": rid,
                            "name": name,
                            "start": start,
                            "end": end,
                        }
                    )
                    + "\n"
                )
        return path


def span_cost_s() -> float:
    """Seconds one recorded span costs over an unrecorded one (best of 5)."""
    n = SPAN_COST_TRIALS
    best = float("inf")
    for _ in range(5):
        on, off = SpanLog(True), SpanLog(False)
        start = time.perf_counter()
        for i in range(n):
            off.record("x", 0.0, 1.0, i, None)
        mid = time.perf_counter()
        for i in range(n):
            on.record("x", 0.0, 1.0, i, None)
        end = time.perf_counter()
        best = min(best, ((end - mid) - (mid - start)) / n)
    return max(best, 0.0)


# ----------------------------------------------------------------------
# host speed
# ----------------------------------------------------------------------

#: Seconds :func:`_kernel` takes on the reference host (a fast, idle
#: moment of a 2-CPU VM).  CPU-bound timings are scaled to this speed.
KERNEL_REF_S = 0.005


def _kernel() -> float:
    """Fixed CPU work touching no ``repro`` code: heap, JSON, small matmuls."""
    heap = []
    for i in range(5000):
        heapq.heappush(heap, ((i * 7919) % 10007 * 0.5, i))
    acc = 0.0
    while heap:
        acc += heapq.heappop(heap)[0]
    blob = json.dumps([{"a": i, "b": i * 0.5} for i in range(200)])
    for _ in range(5):
        acc += len(json.loads(blob))
    w = np.arange(64.0).reshape(8, 8) / 64.0
    x = np.ones((1, 8))
    for _ in range(250):
        x = np.tanh(x @ w)
    return acc + float(x.sum())


class HostClock:
    """Scales CPU-bound timings from this host's current speed to a fixed one.

    A shared host's speed drifts by up to 2x within seconds, and process
    CPU time drifts with it, so no raw timing of CPU-bound work repeats
    between runs.  Between two pieces of measured work the benchmark
    times a fixed kernel on each CPU (best of two, averaged over CPUs);
    :meth:`scale` gives the factor that turns seconds measured since the
    last sample into seconds on a host where the kernel takes
    :data:`KERNEL_REF_S`.  Work left running in the background while the
    kernel runs would slow it and flatter the figures, so every kernel
    time is kept in :attr:`kernel_s` for the report.
    """

    def __init__(self):
        self.kernel_s: List[float] = []
        self._sample()

    def _sample(self) -> float:
        cpus = sorted(os.sched_getaffinity(0))
        times = []
        try:
            for cpu in cpus:
                os.sched_setaffinity(0, {cpu})
                best = float("inf")
                for _ in range(2):
                    start = time.perf_counter()
                    _kernel()
                    best = min(best, time.perf_counter() - start)
                times.append(best)
        finally:
            os.sched_setaffinity(0, cpus)
        self.kernel_s.append(mean(times))
        return self.kernel_s[-1]

    def scale(self) -> float:
        """Sample again; the factor for work timed since the last sample."""
        before = self.kernel_s[-1]
        return KERNEL_REF_S / ((before + self._sample()) / 2.0)


# ----------------------------------------------------------------------
# machine, memory
# ----------------------------------------------------------------------


def cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _vm_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def children_of(pid: int) -> List[int]:
    """Direct child pids of ``pid`` (scans ``/proc``)."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        # The command name may hold spaces; fields resume after its ')'.
        fields = stat[stat.rfind(")") + 2:].split()
        if len(fields) > 1 and int(fields[1]) == pid:
            found.append(int(entry))
    return found


def peak_rss_mb(pids: Sequence[int]) -> float:
    """Summed peak resident set (VmHWM) of ``pids``, in MiB."""
    return sum(_vm_hwm_kb(pid) for pid in pids) / 1024.0


def source_digest() -> str:
    """sha256 over ``src/`` — identifies the code when git is absent."""
    import hashlib

    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha() -> Optional[str]:
    """HEAD of the repository rooted at :data:`ROOT`, if it is one."""
    import subprocess

    try:
        done = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2:
        return None
    # A checkout nested inside some other repository is not a git tree.
    return lines[1] if Path(lines[0]).resolve() == ROOT else None


def environment(seed: int) -> dict:
    return {
        "nproc": cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "seed": seed,
    }
