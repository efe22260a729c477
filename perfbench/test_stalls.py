"""Stall watch checks: span bookkeeping, and a real stall seen by a watcher.

    python3 -m pytest perfbench/test_stalls.py -q
"""

import os
import time

import pytest

from stalls import PRIORITY, StallWatch, _union


def test_union_merges_touching_and_overlapping_spans():
    spans = [(5.0, 6.0), (1.0, 2.0), (1.5, 3.0), (3.0, 4.0), (7.0, 8.0)]
    assert _union(spans) == [(1.0, 4.0), (5.0, 6.0), (7.0, 8.0)]


def test_overlaps_is_true_only_for_requests_a_stall_fell_within(tmp_path):
    watch = StallWatch(tmp_path)
    watch.stalls = [(1.0, 2.0), (5.0, 6.0)]
    assert watch.overlaps(0.5, 1.5)
    assert watch.overlaps(1.2, 1.8)
    assert watch.overlaps(4.0, 7.0)
    assert not watch.overlaps(2.5, 4.5)
    assert not watch.overlaps(0.0, 0.9)
    assert not watch.overlaps(6.5, 9.0)


def test_a_higher_priority_burst_is_a_stall(tmp_path):
    cpu = min(os.sched_getaffinity(0))
    watch = StallWatch(tmp_path)
    watch.start()
    if watch.unavailable:
        pytest.skip(watch.unavailable)
    pid = os.fork()
    if pid == 0:  # pragma: no cover - child
        code = 1
        try:
            os.sched_setaffinity(0, {cpu})
            os.sched_setscheduler(0, os.SCHED_FIFO, os.sched_param(PRIORITY + 1))
            end = time.perf_counter() + 0.02
            while time.perf_counter() < end:
                pass
            code = 0
        finally:
            os._exit(code)
    start = time.perf_counter()
    _, status = os.waitpid(pid, 0)
    end = time.perf_counter()
    watch.stop()
    assert os.waitstatus_to_exitcode(status) == 0
    assert watch.overlaps(start, end)
    assert watch.report()["stalled_s"] >= 0.015
