"""Load generator: one process, one thread per connection, open or closed loop.

A *caller* is a callable bound to one connection that sends one payload
and returns the decoded answer, raising on any failure:

* :class:`KeepAliveCaller` keeps one persistent HTTP/1.1 connection, as a
  load balancer or a pooled client does;
* :class:`ClientCaller` goes through the repo's own ``ServingClient``,
  which opens a new connection per call.

:func:`open_loop` sends on a fixed schedule whatever the server does and
times each request from when it was *due*, so a stall is charged to every
request queued behind it; it also reports how late the generator itself
was.  :func:`closed_loop` sends each thread's next request as soon as its
previous one returned.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence
from urllib.parse import urlparse

import numpy as np

Caller = Callable[[object], object]

#: Seconds a caller waits on one request before it counts as failed.
TIMEOUT_S = 30.0
#: Seconds between starting :func:`open_loop` and its first due time.
LEAD_S = 0.05


class CallError(RuntimeError):
    """A non-2xx answer."""


@dataclass
class Sample:
    """One request: when it was due, sent and answered, and what came back."""

    index: int
    thread: int
    due: float
    start: float
    end: float
    ok: bool
    value: object = None
    error: Optional[str] = None
    #: How late the generator sent it once a connection was free (open
    #: loop only): ``start - max(due, connection free)``.
    lag: float = 0.0

    @property
    def latency(self) -> float:
        """Seconds from due (open loop) or send (closed loop) to answer."""
        return self.end - self.due

    @property
    def service(self) -> float:
        """Seconds from send to answer."""
        return self.end - self.start


class KeepAliveCaller:
    """POSTs pre-encoded JSON bodies over one persistent connection."""

    def __init__(self, url: str):
        parsed = urlparse(url)
        self.conn = http.client.HTTPConnection(
            parsed.hostname, parsed.port, timeout=TIMEOUT_S
        )
        self._headers = {"Content-Type": "application/json"}

    def __call__(self, body: bytes) -> dict:
        try:
            self.conn.request("POST", "/predict", body, self._headers)
            response = self.conn.getresponse()
            data = response.read()
        except (OSError, http.client.HTTPException):
            # Drop the broken connection; the next call reconnects.
            self.conn.close()
            raise
        if response.status != 200:
            raise CallError(f"HTTP {response.status}: {data[:200]!r}")
        return json.loads(data)

    def close(self) -> None:
        self.conn.close()


class ClientCaller:
    """``ServingClient.predict_many`` — a new connection on every call."""

    def __init__(self, url: str, model: str):
        from repro.serving import ServingClient

        self.client = ServingClient(url, timeout=TIMEOUT_S)
        self.model = model

    def __call__(self, configs: Sequence[dict]) -> np.ndarray:
        return self.client.predict_many(self.model, configs)


def poisson_schedule(rate: float, duration: float, seed: int) -> List[float]:
    """Due offsets (seconds) of a Poisson process at ``rate`` over ``duration``."""
    rng = np.random.default_rng(seed)
    offsets = []
    t = 0.0
    while True:
        t += float(rng.exponential(1.0 / rate))
        if t >= duration:
            return offsets
        offsets.append(t)


def _call(call: Caller, payload) -> tuple:
    try:
        return True, call(payload), None
    except Exception as exc:  # noqa: BLE001 - every failure is counted
        return False, None, f"{type(exc).__name__}: {exc}"


def _run_threads(targets: Sequence[Callable[[], None]]) -> None:
    threads = [
        threading.Thread(target=target, name=f"loadgen-{i}", daemon=True)
        for i, target in enumerate(targets)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def open_loop(
    callers: Sequence[Caller],
    due_offsets: Sequence[float],
    payloads: Sequence[object],
    on_sample: Optional[Callable[[Sample], None]] = None,
) -> List[Sample]:
    """Send ``payloads[i]`` at ``due_offsets[i]`` over ``len(callers)`` connections.

    Requests go out in schedule order; a request whose connections are all
    busy waits for the first one to free up, and that wait counts in its
    latency.  ``on_sample`` runs on the sending thread after each answer.
    """
    if len(due_offsets) != len(payloads):
        raise ValueError("one payload per due time")
    n = len(due_offsets)
    samples: List[Optional[Sample]] = [None] * n
    lock = threading.Lock()
    cursor = [0]
    t0 = time.perf_counter() + LEAD_S

    def worker(thread: int, call: Caller) -> None:
        clock = time.perf_counter
        while True:
            with lock:
                index = cursor[0]
                if index >= n:
                    return
                cursor[0] = index + 1
            free = clock()
            due = t0 + due_offsets[index]
            if due > free:
                time.sleep(due - free)
            start = clock()
            ok, value, error = _call(call, payloads[index])
            end = clock()
            sample = Sample(
                index, thread, due, start, end, ok, value, error,
                lag=start - max(due, free),
            )
            samples[index] = sample
            if on_sample is not None:
                on_sample(sample)

    _run_threads(
        [lambda t=t, c=c: worker(t, c) for t, c in enumerate(callers)]
    )
    return [s for s in samples if s is not None]


def closed_loop(
    callers: Sequence[Caller],
    payloads: Sequence[object],
    until: Optional[float] = None,
    on_sample: Optional[Callable[[Sample], None]] = None,
) -> List[Sample]:
    """Each connection sends the next payload as soon as its last returned.

    Without ``until`` every payload is sent once.  With it, payloads are
    reused in turn until ``time.perf_counter`` passes ``until`` (requests
    in flight then still complete); a sample's payload is
    ``payloads[sample.index % len(payloads)]``.
    """
    n = len(payloads)
    per_thread: List[List[Sample]] = [[] for _ in callers]
    lock = threading.Lock()
    cursor = [0]

    def worker(thread: int, call: Caller) -> None:
        clock = time.perf_counter
        while True:
            start = clock()
            if until is not None and start >= until:
                return
            with lock:
                index = cursor[0]
                if until is None and index >= n:
                    return
                cursor[0] = index + 1
            ok, value, error = _call(call, payloads[index % n])
            end = clock()
            sample = Sample(index, thread, start, start, end, ok, value, error)
            per_thread[thread].append(sample)
            if on_sample is not None:
                on_sample(sample)

    _run_threads(
        [lambda t=t, c=c: worker(t, c) for t, c in enumerate(callers)]
    )
    return sorted((s for done in per_thread for s in done), key=lambda s: s.index)
