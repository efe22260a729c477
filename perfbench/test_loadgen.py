"""Load generator checks against a stub server that stalls on demand.

    python3 -m pytest perfbench/test_loadgen.py -q
"""

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from loadgen import KeepAliveCaller, closed_loop, open_loop, poisson_schedule

STALL_S = 0.3


class _Stub(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def do_POST(self):  # noqa: N802 - http.server naming
        body = self.rfile.read(int(self.headers["Content-Length"]))
        if body == b"stall":
            threading.Event().wait(STALL_S)
        payload = json.dumps({"echo": body.decode()}).encode()
        # Headers and body in one write, so the stub adds no stall of its own.
        self.wfile.write(
            b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
            + f"Content-Length: {len(payload)}\r\n\r\n".encode()
            + payload
        )

    def log_message(self, *args):
        pass


@pytest.fixture
def stub_url():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Stub)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        assert not thread.is_alive()


def test_stall_is_charged_to_every_request_queued_behind_it(stub_url):
    caller = KeepAliveCaller(stub_url)
    due = [0.02 * i for i in range(20)]
    payloads = [b"stall" if i == 3 else b"%d" % i for i in range(20)]
    samples = open_loop([caller], due, payloads)
    caller.close()

    assert [s.index for s in samples] == list(range(20))
    assert all(s.ok for s in samples)
    assert [s.value["echo"] for s in samples] == [p.decode() for p in payloads]
    stalled = samples[3]
    assert stalled.service >= STALL_S
    queued = [s for s in samples[4:] if s.due < stalled.end]
    assert len(queued) >= 10
    for s in queued:
        # Sent only once the stalled request freed the connection, and
        # timed from its due time, so it carries the rest of the stall.
        assert s.start >= stalled.end
        assert s.latency >= stalled.end - s.due
        assert s.latency > s.service
    for s in samples[:3]:
        assert s.latency < STALL_S / 2
    # The generator itself was never the reason a request went out late.
    assert max(s.lag for s in samples) < 0.05


def test_two_connections_keep_serving_while_one_stalls(stub_url):
    callers = [KeepAliveCaller(stub_url) for _ in range(2)]
    due = [0.02 * i for i in range(12)]
    payloads = [b"stall" if i == 0 else b"%d" % i for i in range(12)]
    samples = open_loop(callers, due, payloads)
    for caller in callers:
        caller.close()
    stalled = samples[0]
    others = [s for s in samples[1:] if s.due < stalled.end]
    assert others and all(s.thread != stalled.thread for s in others)
    assert all(s.latency < STALL_S / 2 for s in others)


def test_closed_loop_sends_next_request_only_after_the_last_answer(stub_url):
    callers = [KeepAliveCaller(stub_url) for _ in range(2)]
    payloads = [b"%d" % i for i in range(40)]
    samples = closed_loop(callers, payloads)
    for caller in callers:
        caller.close()
    assert sorted(s.index for s in samples) == list(range(40))
    for thread in (0, 1):
        mine = sorted((s for s in samples if s.thread == thread), key=lambda s: s.start)
        assert all(b.start >= a.end for a, b in zip(mine, mine[1:]))


def test_closed_loop_until_reuses_payloads(stub_url):
    import time

    caller = KeepAliveCaller(stub_url)
    samples = closed_loop([caller], [b"a", b"b"], until=time.perf_counter() + 0.2)
    caller.close()
    assert len(samples) > 2
    assert all(s.value["echo"] == "ab"[s.index % 2] for s in samples)


def test_failures_are_counted_not_raised():
    caller = KeepAliveCaller("http://127.0.0.1:9")
    samples = closed_loop([caller], [b"x", b"y"])
    assert [s.ok for s in samples] == [False, False]
    assert all(s.error for s in samples)


def test_poisson_schedule_is_seeded():
    a = poisson_schedule(30.0, 10.0, seed=0)
    assert a == poisson_schedule(30.0, 10.0, seed=0)
    assert a != poisson_schedule(30.0, 10.0, seed=1)
    assert all(0 < x < 10.0 for x in a)
    assert 200 < len(a) < 400
