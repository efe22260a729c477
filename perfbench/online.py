"""``online``: independent callers sending single-config ``POST /predict``.

The default in-process engine (batching, cache and tracing on) serves; the
benchmark holds one persistent keep-alive connection per thread, as a load
balancer would.  Phase 1 is an open loop at a fixed Poisson rate below the
server's capacity at this commit, timed from each request's due time; phase 2 is a
closed loop measuring the peak rate.  Half the configs repeat a small hot
set (the 50 Table 2 design points) and half are fresh Latin-hypercube
points in ``TABLE2_SPACE``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

import ladder
from common import (
    Outcome,
    SpanLog,
    Unmeasurable,
    beyond,
    cpu_count,
    mean,
    p99,
    percentile,
    span_cost_s,
)
from loadgen import KeepAliveCaller, closed_loop, open_loop, poisson_schedule
from server import (
    MODEL,
    Served,
    counter_delta,
    launch,
    stage_means_ms,
)

#: Connections (and sending threads).  Fixed rather than ``nproc`` so the
#: traffic is the same on every machine with at least two CPUs.
CONNECTIONS = 2
#: Open-loop arrival rate.  At this commit a keep-alive request
#: stalls ~45 ms (Nagle vs delayed ACK) unless its connection sat idle for
#: a while, so two connections carry ~44/s in a closed loop.  At 33/s the
#: open phase yields >1000 samples, and well over half the requests take
#: the stalled path, so the median sits inside one mode of the bimodal
#: latency rather than on the edge between them.
RATE = 33.0
#: The arrival times are one fixed Poisson schedule, the same for every
#: ``--seed``: p99 then compares one queueing pattern across commits, and
#: the seed draws which configs are sent.
SCHEDULE_SEED = 0
#: Share of the run given to the closed-loop phase.
CLOSED_SHARE = 1.0 / 12.0
HOT_SHARE = 0.5
#: Distinct closed-loop bodies (reused in turn if the server outruns them).
CLOSED_BODIES = 4000


def _configs(served: Served, n: int, rng: np.random.Generator) -> np.ndarray:
    """``n`` config rows: ~half from the hot set, the rest fresh LHS points."""
    from repro.experiments.config import TABLE2_SPACE
    from repro.workload.sampler import latin_hypercube

    hot = served.dataset.x
    fresh = np.array(
        [
            c.as_vector()
            for c in latin_hypercube(
                TABLE2_SPACE, n, seed=int(rng.integers(2**31))
            )
        ]
    )
    rows = np.empty((n, 4))
    order = []
    for i in range(n):
        if rng.random() < HOT_SHARE:
            if not order:
                order = list(rng.permutation(len(hot)))
            rows[i] = hot[order.pop()]
        else:
            rows[i] = fresh[i]
    return rows


def _body(row: np.ndarray, names) -> bytes:
    config = {
        name: (float(v) if j == 0 else int(v))
        for j, (name, v) in enumerate(zip(names, row))
    }
    return json.dumps({"model": MODEL, "config": config}).encode()


def run(seed: int, seconds: float, trace: bool, work: Path) -> Outcome:
    from repro.workload.service import INPUT_NAMES, OUTPUT_NAMES

    if cpu_count() < CONNECTIONS:
        raise Unmeasurable(
            f"{cpu_count()} CPU: the open loop needs {CONNECTIONS} connections "
            "and at most one thread per CPU"
        )
    n_conn = CONNECTIONS
    out = Outcome()
    rng = np.random.default_rng(seed)
    served = Served(work / "models")
    closed_s = seconds * CLOSED_SHARE
    due = poisson_schedule(RATE, seconds - closed_s, SCHEDULE_SEED)
    open_rows = _configs(served, len(due), rng)
    closed_rows = _configs(served, CLOSED_BODIES, rng)
    open_bodies = [_body(r, INPUT_NAMES) for r in open_rows]
    closed_bodies = [_body(r, INPUT_NAMES) for r in closed_rows]
    probe = dict(zip(INPUT_NAMES, served.dataset.x[0].tolist()))

    spans = SpanLog(trace)

    def on_sample(phase):
        def record(s):
            rid = f"{phase}:{s.index}"
            root = spans.record("online.request", s.due, s.end, rid)
            spans.record("online.queue", s.due, s.start, rid, root)
            spans.record("online.http", s.start, s.end, rid, root)

        return record

    server = launch(out, served, work, 0, probe)
    try:
        callers = [KeepAliveCaller(server.url) for _ in range(n_conn)]
        before = server.metrics()
        opened = open_loop(callers, due, open_bodies, on_sample("open"))
        closed_start = time.perf_counter()
        closed = closed_loop(
            callers, closed_bodies, until=closed_start + closed_s,
            on_sample=on_sample("closed"),
        )
        after = server.metrics()
        for caller in callers:
            caller.close()
        verify = KeepAliveCaller(server.url)
        design = served.dataset.x
        try:
            answer = verify(
                json.dumps(
                    {
                        "model": MODEL,
                        "configs": [
                            dict(zip(INPUT_NAMES, row.tolist()))
                            for row in design
                        ],
                    }
                ).encode()
            )
            design_got = np.array(
                [[p[k] for k in OUTPUT_NAMES] for p in answer["predictions"]]
            )
        except Exception as exc:  # noqa: BLE001 - reported as a failed check
            out.details["verify_error"] = repr(exc)
            design_got = np.zeros((0, len(OUTPUT_NAMES)))
        finally:
            verify.close()
        rss = server.peak_rss_mb()
    finally:
        server.stop()

    # --- correctness: every answer equals the reference artifact -------
    degraded_flags = 0
    for phase, samples, rows in (
        ("open", opened, open_rows),
        ("closed", closed, closed_rows),
    ):
        good = np.zeros(len(samples), dtype=bool)
        answered = [i for i, s in enumerate(samples) if s.ok]
        if answered:
            got = np.array(
                [
                    [samples[i].value["prediction"][k] for k in OUTPUT_NAMES]
                    for i in answered
                ]
            )
            x = rows[[samples[i].index % len(rows) for i in answered]]
            good[answered] = served.matches(got, x)
            degraded_flags += sum(
                bool(samples[i].value.get("degraded")) for i in answered
            )
        failed = int(len(samples) - good.sum())
        out.phase(phase, len(samples), failed)
        out.count(True, len(samples) - failed)
        out.count(False, failed)
        out.check(f"{phase}_answers_match_reference", failed == 0)
    accuracy_pct = served.check_design(out, design_got)

    # --- end to end ----------------------------------------------------
    latencies = [s.latency for s in opened]
    ok_closed = [s for s in closed if s.ok]
    closed_elapsed = max(s.end for s in closed) - min(s.start for s in closed)
    answered = sum(1 for s in opened + closed if s.ok) + 1
    degraded = max(
        counter_delta(before, after, "degraded_requests_total"),
        degraded_flags,
    )
    e2e = out.end_to_end
    e2e["p50_ms"] = 1000.0 * percentile(latencies, 50)
    e2e["p99_ms"] = 1000.0 * p99(latencies)
    e2e["peak_rps"] = len(ok_closed) / closed_elapsed
    e2e["configs_per_s"] = e2e["peak_rps"]
    e2e["wall_s"] = max(s.end for s in opened) - min(s.due for s in opened)
    e2e["accuracy_pct"] = accuracy_pct
    e2e["ok_ratio"] = 1.0 - out.failed / out.attempted
    e2e["primary_ratio"] = 1.0 - degraded / answered
    e2e["peak_rss_mb"] = rss
    out.samples.update(
        p50_ms=len(latencies),
        p99_ms=len(latencies),
        p99_ms_beyond=beyond(len(latencies), 99),
        peak_rps=len(ok_closed),
    )
    out.details.update(
        connections=n_conn,
        open_rate_per_s=RATE,
        open_requests=len(due),
        degraded_requests=degraded,
    )

    if trace:
        stages = stage_means_ms(before, after)
        service_ms = 1000.0 * mean([s.service for s in opened + closed])
        pl = out.per_layer
        pl["serving.server.http_ms"] = stages.get("http.request", 0.0)
        pl["serving.server.wire_ms"] = service_ms - pl["serving.server.http_ms"]
        pl["serving.server.parse_ms"] = stages.get("request.parse", 0.0)
        pl["serving.engine.predict_ms"] = stages.get("engine.predict", 0.0)
        pl["serving.batcher.queue_wait_ms"] = stages.get(
            "batcher.queue_wait", 0.0
        )
        pl["serving.batcher.execute_ms"] = stages.get("batcher.execute", 0.0)
        pl["serving.cache.lookup_ms"] = stages.get("cache.lookup", 0.0)
        batches = counter_delta(before, after, "batches_total")
        pl["serving.batcher.mean_batch"] = (
            counter_delta(before, after, "batched_items_total") / batches
            if batches
            else 0.0
        )
        hits = counter_delta(before.get("cache", {}), after.get("cache", {}), "hits")
        misses = counter_delta(
            before.get("cache", {}), after.get("cache", {}), "misses"
        )
        pl["serving.cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        pl["bench.gen.lag_p99_ms"] = 1000.0 * percentile(
            [s.lag for s in opened], 99
        )
        per_request = len(spans.spans) / len(opened + closed)
        pl["bench.trace_overhead_pct"] = (
            100.0 * per_request * span_cost_s() / (service_ms / 1000.0)
        )
        singles = [r.reshape(1, -1) for r in open_rows[:200]]
        batches99 = [
            closed_rows[i:i + 99] for i in range(0, 99 * 10, 99)
        ]
        fresh = [
            r.reshape(1, -1)
            for r in closed_rows
            if not (served.dataset.x == r).all(axis=1).any()
        ][:200]
        pl.update(ladder.run(served.models_dir, MODEL, singles, batches99, fresh))
        out.details["spans"] = str(
            spans.write(work.parent / f"spans-online-seed{seed}.jsonl")
        )
    return out
