"""``surface``: analysts fetching response surfaces from a worker cluster.

``repro-serve --workers <nproc>`` serves; ``nproc`` closed-loop callers each
use the repo's own ``ServingClient.predict_many`` (a new connection per
call).  One request is the 99-point default x web grid (11 x 9) of the
paper's figures at a seeded (injection_rate, mfg_threads), so almost every
config is unique: the keep-alive stall, the prediction cache and the
in-process micro-batcher are all bypassed, while request parsing, cluster
IPC and the forward pass over many rows do the work.  Callers fetch an
*atlas* of surfaces per round; rounds repeat, each with fresh surfaces,
until the run's time is spent.  Each round's times are scaled to a
reference host speed (:class:`common.HostClock`), and requests that a host
stall overlapped are left out of the latency percentiles
(:class:`stalls.StallWatch`).
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

import ladder
from common import (
    HostClock,
    Outcome,
    SpanLog,
    Unmeasurable,
    beyond,
    cpu_count,
    mean,
    median,
    p99,
    percentile,
    span_cost_s,
)
from loadgen import ClientCaller, closed_loop
from server import MODEL, Served, counter_delta, launch, stage_means_ms
from stalls import StallWatch

#: Surfaces per round: about a second of work at this commit.
ATLAS = 200


def _grid():
    from repro.experiments.config import FIGURE_DEFAULT_SWEEP, FIGURE_WEB_SWEEP

    return [(int(d), int(w)) for d in FIGURE_DEFAULT_SWEEP for w in FIGURE_WEB_SWEEP]


def _atlas(rng: np.random.Generator, grid) -> np.ndarray:
    """``(ATLAS, 99, 4)`` surfaces at seeded (injection_rate, mfg_threads)."""
    from repro.experiments.config import TABLE2_SPACE

    ranges = {r.name: r for r in TABLE2_SPACE.ranges}
    rate = ranges["injection_rate"]
    mfg = ranges["mfg_threads"]
    rates = rng.uniform(rate.low, rate.high, ATLAS)
    mfgs = rng.integers(int(mfg.low), int(mfg.high) + 1, ATLAS)
    surfaces = np.empty((ATLAS, len(grid), 4))
    for k in range(ATLAS):
        for j, (default, web) in enumerate(grid):
            surfaces[k, j] = (rates[k], default, mfgs[k], web)
    return surfaces


def _as_configs(matrix: np.ndarray, names) -> list:
    return [
        {
            names[0]: float(row[0]),
            names[1]: int(row[1]),
            names[2]: int(row[2]),
            names[3]: int(row[3]),
        }
        for row in matrix
    ]


def run(seed: int, seconds: float, trace: bool, work: Path) -> Outcome:
    from repro.workload.service import INPUT_NAMES

    n_callers = cpu_count()
    if n_callers < 2:
        raise Unmeasurable(
            f"{n_callers} CPU: a cluster needs one for the front door and "
            "at least one for a worker"
        )
    out = Outcome()
    rng = np.random.default_rng(seed)
    served = Served(work / "models")
    grid = _grid()
    names = list(INPUT_NAMES)
    probe = dict(zip(names, served.dataset.x[0].tolist()))
    spans = SpanLog(trace)
    #: (round seconds scaled by ``clock``, the factor, its requests' spans).
    rounds = []
    raw_round_s = []
    services = []
    failed = sent = 0
    first_surfaces = None

    server = launch(out, served, work, n_callers, probe)
    watch = StallWatch(work / "stalls")
    try:
        watch.start()
        callers = [ClientCaller(server.url, MODEL) for _ in range(n_callers)]
        before = server.metrics()
        clock = HostClock()
        budget_end = time.perf_counter() + seconds
        while True:
            surfaces = _atlas(rng, grid)
            payloads = [_as_configs(s, names) for s in surfaces]
            if first_surfaces is None:
                first_surfaces = surfaces
            rid = len(rounds)

            def record(s, rid=rid):
                spans.record("surface.request", s.start, s.end, f"{rid}:{s.index}")

            start = time.perf_counter()
            samples = closed_loop(callers, payloads, on_sample=record)
            end = time.perf_counter()
            spans.record("surface.round", start, end, f"{rid}")
            factor = clock.scale()
            raw_round_s.append(end - start)
            rounds.append(
                ((end - start) * factor, factor, [(s.start, s.end) for s in samples])
            )
            # Verify outside the timed round: answers vs the reference.
            for s in samples:
                sent += 1
                ok = s.ok and bool(served.matches(s.value, surfaces[s.index]).all())
                failed += not ok
                services.append(s.service)
            if time.perf_counter() + raw_round_s[-1] > budget_end:
                break
        after = server.metrics()
        watch.stop()
        try:
            design_got = callers[0](_as_configs(served.dataset.x, names))
        except Exception as exc:  # noqa: BLE001 - reported as a failed check
            out.details["verify_error"] = repr(exc)
            design_got = np.zeros((0, 5))
        rss = server.peak_rss_mb()
    finally:
        watch.stop()
        server.stop()

    out.phase("closed", sent, failed)
    out.count(True, sent - failed)
    out.count(False, failed)
    out.check("answers_match_reference", failed == 0)
    accuracy_pct = served.check_design(out, design_got)

    degraded = counter_delta(before, after, "degraded_requests_total")
    e2e = out.end_to_end
    # Every timing here is scaled to the reference host speed (HostClock).
    latencies = [
        (end - start) * factor
        for _, factor, requests in rounds
        for start, end in requests
        if not watch.overlaps(start, end)
    ]
    e2e["p50_ms"] = 1000.0 * percentile(latencies, 50)
    e2e["p99_ms"] = 1000.0 * p99(latencies)
    e2e["wall_s"] = median([t for t, _, _ in rounds])
    e2e["peak_rps"] = ATLAS / e2e["wall_s"]
    e2e["configs_per_s"] = e2e["peak_rps"] * len(grid)
    e2e["accuracy_pct"] = accuracy_pct
    e2e["ok_ratio"] = 1.0 - out.failed / out.attempted
    e2e["primary_ratio"] = 1.0 - degraded / (sent + 1)
    e2e["peak_rss_mb"] = rss
    out.samples.update(
        p50_ms=len(latencies),
        p99_ms=len(latencies),
        p99_ms_beyond=beyond(len(latencies), 99),
        wall_s=len(rounds),
    )
    out.details.update(
        callers=n_callers,
        workers=n_callers,
        atlas_surfaces=ATLAS,
        rounds=len(rounds),
        round_s=raw_round_s,
        round_scaled_s=[t for t, _, _ in rounds],
        stall_watch=watch.report(),
        latency_kept_share=len(latencies) / sent,
        kernel_s=clock.kernel_s,
        degraded_requests=degraded,
    )

    if trace:
        stages = stage_means_ms(before, after)
        pl = out.per_layer
        http_ms = stages.get("http.request", 0.0)
        pl["serving.server.http_ms"] = http_ms
        pl["serving.server.parse_ms"] = stages.get("request.parse", 0.0)
        pl["serving.client.overhead_ms"] = 1000.0 * mean(services) - http_ms
        pl["cluster.predict_ms"] = stages.get("cluster.predict", 0.0)
        pl["cluster.worker_call_ms"] = stages.get("worker.call", 0.0)
        pl["cluster.worker_execute_ms"] = stages.get("worker.execute", 0.0)
        pl["cluster.ipc_ms"] = (
            pl["cluster.worker_call_ms"] - pl["cluster.worker_execute_ms"]
        )
        pl["cluster.failovers"] = counter_delta(
            before, after, "worker_failovers_total"
        )
        pl["cluster.restarts"] = counter_delta(
            before, after, "worker_restarts_total"
        )
        per_request = len(spans.spans) / sent
        pl["bench.trace_overhead_pct"] = (
            100.0 * per_request * span_cost_s() / mean(services)
        )
        rows = first_surfaces.reshape(-1, 4)
        pl.update(
            ladder.run(
                served.models_dir,
                MODEL,
                [r.reshape(1, -1) for r in rows[:200]],
                list(first_surfaces[:10]),
                [r.reshape(1, -1) for r in rows[200:400]],
            )
        )
        out.unmeasured.update(
            {
                "serving.server.wire_ms": "ServingClient does not expose its "
                "raw round trip; the wire is inside "
                "serving.client.overhead_ms here",
                "bench.gen.lag_p99_ms": "closed loop: no send schedule to lag",
            }
        )
        cluster_reason = (
            "the cluster engine has no in-process batcher or cache; "
            "cluster.* time its predict path"
        )
        for name in (
            "serving.engine.predict_ms",
            "serving.batcher.queue_wait_ms",
            "serving.batcher.execute_ms",
            "serving.batcher.mean_batch",
            "serving.cache.hit_ratio",
            "serving.cache.lookup_ms",
        ):
            out.unmeasured[name] = cluster_reason
        out.details["spans"] = str(
            spans.write(work.parent / f"spans-surface-seed{seed}.jsonl")
        )
    return out
