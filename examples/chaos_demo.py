"""Chaos demo: serve a model while a FaultPlan corrupts it, live.

The reliability layer's whole story in one script:

1. fit the paper's model and serve it over HTTP (healthy baseline),
2. arm a deterministic ``FaultPlan`` that spikes micro-batch latency and
   corrupts the *active* artifact mid-serving,
3. watch ``/predict`` keep answering 2xx from the distilled linear
   surrogate (``"degraded": true``) while the circuit breaker opens and
   ``/healthz`` reports ``degraded``,
4. clear the faults, redeploy a good artifact, and watch the breaker's
   half-open probe close it again — full recovery to ``healthy``.

Usage::

    python examples/chaos_demo.py
"""

import tempfile
import time
from pathlib import Path

import numpy as np

from repro.models import NeuralWorkloadModel, save_model
from repro.reliability import (
    SITE_BATCHER_FLUSH,
    SITE_REGISTRY_STAT,
    FaultPlan,
    RetryPolicy,
)
from repro.serving import ServingClient, ServingEngine
from repro.serving.server import create_server
from repro.workload import (
    ConfigSpace,
    ParameterRange,
    SampleCollector,
    latin_hypercube,
)
from repro.workload.analytic import AnalyticWorkloadModel

SPACE = ConfigSpace(
    [
        ParameterRange("injection_rate", 350, 520),
        ParameterRange("default_threads", 6, 20),
        ParameterRange("mfg_threads", 12, 20),
        ParameterRange("web_threads", 15, 22),
    ]
)

CONFIG = {
    "injection_rate": 450.0,
    "default_threads": 14.0,
    "mfg_threads": 16.0,
    "web_threads": 18.0,
}


def fit_model(seed=0):
    print(f"Collecting 30 samples (analytic backend, seed {seed}) ...")
    dataset = SampleCollector(AnalyticWorkloadModel()).collect(
        latin_hypercube(SPACE, 30, seed=seed)
    )
    dataset.y = np.maximum(dataset.y, 1e-3)
    model = NeuralWorkloadModel(
        hidden=(16, 8), error_threshold=0.01, max_epochs=3000, seed=seed
    )
    return model.fit(dataset.x, dataset.y)


def show(label, body, health):
    tps = body["prediction"]["effective_tps"]
    print(
        f"  {label:<28s} effective_tps={tps:8.2f}  "
        f"degraded={body['degraded']!s:<5s} source={body['source']:<16s} "
        f"health={health['status']}"
    )


def main():
    model = fit_model()
    with tempfile.TemporaryDirectory() as tmp:
        artifact = Path(tmp) / "paper.json"
        save_model(model, artifact)

        plan = FaultPlan(seed=0)
        engine = ServingEngine(
            Path(tmp),
            faults=plan,
            breaker_min_samples=2,
            breaker_window=4,
            breaker_reset_timeout=1.0,
            max_wait_ms=0.5,
        )
        server = create_server(engine, port=0)
        server.serve_background()
        client = ServingClient(
            server.url,
            retry=RetryPolicy(max_attempts=3, base=0.05, cap=0.4, seed=0),
        )
        print(f"Serving at {server.url}\n")

        try:
            # --- 1. healthy baseline ------------------------------------
            print("Baseline (no faults):")
            show("mlp answer", client.predict_detailed("paper", CONFIG),
                 client.health())

            # --- 2-3. chaos: latency spike + corrupt the live artifact --
            print("\nArming FaultPlan: 0.05s flush latency x2, then "
                  "corrupt the active artifact ...")
            plan.add(SITE_BATCHER_FLUSH, "latency", latency_s=0.05, count=2)
            plan.add(SITE_REGISTRY_STAT, "corrupt_artifact", count=1)
            degraded = 0
            for i in range(3):
                body = client.predict_detailed("paper", CONFIG)
                degraded += body["degraded"]
                show(f"under faults #{i + 1}", body, client.health())
            breakers = client.health()["breakers"]
            print(f"  breaker states: {breakers}")
            print("  metrics:",
                  {k: v for k, v in client.metrics().items()
                   if k in ("degraded_requests_total", "shed_requests_total")})

            # --- 4. recovery --------------------------------------------
            print("\nClearing faults, redeploying a good artifact, waiting "
                  "out the breaker reset timeout ...")
            plan.clear()
            save_model(model, artifact)
            time.sleep(1.2)  # > breaker_reset_timeout: allow the probe
            recovered = client.predict_detailed("paper", CONFIG)
            health = client.health()
            show("after recovery", recovered, health)
            print(f"  breaker states: {health['breakers']}")
        finally:
            server.shutdown()
            server.server_close()
    if not degraded or breakers != {"paper": "open"}:
        print("FAIL: faults neither opened the breaker nor degraded answers")
        return 1
    if recovered["source"] != "mlp" or health["status"] != "healthy":
        print("FAIL: the MLP path did not recover after the redeploy")
        return 1
    print("\nPASS: degraded 2xx under chaos, full recovery after redeploy.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
