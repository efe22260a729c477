"""Serving quickstart: fit, persist, serve over HTTP, query, hot-swap.

The full deployment loop of the serving subsystem in one script:

1. fit the paper's model on a quick analytic sample set,
2. persist it with ``save_model`` (one JSON artifact),
3. start the HTTP server in-process and query it with ``ServingClient``,
4. show micro-batching + the prediction cache in the metrics,
5. hot-deploy a retrained artifact by overwriting the file.

Usage::

    python examples/serving_quickstart.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro.models import NeuralWorkloadModel, save_model
from repro.serving import ServingClient, ServingEngine
from repro.serving.server import create_server
from repro.workload import (
    ConfigSpace,
    ParameterRange,
    SampleCollector,
    latin_hypercube,
)
from repro.workload.analytic import AnalyticWorkloadModel
from repro.workload.service import OUTPUT_NAMES

SPACE = ConfigSpace(
    [
        ParameterRange("injection_rate", 350, 520),
        ParameterRange("default_threads", 6, 20),
        ParameterRange("mfg_threads", 12, 20),
        ParameterRange("web_threads", 15, 22),
    ]
)


def fit_model(seed):
    print(f"Collecting 30 samples (analytic backend, seed {seed}) ...")
    dataset = SampleCollector(AnalyticWorkloadModel()).collect(
        latin_hypercube(SPACE, 30, seed=seed)
    )
    dataset.y = np.maximum(dataset.y, 1e-3)
    model = NeuralWorkloadModel(
        hidden=(16, 8), error_threshold=0.01, max_epochs=3000, seed=seed
    )
    return model.fit(dataset.x, dataset.y)


def main():
    with tempfile.TemporaryDirectory() as tmp:
        models_dir = Path(tmp)

        # --- 1-2. fit and persist ---------------------------------------
        save_model(fit_model(seed=0), models_dir / "paper.json")

        # --- 3. serve and query over HTTP -------------------------------
        server = create_server(
            ServingEngine(models_dir, max_wait_ms=1.0), port=0
        )
        server.serve_background()
        client = ServingClient(server.url)
        print(f"\nServing {client.models()} at {server.url}")

        config = {
            "injection_rate": 450,
            "default_threads": 14,
            "mfg_threads": 16,
            "web_threads": 18,
        }
        prediction = client.predict("paper", config)
        print("One configuration over HTTP:")
        for name in OUTPUT_NAMES:
            unit = "tps" if name == "effective_tps" else "s"
            print(f"  {name:22s} {prediction[name]:8.3f} {unit}")

        # --- 4. a small sweep, run three times: repeats hit the cache ---
        sweep = [dict(config, default_threads=t) for t in (8, 12, 16, 20)]
        for _ in range(3):
            client.predict_many("paper", sweep)
        metrics = client.metrics()
        print(
            f"\nAfter a 12-query sweep: cache hit rate "
            f"{metrics['cache']['hit_rate']:.0%}, "
            f"{metrics['predictions_total']} predictions "
            f"in {metrics['requests_total']} requests"
        )

        # --- 5. hot-swap a retrained artifact ---------------------------
        print("\nRetraining and overwriting paper.json (no restart) ...")
        save_model(fit_model(seed=7), models_dir / "paper.json")
        swapped = client.predict("paper", config)
        delta = swapped["effective_tps"] - prediction["effective_tps"]
        print(
            f"Same query after hot reload: effective_tps "
            f"{swapped['effective_tps']:.2f} ({delta:+.2f} vs old artifact)"
        )

        server.shutdown()
        server.server_close()
    if metrics["cache"]["hit_rate"] <= 0:
        print("FAIL: repeated sweeps never hit the prediction cache")
        return 1
    if delta == 0:
        print("FAIL: the overwritten artifact was not hot-reloaded")
        return 1
    print("\nPASS: served over HTTP, cached repeats, hot-reloaded.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
