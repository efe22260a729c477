"""The layer ladder: direct calls, in this process, on a workload's own inputs.

Each rung is one layer of the predict path, from the raw network up to the
in-process serving engine, timed as interleaved min-of-trials means (the
pattern of ``benchmarks/bench_tracing.py``): a GC pause or a scheduler
hiccup inside one trial cannot set the figure.  The rungs reproduce the
ROADMAP's baseline rows; their gaps say which layer a change should move.
"""

from __future__ import annotations

import gc
import time
from pathlib import Path
from typing import Callable, Dict, List, Sequence

import numpy as np

TRIALS = 5


def _best_mean_us(fn: Callable, inputs: Sequence[np.ndarray]) -> float:
    best = float("inf")
    for _ in range(TRIALS):
        start = time.perf_counter()
        for x in inputs:
            fn(x)
        best = min(best, (time.perf_counter() - start) / len(inputs))
    return 1e6 * best


def _paired_best_us(a: Callable, b: Callable, inputs) -> tuple:
    """Min-of-trials mean per call of ``a`` and ``b``, calls interleaved."""
    best_a = best_b = float("inf")
    clock = time.perf_counter
    for _ in range(TRIALS):
        spent_a = spent_b = 0.0
        for x in inputs:
            start = clock()
            a(x)
            mid = clock()
            b(x)
            spent_b += clock() - mid
            spent_a += mid - start
        best_a = min(best_a, spent_a / len(inputs))
        best_b = min(best_b, spent_b / len(inputs))
    return 1e6 * best_a, 1e6 * best_b


def run(
    models_dir: Path,
    model_name: str,
    singles: List[np.ndarray],
    batches: List[np.ndarray],
    fresh_singles: List[np.ndarray],
) -> Dict[str, float]:
    """Time every rung.

    ``singles`` are ``(1, 4)`` rows and ``batches`` ``(99, 4)`` matrices
    from the workload's inputs; ``fresh_singles`` are rows never sent
    twice, for the default engine whose cache would otherwise answer.
    """
    from repro.models import load_model
    from repro.serving import ServingEngine

    if len(fresh_singles) < TRIALS:
        raise ValueError(f"need at least {TRIALS} fresh rows, got {len(fresh_singles)}")
    model = load_model(models_dir / f"{model_name}.json")
    net = model.networks_[0]
    scaled1 = [model.x_scaler_.transform(x) for x in singles]
    scaled99 = [model.x_scaler_.transform(x) for x in batches]
    out = {}
    gc.collect()
    gc.disable()
    try:
        out["nn.mlp_predict_us.1"] = _best_mean_us(net.predict, scaled1)
        out["nn.mlp_predict_us.99"] = _best_mean_us(net.predict, scaled99)
        out["models.predict_us.1"] = _best_mean_us(model.predict, singles)
        out["models.predict_us.99"] = _best_mean_us(model.predict, batches)
        with ServingEngine(
            models_dir, batching=False, cache_size=0, tracing=False
        ) as direct, ServingEngine(
            models_dir, batching=False, cache_size=0, tracing=True
        ) as traced:
            direct_us, traced_us = _paired_best_us(
                lambda x: direct.predict(model_name, x),
                lambda x: traced.predict(model_name, x),
                singles,
            )
        out["serving.engine.direct_us.1"] = direct_us
        out["observability.span_us"] = traced_us - direct_us
        with ServingEngine(models_dir) as default:
            per_trial = max(1, len(fresh_singles) // TRIALS)
            best = float("inf")
            for trial in range(TRIALS):
                rows = fresh_singles[trial * per_trial:(trial + 1) * per_trial]
                start = time.perf_counter()
                for x in rows:
                    default.predict(model_name, x)
                best = min(best, (time.perf_counter() - start) / len(rows))
        out["serving.engine.default_us.1"] = 1e6 * best
    finally:
        gc.enable()
    return out
