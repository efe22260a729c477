"""The engine contract both executors share: in-process and worker pool.

Admission, the surrogate tier, draining, the observer tap, the root span
and the Prometheus exposition belong to the serving engine, not to where
the forward pass runs.  Every test here therefore runs twice: against an
in-process :class:`ServingEngine` and against a one-worker
:class:`ClusterEngine`.  Only the labels that name the executor (the
primary ``source`` and the root span name) and the families only one
executor has differ between the two.
"""

import numpy as np
import pytest

from repro.cluster import ClusterEngine
from repro.models.neural import NeuralWorkloadModel
from repro.models.persistence import save_model
from repro.observability.trace import Tracer
from repro.reliability.degradation import OverloadedError
from repro.serving import ServingEngine

CONFIG = [450.0, 14.0, 16.0, 18.0]
PRIMARY_SOURCE = {"in_process": "mlp", "cluster": "worker:0"}
ROOT_SPAN = {"in_process": "engine.predict", "cluster": "cluster.predict"}

_COMMON_FAMILIES = {
    "repro_serving_artifact_verify_failures_total counter",
    "repro_serving_artifacts_quarantined_total counter",
    "repro_serving_auto_rollbacks_total counter",
    "repro_serving_batch_occupancy_mean gauge",
    "repro_serving_batches_total counter",
    "repro_serving_degraded_requests_total counter",
    "repro_serving_errors_total counter",
    "repro_serving_journal_records_dropped_total counter",
    "repro_serving_journal_records_recovered_total counter",
    "repro_serving_observations_total counter",
    "repro_serving_predictions_total counter",
    "repro_serving_promotions_total counter",
    "repro_serving_recommendation_cache_hits_total counter",
    "repro_serving_recommendation_search_evals_total counter",
    "repro_serving_recommendations_total counter",
    "repro_serving_recoveries_total counter",
    "repro_serving_request_latency_seconds summary",
    "repro_serving_requests_total counter",
    "repro_serving_retrains_total counter",
    "repro_serving_rollbacks_total counter",
    "repro_serving_shed_requests_total counter",
    "repro_serving_stage_latency_seconds histogram",
    "repro_serving_worker_failovers_total counter",
    "repro_serving_worker_restarts_total counter",
}
PROMETHEUS_FAMILIES = {
    "in_process": _COMMON_FAMILIES
    | {
        "repro_serving_breaker_state gauge",
        "repro_serving_cache_entries gauge",
        "repro_serving_cache_hit_rate gauge",
        "repro_serving_cache_hits_total counter",
        "repro_serving_cache_misses_total counter",
    },
    "cluster": _COMMON_FAMILIES
    | {
        "repro_serving_worker_queue_depth gauge",
        "repro_serving_worker_state gauge",
    },
}


@pytest.fixture(scope="module")
def model_dir(tmp_path_factory):
    rng = np.random.default_rng(0)
    x = rng.uniform(1.0, 8.0, size=(40, 4))
    y = np.column_stack(
        [
            0.1 + 0.02 * (x[:, 1] - 4.0) ** 2,
            0.1 + 0.01 * x[:, 3],
            x[:, 0] * 0.05,
            x[:, 2] * 0.03 + 0.2,
            400.0 - 3.0 * (x[:, 3] - 5.0) ** 2,
        ]
    )
    model = NeuralWorkloadModel(
        hidden=(8,), error_threshold=0.05, max_epochs=500, seed=0
    ).fit(x, y)
    directory = tmp_path_factory.mktemp("parity-models")
    save_model(model, directory / "paper.json")
    return directory


@pytest.fixture(params=["in_process", "cluster"])
def mode(request):
    return request.param


@pytest.fixture()
def make_engine(mode, model_dir):
    engines = []

    def make(**kwargs):
        if mode == "cluster":
            engine = ClusterEngine(
                model_dir,
                workers=1,
                supervisor_options={"heartbeat_interval": 0.1},
                **kwargs,
            ).start()
        else:
            engine = ServingEngine(model_dir, **kwargs)
        engines.append(engine)
        return engine

    yield make
    for engine in engines:
        engine.close()


def test_hard_bound_sheds_with_retry_after(make_engine):
    engine = make_engine(retry_after_s=0.25)
    engine.shed_inflight = 0  # every request is now over the bound
    with pytest.raises(OverloadedError) as excinfo:
        engine.predict("paper", [CONFIG])
    assert excinfo.value.retry_after == 0.25
    assert engine.metrics.shed_requests_total == 1


def test_soft_bound_answers_from_the_surrogate(make_engine, mode):
    engine = make_engine()
    first = engine.predict_detailed("paper", [CONFIG])
    assert not first.degraded
    assert first.source == PRIMARY_SOURCE[mode]
    engine.max_inflight = 0
    result = engine.predict_detailed("paper", [CONFIG])
    assert result.degraded
    assert result.source == "surrogate:linear"
    assert result.outputs.shape == (1, 5)
    assert engine.metrics.degraded_requests_total == 1


def test_drained_engine_sheds(make_engine):
    engine = make_engine()
    engine.predict("paper", [CONFIG])
    engine.drain(timeout=5.0)
    assert engine.draining
    with pytest.raises(OverloadedError):
        engine.predict("paper", [CONFIG])
    assert engine.health()["draining"] is True


def test_observer_sees_each_answer_with_its_source(make_engine, mode):
    seen = []
    engine = make_engine(observer=lambda *args: seen.append(args))
    outputs = engine.predict("paper", [CONFIG, CONFIG])
    assert len(seen) == 1
    model, x, observed, source = seen[0]
    assert model == "paper"
    np.testing.assert_array_equal(x, [CONFIG, CONFIG])
    np.testing.assert_array_equal(observed, outputs)
    assert source == PRIMARY_SOURCE[mode]


def test_degraded_answer_is_a_child_of_the_root_span(make_engine, mode):
    tracer = Tracer(sample_rate=1.0, slow_threshold_s=None, seed=3)
    engine = make_engine(tracer=tracer)
    engine.predict("paper", [CONFIG])
    engine.max_inflight = 0
    assert engine.predict_detailed("paper", [CONFIG]).degraded
    spans = tracer.buffer.traces(limit=1)[0]["spans"]
    (root,) = [s for s in spans if s["parent_id"] is None]
    assert root["name"] == ROOT_SPAN[mode]
    assert root["attributes"]["source"] == "surrogate:linear"
    (fallback,) = [s for s in spans if s["name"] == "fallback.surrogate"]
    assert fallback["parent_id"] == root["span_id"]


def test_prometheus_family_names_are_pinned(make_engine, mode):
    engine = make_engine()
    engine.predict("paper", [CONFIG])
    families = {
        line[len("# TYPE "):]
        for line in engine.metrics.to_prometheus().splitlines()
        if line.startswith("# TYPE ")
    }
    assert families == PROMETHEUS_FAMILIES[mode]
