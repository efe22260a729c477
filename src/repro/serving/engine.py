"""The serving engine: one admission, tracing and fallback layer, two executors.

:class:`ServingEngine` is the piece every front end shares — the HTTP
server, the tuning engine, the benchmark, and embedded callers all route
queries through it.  It owns everything that does not depend on where the
forward pass runs:

* admission control: a draining engine sheds, load past the hard bound
  sheds with :class:`~repro.reliability.degradation.OverloadedError`
  (HTTP 503 + ``Retry-After``), and load past the soft bound is answered
  by the surrogate tier instead of queueing;
* the root span of every request, and the tracer/exporter wiring;
* the surrogate tier: a linear surrogate distilled from each model's
  artifact (refit when its mtime changes) answers, flagged *degraded*,
  when the primary path cannot — a degraded 2xx instead of an error;
* the observer tap, the request counters, the drain wait, ``close``, and
  the shared ``/healthz`` fields.

Where a prediction runs is an *executor*: :class:`InProcessExecutor`
(cache → micro-batcher or direct ``predict``, behind a per-model
:class:`~repro.reliability.policies.CircuitBreaker`) or the worker pool
of :mod:`repro.cluster.engine`.  An executor is built with its engine,
has a ``span_name`` for the root span, and the methods
``predict(model_name, x, deadline, soft_overloaded)`` (on a primary
failure it returns :meth:`ServingEngine.answer_degraded` when that is not
``None``), ``health(models, fallbacks)`` → ``(paths, servable,
evidence)``, ``describe()`` (its ``/models`` fields), ``start()``,
``reload(name)``, ``drain(timeout)`` and ``close()``.
"""

from __future__ import annotations

import functools
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from ..observability.trace import (
    NOOP_SPAN,
    STATUS_ERROR,
    JsonlSpanExporter,
    Tracer,
)
from ..reliability.degradation import (
    HealthMonitor,
    OverloadedError,
    fit_linear_surrogate,
)
from ..reliability.policies import (
    OPEN,
    CircuitBreaker,
    CircuitOpenError,
    Deadline,
    DeadlineExceeded,
)
from ..workload.service import INPUT_NAMES, OUTPUT_NAMES
from .batcher import MicroBatcher
from .cache import PredictionCache
from .metrics import ServingMetrics
from .registry import ModelRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..durability.integrity import IntegrityGuard
    from ..models.linear import LinearWorkloadModel
    from ..reliability.faults import FaultPlan

__all__ = ["ServingEngine", "InProcessExecutor", "PredictionResult"]

_SURROGATE_SOURCE = "surrogate:linear"


@dataclass
class PredictionResult:
    """Outputs plus the provenance the HTTP layer surfaces to callers."""

    outputs: np.ndarray
    degraded: bool = False
    source: str = "mlp"


@dataclass
class _Surrogate:
    """A distilled fallback model pinned to the artifact it was fit from."""

    mtime_ns: int
    model: "LinearWorkloadModel"


class ServingEngine:
    """Serve predictions from every model in a registry directory.

    Predictions run in-process (:class:`InProcessExecutor`);
    :class:`~repro.cluster.engine.ClusterEngine` runs them in a worker pool.

    Parameters
    ----------
    registry:
        A :class:`~repro.serving.registry.ModelRegistry`, or a directory
        path to build one from.
    batching:
        Route queries through per-model micro-batchers.  Off, each
        request runs its own vectorized ``predict`` (still batched
        *within* a multi-config request).
    max_batch_size / max_wait_ms:
        Micro-batcher knobs (see :class:`~repro.serving.batcher.MicroBatcher`).
    cache_size:
        Prediction-cache size; ``0`` disables caching.
    fallback:
        Distill a linear surrogate from each model at registration and
        answer from it (flagged *degraded*) when the MLP path fails.
    max_inflight:
        Soft admission bound: above this many concurrent requests the
        engine answers from the surrogate instead of queueing on the
        batcher.  ``None`` disables the bound.
    shed_inflight:
        Hard admission bound: above this many concurrent requests the
        engine sheds with :class:`OverloadedError` (→ 503 + Retry-After).
        ``None`` disables shedding.
    breaker_window / breaker_min_samples / breaker_reset_timeout:
        Per-model :class:`CircuitBreaker` knobs.
    retry_after_s:
        The ``Retry-After`` hint attached to shed requests.
    clock:
        Monotonic time source for the breakers (injectable for tests).
    faults:
        Optional :class:`~repro.reliability.faults.FaultPlan` handed to
        the registry (when built here) and every micro-batcher.
    observer:
        Optional traffic tap called after every successful prediction as
        ``observer(model_name, configs, outputs, source)`` with the
        ``(n, 4)`` configuration array and ``(n, 5)`` output array.  The
        continuous-learning loop (:mod:`repro.lifecycle`) feeds its
        :class:`~repro.lifecycle.observations.ObservationLog` through
        this hook; observer exceptions are swallowed so capture can
        never fail a request.
    tracing / tracer / trace_sample_rate / slow_trace_ms / trace_export:
        The observability layer.  By default the engine builds its own
        :class:`~repro.observability.trace.Tracer` (head-sampling at
        ``trace_sample_rate``, slow-span override at ``slow_trace_ms``,
        optional JSONL export to ``trace_export``) wired into the
        metrics' per-stage histograms; pass ``tracer`` to share one
        across components, or ``tracing=False`` to disable spans
        entirely.  Every predict emits an ``engine.predict`` span with
        ``cache.lookup``, ``batcher.queue_wait`` / ``batcher.execute``,
        ``registry.load`` and ``fallback.surrogate`` children as the
        request exercises them.
    integrity:
        Optional :class:`~repro.durability.integrity.IntegrityGuard`
        attached to the registry: artifacts are sha256-verified on every
        (re)load, corrupt ones quarantined and — when the guard has a
        rollback hook — transparently replaced by the last verified-good
        stored version.  The guard's metrics default to this engine's.
    """

    def __init__(
        self,
        registry: Union[ModelRegistry, str, Path],
        batching: bool = True,
        max_batch_size: int = 32,
        max_wait_ms: float = 2.0,
        cache_size: int = 1024,
        fallback: bool = True,
        max_inflight: Optional[int] = None,
        shed_inflight: Optional[int] = None,
        breaker_window: int = 10,
        breaker_min_samples: int = 3,
        breaker_reset_timeout: float = 5.0,
        retry_after_s: float = 1.0,
        clock: Callable[[], float] = time.monotonic,
        faults: Optional["FaultPlan"] = None,
        observer: Optional[
            Callable[[str, np.ndarray, np.ndarray, str], None]
        ] = None,
        tracing: bool = True,
        tracer: Optional[Tracer] = None,
        trace_sample_rate: float = 1.0,
        slow_trace_ms: Optional[float] = 500.0,
        trace_export: Optional[Union[str, Path]] = None,
        integrity: Optional["IntegrityGuard"] = None,
    ):
        if not isinstance(registry, ModelRegistry):
            registry = ModelRegistry(registry, faults=faults)
        if integrity is not None:
            registry.integrity = integrity
        self._setup(
            registry, fallback, max_inflight, shed_inflight, retry_after_s,
            observer, tracing, tracer, trace_sample_rate, slow_trace_ms,
            trace_export,
        )
        self.executor = InProcessExecutor(
            self,
            batching=batching,
            max_batch_size=max_batch_size,
            max_wait_ms=max_wait_ms,
            cache_size=cache_size,
            faults=faults,
            new_breaker=functools.partial(
                CircuitBreaker,
                window=breaker_window,
                min_samples=breaker_min_samples,
                reset_timeout=breaker_reset_timeout,
                clock=clock,
            ),
        )
        self.cache = self.metrics.cache = self.executor.cache
        if integrity is not None and integrity.metrics is None:
            integrity.metrics = self.metrics

    def _setup(
        self,
        registry: ModelRegistry,
        fallback: bool,
        max_inflight: Optional[int],
        shed_inflight: Optional[int],
        retry_after_s: float,
        observer,
        tracing: bool,
        tracer: Optional[Tracer],
        trace_sample_rate: float,
        slow_trace_ms: Optional[float],
        trace_export: Optional[Union[str, Path]],
    ) -> None:
        """Wire the executor-independent half; the executor comes next."""
        if max_inflight is not None and max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")
        if shed_inflight is not None and shed_inflight < 1:
            raise ValueError(f"shed_inflight must be >= 1, got {shed_inflight}")
        self.registry = registry
        self.fallback = bool(fallback)
        self.max_inflight = max_inflight
        self.shed_inflight = shed_inflight
        self.retry_after_s = float(retry_after_s)
        self.observer = observer
        self.metrics = ServingMetrics()
        self.health_monitor = HealthMonitor()
        self._exporter: Optional[JsonlSpanExporter] = None
        if not tracing:
            self.tracer: Optional[Tracer] = None
        elif tracer is not None:
            self.tracer = tracer
            if self.tracer.on_span_end is None:
                self.tracer.on_span_end = self.metrics.span_observer()
        else:
            if trace_export is not None:
                self._exporter = JsonlSpanExporter(trace_export)
            self.tracer = Tracer(
                sample_rate=trace_sample_rate,
                slow_threshold_s=(
                    None if slow_trace_ms is None else slow_trace_ms / 1000.0
                ),
                exporter=self._exporter,
                on_span_end=self.metrics.span_observer(),
            )
        # The registry traces its (rare) artifact loads into the same tree.
        if self.tracer is not None and self.registry.tracer is None:
            self.registry.tracer = self.tracer
        self._surrogates: Dict[str, _Surrogate] = {}
        self._inflight = 0
        self._lock = threading.Lock()
        self._closed = False
        self._draining = False

    # ------------------------------------------------------------------

    def list_models(self) -> List[str]:
        """Model names servable right now."""
        return self.registry.list_models()

    def predict(
        self,
        model_name: str,
        configs: Sequence[Sequence[float]],
        deadline: Optional[Deadline] = None,
    ) -> np.ndarray:
        """Predict indicators for ``configs`` (rows in ``INPUT_NAMES`` order).

        Returns an ``(n, len(OUTPUT_NAMES))`` array in ``OUTPUT_NAMES``
        column order.  Raises :class:`KeyError` for an unknown model and
        :class:`ValueError` for malformed input.  See
        :meth:`predict_detailed` for the degraded/source annotations.
        """
        return self.predict_detailed(model_name, configs, deadline).outputs

    def predict_detailed(
        self,
        model_name: str,
        configs: Sequence[Sequence[float]],
        deadline: Optional[Deadline] = None,
    ) -> PredictionResult:
        """Like :meth:`predict` but reports whether a fallback answered.

        Raises :class:`OverloadedError` when admission sheds the request,
        :class:`DeadlineExceeded` when the caller's budget lapses
        mid-request, and the executor's own error when its primary path
        fails and no surrogate can answer (e.g. :class:`CircuitOpenError`
        in-process).
        """
        start = time.perf_counter()
        span = (
            self.tracer.start_span(self.executor.span_name)
            if self.tracer is not None
            else NOOP_SPAN
        )
        with span:
            x = np.atleast_2d(np.asarray(configs, dtype=float))
            if x.ndim != 2 or x.shape[1] != len(INPUT_NAMES):
                raise ValueError(
                    f"configs must be (n, {len(INPUT_NAMES)}) in "
                    f"{INPUT_NAMES} order, got shape {x.shape}"
                )
            if not np.all(np.isfinite(x)):
                raise ValueError("configs must be finite numbers")
            if span is not NOOP_SPAN:
                span.set_attribute("model", model_name)
                span.set_attribute("n_configs", int(x.shape[0]))

            with self._lock:
                if self._draining or self._closed:
                    # Admission is closed: the caller should retry against
                    # another replica (503 + Retry-After at the HTTP layer).
                    raise self.shed("serving engine is draining")
                self._inflight += 1
                inflight = self._inflight
            try:
                if (
                    self.shed_inflight is not None
                    and inflight > self.shed_inflight
                ):
                    raise self.shed()
                soft_overloaded = (
                    self.max_inflight is not None
                    and inflight > self.max_inflight
                )
                result = None
                if soft_overloaded:
                    result = self.answer_degraded(model_name, x)
                if result is None:
                    result = self.executor.predict(
                        model_name, x, deadline, soft_overloaded
                    )
            finally:
                with self._lock:
                    self._inflight -= 1
            if result.degraded:
                self.metrics.record_degraded()
            if span is not NOOP_SPAN:
                span.set_attribute("source", result.source)
        if self.observer is not None:
            try:
                self.observer(model_name, x, result.outputs, result.source)
            except Exception:  # noqa: BLE001 - capture must never fail serving
                pass
        self.metrics.record_request(x.shape[0], time.perf_counter() - start)
        return result

    def predict_one(
        self, model_name: str, config: Sequence[float]
    ) -> np.ndarray:
        """Single-configuration convenience; returns a length-5 vector."""
        return self.predict(model_name, [config])[0]

    def shed(self, message: Optional[str] = None) -> OverloadedError:
        """Count one shed request and return the error to raise for it."""
        self.metrics.record_shed()
        return OverloadedError(retry_after=self.retry_after_s, message=message)

    # ------------------------------------------------------------------
    # surrogate tier
    # ------------------------------------------------------------------

    def answer_degraded(
        self, model_name: str, x: np.ndarray
    ) -> Optional[PredictionResult]:
        """The surrogate's answer, flagged degraded; ``None`` without one."""
        surrogate = self._surrogates.get(model_name)
        if surrogate is None:
            return None
        span = (
            self.tracer.start_span(
                "fallback.surrogate", attributes={"model": model_name}
            )
            if self.tracer is not None
            else NOOP_SPAN
        )
        with span:
            outputs = np.asarray(surrogate.model.predict(x), dtype=float)
        return PredictionResult(outputs, degraded=True, source=_SURROGATE_SOURCE)

    def refresh_surrogate(self, model_name: str, entry=None) -> None:
        """(Re)fit ``model_name``'s surrogate from ``entry`` (or a registry
        load) when its artifact changed.  The last good surrogate survives
        later load failures — that is the whole point of having it.
        """
        if not self.fallback:
            return
        if entry is None:
            try:
                entry = self.registry.get_entry(model_name)
            except Exception:  # noqa: BLE001 - artifact gone/corrupt: keep stale
                return
        current = self._surrogates.get(model_name)
        if current is not None and current.mtime_ns == entry.mtime_ns:
            return
        try:
            surrogate = fit_linear_surrogate(entry.model)
        except Exception:  # noqa: BLE001 - fallback is best-effort
            return
        with self._lock:
            self._surrogates[model_name] = _Surrogate(
                mtime_ns=entry.mtime_ns, model=surrogate
            )

    # ------------------------------------------------------------------
    # health
    # ------------------------------------------------------------------

    def health(self) -> dict:
        """The ``/healthz`` payload: status plus the evidence behind it."""
        models = self.list_models()
        with self._lock:
            inflight = self._inflight
            draining = self._draining
            fallbacks = sorted(self._surrogates)
        shedding = (
            self.shed_inflight is not None and inflight > self.shed_inflight
        )
        paths, servable, evidence = self.executor.health(models, fallbacks)
        status = self.health_monitor.update(
            paths, shedding=shedding, servable=servable
        )
        return {
            "status": status,
            "models": len(models),
            **evidence,
            "fallbacks": fallbacks,
            "inflight": inflight,
            "draining": draining,
        }

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "ServingEngine":
        """Start the executor (spawn a worker pool); idempotent."""
        self.executor.start()
        return self

    def reload(self, model_name: str) -> None:
        """Hot-swap one model in the registry and the executor."""
        self.registry.reload(model_name)
        self.executor.reload(model_name)

    @property
    def draining(self) -> bool:
        """Whether admission is closed (``/readyz`` answers not-ready)."""
        with self._lock:
            return self._draining

    @property
    def inflight(self) -> int:
        """Requests currently past admission (drives the tuning shed tier)."""
        with self._lock:
            return self._inflight

    def drain(self, timeout: float = 5.0) -> None:
        """Graceful shutdown: refuse new work, finish everything queued.

        Flips the engine into draining mode (new :meth:`predict` calls
        shed with 503 + Retry-After and ``/readyz`` reports not-ready),
        waits for the in-flight requests that already passed admission,
        lets the executor finish the work it already queued within what
        is left of ``timeout``, and flushes the trace exporter.  The
        engine refuses new work afterwards; call it once, from the
        SIGTERM / ``/admin/drain`` path.  Idempotent.
        """
        with self._lock:
            if self._draining:
                return
            self._draining = True
        deadline = time.monotonic() + max(0.0, float(timeout))
        while time.monotonic() < deadline:
            with self._lock:
                if self._inflight == 0:
                    break
            time.sleep(0.005)
        self.executor.drain(max(0.1, deadline - time.monotonic()))
        if self._exporter is not None:
            self._exporter.close()

    def close(self) -> None:
        """Stop the executor and flush the trace export."""
        with self._lock:
            self._closed = True
        self.executor.close()
        if self._exporter is not None:
            self._exporter.close()

    def __enter__(self) -> "ServingEngine":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _breaker_for(self, model_name: str) -> CircuitBreaker:
        """The in-process executor's breaker for ``model_name``."""
        return self.executor.breaker_for(model_name)


class InProcessExecutor:
    """Run predictions in the request thread: cache → batcher → model.

    Each model's path sits behind its own :class:`CircuitBreaker`:
    repeated artifact or model failures open it, and recovery is probed
    half-open before the path is trusted again.
    """

    span_name = "engine.predict"

    def __init__(
        self,
        engine: ServingEngine,
        batching: bool,
        max_batch_size: int,
        max_wait_ms: float,
        cache_size: int,
        faults: Optional["FaultPlan"],
        new_breaker: Callable[..., CircuitBreaker],
    ):
        self.batching = bool(batching)
        self.max_batch_size = int(max_batch_size)
        self.max_wait_ms = float(max_wait_ms)
        self.cache = PredictionCache(cache_size)
        self.faults = faults
        self.engine = engine
        self._new_breaker = new_breaker
        self._batchers: Dict[str, MicroBatcher] = {}
        self._breakers: Dict[str, CircuitBreaker] = {}
        self._seen_mtimes: Dict[str, int] = {}
        self._lock = threading.Lock()
        self._closed = False

    def start(self) -> None:
        """Nothing to spawn: batchers start on a model's first request."""

    def describe(self) -> dict:
        return {
            "batching": self.batching,
            "max_batch_size": self.max_batch_size,
            "max_wait_ms": self.max_wait_ms,
        }

    # ------------------------------------------------------------------
    # guarded prediction path
    # ------------------------------------------------------------------

    def predict(
        self,
        model_name: str,
        x: np.ndarray,
        deadline: Optional[Deadline],
        soft_overloaded: bool,
    ) -> PredictionResult:
        engine = self.engine
        breaker = self.breaker_for(model_name)
        primary_error: Optional[BaseException] = None
        if breaker.allow():
            try:
                outputs = self._predict_primary(model_name, x, deadline)
            except KeyError:
                # Unknown model (no artifact on disk) — a caller error,
                # not a path failure; don't move the breaker.
                breaker.cancel()
                raise
            except DeadlineExceeded:
                # The budget died waiting on this path: that is a primary
                # failure, but there is no time left to fall back.
                breaker.record_failure()
                raise
            except Exception as exc:  # noqa: BLE001 - routed to fallback
                breaker.record_failure()
                primary_error = exc
            else:
                breaker.record_success()
                return PredictionResult(outputs, degraded=False, source="mlp")
        degraded = engine.answer_degraded(model_name, x)
        if degraded is not None:
            return degraded
        if primary_error is not None:
            raise primary_error
        if soft_overloaded:
            raise engine.shed()
        error = CircuitOpenError(
            retry_after=max(breaker.retry_after(), 0.05),
            message=(
                f"model {model_name!r} is circuit-broken and has no "
                f"fallback; retry after {breaker.retry_after():.2f}s"
            ),
        )
        if engine.tracer is not None:
            # A refused call has no duration worth measuring; record the
            # rejection itself so the trace shows *why* nothing ran.
            engine.tracer.record_span(
                "breaker.rejected",
                duration_s=0.0,
                status=STATUS_ERROR,
                error=f"CircuitOpenError: {error}",
                attributes={"model": model_name},
            )
        raise error

    def _predict_primary(
        self,
        model_name: str,
        x: np.ndarray,
        deadline: Optional[Deadline],
    ) -> np.ndarray:
        """The original cache → batcher → model path (may raise freely)."""
        if deadline is not None:
            deadline.check("predict")
        entry = self.engine.registry.get_entry(model_name)  # KeyError if unknown
        self._note_mtime(model_name, entry.mtime_ns)
        self.engine.refresh_surrogate(model_name, entry)
        model = entry.model
        tracer = self.engine.tracer
        out = np.empty((x.shape[0], len(OUTPUT_NAMES)), dtype=float)
        miss_rows: List[int] = []
        # A disabled cache (max_entries=0) always misses; a span around
        # it would be pure hot-path overhead with no information.
        cache_span = (
            tracer.start_span("cache.lookup")
            if tracer is not None and self.cache.max_entries > 0
            else NOOP_SPAN
        )
        with cache_span:
            keys = [self.cache.key(model_name, row) for row in x]
            for i, key in enumerate(keys):
                cached = self.cache.get(key)
                if cached is not None:
                    out[i] = cached
                else:
                    miss_rows.append(i)
            if cache_span is not NOOP_SPAN:
                cache_span.set_attribute(
                    "hits", int(x.shape[0]) - len(miss_rows)
                )
                cache_span.set_attribute("misses", len(miss_rows))

        if miss_rows:
            # Duplicate configs inside one request (tuning sweeps repeat
            # themselves) run the network once and share the row.
            groups: Dict[tuple, List[int]] = {}
            for i in miss_rows:
                groups.setdefault(keys[i], []).append(i)
            lead_rows = [rows[0] for rows in groups.values()]
            if self.batching:
                batcher = self._batcher_for(model_name)
                futures = [batcher.submit(x[i]) for i in lead_rows]
                for i, future in zip(lead_rows, futures):
                    timeout = 30.0
                    if deadline is not None:
                        timeout = deadline.clamp(timeout)
                    try:
                        out[i] = future.result(timeout=timeout)
                    except TimeoutError:
                        if deadline is not None and deadline.expired:
                            raise DeadlineExceeded(
                                "prediction exceeded its deadline waiting "
                                "on the micro-batcher"
                            ) from None
                        raise
                self._record_batch_spans(futures)
            else:
                # No separate model.predict span here: on the unbatched
                # path the forward pass is the tail of engine.predict
                # (minus cache.lookup), so a child span would only double
                # the per-request tracing cost for information the parent
                # already carries.
                out[lead_rows] = model.predict(x[lead_rows])
            for rows in groups.values():
                out[rows[1:]] = out[rows[0]]
                self.cache.put(keys[rows[0]], out[rows[0]])
        return out

    def _record_batch_spans(self, futures) -> None:
        """Reconstruct the queue-wait / flush-execute split as child spans.

        The batcher worker stamps ``perf_counter`` timestamps on every
        future it resolves; once the results are in, one
        ``batcher.queue_wait`` / ``batcher.execute`` span pair is recorded
        retrospectively per distinct flushed batch (keyed by its flush
        start, since one request's rows can straddle batches).  This is
        the split micro-batching otherwise hides: time spent waiting for
        stragglers vs time inside the vectorized predict.
        """
        tracer = self.engine.tracer
        if tracer is None:
            return
        parent = tracer.current_span()
        if parent is None or not parent.sampled:
            return
        now_perf = time.perf_counter()
        now_wall = time.time()
        seen = set()
        for future in futures:
            started = future.flush_started_at
            ended = future.flush_ended_at
            if started is None or ended is None or started in seen:
                continue
            seen.add(started)
            tracer.record_span(
                "batcher.queue_wait",
                duration_s=max(0.0, started - future.submitted_at),
                parent=parent,
                start_time=now_wall - (now_perf - future.submitted_at),
            )
            tracer.record_span(
                "batcher.execute",
                duration_s=max(0.0, ended - started),
                parent=parent,
                start_time=now_wall - (now_perf - started),
                attributes={"batch_size": future.batch_size},
            )

    # ------------------------------------------------------------------
    # health and lifecycle
    # ------------------------------------------------------------------

    def health(self, models: List[str], fallbacks: List[str]):
        breakers = {
            name: breaker.state for name, breaker in self._breakers.items()
        }
        open_without_fallback = [
            name
            for name, state in breakers.items()
            if state == OPEN and name not in fallbacks
        ]
        servable = (
            not self._closed
            and bool(models)
            and (not breakers or len(open_without_fallback) < len(breakers))
        )
        return breakers, servable, {"breakers": breakers}

    def reload(self, model_name: str) -> None:
        """Drop the model's now-stale cached predictions and batcher."""
        self.cache.invalidate_model(model_name)
        with self._lock:
            batcher = self._batchers.pop(model_name, None)
        if batcher is not None:
            batcher.close()

    def drain(self, timeout: float) -> None:
        """Complete every future already queued on the micro-batchers."""
        for batcher in self._detach_batchers():
            batcher.close(timeout=timeout, drain=True)

    def close(self) -> None:
        """Stop every batcher worker thread."""
        for batcher in self._detach_batchers():
            batcher.close()

    def _detach_batchers(self) -> List[MicroBatcher]:
        with self._lock:
            batchers, self._batchers = list(self._batchers.values()), {}
            self._closed = True
        return batchers

    # ------------------------------------------------------------------

    def _note_mtime(self, model_name: str, mtime_ns: int) -> None:
        """Invalidate cached predictions when the artifact was hot-swapped."""
        with self._lock:
            previous = self._seen_mtimes.get(model_name)
            self._seen_mtimes[model_name] = mtime_ns
        if previous is not None and previous != mtime_ns:
            self.cache.invalidate_model(model_name)

    def breaker_for(self, model_name: str) -> CircuitBreaker:
        metrics = self.engine.metrics
        with self._lock:
            breaker = self._breakers.get(model_name)
            if breaker is None:
                breaker = self._new_breaker(
                    name=model_name,
                    on_state_change=(
                        lambda old, new, name=model_name:
                        metrics.set_breaker_state(name, new)
                    ),
                )
                self._breakers[model_name] = breaker
                metrics.set_breaker_state(model_name, breaker.state)
            return breaker

    def _batcher_for(self, model_name: str) -> MicroBatcher:
        with self._lock:
            if self._closed:
                raise RuntimeError("predict() on a closed ServingEngine")
            batcher = self._batchers.get(model_name)
            if batcher is None:
                # The batcher resolves the model per flush so a hot
                # reload takes effect without restarting the worker.
                registry = self.engine.registry
                batcher = MicroBatcher(
                    lambda batch: registry.get(model_name).predict(batch),
                    max_batch_size=self.max_batch_size,
                    max_wait_ms=self.max_wait_ms,
                    on_batch=self.engine.metrics.record_batch,
                    faults=self.faults,
                )
                self._batchers[model_name] = batcher
            return batcher
