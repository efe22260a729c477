"""The worker-pool executor, and :class:`ClusterEngine` built on it.

:class:`ClusterEngine` is a :class:`~repro.serving.engine.ServingEngine`
whose predictions execute in supervised worker *processes* instead of the
request thread, so the GIL stops being the throughput ceiling and a dead
worker stops being an outage.  Admission, tracing, the surrogate tier,
the observer tap and draining are the engine's; after admission a request
goes through :class:`WorkerPoolExecutor`, in failure order:

1. **Routing** — the rendezvous router orders the ready workers into the
   model's replica set.
2. **Primary call** — one framed round trip to the top-ranked replica.
   The worker's own predict timing comes back in the response header and
   is re-recorded as a ``worker.execute`` span in the request's trace
   (trace context crossed the process boundary in the frame).
3. **Sibling failover** — a transport failure (SIGKILL mid-flight, wedge
   timeout, poisoned channel) retries the request once on the next
   replica, which preloaded the same artifacts and is warm.  Only the
   failed worker's in-flight requests pay (bulkhead).
4. **Degraded surrogate** — when every replica fails, or no worker is
   ready at all (restart budget exhausted), the engine's locally
   distilled linear surrogate answers, flagged ``degraded``: a 2xx with
   honest provenance beats a connection reset.

Worker-side errors that are really *caller* errors (unknown model, bad
deadline) propagate as their exception types and are never failed over:
a sibling would only repeat them.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, List, Optional, Union

import numpy as np

from ..observability.trace import NOOP_SPAN, Tracer
from ..reliability.degradation import OverloadedError
from ..reliability.policies import Deadline, DeadlineExceeded
from ..serving.engine import PredictionResult, ServingEngine
from ..serving.registry import ModelRegistry
from ..workload.service import OUTPUT_NAMES
from .protocol import ProtocolError, WorkerCallError, pack_array, unpack_array
from .router import RendezvousRouter
from .supervisor import READY, WorkerSupervisor

__all__ = ["ClusterEngine", "WorkerPoolExecutor"]

#: Workers tried per request: the primary and one sibling.
_CALL_CANDIDATES = 2


class WorkerPoolExecutor:
    """Run predictions in a supervised pool of worker processes.

    The engine's local registry only feeds the surrogate tier; every
    worker loads its own copy of the artifacts.
    """

    span_name = "cluster.predict"

    def __init__(
        self,
        engine: ServingEngine,
        models_dir: Union[str, Path],
        workers: int,
        replication: int,
        call_timeout: float,
        worker_faults,
        supervisor_options: Optional[dict],
    ):
        self.call_timeout = float(call_timeout)
        self.router = RendezvousRouter(replication=replication)
        self.supervisor = WorkerSupervisor(
            models_dir,
            n_workers=workers,
            worker_faults=worker_faults,
            metrics=engine.metrics,
            **(supervisor_options or {}),
        )
        self.engine = engine
        self._started = False

    def start(self) -> None:
        """Spawn the worker pool and pre-distill the surrogate tier."""
        if self._started:
            return
        self.supervisor.start()
        self._started = True
        for name in self.engine.list_models():
            self.engine.refresh_surrogate(name)

    def describe(self) -> dict:
        # Cross-request micro-batching happens per HTTP request already:
        # a multi-config body is one vectorized worker call.
        return {"batching": False, "max_batch_size": 0, "max_wait_ms": 0.0}

    # ------------------------------------------------------------------

    def predict(
        self,
        model_name: str,
        x: np.ndarray,
        deadline: Optional[Deadline],
        soft_overloaded: bool,
    ) -> PredictionResult:
        """Route one prediction through the pool (see module docs).

        Raises :class:`KeyError` for unknown models,
        :class:`DeadlineExceeded` when the budget dies, and the last
        transport error only when no surrogate can answer.
        """
        if not self._started:
            raise RuntimeError(
                "ClusterEngine.start() must run before predict()"
            )
        engine = self.engine
        self.router.record(model_name)
        if deadline is not None:
            deadline.check("cluster predict")
        engine.refresh_surrogate(model_name)
        if model_name not in engine.registry:
            raise KeyError(f"unknown model {model_name!r}")
        replicas = self.router.replicas(
            model_name, self.supervisor.ready_ids()
        )
        payload = pack_array(x)
        last_error: Optional[BaseException] = None
        for attempt, worker_id in enumerate(replicas[:_CALL_CANDIDATES]):
            if attempt > 0:
                engine.metrics.record_worker_failover()
            try:
                return self._call_worker(
                    model_name, x, payload, worker_id, attempt, deadline
                )
            except (WorkerCallError, _WorkerSideError) as exc:
                last_error = exc
        degraded = engine.answer_degraded(model_name, x)
        if degraded is not None:
            return degraded
        if last_error is not None:
            raise (
                last_error.cause
                if isinstance(last_error, _WorkerSideError)
                else last_error
            )
        raise OverloadedError(
            retry_after=engine.retry_after_s,
            message=(
                f"no ready workers for model {model_name!r} and no "
                "surrogate fallback"
            ),
        )

    def _call_worker(
        self,
        model_name: str,
        x: np.ndarray,
        payload: bytes,
        worker_id: int,
        attempt: int,
        deadline: Optional[Deadline],
    ) -> PredictionResult:
        timeout = self.call_timeout
        header = {
            "op": "predict",
            "model": model_name,
            "n": int(x.shape[0]),
            "d": int(x.shape[1]),
        }
        if deadline is not None:
            remaining = deadline.remaining()
            if remaining <= 0:
                raise DeadlineExceeded(
                    "prediction exceeded its deadline before reaching a worker"
                )
            header["deadline_ms"] = max(1.0, remaining * 1000.0)
            timeout = deadline.clamp(timeout)
        tracer = self.engine.tracer
        call_span = (
            tracer.start_span(
                "worker.call",
                attributes={
                    "model": model_name,
                    "worker": worker_id,
                    "attempt": attempt,
                },
            )
            if tracer is not None
            else NOOP_SPAN
        )
        if call_span is not NOOP_SPAN and call_span.trace_id:
            # Trace context crosses the process boundary in the frame
            # header, so worker-side journals can be joined to this trace.
            header["trace_id"] = call_span.trace_id
            header["parent_span_id"] = call_span.span_id
        with call_span:
            try:
                resp, resp_payload = self.supervisor.call(
                    worker_id, header, payload, timeout=timeout
                )
            except WorkerCallError as exc:
                call_span.record_error(exc)
                raise
            if not resp.get("ok"):
                kind = resp.get("kind", "RuntimeError")
                error = resp.get("error", "worker error")
                if kind == "KeyError":
                    raise KeyError(f"unknown model {model_name!r}")
                if kind == "ValueError":
                    raise ValueError(error)
                if kind == "DeadlineExceeded":
                    raise DeadlineExceeded(error)
                exc = RuntimeError(f"worker {worker_id}: {kind}: {error}")
                call_span.record_error(exc)
                # Not a transport failure, but not a caller error either
                # (an artifact or model blew up in the worker): a sibling
                # with its own loaded copy may still answer.
                raise _WorkerSideError(exc)
            try:
                outputs = unpack_array(
                    resp_payload, int(resp["n"]), int(resp["m"])
                )
            except (KeyError, ValueError, ProtocolError) as exc:
                raise _WorkerSideError(
                    RuntimeError(f"worker {worker_id}: bad response: {exc}")
                ) from exc
            if outputs.shape[1] != len(OUTPUT_NAMES):
                raise _WorkerSideError(
                    RuntimeError(
                        f"worker {worker_id} returned {outputs.shape[1]} "
                        f"outputs, expected {len(OUTPUT_NAMES)}"
                    )
                )
            if call_span is not NOOP_SPAN:
                call_span.set_attribute("n_configs", int(x.shape[0]))
                predict_s = resp.get("predict_s")
                if predict_s is not None and tracer is not None:
                    # The worker's own forward-pass timing, re-attached
                    # to this trace as a retrospective child span.
                    tracer.record_span(
                        "worker.execute",
                        duration_s=float(predict_s),
                        parent=call_span,
                        attributes={"worker": worker_id},
                    )
        return PredictionResult(
            outputs, degraded=False, source=f"worker:{worker_id}"
        )

    # ------------------------------------------------------------------
    # health and lifecycle
    # ------------------------------------------------------------------

    def health(self, models: List[str], fallbacks: List[str]):
        """Worker states folded in as pseudo breakers.

        A not-ready worker reads as a tripped path, so the
        ``healthy/degraded/unhealthy`` contract — and its transition log —
        is exactly the one the in-process executor's breakers drive.
        """
        status = self.supervisor.status()
        worker_paths = {
            f"worker:{w['worker']}": (
                "closed" if w["state"] == READY else "open"
            )
            for w in status["workers"]
        }
        servable = status["ready"] > 0 or bool(fallbacks)
        return worker_paths, servable, {
            "workers": status["workers"],
            "ready_workers": status["ready"],
            "failed_workers": status["failed"],
            "worker_restarts_total": status["restarts_total"],
        }

    def reload(self, model_name: str) -> None:
        """Refresh the surrogate and nudge every worker.

        Workers hot-reload on their own (their registries re-check the
        artifact mtime per request), so the forward is best-effort — a
        worker mid-restart simply loads the new version at startup,
        which is the property the lifecycle promote path relies on.
        """
        self.engine.refresh_surrogate(model_name)
        for worker_id in self.supervisor.ready_ids():
            try:
                self.supervisor.call(
                    worker_id,
                    {"op": "reload", "model": model_name},
                    timeout=self.call_timeout,
                )
            except WorkerCallError:
                continue

    def drain(self, timeout: float) -> None:
        self.supervisor.drain(timeout=timeout)

    def close(self) -> None:
        self.supervisor.stop()


class _WorkerSideError(Exception):
    """An application-level worker failure eligible for sibling retry."""

    def __init__(self, cause: BaseException):
        self.cause = cause
        super().__init__(str(cause))


class ClusterEngine(ServingEngine):
    """A :class:`ServingEngine` over a supervised pool of worker processes.

    Parameters
    ----------
    models_dir:
        Artifact directory shared by the local registry (surrogates,
        tuning) and every worker (primary inference).
    workers:
        Worker-process pool size.
    replication:
        Replica-set size per model (see
        :class:`~repro.cluster.router.RendezvousRouter`); a request tries
        the top-ranked ready replica, then one sibling.
    call_timeout:
        Per-call budget on a worker round trip (clamped by any request
        deadline).  A worker silent past this is treated as failed and
        the request fails over.
    worker_faults:
        Optional :class:`~repro.reliability.faults.FaultPlan` (or its
        dict form) shipped to every worker — the ``worker.handle`` kill
        points for chaos tests.
    supervisor_options:
        Extra keyword arguments forwarded to
        :class:`~repro.cluster.supervisor.WorkerSupervisor` (heartbeat,
        backoff, and budget knobs — the chaos tests tighten these).
    fallback / max_inflight / shed_inflight / retry_after_s / observer /
    tracing / tracer / trace_sample_rate / slow_trace_ms / trace_export:
        As in :class:`ServingEngine`; the surrogate is distilled for every
        model at :meth:`start` and answers when the worker path is
        exhausted.
    """

    def __init__(
        self,
        models_dir: Union[str, Path],
        workers: int = 4,
        replication: int = 2,
        call_timeout: float = 10.0,
        fallback: bool = True,
        max_inflight: Optional[int] = None,
        shed_inflight: Optional[int] = None,
        retry_after_s: float = 1.0,
        worker_faults=None,
        tracing: bool = True,
        tracer: Optional[Tracer] = None,
        trace_sample_rate: float = 1.0,
        slow_trace_ms: Optional[float] = 500.0,
        trace_export: Optional[Union[str, Path]] = None,
        observer: Optional[
            Callable[[str, np.ndarray, np.ndarray, str], None]
        ] = None,
        supervisor_options: Optional[dict] = None,
    ):
        self._setup(
            ModelRegistry(models_dir), fallback, max_inflight, shed_inflight,
            retry_after_s, observer, tracing, tracer, trace_sample_rate,
            slow_trace_ms, trace_export,
        )
        self.executor = WorkerPoolExecutor(
            self, models_dir, workers, replication, call_timeout,
            worker_faults, supervisor_options,
        )
        self.supervisor = self.executor.supervisor
        self.router = self.executor.router

    def drain(self, timeout: float = 10.0) -> None:
        """As :meth:`ServingEngine.drain`; the workers drain within it."""
        super().drain(timeout)
