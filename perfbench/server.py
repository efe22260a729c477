"""The served side of the serving workloads: artifact, server process, metrics.

The server runs as its own process through the ``repro-serve`` entry point
(:func:`repro.cli.serve_main`) and is observed only from outside: answers,
``/metrics?format=json`` snapshots, and ``/proc`` for memory.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from common import ROOT, Outcome, children_of, peak_rss_mb

MODEL = "table2"

#: Answers must equal the reference artifact's own predictions this closely.
RTOL = 1e-9

#: Seconds a launch may take to answer its first request.
START_TIMEOUT_S = 60.0


class Served:
    """The tuned Table 2 model, saved as the artifact both workloads serve."""

    def __init__(self, models_dir: Path):
        from repro.experiments.data import table2_dataset
        from repro.experiments.modeling import tuned_model
        from repro.models import load_model, save_model

        self.models_dir = models_dir
        models_dir.mkdir(parents=True, exist_ok=True)
        self.dataset = table2_dataset()
        # tuned_model() is TUNED_HIDDEN with the experiments' fixed seed.
        model = tuned_model().fit(self.dataset.x, self.dataset.y)
        self.path = save_model(model, models_dir / f"{MODEL}.json")
        self.reference = load_model(self.path)

    def matches(self, got: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Per-row: does ``got`` equal the reference within :data:`RTOL`?"""
        want = self.reference.predict(np.asarray(x, dtype=float))
        got = np.asarray(got, dtype=float)
        if got.shape != want.shape:
            return np.zeros(len(want), dtype=bool)
        return np.all(np.isclose(got, want, rtol=RTOL, atol=0.0), axis=1)

    def check_design(self, out: Outcome, got: np.ndarray) -> float:
        """Check the served answers for the 50 design configs.

        Returns Table 2's accuracy metric of those answers, in percent
        (0 when they are wrong).
        """
        from repro.model_selection.metrics import prediction_accuracy

        x = self.dataset.x
        ok = len(got) == len(x) and bool(self.matches(got, x).all())
        out.phase("verify", 1, 0 if ok else 1)
        out.check("design_answers_match_reference", ok)
        return 100.0 * prediction_accuracy(got, self.dataset.y) if ok else 0.0


class ServerProcess:
    """One ``repro-serve`` process (plus its workers, in cluster mode)."""

    def __init__(self, models_dir: Path, log_dir: Path, workers: int = 0):
        self.models_dir = models_dir
        self.log_dir = log_dir
        self.workers = workers
        self.proc: Optional[subprocess.Popen] = None
        self.url: Optional[str] = None
        self._drain: Optional[threading.Thread] = None

    def start(self, probe: dict, served: Served) -> float:
        """Launch; returns seconds from launch to the first correct answer."""
        from repro.serving import ServingClient
        from repro.workload.service import INPUT_NAMES, OUTPUT_NAMES

        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        env["PYTHONUNBUFFERED"] = "1"
        argv = [
            sys.executable,
            "-c",
            "import sys; from repro.cli import serve_main; "
            "sys.exit(serve_main())",
            "--models-dir", str(self.models_dir),
            "--port", "0",
        ]
        if self.workers:
            argv += ["--workers", str(self.workers)]
        self.log_dir.mkdir(parents=True, exist_ok=True)
        stderr = (self.log_dir / "server.err").open("ab")
        launched = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=stderr, env=env, cwd=ROOT,
            text=True,
        )
        stderr.close()
        deadline = launched + START_TIMEOUT_S
        while self.url is None:
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError(
                    f"server exited before listening (code {self.proc.wait()})"
                )
            if line.startswith("Serving ") and " at http://" in line:
                self.url = line.rsplit(" at ", 1)[1].strip()
            if time.perf_counter() > deadline:
                raise RuntimeError("server did not start listening in time")
        self._drain = threading.Thread(
            target=self.proc.stdout.read, name="server-stdout", daemon=True
        )
        self._drain.start()
        client = ServingClient(self.url, timeout=START_TIMEOUT_S)
        answer = client.predict(MODEL, probe)
        ready = time.perf_counter() - launched
        x = np.array([[probe[k] for k in INPUT_NAMES]])
        got = np.array([[answer[k] for k in OUTPUT_NAMES]])
        if not served.matches(got, x).all():
            raise RuntimeError(f"first answer {answer} is wrong")
        return ready

    def metrics(self) -> dict:
        from repro.serving import ServingClient

        return ServingClient(self.url, timeout=30.0).metrics()

    def pids(self) -> List[int]:
        if self.proc is None:
            return []
        return [self.proc.pid] + children_of(self.proc.pid)

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.pids())

    def stop(self) -> None:
        """SIGTERM (graceful drain), then make sure every process is gone."""
        if self.proc is None:
            return
        workers = children_of(self.proc.pid)
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=20)
        if self._drain is not None:
            self._drain.join(timeout=5)
        self.proc.stdout.close()
        deadline = time.monotonic() + 10
        for pid in workers:
            while _alive(pid) and time.monotonic() < deadline:
                time.sleep(0.02)
            if _alive(pid):
                os.kill(pid, signal.SIGKILL)
        self.proc = None
        self.url = None


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            # A zombie has exited; only its parent's wait is missing.
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def launch(
    out: Outcome, served: Served, work: Path, workers: int, probe: dict
) -> ServerProcess:
    """Launch the server for ``setup_s``; the last launch stays running."""
    kept = []

    def once(last: bool) -> float:
        server = ServerProcess(served.models_dir, work / "logs", workers)
        try:
            took = server.start(probe, served)
        except BaseException:
            server.stop()
            raise
        if last:
            kept.append(server)
        else:
            server.stop()
        return took

    out.set_up(once)
    return kept[0]


# ----------------------------------------------------------------------
# /metrics deltas
# ----------------------------------------------------------------------


def stage_means_ms(before: dict, after: dict) -> Dict[str, float]:
    """Mean duration per server stage over a phase: Δsum / Δcount, in ms."""
    b = before.get("stage_latency_seconds", {})
    a = after.get("stage_latency_seconds", {})
    means = {}
    for stage, hist in a.items():
        prior = b.get(stage, {"count": 0, "sum": 0.0})
        count = hist["count"] - prior["count"]
        if count > 0:
            means[stage] = 1000.0 * (hist["sum"] - prior["sum"]) / count
    return means


def counter_delta(before: dict, after: dict, key: str) -> int:
    return int(after.get(key, 0)) - int(before.get(key, 0))
