"""``characterize``: the paper's offline pipeline, in this one process.

Each *pass* runs three stages, and passes repeat until the run's time is
spent:

1. trace ETL: ``ingest`` -> ``fit_trace`` -> ``emit_family`` -> replay ->
   ``validate_family`` on a seeded synthetic CSV trace written before
   timing (the DES used as a trace-fitted replay);
2. re-simulation of one seeded Table 2 design config with the canonical
   ``ThreeTierWorkload`` (the DES as the paper's 3-tier model), which must
   reproduce ``data/table2_samples.csv`` bit for bit;
3. Table 2 5-fold cross validation (``run_table2``) and Figures 4/7/8.

The stages are sized so that none is a negligible share of a pass.  This
is the only workload where the DES, training and ETL do the work and
serving does none.  Stage times are scaled to a reference host speed
(:class:`common.HostClock`) and the reported passes are rebuilt from each
stage's mean, so the host's drift stays out of the figures.
"""

from __future__ import annotations

import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import ladder
from common import (
    ROOT,
    HostClock,
    Outcome,
    SpanLog,
    mean,
    median,
    percentile,
    span_cost_s,
)
from server import MODEL, Served

#: Synthetic trace: three phases (rate per second, 40 s each), ~30k lines.
TRACE_RATES = (150.0, 350.0, 250.0)
TRACE_PHASE_S = 40.0

#: Strata of the design by injection rate; pass *i* re-simulates a config
#: from stratum ``STRATUM_ORDER[i % 5]``, so every run's passes carry the
#: same mix of cheap and costly simulations whatever the seed.
STRATUM_ORDER = (2, 0, 4, 1, 3)

_SETUP_PROBE = """
from repro.experiments.data import figure_dataset, table2_dataset
from repro.experiments.surfaces import run_figure4
from repro.experiments.table2 import run_table2
from repro.traces import ingest, validate_family
from repro.workload.service import ThreeTierWorkload
print(len(table2_dataset()), len(figure_dataset()))
"""


def _setup_once(last: bool) -> float:
    """Launch -> imports and data loaded, in one probe process."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", _SETUP_PROBE],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    took = time.perf_counter() - start
    if done.returncode != 0 or done.stdout.split()[:1] != ["50"]:
        raise RuntimeError(f"setup probe failed: {done.stderr[-500:]}")
    return took


def _des_order(x: np.ndarray, rng: np.random.Generator) -> list:
    """Design-row indices, one per pass, cycling through the strata."""
    by_rate = np.argsort(x[:, 0], kind="stable")
    strata = [list(rng.permutation(s)) for s in np.array_split(by_rate, 5)]
    order = []
    while any(strata):
        for k in STRATUM_ORDER:
            if strata[k]:
                order.append(int(strata[k].pop()))
    return order


class _Training:
    """Records epochs and fit time of every network the pipeline trains.

    ``run_table2`` and the figure runs build their models through module
    functions; swapping in recording wrappers for the length of a run
    reads ``total_epochs_`` without touching the library.
    """

    def __init__(self):
        import repro.experiments.surfaces as surfaces
        import repro.experiments.table2 as table2

        self.fits = []
        self._patched = [
            (table2, "tuned_model", table2.tuned_model),
            (surfaces, "fit_figure_model", surfaces.fit_figure_model),
        ]
        tuned_model = table2.tuned_model
        fit_figure_model = surfaces.fit_figure_model

        def recording_tuned_model(trial=0):
            model = tuned_model(trial)
            fit = model.fit

            def timed_fit(*args, **kwargs):
                start = time.perf_counter()
                result = fit(*args, **kwargs)
                self.fits.append((model.total_epochs_, time.perf_counter() - start))
                return result

            model.fit = timed_fit
            return model

        def recording_fit_figure_model(dataset, seed=0):
            start = time.perf_counter()
            model = fit_figure_model(dataset, seed=seed)
            self.fits.append((model.net.total_epochs_, time.perf_counter() - start))
            return model

        table2.tuned_model = recording_tuned_model
        surfaces.fit_figure_model = recording_fit_figure_model

    def restore(self) -> None:
        for module, name, original in self._patched:
            setattr(module, name, original)


def run(seed: int, seconds: float, trace: bool, work: Path) -> Outcome:
    out = Outcome()
    out.set_up(_setup_once)

    from repro.experiments.config import (
        FIGURE_DEFAULT_SWEEP,
        FIGURE_WEB_SWEEP,
        data_path,
    )
    from repro.experiments.data import figure_dataset, make_workload
    from repro.experiments.surfaces import run_figure4, run_figure7, run_figure8
    from repro.experiments.table2 import run_table2
    from repro.traces import (
        SyntheticTraceSpec,
        TracePhase,
        default_sample_spec,
        emit_family,
        fit_trace,
        generate_synthetic_trace,
        ingest,
        replay_family,
        validate_family,
    )
    from repro.workload.dataset import Dataset
    from repro.workload.service import WorkloadConfig

    rng = np.random.default_rng(seed)
    spec = SyntheticTraceSpec(
        phases=[TracePhase(TRACE_PHASE_S, r) for r in TRACE_RATES],
        classes=default_sample_spec().classes,
        seed=int(rng.integers(2**31)),
    )
    trace_path = generate_synthetic_trace(work / "trace.csv", spec)
    measured = Dataset.load_csv(data_path("table2_samples.csv"))
    order = _des_order(measured.x, rng)
    workload = make_workload()
    figures = {
        f.__name__[len("run_"):]: f for f in (run_figure4, run_figure7, run_figure8)
    }

    spans = SpanLog(trace)
    training = _Training()
    clock = HostClock()
    #: Stage -> seconds per pass, as measured and as scaled by ``clock``.
    took, scaled = {}, {}
    passes, events, lines, accuracies, epochs = [], [], [], [], []
    failed_passes = 0
    try:
        budget_end = time.perf_counter() + seconds
        while True:
            rid = f"pass:{len(passes)}"
            fits_before = len(training.fits)
            failed_before = out.failed
            t0 = time.perf_counter()
            root = spans.record("characterize.pass", t0, t0, rid)

            def timed(name, fn, *args, **kwargs):
                start = time.perf_counter()
                result = fn(*args, **kwargs)
                end = time.perf_counter()
                spans.record(name, start, end, rid, root)
                took.setdefault(name, []).append(end - start)
                scaled.setdefault(name, []).append((end - start) * clock.scale())
                return result

            ingested = timed("traces.ingest", ingest, trace_path)
            lines.append(len(ingested))
            fitted = timed("traces.fit", fit_trace, ingested)
            family = timed(
                "traces.emit", emit_family, fitted, f"bench{seed}",
                ingested.class_counts(),
            )
            replay = timed(
                "traces.replay", replay_family, family, seed=seed,
                duration=ingested.duration,
            )
            report = timed(
                "traces.validate", validate_family, family, ingested,
                seed=seed, replay=replay,
            )
            out.check("trace_family_validates", report.passed)

            row = order[len(passes) % len(order)]
            metrics = timed(
                "workload.des", workload.run,
                WorkloadConfig.from_vector(measured.x[row]),
            )
            events.append(metrics.events_executed)
            out.check(
                "des_matches_table2_samples_bitwise",
                np.array_equal(metrics.as_vector(), measured.y[row]),
            )

            table2 = timed("model_selection.cv", run_table2)
            accuracies.append(table2.report.overall_accuracy)
            out.check("table2_accuracy_at_least_95pct", accuracies[-1] >= 0.95)
            for name, run_figure in figures.items():
                figure = timed(f"analysis.{name}", run_figure)
                out.check(f"{name}_matches_paper", figure.matches_paper)
            epochs.append(sum(e for e, _ in training.fits[fits_before:]))
            end = time.perf_counter()
            spans.finish(root, end)
            passes.append(end - t0)
            failed_passes += out.failed > failed_before
            if end + passes[-1] > budget_end:
                break
    finally:
        training.restore()

    des_s = took["workload.des"]
    surfaces_s = [
        sum(v) for v in zip(*(took[f"analysis.{name}"] for name in figures))
    ]
    out.check("cv_accuracy_repeats", len(set(accuracies)) == 1)
    out.phase("passes", len(passes), failed_passes)
    # Each pass is rebuilt from the mean scaled time of every stage (the
    # DES as its scaled seconds per event over the run times the pass's own
    # event count), so the passes differ only by their DES config.
    s_per_event = sum(scaled["workload.des"]) / sum(events)
    rest = sum(mean(v) for name, v in scaled.items() if name != "workload.des")
    rebuilt = [rest + s_per_event * e for e in events]
    e2e = out.end_to_end
    e2e["p50_ms"] = 1000.0 * percentile(rebuilt, 50)
    e2e["p99_ms"] = 1000.0 * percentile(rebuilt, 99)
    e2e["wall_s"] = mean(rebuilt)
    e2e["peak_rps"] = 1.0 / e2e["wall_s"]
    e2e["configs_per_s"] = 1.0 / (s_per_event * mean(events))
    e2e["accuracy_pct"] = 100.0 * accuracies[-1]
    e2e["ok_ratio"] = 1.0 - out.failed / out.attempted
    # No answer in this pipeline can come from the degraded surrogate.
    e2e["primary_ratio"] = 1.0
    e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out.samples.update(
        p50_ms=len(passes), p99_ms=len(passes), wall_s=len(passes),
        configs_per_s=len(des_s),
    )
    out.details.update(
        passes=len(passes),
        pass_s=passes,
        stage_s=took,
        stage_scaled_s=scaled,
        kernel_s=clock.kernel_s,
        trace_lines=lines[0],
        des_rows=[order[i % len(order)] for i in range(len(passes))],
        des_events=events,
        stage_share={
            name: sum(values) / sum(passes) for name, values in took.items()
        },
        p99_ms_note="nearest-rank over the rebuilt passes; ~10 passes "
        "support no true p99, so this is the pass with the costliest DES "
        "config",
    )

    if trace:
        pl = out.per_layer
        pl["workload.des.events_per_s"] = sum(events) / sum(des_s)
        pl["workload.des.run_s"] = mean(des_s)
        pl["traces.replay_s"] = mean(took["traces.replay"])
        pl["traces.etl.lines_per_s"] = sum(lines) / sum(took["traces.ingest"])
        pl["traces.fit_s"] = mean(took["traces.fit"])
        pl["nn.train.epochs_per_s"] = sum(e for e, _ in training.fits) / sum(
            s for _, s in training.fits
        )
        pl["nn.train.epochs"] = epochs[-1]
        out.check("train_epochs_repeat", len(set(epochs)) == 1)
        pl["model_selection.cv_s"] = mean(took["model_selection.cv"])
        pl["analysis.surfaces_s"] = mean(surfaces_s)
        per_pass = len(spans.spans) / len(passes)
        pl["bench.trace_overhead_pct"] = (
            100.0 * per_pass * span_cost_s() / median(passes)
        )
        served = Served(work / "models")
        design = served.dataset.x
        default, web = np.meshgrid(
            FIGURE_DEFAULT_SWEEP, FIGURE_WEB_SWEEP, indexing="ij"
        )
        # The figures' 11 x 9 plane at the first design points' rate and mfg.
        grids = [
            np.column_stack(
                [np.full(default.size, r[0]), default.ravel(),
                 np.full(default.size, r[2]), web.ravel()]
            ).astype(float)
            for r in design[:10]
        ]
        pl.update(
            ladder.run(
                served.models_dir,
                MODEL,
                [r.reshape(1, -1) for r in design],
                grids,
                [r.reshape(1, -1) for r in figure_dataset().x],
            )
        )
        out.details["spans"] = str(
            spans.write(work.parent / f"spans-characterize-seed{seed}.jsonl")
        )
    return out
