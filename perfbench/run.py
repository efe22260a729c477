"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload online --seed 1 --seconds 36 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` runs the workload again with the benchmark's own spans on,
takes deltas of the server's stage histograms and runs the layer ladder,
and prints every per-layer metric.  The line before the result is a
report: machine and environment, per-phase request counts, sample counts,
checks, and the per-layer metrics this workload cannot measure, with why.
The exit code is 0 only when every correctness check passed; a workload
that cannot run here exits 3 without a result.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("online", "surface", "characterize")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("perfbench: --seed must be non-negative", file=sys.stderr)
        return 2
    for needed in (ROOT / "src" / "repro", ROOT / "data" / "table2_samples.csv"):
        if not needed.exists():
            print(
                f"perfbench: {needed.relative_to(ROOT)} is missing; run from "
                "a full checkout of the repository",
                file=sys.stderr,
            )
            return 2
    sys.path.insert(0, str(ROOT / "src"))
    # The load generator's threads share this process's GIL.  Handing it
    # over every 0.5 ms rather than every 5 ms keeps one caller decoding an
    # answer from stalling another's request.  On a 2-CPU VM it cut the
    # quartile spread of surface p99 over five runs from 26-40 % to 6 %.
    sys.setswitchinterval(0.0005)

    import common

    work = common.OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    module = __import__(args.workload)
    try:
        outcome = module.run(args.seed, args.seconds, bool(args.trace), work)
    except common.Unmeasurable as exc:
        print(
            json.dumps({"workload": args.workload, "unmeasured": str(exc)}),
            flush=True,
        )
        print(f"perfbench: {args.workload} is unmeasured: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = common.PER_LAYER_UNITS if args.trace else common.END_TO_END_UNITS
    values = outcome.per_layer if args.trace else outcome.end_to_end
    for name in units:
        if name not in values:
            # A layer this workload does not run through: 0, and the
            # reason is in the report.
            values[name] = 0.0
            outcome.unmeasured.setdefault(
                name, f"the {args.workload} workload does not run through "
                "this layer",
            )
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": common.environment(args.seed),
        "phases": outcome.phases,
        "samples": outcome.samples,
        "checks": outcome.checks,
        "end_to_end": outcome.end_to_end,
        "unmeasured": outcome.unmeasured if args.trace else {},
        "details": outcome.details,
    }
    report_path = (
        common.OUT_DIR
        / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    report_path.write_text(json.dumps(report, indent=1) + "\n")
    result = {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": units[name]}
            for name in units
        },
    }
    print(json.dumps({"report": report}), flush=True)
    print(json.dumps(result), flush=True)
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
