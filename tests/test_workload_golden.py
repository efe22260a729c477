"""Golden outputs of the simulator: pinned bits, not just repeatability.

Run-to-run determinism cannot catch a change that consumes a random stream
differently but consistently.  These tests compare against values recorded
once and committed: the Table 2 measurement cache and a replay digest.  A
faster draw that consumes exactly what it replaces keeps them green; one
that does not must regenerate ``data/*_samples.csv`` as its own change.
"""

import hashlib

import numpy as np
import pytest

from repro.experiments.config import data_path
from repro.experiments.data import make_workload
from repro.traces import ScenarioFamily, replay_family
from repro.workload.dataset import Dataset
from repro.workload.service import WorkloadConfig

#: sha256 over the little-endian float64 arrival times, then service samples,
#: of ``replay_family(sample_day, seed=REPLAY_SEED)``.
REPLAY_SEED = 11
REPLAY_ARRIVALS = 6978
REPLAY_GOLDEN = "2db6b837cd9954003bd571dcf4662635fdd363df37ce1a8b94abbbe39d302b11"


def _cheapest_table2_rows(count):
    measured = Dataset.load_csv(data_path("table2_samples.csv"))
    rows = np.argsort(measured.x[:, 0], kind="stable")[:count]
    return [
        pytest.param(measured.x[row], measured.y[row], id=f"row{row}")
        for row in rows
    ]


@pytest.mark.parametrize("x, y", _cheapest_table2_rows(2))
def test_des_reproduces_table2_cache_bitwise(x, y):
    """The lowest-injection-rate designs re-simulate to the cached CSV bits."""
    metrics = make_workload().run(WorkloadConfig.from_vector(x))
    np.testing.assert_array_equal(metrics.as_vector(), y)


def test_replay_of_bundled_family_matches_golden_digest():
    family = ScenarioFamily.load(data_path("sample_day.scenario.json"))
    replay = replay_family(family, seed=REPLAY_SEED)
    assert replay.n_arrivals == REPLAY_ARRIVALS
    digest = hashlib.sha256()
    for values in (replay.arrival_times, replay.service_samples):
        digest.update(np.ascontiguousarray(values, dtype="<f8").tobytes())
    assert digest.hexdigest() == REPLAY_GOLDEN
