"""Model persistence, curvature analysis, scenarios, regression detection."""

import numpy as np
import pytest

from repro.analysis.curvature import local_curvature
from repro.analysis.regression import detect_regressions
from repro.models.neural import NeuralWorkloadModel
from repro.models.persistence import (
    load_model,
    load_model_document,
    model_from_dict,
    model_to_dict,
    save_model,
)
from repro.workload.dataset import Dataset
from repro.workload.scenarios import available_scenarios, scenario
from repro.workload.service import (
    OUTPUT_NAMES,
    ThreeTierWorkload,
    WorkloadConfig,
)
from repro.workload.transactions import validate_mix


def fitted_model(n=40, seed=0, joint=True):
    rng = np.random.default_rng(seed)
    x = rng.uniform(1.0, 8.0, size=(n, 4))
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
        hidden=(10,), error_threshold=1e-4, max_epochs=6000, joint=joint, seed=seed
    )
    return model.fit(x, y), x, y


class TestPersistence:
    def test_round_trip_predictions_identical(self, tmp_path):
        model, x, _ = fitted_model()
        loaded = load_model(save_model(model, tmp_path / "model.json"))
        np.testing.assert_allclose(loaded.predict(x), model.predict(x))

    def test_separate_mode_round_trip(self, tmp_path):
        model, x, _ = fitted_model(joint=False)
        loaded = load_model(save_model(model, tmp_path / "model.json"))
        np.testing.assert_allclose(loaded.predict(x), model.predict(x))

    def test_hyperparameters_preserved(self, tmp_path):
        model, _, _ = fitted_model()
        loaded = load_model(save_model(model, tmp_path / "m.json"))
        assert loaded.hidden == model.hidden
        assert loaded.error_threshold == model.error_threshold
        assert loaded.joint == model.joint

    def test_unfitted_rejected(self):
        with pytest.raises(ValueError, match="fitted"):
            model_to_dict(NeuralWorkloadModel(hidden=(4,)))

    def test_non_neural_model_rejected_with_type_error(self, tmp_path):
        from repro.models.rbf import RBFWorkloadModel

        _, x, y = fitted_model()
        rbf = RBFWorkloadModel(n_centers=10, seed=0).fit(x, y)
        with pytest.raises(TypeError, match="RBFWorkloadModel"):
            save_model(rbf, tmp_path / "rbf.json")
        assert not (tmp_path / "rbf.json").exists()

    def test_version_checked(self):
        model, _, _ = fitted_model()
        payload = model_to_dict(model)
        payload["format_version"] = 99
        with pytest.raises(ValueError, match="format_version"):
            model_from_dict(payload)

    def test_kind_checked(self):
        model, _, _ = fitted_model()
        payload = model_to_dict(model)
        payload["kind"] = "something_else"
        with pytest.raises(ValueError, match="kind"):
            model_from_dict(payload)

    def test_json_is_portable_text(self, tmp_path):
        model, _, _ = fitted_model()
        path = save_model(model, tmp_path / "m.json")
        assert path.read_text().startswith("{")

    def test_truncated_json_names_file(self, tmp_path):
        path = tmp_path / "cut.json"
        model, _, _ = fitted_model()
        path.write_text(save_model(model, tmp_path / "ok.json").read_text()[:40])
        with pytest.raises(ValueError, match="cut.json"):
            load_model(path)

    def test_version_mismatch_on_disk_names_file(self, tmp_path):
        model, _, _ = fitted_model()
        payload = model_to_dict(model)
        payload["format_version"] = 99
        path = tmp_path / "future.json"
        path.write_text(__import__("json").dumps(payload))
        with pytest.raises(ValueError, match="future.json"):
            load_model(path)

    def test_missing_field_raises_valueerror_not_keyerror(self, tmp_path):
        model, _, _ = fitted_model()
        payload = model_to_dict(model)
        del payload["x_scaler"]
        path = tmp_path / "partial.json"
        path.write_text(__import__("json").dumps(payload))
        with pytest.raises(ValueError, match="partial.json"):
            load_model(path)

    def test_missing_file_raises_valueerror(self, tmp_path):
        with pytest.raises(ValueError, match="absent.json"):
            load_model(tmp_path / "absent.json")

    def test_document_helper_rejects_non_object_json(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ValueError, match="expected an object"):
            load_model_document(path)

    def test_document_helper_exposes_raw_payload(self, tmp_path):
        model, _, _ = fitted_model()
        path = save_model(model, tmp_path / "m.json")
        document = load_model_document(path)
        assert document["format_version"] == 1
        assert document["kind"] == "neural_workload_model"


class TestCurvature:
    @pytest.fixture(scope="class")
    def model(self):
        # default_threads (col 1) forms a bowl in output 0 centered at 4;
        # web_threads (col 3) forms a dome in output 4 centered at 5.
        model, x, _ = fitted_model(n=80, seed=1)
        return model, x

    def test_bowl_detected(self, model):
        fitted, _ = model
        point = [4.0, 4.0, 4.0, 5.0]
        curvature = local_curvature(
            fitted, point, "manufacturing_rt",
            params=("default_threads", "web_threads"),
            step={"default_threads": 0.5, "web_threads": 0.5},
        )
        # Output 0 is quadratic in default only: bowl or flat-valley mix;
        # the strong eigenvalue must be positive.
        assert curvature.eigenvalues[-1] > 0
        assert curvature.kind in ("bowl", "saddle")

    def test_dome_detected(self, model):
        fitted, _ = model
        point = [4.0, 4.0, 4.0, 5.0]
        curvature = local_curvature(
            fitted, point, "effective_tps",
            params=("default_threads", "web_threads"),
            step={"default_threads": 0.5, "web_threads": 0.5},
        )
        assert curvature.eigenvalues[0] < 0
        assert curvature.kind in ("dome", "saddle")

    def test_trough_direction_of_a_1d_bowl(self, model):
        fitted, _ = model
        curvature = local_curvature(
            fitted, [4.0, 4.0, 4.0, 5.0], "manufacturing_rt",
            params=("default_threads", "web_threads"),
            step={"default_threads": 0.5, "web_threads": 0.5},
        )
        # Output 0 is flat along web: the least-curved direction is the
        # web axis.
        direction = curvature.trough_direction
        assert abs(direction[1]) > abs(direction[0])

    def test_hessian_symmetry(self, model):
        fitted, _ = model
        curvature = local_curvature(
            fitted, [4.0, 4.0, 4.0, 5.0], "effective_tps",
            params=("default_threads", "web_threads"),
        )
        np.testing.assert_allclose(curvature.hessian, curvature.hessian.T)

    def test_text(self, model):
        fitted, _ = model
        text = local_curvature(
            fitted, [4.0, 4.0, 4.0, 5.0], "effective_tps"
        ).to_text()
        assert "effective_tps" in text and "direction" in text

    def test_validation(self, model):
        fitted, _ = model
        with pytest.raises(ValueError, match="indicator"):
            local_curvature(fitted, [1, 1, 1, 1], "nonsense")
        with pytest.raises(ValueError, match="entries"):
            local_curvature(fitted, [1, 1], "effective_tps")


class TestScenarios:
    def test_all_scenarios_valid(self):
        for name in available_scenarios():
            validate_mix(scenario(name))

    def test_paper_scenario_is_the_default_mix(self):
        names = {c.name for c in scenario("paper")}
        assert "dealer_purchase" in names and "misc_background" in names

    def test_unknown_rejected(self):
        with pytest.raises(KeyError):
            scenario("black_friday")

    def test_browse_heavy_shifts_the_mix(self):
        by_name = {c.name: c for c in scenario("browse_heavy")}
        assert by_name["dealer_browse"].mix_weight > 0.6
        assert by_name["dealer_purchase"].mix_weight < 0.05

    def test_scenarios_run_on_the_simulator(self):
        workload = ThreeTierWorkload(
            classes=scenario("batch_heavy"), warmup=0.3, duration=1.5, seed=2
        )
        metrics = workload.run(WorkloadConfig(300, 14, 16, 18))
        assert np.all(np.isfinite(metrics.as_vector()))

    def test_scenarios_return_fresh_lists(self):
        a = scenario("order_heavy")
        b = scenario("order_heavy")
        assert a is not b


class TestRegressionDetection:
    def make_pair(self, shift=None, noise=0.01, n=24, seed=0):
        rng = np.random.default_rng(seed)
        x = rng.uniform(1, 20, size=(n, 4)).round()
        base_y = np.abs(rng.normal(loc=1.0, scale=0.2, size=(n, 5))) + 0.5
        baseline = Dataset(x, base_y)
        factors = np.ones(5)
        if shift:
            for name, factor in shift.items():
                factors[OUTPUT_NAMES.index(name)] = factor
        candidate_y = base_y * factors * (
            1.0 + rng.normal(scale=noise, size=base_y.shape)
        )
        order = rng.permutation(n)  # pairing must survive reordering
        candidate = Dataset(x[order], candidate_y[order])
        return baseline, candidate

    def test_no_change_no_flags(self):
        baseline, candidate = self.make_pair()
        report = detect_regressions(baseline, candidate)
        assert report.regressions() == []
        assert report.improvements() == []

    def test_latency_regression_detected(self):
        baseline, candidate = self.make_pair(
            shift={"dealer_purchase_rt": 1.3}
        )
        report = detect_regressions(baseline, candidate)
        assert report.regressions() == ["dealer_purchase_rt"]

    def test_throughput_drop_is_a_regression(self):
        baseline, candidate = self.make_pair(shift={"effective_tps": 0.8})
        report = detect_regressions(baseline, candidate)
        assert "effective_tps" in report.regressions()

    def test_throughput_gain_is_an_improvement(self):
        baseline, candidate = self.make_pair(shift={"effective_tps": 1.25})
        report = detect_regressions(baseline, candidate)
        assert "effective_tps" in report.improvements()

    def test_latency_drop_is_an_improvement(self):
        baseline, candidate = self.make_pair(
            shift={"manufacturing_rt": 0.8}
        )
        report = detect_regressions(baseline, candidate)
        assert "manufacturing_rt" in report.improvements()

    def test_below_threshold_not_flagged(self):
        baseline, candidate = self.make_pair(
            shift={"dealer_browse_rt": 1.02}, noise=0.001
        )
        report = detect_regressions(baseline, candidate, threshold=0.05)
        assert report.regressions() == []

    def test_mismatched_configs_rejected(self):
        baseline, candidate = self.make_pair()
        candidate.x[0] = candidate.x[0] + 999.0
        with pytest.raises(ValueError, match="missing"):
            detect_regressions(baseline, candidate)

    def test_text(self):
        baseline, candidate = self.make_pair(shift={"effective_tps": 0.7})
        text = detect_regressions(baseline, candidate).to_text()
        assert "REGRESSED" in text
