"""`ScenarioSpec`: declarative experiments that round-trip through JSON."""

import json
import warnings
from pathlib import Path

import pytest

from repro.api.options import SolveOptions
from repro.api.scenario import ScenarioSpec, run_scenario
from repro.errors import ConfigurationError

SMALL = dict(
    name="tiny",
    horizon=0.4,
    task_rate=15.0,
    worker_rate=5.0,
    initial_workers=25,
    methods=("PUCE", "UCE"),
    options=SolveOptions(seed=3, max_batch_size=10, max_wait=0.1),
)


class TestJsonRoundTrip:
    def test_dict_round_trip_is_exact(self):
        spec = ScenarioSpec(**SMALL)
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_json_round_trip_is_exact(self):
        spec = ScenarioSpec(arrivals="rushhour", methods=("PDCE(ppcf=off)",))
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "spec.json"
        spec = ScenarioSpec(**SMALL)
        spec.to_file(path)
        assert ScenarioSpec.from_file(path) == spec
        # The artifact is plain JSON with the one nested options object.
        raw = json.loads(path.read_text())
        assert raw["name"] == "tiny"
        assert raw["options"]["seed"] == 3

    def test_partial_dicts_use_defaults(self):
        spec = ScenarioSpec.from_dict({"arrivals": "bursty"})
        assert spec.arrivals == "bursty"
        assert spec.options == SolveOptions()


ROOT = Path(__file__).resolve().parents[2]
SPEC_FILES = sorted(ROOT.glob("examples/scenario_*.json")) + sorted(
    ROOT.glob("perfbench/specs/*.json")
)
DEPRECATED_DEFAULTS = {
    "sweep": "auto",
    "sweep_auto_threshold": None,
    "shards": "auto",
    "parallel": "off",
    "max_shard_workers": None,
    "workspace": True,
}


class TestShippedSpecs:
    @pytest.mark.parametrize("path", SPEC_FILES, ids=lambda p: str(p.relative_to(ROOT)))
    def test_spec_loads_and_warns_only_for_deprecated_keys(self, path):
        """Shipped specs still load, deprecated shard keys and all; only
        an off-default deprecated key warns, and it warns once."""
        options = json.loads(path.read_text()).get("options", {})
        legacy = {
            key
            for key, default in DEPRECATED_DEFAULTS.items()
            if options.get(key, default) != default
        }
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            spec = ScenarioSpec.from_file(path)
        deprecations = [w for w in caught if issubclass(w.category, DeprecationWarning)]
        assert len(deprecations) == (1 if legacy else 0)
        assert spec.methods


class TestRejection:
    def test_unknown_scenario_keys_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown scenario key"):
            ScenarioSpec.from_dict({"arivals": "poisson"})

    def test_unknown_option_keys_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown option key"):
            ScenarioSpec.from_dict({"options": {"sheds": 2}})

    def test_unknown_arrivals_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown arrivals"):
            ScenarioSpec(arrivals="tsunami")

    def test_method_typos_fail_at_spec_time(self):
        with pytest.raises(ConfigurationError, match="unknown method"):
            ScenarioSpec(methods=("PUSE",))

    def test_empty_methods_rejected(self):
        with pytest.raises(ConfigurationError, match="at least one"):
            ScenarioSpec(methods=())

    def test_nonpositive_horizon_rejected(self):
        with pytest.raises(ConfigurationError, match="horizon"):
            ScenarioSpec(horizon=0.0)


class TestNormalisation:
    def test_horizon_defaults_by_arrival_kind(self):
        assert ScenarioSpec().horizon == 3.0
        assert ScenarioSpec(arrivals="trace").horizon == 24.0

    def test_with_seed_touches_only_the_single_seed(self):
        spec = ScenarioSpec(**SMALL)
        reseeded = spec.with_seed(99)
        assert reseeded.options.seed == 99
        assert reseeded.to_scenario().seed == 99
        assert reseeded.options.replace(seed=3) == spec.options

    def test_to_scenario_mirrors_fields(self):
        spec = ScenarioSpec(**SMALL)
        scenario = spec.to_scenario()
        assert scenario.arrivals == spec.arrivals
        assert scenario.horizon == spec.horizon
        assert scenario.task_rate == spec.task_rate
        assert scenario.seed == spec.options.seed


class TestRun:
    def test_run_reports_every_method(self):
        report = ScenarioSpec(**SMALL).run()
        assert set(report.methods()) == {"PUCE", "UCE"}

    def test_run_scenario_accepts_a_path(self, tmp_path):
        path = tmp_path / "spec.json"
        ScenarioSpec(**SMALL).to_file(path)
        from_file = run_scenario(path)
        direct = ScenarioSpec(**SMALL).run()
        for method in direct.methods():
            assert from_file[method].latencies == direct[method].latencies
            assert from_file[method].privacy_timeline == direct[method].privacy_timeline

    def test_seed_override_changes_the_draws(self):
        base = ScenarioSpec(**SMALL)
        assert (
            base.run(seed=4)["PUCE"].latencies != base.run()["PUCE"].latencies
            or base.run(seed=4)["PUCE"].arrived_tasks != base.run()["PUCE"].arrived_tasks
        )
