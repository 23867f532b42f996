"""`SolveOptions`: the single validation + normalization path."""

import dataclasses

import pytest

from repro.api.options import PARALLEL_MODES, SWEEP_MODES, SolveOptions
from repro.errors import ConfigurationError
from repro.stream.simulator import StreamConfig


class TestValidation:
    def test_defaults_are_valid(self):
        options = SolveOptions()
        assert options.seed == 0
        assert options.sweep == "auto"
        assert options.ppcf is None

    @pytest.mark.parametrize(
        "bad",
        [
            {"sweep": "simd"},
            {"shards": -1},
            {"parallel": "fork"},
            {"shards": "always"},  # only the literal "auto" is accepted
            {"parallel": "thread", "shards": 0},
            {"max_shard_workers": 0},
            {"max_batch_size": 0},
            {"max_wait": 0.0},
            {"max_wait": -1.0},
            {"max_rounds": 0},
            {"target_flush_seconds": 0.0},
            {"sweep_auto_threshold": -1},
            {"sweep_auto_threshold": 2.5},
            {"sweep_auto_threshold": "many"},
            {"window_seconds": 0.0},
            {"window_seconds": -1.0},
            {"window_seconds": float("inf")},
            {"window_budget": 2.0},  # requires window_seconds
            {"window_seconds": 5.0, "window_budget": 0.0},
            {"window_composition": "parallel"},
            {"window_seconds": 5.0, "window_decay": 1.0},
            {"window_decay": 0.5},  # requires window_seconds
            {
                "window_seconds": 5.0,
                "window_composition": "tree",
                "window_decay": 0.5,
            },
            {"timeline_limit": 3},
            {"timeline_limit": 0},
            {"timeline_limit": True},
            # Mistyped wire values: truthy strings, non-int counts,
            # numeric strings, and bools posing as numbers.
            {"ppcf": "off"},
            {"ppcf": 0},
            {"cache": "false"},
            {"adaptive": 1},
            {"trace": "yes"},
            {"workspace": "off"},
            {"max_batch_size": 2.5},
            {"max_batch_size": True},
            {"seed": "7"},
            {"max_rounds": 10.0},
            {"max_shard_workers": 1.5},
            {"shards": 2.5},
            {"sweep_auto_threshold": True},
            {"max_wait": "0.1"},
            {"max_wait": True},
            {"target_flush_seconds": "fast"},
            {"window_seconds": "5"},
            {"window_seconds": 5.0, "window_budget": False},
            # numpy would refuse it only at the first flush's draw.
            {"seed": -1},
        ],
    )
    def test_invalid_knobs_raise_typed_errors(self, bad):
        with pytest.raises(ConfigurationError):
            SolveOptions(**bad)

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            SolveOptions().seed = 5

    def test_replace_revalidates(self):
        options = SolveOptions(max_batch_size=4)
        assert options.replace(max_wait=0.5).max_wait == 0.5
        with pytest.raises(ConfigurationError):
            options.replace(sweep="nope")

    def test_one_validation_path_matches_stream_config(self):
        """The same bad knob fails identically at either entry point."""
        with pytest.raises(ConfigurationError) as from_options:
            SolveOptions(timeline_limit=3)
        with pytest.raises(ConfigurationError) as from_config:
            StreamConfig(timeline_limit=3)
        assert str(from_options.value) == str(from_config.value)

    def test_mode_tuples_are_the_single_source(self):
        assert PARALLEL_MODES == ("off", "thread", "process")
        assert set(SWEEP_MODES) == {"auto", "vectorized", "scalar"}


class TestDeprecatedShardKeys:
    """The inert keys — ``shards`` / ``parallel`` / ``max_shard_workers``
    and the engine's ``sweep`` / ``sweep_auto_threshold`` / ``workspace``:
    validated as before, and announced once per construction when set."""

    @pytest.mark.parametrize(
        ("bad", "message"),
        [
            ({"shards": -1}, "shards must be >= 0, got -1"),
            (
                {"parallel": "bogus"},
                "unknown parallel mode 'bogus'; choose from ('off', 'thread', 'process')",
            ),
            ({"max_shard_workers": 0}, "max_shard_workers must be >= 1, got 0"),
            ({"sweep": "simd"}, "unknown sweep implementation 'simd'"),
            (
                {"sweep_auto_threshold": -1},
                "sweep_auto_threshold must be a non-negative int or None, got -1",
            ),
        ],
    )
    def test_invalid_values_raise_as_before(self, bad, message):
        with pytest.raises(ConfigurationError) as error:
            SolveOptions(**bad)
        assert str(error.value) == message

    @pytest.mark.parametrize(
        "legacy",
        [
            {"shards": 0},
            {"shards": 4},
            {"parallel": "process"},
            {"max_shard_workers": 2},
            {"shards": "auto", "parallel": "process", "max_shard_workers": 2},
            {"sweep": "scalar"},
            {"sweep_auto_threshold": 5},
            {"workspace": False},
            {"sweep": "vectorized", "sweep_auto_threshold": 0, "workspace": False},
        ],
    )
    def test_off_default_value_warns_once(self, legacy):
        with pytest.warns(DeprecationWarning, match="no effect") as record:
            options = SolveOptions(**legacy)
        assert len(record) == 1
        for name, value in legacy.items():
            assert getattr(options, name) == value

    def test_defaults_do_not_warn(self, recwarn):
        SolveOptions(
            shards="auto",
            parallel="off",
            max_shard_workers=None,
            sweep="auto",
            sweep_auto_threshold=None,
            workspace=True,
        )
        assert not [w for w in recwarn if issubclass(w.category, DeprecationWarning)]

    @pytest.mark.filterwarnings("ignore::DeprecationWarning")
    def test_keys_do_not_reach_the_stream_config(self):
        legacy = SolveOptions(shards=3, parallel="process", max_shard_workers=2)
        assert legacy.stream_config() == SolveOptions().stream_config()

    @pytest.mark.filterwarnings("ignore::DeprecationWarning")
    def test_engine_keys_do_not_reach_the_solver_or_stream(self):
        from repro.core.registry import make_solver

        legacy = SolveOptions(sweep="scalar", sweep_auto_threshold=5, workspace=False)
        assert legacy.stream_config() == SolveOptions().stream_config()
        assert vars(make_solver("UCE", legacy)) == vars(make_solver("UCE"))


class TestMappingRoundTrip:
    @pytest.mark.filterwarnings("ignore::DeprecationWarning")
    def test_to_dict_from_mapping_round_trip(self):
        options = SolveOptions(
            seed=9, sweep="scalar", ppcf=False, shards=2, parallel="thread"
        )
        assert SolveOptions.from_mapping(options.to_dict()) == options

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown option key"):
            SolveOptions.from_mapping({"seed": 1, "sheds": 4})


class TestProjection:
    def test_stream_config_carries_the_unified_knobs(self):
        options = SolveOptions(
            max_batch_size=77,
            max_wait=0.5,
            adaptive=True,
            target_flush_seconds=0.1,
        )
        config = options.stream_config()
        assert isinstance(config, StreamConfig)
        assert config.max_batch_size == 77
        assert config.max_wait == 0.5
        assert config.adaptive is True
        assert config.target_flush_seconds == 0.1
        assert config.cache is False

    def test_stream_config_carries_the_flush_hot_path_knobs(self):
        config = SolveOptions(cache=True, trace=True).stream_config()
        assert config.cache is True
        assert config.trace is True

    def test_stream_config_extra_passthrough(self):
        config = SolveOptions().stream_config(speed=9.0, min_service=0.25)
        assert config.speed == 9.0
        assert config.min_service == 0.25

    def test_stream_config_carries_the_horizon_knobs(self):
        options = SolveOptions(
            window_seconds=6.0,
            window_budget=2.0,
            window_composition="tree",
            timeline_limit=32,
        )
        config = options.stream_config()
        policy = config.horizon
        assert policy is not None
        assert policy.window_seconds == 6.0
        assert policy.window_budget == 2.0
        assert policy.composition == "tree"
        assert policy.decay is None
        assert config.timeline_limit == 32

    def test_default_options_project_no_horizon_policy(self):
        options = SolveOptions()
        assert options.horizon_policy() is None
        config = options.stream_config()
        assert config.horizon is None
        assert config.timeline_limit is None

    def test_horizon_round_trips_through_mapping(self):
        options = SolveOptions(
            window_seconds=5.0, window_decay=0.25, timeline_limit=16
        )
        assert SolveOptions.from_mapping(options.to_dict()) == options
