"""`MethodSpec`: parse/format round-trips and solver construction."""

import pytest

from repro.api.methods import MethodSpec
from repro.api.options import SolveOptions
from repro.core.registry import available_methods, make_solver
from repro.errors import ConfigurationError


class TestParseFormatRoundTrip:
    @pytest.mark.parametrize(
        "text",
        [
            "PUCE",
            "PDCE",
            "UCE",
            "DCE",
            "PGT",
            "GT",
            "GRD",
            "OPT",
            "PDCE(ppcf=off)",
            "PUCE(ppcf=off, max_rounds=9)",
            "UCE(max_rounds=500)",
            "PGT(max_passes=3)",
        ],
    )
    def test_canonical_round_trip(self, text):
        spec = MethodSpec.parse(text)
        assert MethodSpec.parse(spec.canonical()) == spec
        # Canonical strings are fixed points of parse-format.
        assert MethodSpec.parse(spec.canonical()).canonical() == spec.canonical()

    @pytest.mark.parametrize(
        "messy,canonical",
        [
            ("  PUCE  ", "PUCE"),
            ("PDCE( ppcf = off )", "PDCE(ppcf=off)"),
            ("PDCE(ppcf=false)", "PDCE(ppcf=off)"),
            ("PDCE(ppcf=on)", "PDCE"),  # the default normalises away
            ("PDCE(ppcf=true)", "PDCE"),
            ("PUCE(max_rounds=500,ppcf=off)", "PUCE(ppcf=off, max_rounds=500)"),
        ],
    )
    def test_messy_inputs_normalise(self, messy, canonical):
        assert MethodSpec.parse(messy).canonical() == canonical

    def test_legacy_registry_names_parse(self):
        assert MethodSpec.parse("PUCE-nppcf") == MethodSpec("PUCE", ppcf=False)
        assert MethodSpec.parse("PDCE-nppcf").canonical() == "PDCE(ppcf=off)"

    def test_str_is_canonical(self):
        assert str(MethodSpec("PDCE", ppcf=False)) == "PDCE(ppcf=off)"

    def test_parse_is_idempotent_on_specs(self):
        spec = MethodSpec("PUCE", ppcf=False)
        assert MethodSpec.parse(spec) is spec


class TestRejection:
    @pytest.mark.parametrize(
        "text",
        [
            "PXCE",
            "PUCE(",
            "PUCE(ppcf)",
            "PUCE(ppcf=off, ppcf=on)",
            "PUCE(color=red)",
            "PUCE(ppcf=0.5)",
            "UCE(ppcf=off)",  # no PPCF gate
            "PGT(sweep=scalar)",  # the sweep knob is gone for every method
            "PGT(max_rounds=5)",
            "GRD(max_passes=5)",
            "UCE(max_rounds=0)",
            "PGT(max_passes=0)",
            "UCE(sweep=simd)",
            "UCE(sweep=scalar)",
            "PUCE(sweep=vectorized, max_rounds=500)",
            "PDCE(ppcf=on_or_off)",  # values are on/off/true/false or ints
        ],
    )
    def test_bad_specs_raise_configuration_error(self, text):
        with pytest.raises(ConfigurationError):
            MethodSpec.parse(text)

    def test_sweep_is_an_unknown_parameter(self):
        with pytest.raises(ConfigurationError, match="unknown method parameter 'sweep'"):
            MethodSpec.parse("UCE(sweep=scalar)")


class TestMake:
    def test_registry_name_matches_built_solver(self):
        for text in ("PUCE", "PDCE", "UCE", "DCE", "PGT", "GT", "GRD", "OPT",
                     "PUCE(ppcf=off)", "PDCE(ppcf=off)"):
            spec = MethodSpec.parse(text)
            assert spec.make().name == spec.registry_name()

    def test_is_private_matches_built_solver(self):
        for text in ("PUCE", "PDCE", "PGT", "UCE", "DCE", "GT", "GRD", "OPT"):
            spec = MethodSpec.parse(text)
            assert spec.make().is_private == spec.is_private

    def test_spec_parameters_reach_the_solver(self):
        solver = MethodSpec.parse("UCE(max_rounds=7)").make()
        assert solver.max_rounds == 7
        assert MethodSpec.parse("PGT(max_passes=3)").make().max_passes == 3

    def test_options_fill_the_gaps_spec_wins(self):
        options = SolveOptions(max_rounds=11, ppcf=False)
        filled = MethodSpec.parse("PUCE").make(options)
        assert filled.max_rounds == 11
        assert filled.name == "PUCE-nppcf"
        # Spec-level parameters beat the options.
        pinned = MethodSpec.parse("PUCE(max_rounds=5)").make(options)
        assert pinned.max_rounds == 5

    def test_make_solver_accepts_specs_and_options(self):
        assert make_solver("PDCE(ppcf=off)").name == "PDCE-nppcf"
        assert make_solver(MethodSpec("UCE", max_rounds=3)).max_rounds == 3
        assert make_solver("UCE", SolveOptions(max_rounds=4)).max_rounds == 4

    def test_make_solver_plain_names_unchanged(self):
        """Every pre-registered name still builds, with the same defaults.

        The factory table and MethodSpec.make are two construction paths
        by design (the factory path is the guaranteed-unchanged legacy
        one); this pin makes any drift between their defaults a test
        failure, not a silent behavior change.
        """
        for name in available_methods():
            via_factory = make_solver(name)
            via_spec = MethodSpec.parse(name).make()
            assert via_factory.name == via_spec.name == name
            assert type(via_factory) is type(via_spec)
            assert vars(via_factory) == vars(via_spec)

    def test_configured_solver_solves_identically(self, small_instance):
        """A spec-built solver is the same protocol, bit for bit."""
        direct = make_solver("PUCE").solve(small_instance, seed=5)
        via_spec = MethodSpec.parse("PUCE").make().solve(small_instance, seed=5)
        assert direct.matched_pairs() == via_spec.matched_pairs()

    def test_solve_options_supply_the_seed(self, small_instance):
        solver = make_solver("PUCE")
        explicit = solver.solve(small_instance, seed=5)
        from_options = solver.solve(small_instance, options=SolveOptions(seed=5))
        assert explicit.matched_pairs() == from_options.matched_pairs()
