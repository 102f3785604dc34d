"""Tests for the scheduler-plugin registry (the one source of scheduler names)."""

import ast
import pathlib

import pytest

from repro.experiments.runner import FIGURES
from repro.experiments.scenarios import ContikiConfig, traffic_load_scenario
from repro.schedulers import registry
from repro.schedulers.registry import register_scheduler

ALL_SCHEDULERS = (
    "6TiSCH-minimal",
    "DeBrAS",
    "GT-TSCH",
    "MSF",
    "OTF",
    "Orchestra",
)


class TestRegistryContents:
    def test_available_lists_every_first_party_scheduler_sorted(self):
        assert tuple(registry.available()) == ALL_SCHEDULERS


class TestResolve:
    @pytest.mark.parametrize("name", ALL_SCHEDULERS)
    def test_roundtrip_builds_scheduler_with_matching_name(self, name):
        factory = registry.resolve(name)(ContikiConfig())
        scheduler = factory(1, False)
        assert scheduler.name == name

    @pytest.mark.parametrize("name", ALL_SCHEDULERS)
    def test_every_builder_exposes_a_config_fingerprint(self, name):
        # scenario_fingerprint() folds this into the cache key; a scheduler
        # whose hook raises would poison every cached run.
        scheduler = registry.resolve(name)(ContikiConfig())(1, False)
        fingerprint = scheduler.config_fingerprint()
        assert fingerprint is None or repr(fingerprint)

    def test_factories_build_fresh_instances_per_node(self):
        factory = registry.resolve("MSF")(ContikiConfig())
        assert factory(1, False) is not factory(2, False)

    def test_unknown_name_error_lists_every_registered_scheduler(self):
        with pytest.raises(ValueError, match="unknown scheduler 'nope'") as err:
            registry.resolve("nope")
        for name in ALL_SCHEDULERS:
            assert name in str(err.value)


class TestRegistration:
    def test_duplicate_name_rejected(self):
        @register_scheduler("test-registry-temp")
        def _build(contiki):
            return lambda node_id, is_root: None

        try:
            with pytest.raises(ValueError, match="already registered"):
                register_scheduler("test-registry-temp")(_build)
        finally:
            registry._REGISTRY.pop("test-registry-temp", None)

    def test_third_party_plugin_shows_up_everywhere(self):
        lineups = {figure_id: figure.schedulers for figure_id, figure in FIGURES.items()}

        @register_scheduler("test-registry-plugin")
        def _build(contiki):
            return lambda node_id, is_root: None

        try:
            assert "test-registry-plugin" in registry.available()
            assert registry.resolve("test-registry-plugin") is _build
            # Registering enlists a scheduler in no figure: every line-up
            # stays as it was.
            assert {
                figure_id: figure.schedulers for figure_id, figure in FIGURES.items()
            } == lineups
        finally:
            registry._REGISTRY.pop("test-registry-plugin", None)


class TestScenarioIntegration:
    @pytest.mark.parametrize("name", ALL_SCHEDULERS)
    def test_scenario_factory_resolves_through_registry(self, name):
        scenario = traffic_load_scenario(rate_ppm=60.0, scheduler=name)
        scheduler = scenario._scheduler_factory()(1, False)
        assert scheduler.name == name

    def test_scenario_rejects_unknown_scheduler(self):
        scenario = traffic_load_scenario(rate_ppm=60.0, scheduler="bogus")
        with pytest.raises(ValueError, match="unknown scheduler"):
            scenario._scheduler_factory()


def _module_level_imports(tree: ast.Module):
    """Module names imported at module scope, skipping TYPE_CHECKING blocks."""
    for statement in tree.body:
        if isinstance(statement, ast.Import):
            for alias in statement.names:
                yield alias.name
        elif isinstance(statement, ast.ImportFrom):
            yield statement.module or ""


class TestImportCycleContract:
    """``repro.schedulers`` must stay importable without the heavy layers.

    ``repro/__init__`` pulls the whole public API in, so a runtime
    ``sys.modules`` probe cannot observe the package in isolation; the
    contract is enforced statically instead: no module in the package may
    import ``repro.experiments`` or ``repro.core`` at module scope (builders
    defer such imports to their bodies, configs are duck-typed).
    """

    def test_no_module_level_experiments_or_core_imports(self):
        package_dir = (
            pathlib.Path(__file__).resolve().parents[2]
            / "src"
            / "repro"
            / "schedulers"
        )
        offenders = []
        for module_path in sorted(package_dir.glob("*.py")):
            tree = ast.parse(module_path.read_text(), filename=str(module_path))
            for imported in _module_level_imports(tree):
                if imported.startswith(("repro.experiments", "repro.core")):
                    offenders.append(f"{module_path.name}: {imported}")
        assert not offenders, (
            "schedulers package imports heavy layers at module scope: "
            + ", ".join(offenders)
        )
