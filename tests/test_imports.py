"""Export hygiene: every public module imports and every __all__ resolves."""

import importlib
import pkgutil

import pytest

import repro


def _public_modules():
    names = ["repro"]
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        leaf = info.name.rsplit(".", 1)[-1]
        if leaf.startswith("_") and leaf != "__main__":
            continue
        names.append(info.name)
    return sorted(names)


PUBLIC_MODULES = _public_modules()


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_module_imports_cleanly(module_name):
    importlib.import_module(module_name)


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_all_entries_resolve(module_name):
    module = importlib.import_module(module_name)
    for name in getattr(module, "__all__", ()):
        assert hasattr(module, name), f"{module_name}.__all__ lists missing {name!r}"


def test_every_package_defines_all():
    packages = [name for name in PUBLIC_MODULES if name != "repro.__main__"]
    missing = [
        name
        for name in packages
        if hasattr(importlib.import_module(name), "__path__")
        and not hasattr(importlib.import_module(name), "__all__")
    ]
    assert missing == [], f"packages without __all__: {missing}"


def test_expected_subsystems_present():
    subsystems = {
        "repro.core",
        "repro.devices",
        "repro.grid",
        "repro.charging",
        "repro.thermal",
        "repro.simulation",
        "repro.microservices",
        "repro.cluster",
        "repro.fleet",
        "repro.economics",
        "repro.analysis",
    }
    assert subsystems.issubset(set(PUBLIC_MODULES))


@pytest.mark.parametrize("module_name", ["engine", "resources"])
def test_generator_engine_lives_only_in_the_tests(module_name):
    # The serving model is a compiled event loop; the process engine and its
    # resources are its test oracle (tests/des_oracle.py).
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(f"repro.simulation.{module_name}")
    simulation = importlib.import_module("repro.simulation")
    removed = (
        "Simulator", "Process", "Timeout", "AllOf", "Waitable",
        "Resource", "CpuResource", "NetworkMedium",
    )
    for name in removed:
        assert not hasattr(simulation, name), name


def test_cli_registry_targets_are_callable():
    from repro.__main__ import REGISTRY, list_targets

    listing = list_targets()
    for name, (description, builder) in REGISTRY.items():
        assert name in listing
        assert description
        assert callable(builder)
