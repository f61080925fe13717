"""The public surface: each layer's __all__ and the top-level exports agree,
and removed names stay removed."""

import importlib
import inspect

import pytest

import gigopt

LAYERS = ("market", "fluid", "sim", "policies", "noisy", "experiments", "cli")

# names deleted once nothing in the package read them, by the module that held them
REMOVED = [
    ("fluid", "optimize_pair"),
    ("fluid", "PairSolution"),
    ("fluid", "_solve_pairs"),
    ("fluid", "find_interlacing"),
    ("fluid", "InterlacingNotFound"),
    ("policies", "distribution_at"),
    ("policies", "static_from_cyclic"),
    ("policies", "Trajectory"),
    ("noisy", "mhr_like_check"),
    ("noisy", "DerivativeVanishes"),
]


def _layer(name):
    return importlib.import_module(f"gigopt.{name}")


@pytest.mark.parametrize("layer", LAYERS)
def test_every_name_in_a_layers_all_resolves(layer):
    mod = _layer(layer)
    assert mod.__all__
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_every_top_level_export_is_in_its_modules_all():
    # tools that enumerate __all__ (the benchmark tracer does) miss a name
    # that is exported but left out of it
    homes = {}
    for layer in LAYERS:
        mod = _layer(layer)
        for name in mod.__all__:
            homes.setdefault(name, []).append(mod)
    exported = [n for n, v in vars(gigopt).items() if not n.startswith("_") and not inspect.ismodule(v)]
    assert "solve_fluid" in exported
    for name in exported:
        obj = getattr(gigopt, name)
        owners = [mod for mod in homes.get(name, []) if getattr(mod, name) is obj]
        assert owners, f"gigopt.{name} is in no layer's __all__"
        if inspect.isclass(obj) or inspect.isfunction(obj):
            assert obj.__module__ in [mod.__name__ for mod in owners], name


@pytest.mark.parametrize("layer, name", REMOVED)
def test_removed_names_are_not_importable(layer, name):
    assert not hasattr(gigopt, name)
    mod = _layer(layer)
    assert not hasattr(mod, name)
    assert name not in mod.__all__
