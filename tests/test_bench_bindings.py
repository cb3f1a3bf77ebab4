"""The benchmark binds silkit functions by name (``bench/layers.py``):
these checks fail fast, without a traced run, when a name the benchmark
needs is deleted or renamed."""

import importlib
import pkgutil
from pathlib import Path

import silkit
from silkit import kselect, sampling, silhouette

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_bench_layers_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    layers = importlib.import_module("layers")
    entries = layers.layers()
    assert entries
    for name, function, counter in entries:
        module, attr = name.split(".")
        assert callable(function), name
        assert getattr(importlib.import_module(f"silkit.{module}"), attr) is function, name
        assert counter is None or callable(counter), name


def test_full_report_is_one_function():
    # the tracer patches full_report in every module that imported it
    assert kselect.full_report is sampling.full_report is silhouette.full_report


def test_every_public_name_resolves():
    modules = [silkit] + [
        importlib.import_module(f"silkit.{info.name}") for info in pkgutil.iter_modules(silkit.__path__)
    ]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"
