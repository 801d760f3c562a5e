"""The package names that bench/layertrace.py reads still exist.

The benchmark worker imports every module in `layertrace.LAYERS` and reads
the lru caches in `layertrace.CACHES` on every run, and its per-layer
metrics look functions up by `layer.name`.  A rename in the package would
break `bench/run.py --trace 1` or zero a metric without notice, so the
tracer is imported here read-only, from its own directory.
"""

import importlib
import inspect
import pathlib

import pytest

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def layertrace(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("layertrace")


def test_every_layer_imports_and_every_cache_is_read(layertrace):
    mods = layertrace.package_modules()
    assert set(mods) == set(layertrace.LAYERS)
    stats = layertrace.CacheStats()
    stats.collect()
    assert set(stats.ratios()) == {f"{m}.hit_ratio" for m in layertrace.CACHES}


def test_metrics_read_existing_functions(layertrace):
    # metrics() reads its counters from defaultdicts, so afterwards their keys
    # are exactly the names it looks up; integrands are the tracer's own names
    # and PRIVATE functions are traced only where they still exist
    tracer = layertrace.Tracer()
    tracer.metrics()
    mods = layertrace.package_modules()
    private = {f"{layer}.{name}" for layer, names in layertrace.PRIVATE.items() for name in names}
    for key in set(tracer.calls) | set(tracer.self_s):
        layer, _, name = key.partition(".")
        if name == "integrand" or key in private:
            continue
        assert inspect.isfunction(getattr(mods[layer], name, None)), key


def test_tracer_reads_every_package_cache(layertrace):
    # a memo the tracer does not list would hide its cost and its key from
    # the per-layer hit ratios
    mods = layertrace.package_modules()
    named = [getattr(mods[layer], name)
             for layer, names in layertrace.CACHES.values() for name in names]
    assert set(layertrace.package_caches()) == set(named)
