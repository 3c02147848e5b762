"""The names the benchmark's tracer reads exist in the package.

``perfbench/tracer.py`` wraps every name in the ``__all__`` of each qms
layer module and reads a fixed list of span names back in
``Tracer.summary``.  A stale ``__all__`` entry (``AttributeError``) or a
dropped name (``KeyError``) breaks ``perfbench/run.py --trace 1``; these
tests make that a test failure.
"""

import importlib.util
import json
import os

import qms
import qms.cli  # noqa: F401  imports every layer module the tracer reads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", os.path.join(ROOT, "perfbench", "tracer.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_package_exports_resolve():
    for name in qms.__all__:
        assert hasattr(qms, name), name


def test_tracer_summary_gives_declared_metrics():
    """An empty trace still yields every per-layer metric BENCHMARK.json
    declares, except trace.overhead_frac, which run.py adds."""
    metrics = load_tracer().Tracer().summary(1)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer"]}
    assert declared - {"trace.overhead_frac"} <= set(metrics)
