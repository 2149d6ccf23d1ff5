"""The names the benchmark in ``perfbench/`` imports and traces still exist.

``perfbench/tracing.py`` wraps every ``<layer>.<function>`` in ``PER_LAYER``
and ``perfbench/workloads.py`` imports every module in ``MODULES``; a rename
or a deletion in ``src/critline`` fails here rather than in a benchmark run.
"""

import importlib
import importlib.util

import pytest

from conftest import REPO


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", REPO / "perfbench" / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


tracing = _load("tracing")
workloads = _load("workloads")


@pytest.mark.parametrize("module", workloads.MODULES)
def test_workload_module_imports(module):
    importlib.import_module(f"critline.{module}")


@pytest.mark.parametrize("span", [s for s in tracing.PER_LAYER if s != tracing.COEFF_MUL])
def test_traced_span_resolves_to_callable(span):
    layer, fname = span.split(".")
    assert callable(getattr(importlib.import_module(f"critline.{layer}"), fname, None)), span
