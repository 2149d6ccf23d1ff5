"""The names the benchmark in ``perfbench/`` imports and traces still exist.

``perfbench/tracing.py`` wraps every ``<layer>.<function>`` in ``PER_LAYER``
and ``perfbench/workloads.py`` imports every module in ``MODULES``; a rename
or a deletion in ``src/critline`` fails here rather than in a benchmark run.
"""

import importlib
import inspect

import pytest

from conftest import load_perfbench

tracing = load_perfbench("tracing")
workloads = load_perfbench("workloads")


@pytest.mark.parametrize("module", workloads.MODULES)
def test_workload_module_imports(module):
    importlib.import_module(f"critline.{module}")


@pytest.mark.parametrize("span", [s for s in tracing.PER_LAYER if s != tracing.COEFF_MUL])
def test_traced_span_resolves_to_callable(span):
    layer, fname = span.split(".")
    assert callable(getattr(importlib.import_module(f"critline.{layer}"), fname, None)), span


@pytest.mark.parametrize("span", sorted(tracing.COUNTERS))
def test_trace_counter_takes_its_functions_arguments(span):
    # a counter is called with the traced call's arguments; a signature that
    # drifts apart would break only a traced run
    layer, fname = span.split(".")
    traced = getattr(importlib.import_module(f"critline.{layer}"), fname)
    params = inspect.signature(traced).parameters
    positional = [p for p in params.values()
                  if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]
    required = [p for p in positional if p.default is p.empty]
    counter = inspect.signature(tracing.COUNTERS[span])
    for args in (required, positional):
        counter.bind(*[p.name for p in args])
