"""The names the benchmark in ``perfbench/`` imports and traces still exist.

``perfbench/tracing.py`` wraps every ``<layer>.<function>`` in ``PER_LAYER``,
``perfbench/workloads.py`` imports every module in ``MODULES`` and
``perfbench/reference.py`` calls critline functions by name; a rename, a
deletion or a signature change in ``src/critline`` fails here rather than in
a benchmark run.
"""

import ast
import importlib
import inspect

import pytest

from conftest import REPO, load_perfbench

tracing = load_perfbench("tracing")
workloads = load_perfbench("workloads")


@pytest.mark.parametrize("module", workloads.MODULES)
def test_workload_module_imports(module):
    importlib.import_module(f"critline.{module}")


@pytest.mark.parametrize("span", [s for s in tracing.PER_LAYER if s != tracing.COEFF_MUL])
def test_traced_span_resolves_to_callable(span):
    layer, fname = span.split(".")
    assert callable(getattr(importlib.import_module(f"critline.{layer}"), fname, None)), span


def test_setup_reads_the_pipeline_cache_clear():
    # perfbench/workloads.py reads run_pipeline.cache_clear at set-up, before
    # the tracer wraps run_pipeline, and the coeffs workload calls it per op
    from critline import optimal_coeffs
    assert callable(optimal_coeffs.run_pipeline.cache_clear)


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


def _reference_uses():
    """Every ``<critline module>.<name>`` attribute and every call of a name
    imported ``from critline.<module>`` in ``perfbench/reference.py``, as
    (label, object path, call node or None)."""
    tree = ast.parse((REPO / "perfbench" / "reference.py").read_text())
    modules, names = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "critline":
            modules.update({a.asname or a.name: f"critline.{a.name}" for a in node.names})
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("critline."):
            names.update({a.asname or a.name: (node.module, a.name) for a in node.names})
    calls = {id(n.func): n for n in ast.walk(tree) if isinstance(n, ast.Call)}
    uses = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            uses.append((f"{node.value.id}.{node.attr}:{node.lineno}",
                         (modules[node.value.id], node.attr), calls.get(id(node))))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in names:
            uses.append((f"{node.func.id}:{node.lineno}", names[node.func.id], node))
    return uses


REFERENCE_USES = _reference_uses()


def test_reference_script_uses_critline():
    # the script's timed calls are what these checks cover; an empty list
    # would mean the parse above no longer finds them
    assert {"_archimedean", "dirichlet_term", "log_abs_zeta_crit"} <= {
        path[1] for _, path, call in REFERENCE_USES if call is not None}


@pytest.mark.parametrize("label,path,call", REFERENCE_USES, ids=[u[0] for u in REFERENCE_USES])
def test_reference_script_call_resolves_and_binds(label, path, call):
    # perfbench/reference.py times private functions that no workload imports,
    # so a rename or a signature change would surface only when it is run
    module, name = path
    obj = getattr(importlib.import_module(module), name, None)
    assert obj is not None, label
    if call is not None:
        assert not any(isinstance(a, ast.Starred) for a in call.args), label
        inspect.signature(obj).bind(*call.args, **{k.arg: k.value for k in call.keywords})
