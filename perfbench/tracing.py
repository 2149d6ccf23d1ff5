"""Spans around the calls into critline's layers, recorded from the outside.

A :class:`Tracer` replaces each traced public function, in every loaded
``critline`` module namespace that binds it, by a wrapper that records one
span: name, start, end, parent span and operation id.  Calls between layers
go through those module-level names, so nested spans come out with their
parents.  :meth:`Tracer.uninstall` puts the original objects back; while the
tracer is not installed, nothing wraps the program.

Counts (``points``, ``terms``, ``nodes``) are computed from the call
arguments before the span starts, so their cost is not inside any span.
"""

from __future__ import annotations

import contextlib
import json
import math
import sys
import time
from collections import defaultdict

import numpy as np


def _size(arg) -> int:
    return int(np.size(arg))


def _dirichlet_terms(t, x, table=None):
    # number of prime powers n <= x, the length of the Dirichlet polynomial
    if x < 2:
        return 0
    n_max = int(math.floor(x))
    if table is None or table.limit < n_max:
        return None  # no table to count from; the callee sieves for itself
    return int(np.count_nonzero(table.prime[: n_max + 1]))


def _panel_nodes(f, a, b, n_panels, order=12):
    return int(n_panels) * int(order) if b > a else 0


COEFF_MUL = "series_algebra.coeff_mul"

#: span name -> reported fields: ``calls``, ``self_s`` and at most one count.
#: Every name but COEFF_MUL is a traced public function ``<layer>.<function>``.
PER_LAYER = {
    "series_algebra.ps_mul": ("calls", "self_s"),
    "series_algebra.ps_compose": ("calls", "self_s"),
    "series_algebra.ps_revert": ("calls", "self_s"),
    "series_algebra.ps_recip": ("calls", "self_s"),
    "series_algebra.ps_log": ("calls", "self_s"),
    COEFF_MUL: ("calls",),
    "optimal_coeffs.run_pipeline": ("calls", "self_s"),
    "pari_text.format_coefficient": ("self_s",),
    "zeta_oracle.zeta_em": ("calls", "self_s"),
    "zeta_oracle.zeta_deriv_em": ("calls", "self_s"),
    "zeta_oracle.digamma": ("points", "self_s"),
    "bound_engine.dirichlet_term": ("calls", "terms", "self_s"),
    "bound_engine.scan_margins": ("self_s",),
    "special_f.f_closed_form": ("points", "self_s"),
    "prime_arith.lambda_sieve": ("calls", "self_s"),
    "zeros_table.load_zeros": ("self_s",),
    "explicit_formula.gw_zero_side": ("self_s",),
    "explicit_formula.gw_prime_side": ("self_s",),
    "explicit_formula.partial_fraction_residual": ("self_s",),
    "explicit_formula.lemma3_bracket": ("self_s",),
    "quadrature.panel_integrate": ("calls", "nodes", "self_s"),
    "quadrature.geometric_tail": ("self_s",),
    "extremal_poisson.eval_m": ("points", "self_s"),
    "extremal_poisson.numeric_ft": ("self_s",),
    "extremal_poisson.l1_numeric": ("self_s",),
}

#: span name -> its count field in PER_LAYER
COUNT_FIELD = {span: field for span, fields in PER_LAYER.items() for field in fields
               if field not in ("calls", "self_s")}

#: span name -> the count, as a function of the call arguments
COUNTERS = {
    "zeta_oracle.digamma": _size,
    "special_f.f_closed_form": _size,
    "extremal_poisson.eval_m": lambda sign, p, z: _size(z),
    "bound_engine.dirichlet_term": _dirichlet_terms,
    "quadrature.panel_integrate": _panel_nodes,
}



class Tracer:
    """In-memory span recorder; see the module docstring."""

    def __init__(self):
        self.spans = []  # (id, name, start_ns, end_ns, parent, op, count)
        self.coeff_mul = defaultdict(int)  # op -> ExactCoefficient products
        self.op = None
        self._stack = []
        self._next_id = 0
        self._patches = []  # (owner, attribute, original)

    # -- spans -----------------------------------------------------------------

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            count = counter(*args, **kwargs) if counter else None
            sid = self._new_id()
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans.append((sid, name, start, end, parent, self.op, count))

        return traced

    @contextlib.contextmanager
    def operation(self, op_id):
        """One root span per benchmark operation; its id tags every span inside."""
        self.op = op_id
        sid = self._new_id()
        self._stack.append(sid)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append((sid, "operation", start, end, None, op_id, None))
            self.op = None

    # -- installation ------------------------------------------------------------

    def install(self):
        """Wrap every traced function in every loaded critline module."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "critline" or name.startswith("critline.")}
        for span in PER_LAYER:
            if span == COEFF_MUL:
                continue
            layer, fname = span.split(".")
            original = getattr(mods[f"critline.{layer}"], fname)
            wrapper = self._wrap(span, original)
            for mod in mods.values():
                for attr, val in list(vars(mod).items()):
                    if val is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        cls = mods["critline.series_algebra"].ExactCoefficient
        mul = cls.__dict__["__mul__"]
        counts = self.coeff_mul

        def counted_mul(a, b):
            counts[self.op] += 1
            return mul(a, b)

        for attr in ("__mul__", "__rmul__"):
            self._patches.append((cls, attr, cls.__dict__[attr]))
            setattr(cls, attr, counted_mul)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reduction ---------------------------------------------------------------

    def layer_totals(self, ops) -> dict:
        """{span name: {"calls", "self_s", count name}} over the spans whose
        operation id is in ``ops``; self time excludes child spans."""
        child_ns = defaultdict(int)
        for sid, name, start, end, parent, op, count in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        out = defaultdict(lambda: defaultdict(float))
        for sid, name, start, end, parent, op, count in self.spans:
            if op not in ops or name == "operation":
                continue
            rec = out[name]
            rec["calls"] += 1
            rec["self_s"] += (end - start - child_ns[sid]) * 1e-9
            if count is not None:
                rec[COUNT_FIELD[name]] += count
        out[COEFF_MUL]["calls"] = float(sum(self.coeff_mul[op] for op in ops))
        return out

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, op, count in self.spans:
                rec = {"id": sid, "name": name, "start_ns": start, "end_ns": end,
                       "parent": parent, "op": op}
                if count is not None:
                    rec[COUNT_FIELD[name]] = count
                fh.write(json.dumps(rec) + "\n")
            for op, n in self.coeff_mul.items():
                fh.write(json.dumps({"name": COEFF_MUL, "op": op, "calls": n}) + "\n")
