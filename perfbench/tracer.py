"""Per-layer tracing from outside the package.

`Tracer.patch` wraps each layer's public functions: module functions are
rebound in every `dgkunneth` module whose globals hold the same function
object (the package imports by name, e.g. `from .linalg import rref`), and
methods are replaced on their classes.  Each call records a span (name,
parent, start, end) into flat arrays; nothing is written until the traced
pass ends.  `Tracer.unpatch` restores every original.
"""
from __future__ import annotations

import functools
import hashlib
import inspect
import json
import sys
import time
from array import array
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Layer:
    metric: str               # "<module>.<function>" prefix of the metric names
    module: str
    attr: str                 # "func" or "Class.method"
    stats: tuple
    target: str               # end-to-end metric and workload it should move


_F, _Q, _W = "suite_f101", "suite_q", "plain_wide"
LAYERS = (
    Layer("linalg.rref", "dgkunneth.linalg", "rref", ("calls", "self_s", "cells"),
          f"verify_s on {_F} and {_W}"),
    Layer("linalg.matmul", "dgkunneth.linalg", "Matrix.__matmul__", ("calls", "self_s", "cells"),
          f"verify_s on {_Q}"),
    Layer("linalg.kron", "dgkunneth.linalg", "Matrix.kron", ("calls", "self_s"), f"verify_s on {_Q}"),
    Layer("linalg.quotient", "dgkunneth.linalg", "quotient", ("calls", "self_s"),
          f"verify_s on {_F} and {_W}"),
    Layer("linalg.solve", "dgkunneth.linalg", "solve", ("calls", "self_s"),
          f"verify_s on {_F} and {_W}"),
    Layer("linalg.left_inverse", "dgkunneth.linalg", "left_inverse", ("calls", "self_s"),
          f"verify_s on {_F} and {_W}"),
    Layer("linalg.kernel_basis", "dgkunneth.linalg", "kernel_basis", ("calls", "self_s"),
          f"verify_s on {_F} and {_W}"),
    Layer("dgmodule.cohomology", "dgkunneth.dgmodule", "cohomology",
          ("calls", "self_s", "incl_s"), f"verify_s on {_Q}"),
    Layer("dgmodule.validate_module", "dgkunneth.dgmodule", "validate_module",
          ("calls", "incl_s"), f"verify_s on {_Q}"),
    Layer("dgmodule.free_module", "dgkunneth.dgmodule", "free_module", ("calls", "self_s"),
          f"verify_s on {_Q}"),
    Layer("dgalgebra.validate_algebra", "dgkunneth.dgalgebra", "validate_algebra",
          ("calls", "incl_s"), "setup_s on every workload"),
    Layer("genlab.generate_instance", "dgkunneth.genlab", "generate_instance",
          ("calls", "incl_s"), "setup_s on every workload"),
    Layer("tensor.TensorComplex.space", "dgkunneth.tensor", "TensorComplex.space",
          ("calls", "self_s", "incl_s"),
          f"verify_s on {_W}; verdict_ms_p50 on {_F} and {_Q}"),
    Layer("tensor.TensorComplex.diff", "dgkunneth.tensor", "TensorComplex.diff",
          ("calls", "incl_s"), f"verify_s on {_W}; verdict_ms_p50 on {_F} and {_Q}"),
    Layer("tensor.balanced_tensor", "dgkunneth.tensor", "balanced_tensor", ("calls", "incl_s"),
          f"verify_s on {_W}; verdict_ms_p50 on {_F} and {_Q}"),
    Layer("tensor.tensor_cohomology", "dgkunneth.tensor", "tensor_cohomology",
          ("calls", "incl_s"), f"verify_s on {_W}; verdict_ms_p50 on {_F} and {_Q}"),
    Layer("tensor.tensor_map", "dgkunneth.tensor", "tensor_map", ("calls", "incl_s"),
          f"verify_s on {_W}; verdict_ms_p50 on {_F} and {_Q}"),
    Layer("kunneth.theta", "dgkunneth.kunneth", "theta", ("calls", "incl_s", "per_instance"),
          f"verify_s on {_W}"),
    Layer("kunneth.check_exact_sequences", "dgkunneth.kunneth", "check_exact_sequences",
          ("incl_s",), f"verify_s on {_W}"),
    Layer("kunneth.check_representative_independence", "dgkunneth.kunneth",
          "check_representative_independence", ("incl_s",), f"verify_s on {_W}"),
    Layer("kunneth.check_functoriality", "dgkunneth.kunneth", "check_functoriality",
          ("incl_s",), f"verify_s on {_W}"),
    Layer("resolve.semifree_resolve", "dgkunneth.resolve", "semifree_resolve",
          ("calls", "self_s", "incl_s", "per_instance"),
          f"verify_s and verdict_ms_tail on {_F} and {_Q}; nothing on {_W}"),
    Layer("resolve.theta_der", "dgkunneth.resolve", "theta_der", ("calls", "incl_s"),
          f"verify_s and verdict_ms_tail on {_F} and {_Q}; nothing on {_W}"),
    Layer("resolve.lift_through_resolutions", "dgkunneth.resolve", "lift_through_resolutions",
          ("calls", "incl_s"),
          f"verify_s and verdict_ms_tail on {_F} and {_Q}; nothing on {_W}"),
    Layer("resolve.check_depth_stabilization", "dgkunneth.resolve",
          "check_depth_stabilization", ("incl_s",),
          f"verify_s and verdict_ms_tail on {_F} and {_Q}; nothing on {_W}"),
    Layer("resolve.check_resolution_independence", "dgkunneth.resolve",
          "check_resolution_independence", ("incl_s",),
          f"verify_s and verdict_ms_tail on {_F} and {_Q}; nothing on {_W}"),
    Layer("resolve.check_theta_der_functoriality", "dgkunneth.resolve",
          "check_theta_der_functoriality", ("incl_s",),
          f"verify_s and verdict_ms_tail on {_F} and {_Q}; nothing on {_W}"),
    Layer("suite.plain_kunneth_checks", "dgkunneth.suite", "plain_kunneth_checks", ("incl_s",),
          f"verdict_ms_p50 on {_F} and {_Q}; verify_s on {_W}"),
    Layer("suite.derived_kunneth_checks", "dgkunneth.suite", "derived_kunneth_checks",
          ("incl_s",), f"verify_s and verdict_ms_tail on {_F} and {_Q}"),
    Layer("suite.functoriality_pair_checks", "dgkunneth.suite", "functoriality_pair_checks",
          ("incl_s",), f"verify_s on {_F} and {_Q}"),
    Layer("suite.witness_checks", "dgkunneth.suite", "witness_checks", ("incl_s",),
          f"verify_s on {_F} and {_Q}"),
    Layer("serialize.dumps_canonical", "dgkunneth.serialize", "dumps_canonical", ("incl_s",),
          "verify_s on every workload"),
)
# Metrics read from the traced set-up; every other layer from the traced pass.
SETUP_LAYERS = ("dgalgebra.validate_algebra", "genlab.generate_instance")
# Counters that are not a single layer's stat.
DERIVED_METRICS = {
    "resolve.generators_adjoined": ("count", "lower",
                                    "verify_s and verdict_ms_tail on suite_f101 and suite_q"),
    "resolve.distinct_ratio": ("ratio", "higher",
                               "verify_s and verdict_ms_tail on suite_f101 and suite_q"),
    "trace.overhead_ratio": ("ratio", "lower", "none: the cost of tracing itself"),
}
# per_instance: calls made under these batteries, per call of the batteries.
PER_INSTANCE_BASE = {
    "kunneth.theta": ("suite.plain_kunneth_checks",),
    "resolve.semifree_resolve": ("suite.derived_kunneth_checks", "suite.functoriality_pair_checks"),
}
_CELLS = {
    "linalg.rref": lambda m: m.rows * m.cols,
    "linalg.matmul": lambda a, b: a.rows * a.cols * b.cols,
}
_UNITS = {"calls": "count", "cells": "count", "per_instance": "count",
          "self_s": "s", "incl_s": "s"}


def per_layer_metrics():
    """(name, unit, better, target) for every per-layer metric, in output order."""
    out = []
    for layer in LAYERS:
        for stat in layer.stats:
            out.append((f"{layer.metric}.{stat}", _UNITS[stat], "lower", layer.target))
    for name, (unit, better, target) in DERIVED_METRICS.items():
        out.append((name, unit, better, target))
    return out


class Tracer:
    def __init__(self):
        self.names = [layer.metric for layer in LAYERS]
        self._ids = {name: i for i, name in enumerate(self.names)}
        self._patches = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.cells = [0] * len(self.names)
        self.resolve_args = []    # (args, kwargs) of each resolution build
        self.generators = 0
        self._stack = []

    def clear(self):
        for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
            del arr[:]
        self.cells[:] = [0] * len(self.names)
        self.resolve_args.clear()
        self.generators = 0

    # -- patching ----------------------------------------------------------

    def patch(self):
        import dgkunneth  # noqa: F401  (loads every submodule that is traced)
        import dgkunneth.serialize  # noqa: F401
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "dgkunneth" or name.startswith("dgkunneth.")]
        for layer in LAYERS:
            nid = self._ids[layer.metric]
            owner = sys.modules[layer.module]
            cls_name, _, attr = layer.attr.rpartition(".")
            if cls_name:
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[attr]
                setattr(cls, attr, self._wrap(nid, orig))
                self._patches.append((cls, attr, orig))
                continue
            orig = getattr(owner, attr)
            wrapper = self._wrap(nid, orig)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapper)
                        self._patches.append((mod, key, orig))

    def unpatch(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def _wrap(self, nid, fn):
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        stack, cells = self._stack, self.cells
        count_cells = _CELLS.get(self.names[nid])
        after = self._after_resolve if self.names[nid] == "resolve.semifree_resolve" else None
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            if count_cells is not None:
                cells[nid] += count_cells(*args)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if after is not None:
                after(result, args, kwargs)
            return result

        return functools.update_wrapper(wrapper, fn)

    def _after_resolve(self, result, args, kwargs):
        # the module key is hashed after the run, outside every span
        self.resolve_args.append((args, kwargs))
        self.generators += result.generator_count()

    # -- aggregation ---------------------------------------------------------

    def aggregate(self) -> dict:
        """Per-layer calls, self and inclusive seconds, cells and counters
        for the spans recorded since the last `clear`."""
        k = len(self.names)
        name = np.frombuffer(self.span_name, dtype=np.int32).copy()
        parent = np.frombuffer(self.span_parent, dtype=np.int32).copy()
        dur = np.frombuffer(self.span_end).copy() - np.frombuffer(self.span_start).copy()
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - child
        # inclusive time counts a layer once when it is re-entered below itself
        outer = _without_same_name_ancestor(name, parent)
        calls = np.bincount(name, minlength=k)
        incl = np.bincount(name[outer], weights=dur[outer], minlength=k)
        selfs = np.bincount(name, weights=self_time, minlength=k)
        table = {}
        for nid, metric in enumerate(self.names):
            table[metric] = {"calls": int(calls[nid]), "self_s": float(selfs[nid]),
                             "incl_s": float(incl[nid]), "cells": self.cells[nid]}
        for metric, bases in PER_INSTANCE_BASE.items():
            base_ids = {self._ids[b] for b in bases}
            under = sum(1 for i in np.flatnonzero(name == self._ids[metric])
                        if _has_ancestor(int(i), base_ids, name, parent))
            denom = sum(table[b]["calls"] for b in bases)
            table[metric]["per_instance"] = under / denom if denom else 0.0
        table["_self_total_s"] = float(self_time.sum())
        return table

    def resolve_keys(self):
        """(distinct (module, depth, variant) keys, builds)."""
        from dgkunneth import resolve, serialize
        sig = inspect.signature(resolve.semifree_resolve)
        keys = set()
        for args, kwargs in self.resolve_args:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            m = bound.arguments["m"]
            blob = json.dumps([serialize.algebra_to_json(m.algebra),
                               serialize.module_to_json(m)], sort_keys=True)
            keys.add((hashlib.sha256(blob.encode()).hexdigest(),
                      bound.arguments["depth"], bound.arguments["variant"]))
        return len(keys), len(self.resolve_args)


def _has_ancestor(i, ids, name, parent) -> bool:
    p = parent[i]
    while p >= 0:
        if name[p] in ids:
            return True
        p = parent[p]
    return False


def _without_same_name_ancestor(name, parent):
    """Mask of spans with no enclosing span of the same layer."""
    anc = parent.copy()
    while True:
        live = np.flatnonzero(anc >= 0)
        climb = live[name[anc[live]] != name[live]]
        if climb.size == 0:
            return anc < 0
        anc[climb] = parent[anc[climb]]
