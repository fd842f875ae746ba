"""Per-layer tracing of utkit, installed from outside the package.

``Tracer.install`` wraps the functions that form each layer's boundary,
in every utkit module that binds them, and ``uninstall`` puts the
originals back.  Spans (name, start, end, parent) are kept in memory and
recorded only under a root span opened with ``Tracer.root``, so work done
by the checks between operations is not counted.  A layer whose functions
no longer exist is reported absent instead of failing the run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from collections import defaultdict

import numpy as np


def _eval_points(args, kwargs, result):
    poly, z = args[0], args[1]
    return {"bipoly.eval_term_points": poly.nnz() * np.size(z)}


def _kernel_points(args, kwargs, result):
    return {"geometry.kernel_points": np.size(args[0])}


def _series_terms(args, kwargs, result):
    return {"qc.series_terms": result.seriesTermCount}


# (layer, module, qualified name, extra counter).  A layer may span several
# functions; its time is the self time of all their spans.
LAYERS = (
    ("bipoly.eval", "utkit._bipoly", "BiPoly.eval", _eval_points),
    ("bipoly.cauchy", "utkit._bipoly", "BiPoly.cauchy", None),
    ("bipoly.mul", "utkit._bipoly", "BiPoly._mul_bipoly", None),
    ("bipoly.prune", "utkit._bipoly", "BiPoly.prune", None),
    ("qc.monitor", "utkit.qc_solver", "_SeriesState.residual_sup", None),
    ("qc.monitor", "utkit.qc_solver", "_l2_disk", None),
    ("qc.fit", "utkit.qc_solver", "_fit_bipoly", None),
    ("qc.dress", "utkit.qc_solver", "_exterior_riemann", None),
    ("qc.dress", "utkit.geometry", "MoebiusMap.through_points", None),
    ("qc.welding", "utkit.qc_solver", "welding_decompose", None),
    ("qc.bers", "utkit.qc_solver", "bers_embedding", None),
    ("qc.solve", "utkit.qc_solver", "solve_beltrami", _series_terms),
    ("series.sup_norm", "utkit.series", "BeltramiField.sup_norm", None),
    ("series.d0_beta", "utkit.series", "d0_beta", None),
    ("geometry.kernel", "utkit.geometry", "kernel_value_array", _kernel_points),
    ("quadrature.double", "utkit.quadrature", "integrate_double", None),
    ("quadrature.resolvent_callable", "utkit.quadrature", "_apply_resolvent_callable", None),
    ("quadrature.resolvent_grid", "utkit.quadrature", "_apply_resolvent_grid", None),
    ("quadrature.integrate", "utkit.quadrature", "integrate_disk", None),
    ("quadrature.integrate", "utkit.quadrature", "integrate_exterior", None),
    ("quadrature.integrate", "utkit.quadrature", "integrate_uhp", None),
    ("modes.table_build", "utkit.modes", "_build_table", None),
    ("modes.pair", "utkit.modes", "pair_profiles", None),
    ("modes.pair", "utkit.modes", "gfield_radial", None),
)

# per-layer metrics: layer self times, then counts
TIME_METRICS = tuple(dict.fromkeys(layer + "_s" for layer, *_ in LAYERS))
COUNT_METRICS = ("bipoly.eval_calls", "bipoly.eval_term_points", "qc.monitor_calls",
                 "qc.series_terms", "geometry.kernel_points", "modes.pair_calls")


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index, root index]
        self.counts = defaultdict(lambda: defaultdict(float))   # root kind -> name -> n
        self.absent = []         # "module:qualname" that could not be wrapped
        self._stack = []
        self._patches = []

    # -- spans ------------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        root = self.spans[parent][4] if parent >= 0 else len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent, root])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def root(self, name):
        """A root span ("setup" or "op:<kind>") around the with-block."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _root_kind(self, idx):
        return "setup" if self.spans[self.spans[idx][4]][0] == "setup" else "op"

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, layer, fn, extra):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer._stack:
                return fn(*args, **kwargs)
            idx = tracer._open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            counts = tracer.counts[tracer._root_kind(idx)]
            counts[layer + "_calls"] += 1
            if extra is not None:
                for key, n in extra(args, kwargs, result).items():
                    counts[key] += n
            return result

        return wrapper

    def install(self):
        self.absent = []
        for layer, modname, qualname, extra in LAYERS:
            try:
                module = importlib.import_module(modname)
            except ImportError:
                self.absent.append(f"{modname}:{qualname}")
                continue
            *path, attr = qualname.split(".")
            owner = module
            for part in path:
                owner = getattr(owner, part, None)
            if owner is None or attr not in vars(owner):
                self.absent.append(f"{modname}:{qualname}")
                continue
            raw = vars(owner)[attr]
            if isinstance(raw, (classmethod, staticmethod)):
                self._patch(owner, attr, type(raw)(self._wrap(layer, raw.__func__, extra)))
            elif path:
                self._patch(owner, attr, self._wrap(layer, raw, extra))
            else:
                wrapped = self._wrap(layer, raw, extra)
                # rebind every utkit module that imported the function by name
                for name, mod in list(sys.modules.items()):
                    if name == "utkit" or name.startswith("utkit."):
                        for key, value in list(vars(mod).items()):
                            if value is raw:
                                self._patch(mod, key, wrapped)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reduction ------------------------------------------------------------

    def self_times(self):
        """{(root kind, span name): self time}, a span minus its children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[(self._root_kind(i), name)] += (end - start) - child[i]
        return out

    def layer_metrics(self, rounds: int) -> dict:
        """Per-layer figures for one round of operations plus the set-up."""
        times = self.self_times()
        out = {}
        for metric in TIME_METRICS:
            layer = metric[:-2]
            out[metric] = times[("setup", layer)] + times[("op", layer)] / rounds
        for metric in COUNT_METRICS:
            out[metric] = self.counts["setup"][metric] + self.counts["op"][metric] / rounds
        return out

    def op_shares(self) -> dict:
        """Each layer's share of the self time under operation roots; the
        roots' own self time is the benchmark's and the glue code's."""
        times = self.self_times()
        total = sum(t for (kind, _), t in times.items() if kind == "op")
        if total == 0.0:
            return {}
        shares = {}
        for (kind, name), t in times.items():
            if kind == "op":
                key = "unwrapped" if name.startswith("op:") else name
                shares[key] = shares.get(key, 0.0) + t / total
        return dict(sorted(shares.items(), key=lambda kv: -kv[1]))

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, _ in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")
