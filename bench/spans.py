"""Spans around maxbw's public functions, installed from outside the package.

`install` replaces the public module functions and class methods of the
traced modules with wrappers that record one span per call: name, start,
end, parent span and, for the fading expectations, the number of points
and quadrature nodes or atoms. Spans stay in memory until `write`.
`layer_metrics` turns them into per-layer counts and self times; a span's
self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

import numpy as np

LAYERS = ("fading", "core", "beamform", "linkbudget", "baselines", "scenario", "allocate", "cli")
_EXPECTATIONS = ("expected_log1p", "expected_inv1p")
_GL_NODES = 64  # fading's fixed Gauss-Laguerre rule for Rayleigh


def _nodes(model):
    if model.kind == "rayleigh":
        return _GL_NODES
    if model.kind == "tabulated":
        return len(model.atoms)
    return 1


class Tracer:
    def __init__(self):
        self.names = []
        self.spans = []  # (name id, start, end, parent index, points, nodes, kind)
        self._stack = []
        self._restore = []

    def _wrap(self, name, fn, expectation=False):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if expectation:
                    model, s = args[0], args[1]
                    points = np.size(s) if isinstance(s, np.ndarray) else 0
                    spans[index] = (name_id, start, end, parent, points, _nodes(model), model.kind)
                else:
                    spans[index] = (name_id, start, end, parent, 0, 0, None)

        return traced

    def install(self, layers=LAYERS):
        """Wrap every public function and method defined in the given modules."""
        for layer in layers:
            module = importlib.import_module(f"maxbw.{layer}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    self._replace(module, attr, obj, self._wrap(f"{layer}.{attr}", obj))
                elif inspect.isclass(obj):
                    for meth, raw in list(vars(obj).items()):
                        if meth.startswith("_"):
                            continue
                        name = f"{layer}.{obj.__name__}.{meth}"
                        if inspect.isfunction(raw):
                            wrapped = self._wrap(name, raw, expectation=meth in _EXPECTATIONS)
                        elif isinstance(raw, (classmethod, staticmethod)):
                            wrapped = type(raw)(self._wrap(name, raw.__func__))
                        else:
                            continue
                        self._replace(obj, meth, raw, wrapped)

    def _replace(self, owner, attr, original, wrapped):
        setattr(owner, attr, wrapped)
        self._restore.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def write(self, path):
        """One tab-separated line per span: name, start, end, parent, points, nodes."""
        with open(path, "w") as fh:
            fh.write("name\tstart_s\tend_s\tparent\tpoints\tnodes\n")
            for name_id, start, end, parent, points, nodes, _kind in self.spans:
                fh.write(f"{self.names[name_id]}\t{start:.9f}\t{end:.9f}\t{parent}\t{points}\t{nodes}\n")

    def summary(self):
        """Per-name totals: calls, time, self time, points, node evaluations."""
        n = len(self.spans)
        child = [0.0] * n
        for name_id, start, end, parent, *_ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (name_id, start, end, parent, points, nodes, kind) in enumerate(self.spans):
            name = self.names[name_id]
            parent_name = self.names[self.spans[parent][0]] if parent >= 0 else None
            key = (name, kind, points > 0, parent_name)
            row = out.setdefault(key, [0, 0.0, 0.0, 0, 0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child[i]
            row[3] += points if points else (1 if kind else 0)
            row[4] += (points if points else 1) * nodes
        return out


def layer_metrics(summaries, rounds):
    """Fold per-name summaries (one per traced process) into per-layer values.

    Counts and times are per round; ratios are ratios of totals. Every value
    is reported by every workload, as 0 where the workload does not reach
    the layer.
    """
    tot = {}

    def add(key, value):
        tot[key] = tot.get(key, 0.0) + value

    for summary in summaries:
        for (name, kind, vector, parent), (calls, dur, self_s, points, node_evals) in summary.items():
            layer = name.split(".", 1)[0]
            short = name.rsplit(".", 1)[-1]
            add(f"{layer}.self", self_s)
            if name == "cli.main":
                add("cli.work", dur)
            if name == "scenario.resolve":
                add("scenario.resolve_calls", calls)
            if name in ("beamform.solve_with_gains", "beamform.solve_mimo"):
                add("beamform.solve_calls", calls)
            if name == "core.solve_continuous":
                add("core.solve_calls", calls)
                add("core.solve", dur)
            if name == "core.condition_residuals":
                add("core.residual_calls", calls)
            if name == "core.rate_fixed_bandwidth":
                add("core.fixed_bw_calls", calls)
                add("core.fixed_bw", dur)
            if name == "core.discretize":
                add("core.discretize", dur)
            if name == "core.exhaustive_search":
                add("core.exhaustive", dur)
            if short in _EXPECTATIONS:
                add("fading.calls", calls)
                add("fading.points", points)
                add("fading.node_evals", node_evals)
                add("fading.kernel_self", self_s)
                if not vector:
                    add("fading.scalar_calls", calls)
                    add(f"fading.scalar_self.{kind}", self_s)
                    add(f"fading.scalar_calls.{kind}", calls)
                if parent and parent.startswith("allocate.") and parent != "allocate.fixed_bandwidth_rate":
                    add("allocate.candidates", points)
            if name == "allocate.allocate_pair":
                add("allocate.pair_calls", calls)
            if name == "allocate.allocate_group":
                add("allocate.group_calls", calls)
            if name == "allocate.fixed_bandwidth_rate":
                add("allocate.rescore_calls", calls)

    def get(key):
        return tot.get(key, 0.0)

    def ratio(a, b, scale=1.0):
        return scale * a / b if b else 0.0

    per_round = 1.0 / max(rounds, 1)
    out = {
        "cli.work_ms": 1e3 * get("cli.work") * per_round,
        "cli.self_ms": 1e3 * get("cli.self") * per_round,
        "scenario.resolve_calls": get("scenario.resolve_calls") * per_round,
        "scenario.self_ms": 1e3 * get("scenario.self") * per_round,
        "linkbudget.self_ms": 1e3 * get("linkbudget.self") * per_round,
        "beamform.solve_calls": get("beamform.solve_calls") * per_round,
        "beamform.self_ms": 1e3 * get("beamform.self") * per_round,
        "baselines.self_ms": 1e3 * get("baselines.self") * per_round,
        "core.solve_calls": get("core.solve_calls") * per_round,
        "core.solve_ms": 1e3 * get("core.solve") * per_round,
        "core.residual_evals_per_solve": ratio(get("core.residual_calls"), get("core.solve_calls")),
        "core.fixed_bw_calls": get("core.fixed_bw_calls") * per_round,
        "core.fixed_bw_ms": 1e3 * get("core.fixed_bw") * per_round,
        "core.discretize_ms": 1e3 * get("core.discretize") * per_round,
        "core.exhaustive_ms": 1e3 * get("core.exhaustive") * per_round,
        "fading.calls": get("fading.calls") * per_round,
        "fading.scalar_calls": get("fading.scalar_calls") * per_round,
        "fading.points": get("fading.points") * per_round,
        "fading.node_evals": get("fading.node_evals") * per_round,
        "fading.self_ms": 1e3 * get("fading.self") * per_round,
        "fading.ns_per_point": ratio(get("fading.kernel_self"), get("fading.points"), 1e9),
        "allocate.pair_calls": get("allocate.pair_calls") * per_round,
        "allocate.group_calls": get("allocate.group_calls") * per_round,
        "allocate.rescore_calls": get("allocate.rescore_calls") * per_round,
        "allocate.candidates": get("allocate.candidates") * per_round,
        "allocate.self_ms": 1e3 * get("allocate.self") * per_round,
    }
    for kind in ("rayleigh", "tabulated", "deterministic"):
        out[f"fading.scalar_ns.{kind}"] = ratio(
            get(f"fading.scalar_self.{kind}"), get(f"fading.scalar_calls.{kind}"), 1e9)
    return out
