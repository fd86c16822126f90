"""Spans around the calls into surfquant's layers, recorded from outside.

`Tracer.install` wraps every public function of each layer module, and every
public method of the classes those modules define, and rebinds the wrapper
wherever the function was imported (`from .geometry import evaluate_frame`
in operators, verification and cli, and the package namespace).  Spans are
kept in memory as flat arrays (name, start, end, parent, request) and written
out once, at the end.  Self time is a span's duration minus its children's.
"""

import functools
import importlib
import inspect
import time
from array import array

import numpy as np

LAYERS = ("charts", "geometry", "fields", "operators", "spectra",
          "quadrature", "verification", "cli")
VERIFY_SUITES = ("geometry", "commutator", "rotation", "hermiticity",
                 "confinement", "eigenvalue", "spectra")
FIELD_JETS = ("fields.ScalarField.value", "fields.ScalarField.grad",
              "fields.ScalarField.hess")
MOMENTUM = "operators.apply_geometric_momentum"
SPHERE_CLOSED_PREFIXES = ("operators.sphere_momentum_component",
                          "operators.FirstOrderOperator.")
FRAME = "geometry.evaluate_frame"
AMPLITUDE = "spectra.amplitude_quadrature"


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.request = array("i")  # repeat number of each span
        self._stack = [-1]
        self._repeat = -1
        self._undo = []
        self.frames = 0
        self.distinct_points = 0
        self._points = set()
        self.rule_nodes = {}  # span index of a quadrature call -> nodes returned
        self.amplitude_samples = []  # (span index, number of p values)

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def repeat(self, fn, *args):
        """Run one benchmark repeat, fn(*args), as a root span; its spans
        share the repeat number."""
        self._repeat += 1
        self._points = set()
        try:
            return self._wrap("bench.repeat", fn)(*args)
        finally:
            self.distinct_points += len(self._points)

    def _wrap(self, name, fn, hook=None):
        nid = self._name_id(name)
        names, parents, starts, ends, requests = (
            self.name, self.parent, self.start, self.end, self.request)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            requests.append(self._repeat)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
            if hook is not None:
                hook(idx, args, kwargs, result)
            return result

        return traced

    def _replace(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        modules = {layer: importlib.import_module(f"surfquant.{layer}") for layer in LAYERS}
        wrapped = {}  # id(original) -> (original, wrapper)
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            self._replace(obj, meth, self._wrap(f"{layer}.{obj.__name__}.{meth}", fn))
                elif callable(obj):
                    name = f"{layer}.{attr}"
                    wrapped[id(obj)] = (obj, self._wrap(name, obj, self._hook(layer, name, obj)))
        for mod in (importlib.import_module("surfquant"), *modules.values()):
            for attr, obj in list(vars(mod).items()):
                original, wrapper = wrapped.get(id(obj), (None, None))
                if original is obj:
                    self._replace(mod, attr, wrapper)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _hook(self, layer, name, fn):
        if layer == "quadrature":
            return self._count_rule
        count = {FRAME: self._count_frames, AMPLITUDE: self._count_amplitude}.get(name)
        if count is None:
            return None
        signature = inspect.signature(fn)

        def hook(idx, args, kwargs, result):
            count(idx, signature.bind(*args, **kwargs).arguments)

        return hook

    def _count_frames(self, idx, arguments):
        chart, q1, q2 = arguments["chart"], arguments["q1"], arguments["q2"]
        key = (chart.name, tuple(sorted(chart.params.items())))
        pts = np.broadcast_arrays(np.asarray(q1, dtype=float), np.asarray(q2, dtype=float))
        pairs = list(zip(pts[0].ravel().tolist(), pts[1].ravel().tolist()))
        self.frames += len(pairs)
        self._points.update((key, pair) for pair in pairs)

    def _count_amplitude(self, idx, arguments):
        self.amplitude_samples.append((idx, int(np.size(arguments["p"]))))

    def _count_rule(self, idx, args, kwargs, result):
        if isinstance(result, tuple) and result:
            self.rule_nodes[idx] = int(np.size(result[0]))

    # -- aggregation -------------------------------------------------------

    def arrays(self):
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        return name, parent, start, end

    def self_times(self):
        name, parent, start, end = self.arrays()
        duration = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=duration[has_parent],
                            minlength=len(duration))
        return duration, duration - child

    def layer_metrics(self, repeats):
        """Per-layer counts and times, each per repeat."""
        name, parent, _, _ = self.arrays()
        duration, self_time = self.self_times()

        def select(pred):
            ids = [i for i, n in enumerate(self.names) if pred(n)]
            return np.isin(name, ids)

        def calls(mask):
            return float(np.count_nonzero(mask)) / repeats

        def self_s(mask):
            return float(self_time[mask].sum()) / repeats

        def inclusive(mask):
            return float(duration[mask].sum()) / repeats

        out = {}
        for layer in LAYERS:
            mask = select(lambda n, p=layer + ".": n.startswith(p))
            out[f"{layer}.calls"] = calls(mask)
            out[f"{layer}.self_s"] = self_s(mask)
        frame = select(lambda n: n == FRAME)
        out["geometry.evaluate_frame.calls"] = calls(frame)
        out["geometry.evaluate_frame.self_s"] = self_s(frame)
        out["geometry.shell_frame.self_s"] = self_s(select(lambda n: n == "geometry.shell_frame"))
        out["geometry.frames_per_point"] = (
            self.frames / self.distinct_points if self.distinct_points else 0.0)
        lap = select(lambda n: n == "geometry.laplace_beltrami")
        out["geometry.laplace_beltrami.calls"] = calls(lap)
        out["geometry.laplace_beltrami.self_s"] = self_s(lap)
        out["fields.jet_calls"] = calls(select(lambda n: n in FIELD_JETS))
        out["fields.build_s"] = inclusive(select(lambda n: n == "fields.from_expr"))
        momentum = select(lambda n: n == MOMENTUM)
        closed = select(lambda n: n.startswith(SPHERE_CLOSED_PREFIXES))
        operators = select(lambda n: n.startswith("operators."))
        out["operators.momentum.calls"] = calls(momentum)
        out["operators.momentum.self_s"] = self_s(momentum)
        out["operators.sphere_closed.self_s"] = self_s(closed)
        out["operators.residual.self_s"] = self_s(operators & ~momentum & ~closed)
        amplitude = select(lambda n: n == AMPLITUDE)
        out["spectra.amplitude.calls"] = calls(amplitude)
        out["spectra.amplitude.self_s"] = self_s(amplitude)
        out.update(self._quadrature_sizes(repeats))
        for suite in VERIFY_SUITES:
            out[f"verification.{suite}_s"] = inclusive(
                select(lambda n, s=f"verification.{suite}_suite": n == s))
        out["trace.spans"] = float(len(name)) / repeats
        return out

    def _quadrature_sizes(self, repeats):
        """Computed sizes of the P x N phase matrices of amplitude_quadrature:
        P from the p argument, N from the rules built inside the call."""
        _, parent, _, _ = self.arrays()
        amplitude_spans = dict(self.amplitude_samples)
        rules = {}
        for idx, nodes in self.rule_nodes.items():
            owner = int(parent[idx])
            while owner >= 0 and owner not in amplitude_spans:
                owner = int(parent[owner])
            if owner >= 0:
                rules[owner] = rules.get(owner, 0) + nodes
        p_samples = nodes_total = 0
        largest = 0
        for idx, n_p in self.amplitude_samples:
            n_q = rules.get(idx, 0)
            p_samples += n_p
            nodes_total += n_p * n_q
            largest = max(largest, n_p * n_q * 16)
        return {
            "spectra.p_samples": p_samples / repeats,
            "spectra.quad_nodes_computed": nodes_total / repeats,
            "spectra.phase_bytes_computed": float(largest),
        }

    def save(self, path):
        name, parent, start, end = self.arrays()
        np.savez(path, names=np.array(self.names), name=name, parent=parent,
                 start=start, end=end, request=np.frombuffer(self.request, dtype=np.int32))
