"""Per-layer tracing of the package from outside its source.

``install()`` rebinds the public functions and methods of every layer
module -- in each package module that holds a reference to them, since
``from .jets import sinhc_jet`` binds a second name -- to wrappers that
time each call.  Nothing under ``src/`` changes.

Each wrapped call is a span with a name, start, end, parent span and op
id.  Spans are kept in memory and written out by ``dump`` when the run
ends.  ``jets`` sees ~1e5 calls per op, so its calls, like the quadrature
integrand evaluations, are aggregated into counts and self time instead
of one record per call.  A layer's self time is its spans' time minus the
time of their child spans, so the self times of all layers add up to the
time spent inside the outermost spans.

A name that the plan counts but the package no longer has is reported in
``absent`` rather than failing the run.
"""

import dataclasses
import importlib
import inspect
import json
import sys
import time

PACKAGE = "casimir_harmonic"
LAYERS = ("specfun", "jets", "quadrature", "kernels", "continuation",
          "stress", "asymptotics", "energy", "cli")
AGGREGATED = frozenset({"jets"})
_DUNDERS = frozenset({"__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                      "__rmul__", "__truediv__", "__rtruediv__", "__neg__",
                      "__pow__", "__call__"})

# counter -> the qualified names (module, name) whose calls it counts
CALL_COUNTERS = {
    "continuation.build_calls": [("continuation", "build_P_polynomials")],
    "continuation.coeff_calls": [("continuation", "RSquarePoly.coefficient_values")],
    "continuation.ladder_calls": [("continuation", "u_affine_ladder")],
    "kernels.basis_calls": [("kernels", "HyperbolicJets.from_tau"),
                            ("kernels", "HyperbolicJets.from_tanh")],
    "kernels.bracket_calls": [("kernels", "bracket_factors")],
    "jets.mul_calls": [("jets", "Jet.__mul__"), ("jets", "Jet.__rmul__")],
    "jets.sinhc_calls": [("jets", "sinhc_jet")],
    "jets.lift_calls": [("jets", "jet_lift_and_compose")],
    "quadrature.semiaxis_calls": [("quadrature", "integrate_semiaxis")],
    "quadrature.unit_calls": [("quadrature", "integrate_unit_interval")],
    "specfun.calls": [("specfun", n) for n in (
        "gamma", "digamma", "lower_gamma", "upper_gamma", "g_log_gamma",
        "riemann_zeta", "hurwitz_zeta")],
    "stress.profile_calls": [("stress", "stress_profiles")],
    "stress.split_calls": [("stress", "conformal_split")],
    "asymptotics.small_r_calls": [("asymptotics", "small_r_expansion")],
    "asymptotics.large_r_calls": [("asymptotics", "large_r_expansion")],
    "asymptotics.match_calls": [("asymptotics", "asymptotic_match_report")],
    "energy.calls": [("energy", n) for n in (
        "bulk_energy_quadrature", "bulk_energy_zeta", "In_quadrature", "In_zeta",
        "spectral_trace_oracle", "boundary_energy_scan")],
    "cli.calls": [("cli", "main")],
}
COEFF_NAME = ("continuation", "RSquarePoly.coefficient_values")
BUILD_NAME = ("continuation", "build_P_polynomials")
QUADRATURE_ENTRIES = {("quadrature", "integrate_semiaxis"): "integrand",
                      ("quadrature", "integrate_unit_interval"): "f"}
NODE_COUNTERS = ("continuation.tau_nodes", "quadrature.integrand_nodes")


def _size(x):
    shape = getattr(x, "shape", None)
    if shape is None:
        return 1
    n = 1
    for s in shape:
        n *= s
    return n


class Tracer:
    def __init__(self):
        self.counters = {name: 0 for name in list(CALL_COUNTERS) + list(NODE_COUNTERS)}
        self.self_s = {layer: 0.0 for layer in LAYERS}
        self.names = []
        self.spans = []          # (span id, name index, start, end, parent id, op id)
        self.absent = []
        self.op_id = None
        self._stack = []         # frames: [start, child time, span id, layer]
        self._next_id = 0
        self._poly_keys = {}     # id(poly) -> P-polynomial config
        self._poly_refs = []     # keeps tagged polys alive so ids stay unique
        self._pairs = set()      # distinct (config, tau) pairs

    # -- span bookkeeping ----------------------------------------------

    def _enter(self, layer, record):
        span_id = None
        if record:
            span_id = self._next_id
            self._next_id += 1
        frame = [time.perf_counter(), 0.0, span_id, layer]
        self._stack.append(frame)
        return frame

    def _exit(self, frame, name_index):
        end = time.perf_counter()
        stack = self._stack
        stack.pop()
        dur = end - frame[0]
        self.self_s[frame[3]] += dur - frame[1]
        if stack:
            stack[-1][1] += dur
        if frame[2] is not None:
            parent = None
            for outer in reversed(stack):
                if outer[2] is not None:
                    parent = outer[2]
                    break
            self.spans.append((frame[2], name_index, frame[0], end, parent, self.op_id))

    def _caller_layer(self):
        return self._stack[-1][3] if self._stack else "quadrature"

    # -- wrappers --------------------------------------------------------

    def _name_index(self, qualified):
        self.names.append(qualified)
        return len(self.names) - 1

    def wrap(self, layer, qualname, fn, counters):
        name_index = self._name_index("%s.%s" % (layer, qualname))
        record = layer not in AGGREGATED
        key = (layer, qualname)
        tracer = self
        pre = None
        post = None
        if key == COEFF_NAME:
            pre = self._count_coefficients
        elif key in QUADRATURE_ENTRIES:
            pre = self._integrand_wrapper(fn, QUADRATURE_ENTRIES[key])
        if key == BUILD_NAME:
            post = self._tag_polys(fn)

        def traced(*args, **kwargs):
            for counter in counters:
                tracer.counters[counter] += 1
            if pre is not None:
                args, kwargs = pre(args, kwargs)
            frame = tracer._enter(layer, record)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame, name_index)
            if post is not None:
                post(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_coefficients(self, args, kwargs):
        poly = args[0]
        tau = args[1] if len(args) > 1 else next(iter(kwargs.values()), None)
        self.counters["continuation.tau_nodes"] += _size(tau)
        key = self._poly_keys.get(id(poly))
        if key is None:
            key = ("derived", len(self._poly_refs))
            self._poly_keys[id(poly)] = key
            self._poly_refs.append(poly)
        flat = tau.ravel().tolist() if hasattr(tau, "ravel") else [repr(tau)]
        self._pairs.update((key, t) for t in flat)
        return args, kwargs

    def _tag_polys(self, fn):
        signature = inspect.signature(fn)

        def post(args, kwargs, result):
            if not isinstance(result, tuple):    # not the (P0, P1) pair any more
                return
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            config = tuple(sorted((k, repr(v)) for k, v in bound.arguments.items()))
            for poly in result:     # P0 and P1 share one ladder per node
                self._poly_keys[id(poly)] = config
                self._poly_refs.append(poly)
        return post

    def _integrand_wrapper(self, fn, param):
        """Count integrand nodes and bill their evaluation to the caller's layer.

        Only calls entering the quadrature layer from outside are wrapped, so
        nested rules (the semiaxis unit piece) do not count nodes twice.
        """
        signature = inspect.signature(fn)
        tracer = self

        def pre(args, kwargs):
            if tracer._stack and tracer._stack[-1][3] == "quadrature":
                return args, kwargs
            bound = signature.bind(*args, **kwargs)
            target = bound.arguments.get(param)
            layer = tracer._caller_layer()
            inner = getattr(target, "smooth_part", target)
            if not callable(inner):
                return args, kwargs

            def counted(x, *rest, **kw):
                tracer.counters["quadrature.integrand_nodes"] += _size(x)
                frame = tracer._enter(layer, False)
                try:
                    return inner(x, *rest, **kw)
                finally:
                    tracer._exit(frame, None)

            if inner is target:
                bound.arguments[param] = counted
            elif dataclasses.is_dataclass(target):
                bound.arguments[param] = dataclasses.replace(target, smooth_part=counted)
            else:
                return args, kwargs
            return bound.args, bound.kwargs
        return pre

    # -- results ---------------------------------------------------------

    def snapshot(self):
        return {"counters": dict(self.counters), "self_s": dict(self.self_s),
                "distinct_pairs": len(self._pairs), "span_count": len(self.spans),
                "absent": list(self.absent)}

    def dump(self, path):
        """Write every recorded span plus the aggregates as one JSON file."""
        with open(path, "w") as handle:
            json.dump({"names": self.names, "spans": self.spans,
                       "columns": ["id", "name", "start", "end", "parent", "op"],
                       **self.snapshot()}, handle)


def _public_callables(module):
    """(qualified name, owner, attribute, raw object) for a layer module."""
    found = []
    for name, obj in sorted(vars(module).items()):
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            found.append((name, module, name, obj))
        elif inspect.isclass(obj):
            for attr, raw in sorted(vars(obj).items()):
                if attr.startswith("_") and attr not in _DUNDERS:
                    continue
                if isinstance(raw, (staticmethod, classmethod)) or inspect.isfunction(raw):
                    found.append(("%s.%s" % (name, attr), obj, attr, raw))
    return found


def install():
    """Wrap every public callable of each layer; returns the Tracer."""
    tracer = Tracer()
    package_modules = [m for n, m in sorted(sys.modules.items())
                       if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
    counters_of = {}
    for counter, names in CALL_COUNTERS.items():
        for key in names:
            counters_of.setdefault(key, []).append(counter)
    seen = set()
    for layer in LAYERS:
        try:
            module = importlib.import_module("%s.%s" % (PACKAGE, layer))
        except ImportError:
            tracer.absent.append(layer)
            continue
        for qualname, owner, attr, raw in _public_callables(module):
            seen.add((layer, qualname))
            counters = tuple(counters_of.get((layer, qualname), ()))
            if isinstance(raw, (staticmethod, classmethod)):
                wrapped = type(raw)(tracer.wrap(layer, qualname, raw.__func__, counters))
                setattr(owner, attr, wrapped)
                continue
            wrapped = tracer.wrap(layer, qualname, raw, counters)
            if owner is module:
                for other in package_modules:
                    for bound_name, value in list(vars(other).items()):
                        if value is raw:
                            setattr(other, bound_name, wrapped)
            else:
                setattr(owner, attr, wrapped)
    tracer.absent += ["%s.%s" % key for key in counters_of if key not in seen]
    return tracer


def per_layer_metrics(snapshots, traced_op_s, untraced_s, traced_s):
    """Per-layer metric values from the snapshots of one or more processes."""
    counters = {}
    self_s = {layer: 0.0 for layer in LAYERS}
    pairs = 0
    absent = set()
    for snap in snapshots:
        for name, value in snap["counters"].items():
            counters[name] = counters.get(name, 0) + value
        for layer, value in snap["self_s"].items():
            self_s[layer] = self_s.get(layer, 0.0) + value
        pairs += snap["distinct_pairs"]
        absent.update(snap["absent"])
    metrics = {}
    for name in list(CALL_COUNTERS) + list(NODE_COUNTERS):
        metrics[name] = (counters.get(name, 0), "count")
    nodes = counters.get("continuation.tau_nodes", 0)
    metrics["continuation.distinct_tau_frac"] = (pairs / nodes if nodes else 0.0, "frac")
    for layer in LAYERS:
        metrics[layer + ".self_s"] = (self_s[layer], "s")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    metrics["trace.op_s"] = (traced_op_s, "s")
    metrics["trace.coverage"] = (sum(self_s.values()) / traced_op_s if traced_op_s else 0.0, "frac")
    metrics["trace.absent_names"] = (len(absent), "count")
    return metrics, sorted(absent)
