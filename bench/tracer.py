"""Per-layer spans for the benchmark's traced run, recorded from outside
the program.

``Tracer.install()`` wraps the public functions of every layer module of
``algebroids`` and the public methods (plus construction and arithmetic
operators) of the classes defined there.  Each wrapper is rebound in every
``algebroids.*`` namespace that holds the original, so calls made through a
``from`` import are traced too.  A layer is a module; a span is one call of
a wrapped function; a layer's self time is its spans minus their child
spans.  ``uninstall()`` puts every original back.

Scalar types (``GF2``, ``FormalLog``, ``Domain``) are not wrapped, only
``FormalLog.of``, which factors: their arithmetic counts as the work of the
caller, like ``Fraction`` arithmetic does.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
import types

PACKAGE = "algebroids"
LAYERS = ("cli", "jsonio", "complexes", "local_systems", "cohomology", "algebroid", "char_classes", "linalg")
SCALAR_CLASSES = {"GF2", "FormalLog", "Domain"}
WRAPPED_DUNDERS = {"__init__", "__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "__call__"}
ELIMINATION = ("rref", "kernel_basis", "quotient_basis", "solve")


def entry_bits(x) -> int:
    num = getattr(x, "numerator", None)
    if num is None:
        return 0
    return max(num.bit_length(), x.denominator.bit_length())


def max_bits(rows) -> int:
    return max((entry_bits(x) for row in rows for x in row), default=0)


class Tracer:
    def __init__(self):
        self.stack = [0]  # per open span: time covered by its children
        self.layer_self = {layer: [0] for layer in LAYERS}
        self.spans = {}  # key -> [calls, total ns]
        self.patches = []
        self.hook_ns = 0
        self.queries = 0
        # elimination
        self.elim_depth = 0
        self.elim = [0, 0, 0]  # outermost calls, ns, cells
        self.query_bits = 0
        self.bits_sum = 0
        # coboundary
        self.cob_nnz = 0
        self.cob_cells = 0
        # cache and factoring
        self.untwisted = [0, 0]  # calls, hits
        self.factor_inputs = set()
        self.factor_distinct = 0
        # calls per query, by subcommand
        self.command = None
        self.snapshot = {}
        self.by_command = {}

    # --- wrapping -------------------------------------------------------------

    def _wrap(self, fn, key: str, layer: str, pre=None, post=None):
        stack = self.stack
        layer_self = self.layer_self[layer]
        cell = self.spans.setdefault(key, [0, 0])
        perf = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = pre(args) if pre is not None else None
            result = None
            stack.append(0)
            hooks_before = tracer.hook_ns
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dt = perf() - t0
                child = stack.pop()
                stack[-1] += dt
                layer_self[0] += dt - child
                net = dt - (tracer.hook_ns - hooks_before)
                cell[0] += 1
                cell[1] += net
                if post is not None:
                    h0 = perf()
                    post(token, args, result, net)
                    h = perf() - h0
                    # hook time is the tracer's: it counts as a child of the
                    # caller, so no layer's self time includes it
                    stack[-1] += h
                    tracer.hook_ns += h

        return traced

    def _hooks(self, key: str):
        name = key.split(".")[-1]
        if key.startswith("linalg.") and name in ELIMINATION:
            return self._elim_pre, self._elim_post(name)
        if key == "cohomology.coboundary_matrix":
            return None, self._coboundary_post
        if key == "cohomology.untwisted_space":
            return self._untwisted_pre, None
        if key == "linalg.FormalLog.of":
            return None, self._factor_post
        return None, None

    def _elim_pre(self, args):
        self.elim_depth += 1
        return self.elim_depth == 1

    def _elim_post(self, name):
        def post(outermost, args, result, dt):
            self.elim_depth -= 1
            if name == "rref" and result is not None:
                bits = max(max_bits(args[0].entries), max_bits(result[1].entries))
                self.query_bits = max(self.query_bits, bits)
            if not outermost:
                return
            if name == "quotient_basis":
                z, b = args[0], args[1]
                vectors = list(z) + list(b)
                cells = len(vectors) * (len(vectors[0]) if vectors else 0)
                self.query_bits = max(self.query_bits, max_bits(vectors))
            else:
                cells = args[0].rows * args[0].cols
            self.elim[0] += 1
            self.elim[1] += dt
            self.elim[2] += cells

        return post

    def _coboundary_post(self, token, args, result, dt):
        if result is None:
            return
        self.cob_nnz += sum(1 for row in result.entries for x in row if x)
        self.cob_cells += result.rows * result.cols

    def _untwisted_pre(self, args):
        c, n = args[0], args[1]
        self.untwisted[0] += 1
        self.untwisted[1] += n in getattr(c, "_untwisted_spaces", {})

    def _factor_post(self, token, args, result, dt):
        self.factor_inputs.add(args[-1])

    def _targets(self):
        """(owner, attribute, function, key, layer, kind) for everything to wrap;
        kind says how the attribute stores the function."""
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for name, obj in sorted(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__ or name.startswith("_"):
                    continue
                if isinstance(obj, types.FunctionType):
                    yield mod, name, obj, f"{layer}.{name}", layer, "function"
                elif isinstance(obj, type) and not issubclass(obj, BaseException):
                    yield from self._class_targets(obj, layer)

    def _class_targets(self, cls, layer):
        for name, attr in sorted(vars(cls).items()):
            if cls.__name__ in SCALAR_CLASSES and (cls.__name__, name) != ("FormalLog", "of"):
                continue
            if name.startswith("_") and name not in WRAPPED_DUNDERS:
                continue
            key = f"{layer}.{cls.__name__}.{name}"
            if isinstance(attr, types.FunctionType):
                yield cls, name, attr, key, layer, "function"
            elif isinstance(attr, (classmethod, staticmethod)):
                yield cls, name, attr.__func__, key, layer, type(attr).__name__

    def install(self) -> None:
        replaced = {}
        for owner, name, fn, key, layer, kind in list(self._targets()):
            wrapper = self._wrap(fn, key, layer, *self._hooks(key))
            if kind == "function" and isinstance(owner, types.ModuleType):
                replaced[id(fn)] = (fn, wrapper)
                continue
            self.patches.append((owner, name, vars(owner)[name]))
            if kind != "function":
                wrapper = {"classmethod": classmethod, "staticmethod": staticmethod}[kind](wrapper)
            setattr(owner, name, wrapper)
        # rebind module-level functions wherever a namespace holds them
        for modname, mod in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for name, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self.patches.append((mod, name, obj))
                    setattr(mod, name, hit[1])

    def uninstall(self) -> None:
        for owner, name, original in reversed(self.patches):
            setattr(owner, name, original)
        self.patches.clear()

    # --- per query ------------------------------------------------------------

    def begin_query(self, command: str) -> None:
        self.query_bits = 0
        self.factor_inputs = set()
        self.command = command
        self.snapshot = {key: cell[0] for key, cell in self.spans.items()}

    def end_query(self) -> None:
        self.queries += 1
        self.bits_sum += self.query_bits
        self.factor_distinct += len(self.factor_inputs)
        counts = self.by_command.setdefault(self.command, {"queries": 0, "calls": {}})
        counts["queries"] += 1
        for key, cell in self.spans.items():
            n = cell[0] - self.snapshot.get(key, 0)
            if n:
                counts["calls"][key] = counts["calls"].get(key, 0) + n

    def calls_per_query(self) -> dict:
        """subcommand -> {span key: mean calls per query of that subcommand}"""
        return {
            command: {key: n / c["queries"] for key, n in sorted(c["calls"].items())}
            for command, c in sorted(self.by_command.items())
        }

    # --- results --------------------------------------------------------------

    def calls(self, key: str) -> int:
        return self.spans.get(key, [0, 0])[0]

    def seconds(self, key: str) -> float:
        return self.spans.get(key, [0, 0])[1] / 1e9

    def metrics(self, traced_times: list, untraced_times: list) -> dict:
        """Per-layer metrics, as means per traced query or as shares of the
        traced query time.  A layer or function that a workload never enters
        has a share of 0, not a time of 0.  The self shares of the layers
        and the share of the tracer's hooks add up to 1.  ``traced_times``
        and ``untraced_times`` hold the same queries, timed with and without
        tracing."""
        q = max(self.queries, 1)
        total_ns = sum(traced_times) * 1e9
        factor_calls = self.calls("linalg.FormalLog.of")
        out = {
            "linalg.elim_s": (self.elim[1] / 1e9 / q, "s"),
            "linalg.elim_calls": (self.elim[0] / q, "count"),
            "linalg.elim_cells": (self.elim[2] / q, "count"),
            "linalg.max_entry_bits": (self.bits_sum / q, "bits"),
            "cohomology.coboundary_s": (self.seconds("cohomology.coboundary_matrix") / q, "s"),
            "cohomology.coboundary_nnz": (self.cob_nnz / q, "count"),
            "cohomology.coboundary_density": (self.cob_nnz / self.cob_cells if self.cob_cells else 0.0, "ratio"),
            "cohomology.coboundary_builds_per_query": (self.calls("cohomology.coboundary_matrix") / q, "count"),
            "cohomology.coordinates_calls": (self.calls("cohomology.CohomologySpace.coordinates_of") / q, "count"),
            "cohomology.coordinates_share": (
                self.spans.get("cohomology.CohomologySpace.coordinates_of", [0, 0])[1] / total_ns, "ratio"),
            "cohomology.basis_builds_per_query": (self.calls("cohomology.cohomology") / q, "count"),
            "cohomology.untwisted_hit_ratio": (
                self.untwisted[1] / self.untwisted[0] if self.untwisted[0] else 0.0, "ratio"),
            "linalg.factor_calls": (factor_calls / q, "count"),
            "linalg.factor_share": (self.spans.get("linalg.FormalLog.of", [0, 0])[1] / total_ns, "ratio"),
            "linalg.factor_distinct_ratio": (self.factor_distinct / factor_calls if factor_calls else 0.0, "ratio"),
            "char_classes.log_classes_per_query": (self.calls("char_classes.log_classes") / q, "count"),
            "local_systems.flat_checks_per_query": (self.calls("local_systems.check_flat") / q, "count"),
            "linalg.matmul_calls": (self.calls("linalg.Matrix.__mul__") / q, "count"),
            "complexes.builds_per_query": (self.calls("complexes.Complex.__init__") / q, "count"),
        }
        for layer in LAYERS:
            out[f"{layer}.self_share"] = (self.layer_self[layer][0] / total_ns, "ratio")
        out["trace.hook_share"] = (self.hook_ns / total_ns, "ratio")
        out["trace.query_s"] = (sum(traced_times) / len(traced_times), "s")
        out["trace.overhead_ratio"] = (statistics.median(traced_times) / statistics.median(untraced_times), "ratio")
        return out
