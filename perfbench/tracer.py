"""Outside-in span tracer for the roundideal layers.

The library carries no instrumentation, so the tracer wraps each layer
module's public functions (plus ``PcdLattice.__init__`` and
``PcdLattice.validate``) and rebinds every ``roundideal.*`` name that refers
to them: a call made from inside another module goes through the wrapper
too.  ``restore`` puts every original binding back.

Spans are folded into per-name totals as they close (calls, wall time, self
time) instead of being kept one by one; a span's self time is its duration
minus the time covered by its child spans.  Per-element helpers are called
tens of thousands of times per operation, so they are counted, not timed.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter
from contextlib import contextmanager

LAYERS = ("fixpoint", "lattice", "relation", "framemap", "compactify", "io", "cli")
COUNT_ONLY = {"framemap.extend"}
METHODS = ("__init__", "validate")


def _values(args, kwargs):
    return args + tuple(kwargs.values())


def _steps(t, args, result):
    t.counters["fixpoint.steps"] += len(args[0].steps)


def _build(t, args, result):
    t.counters["lattice.build.elements"] += args[0].n


def _core(t, args, result):
    t.counters["relation.core.input_pairs"] += len(args[0].pairs)
    t.counters["relation.core.kept_pairs"] += len(result.pairs)


def _least_si(t, args, result):
    t.counters["relation.least_si.pairs"] += len(result.pairs)


def _ideals(t, args, result):
    t.counters["compactify.enumerate.ideals"] += len(result.ideals)


def _parse(t, args, result):
    t.counters["io.parse_lattice.bytes"] += len(args[0])


def _exit(t, args, result):
    if result != 0:
        t.counters["cli.exit_nonzero"] += 1


def _distinct(key, arity):
    def hook(t, args, result):
        objs = args[:arity]
        t.seen.setdefault(key, {})[tuple(map(id, objs))] = objs

    return hook


HOOKS = {
    "fixpoint.lfp": _steps,
    "fixpoint.gfp": _steps,
    "lattice.PcdLattice.__init__": _build,
    "lattice.PcdLattice.validate": _distinct("lattice.validate", 1),
    "relation.largest_interpolative": _core,
    "relation.least_strong_inclusion": _least_si,
    "relation.check_strong_inclusion": _distinct("relation.check_si", 2),
    "framemap.validate_map": _distinct("framemap.validate_map", 1),
    "compactify.enumerate_round_ideals": _ideals,
    "io.parse_lattice": _parse,
    "cli.main": _exit,
}


def bindings(package):
    """Every function bound in the package's namespaces, by (namespace, name)."""
    out = {}
    for ns in [package, *(getattr(package, layer) for layer in LAYERS)]:
        for name, value in vars(ns).items():
            if inspect.isfunction(value):
                out[(ns.__name__, name)] = value
    cls = package.lattice.PcdLattice
    for name in METHODS:
        out[(cls.__qualname__, name)] = vars(cls)[name]
    return out


class Tracer:
    """Span totals and counters for one traced run of a loaded package."""

    def __init__(self, package):
        self.package = package
        self.stats = {}  # span name -> [calls, wall seconds, self seconds]
        self.counts = {}  # count-only name -> [calls]
        self.counters = Counter()
        self.errors = Counter()
        self.seen = {}  # distinct objects checked in the current operation
        self._stack = []  # open spans: [layer, seconds covered by children]
        self._undo = []

    # -- wrapping ----------------------------------------------------------

    def _span(self, name, layer, func):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        hook = HOOKS.get(name)
        clock = time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = func(*args, **kwargs)
            except Exception:
                if len(stack) < 2 or stack[-2][0] != layer:
                    self.errors[layer] += 1
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if hook is not None:
                hook(self, _values(args, kwargs), result)
            return result

        return wrapper

    def _counted(self, name, func):
        cell = self.counts.setdefault(name, [0])

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return func(*args, **kwargs)

        return wrapper

    def install(self):
        package = self.package
        wrapped = {}
        for layer in LAYERS:
            module = getattr(package, layer)
            for fname, func in vars(module).items():
                if (
                    inspect.isfunction(func)
                    and func.__module__ == module.__name__
                    and not fname.startswith("_")
                ):
                    name = f"{layer}.{fname}"
                    if name in COUNT_ONLY:
                        wrapped[func] = self._counted(name, func)
                    else:
                        wrapped[func] = self._span(name, layer, func)
        for ns in [package, *(getattr(package, layer) for layer in LAYERS)]:
            for attr, value in list(vars(ns).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._rebind(ns, attr, wrapped[value])
        cls = package.lattice.PcdLattice
        for method in METHODS:
            name = f"lattice.PcdLattice.{method}"
            self._rebind(cls, method, self._span(name, "lattice", vars(cls)[method]))

    def _rebind(self, ns, attr, value):
        self._undo.append((ns, attr, getattr(ns, attr)))
        setattr(ns, attr, value)

    def restore(self):
        while self._undo:
            ns, attr, value = self._undo.pop()
            setattr(ns, attr, value)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

    def end_operation(self):
        """Fold the distinct objects seen by the finished operation into counters."""
        for key, objs in self.seen.items():
            self.counters[f"{key}.distinct"] += len(objs)
        self.seen.clear()

    # -- reporting ---------------------------------------------------------

    def layer_metrics(self, ops, traced_seconds):
        """Per-layer metrics, each per operation unless it is a ratio."""
        stats, counters = self.stats, self.counters
        out = {}

        def get(name):
            return stats.get(name, (0, 0.0, 0.0))

        def span(metric, *names, calls=False):
            if calls:
                out[f"{metric}.calls"] = (sum(get(n)[0] for n in names) / ops, "calls/op")
            out[f"{metric}.self_ms"] = (sum(get(n)[2] for n in names) * 1e3 / ops, "ms/op")

        def per_op(metric, value, unit):
            out[metric] = (value / ops, unit)

        def ratio(metric, num, den):
            out[metric] = (num / den if den else 0.0, "ratio")

        span("fixpoint.lfp", "fixpoint.lfp", calls=True)
        span("fixpoint.gfp", "fixpoint.gfp", calls=True)
        per_op("fixpoint.steps", counters["fixpoint.steps"], "steps/op")

        span("lattice.build", "lattice.PcdLattice.__init__", calls=True)
        per_op("lattice.build.elements", counters["lattice.build.elements"], "elements/op")
        span("lattice.validate", "lattice.PcdLattice.validate", calls=True)
        ratio("lattice.validate.repeat_ratio", get("lattice.PcdLattice.validate")[0],
              counters["lattice.validate.distinct"])
        span("lattice.pcd_closure", "lattice.pcd_closure")
        span("lattice.is_regular", "lattice.is_regular")

        span("relation.core", "relation.largest_interpolative", calls=True)
        ratio("relation.core.kept_ratio", counters["relation.core.kept_pairs"],
              counters["relation.core.input_pairs"])
        span("relation.least_si", "relation.least_strong_inclusion", calls=True)
        per_op("relation.least_si.pairs", counters["relation.least_si.pairs"], "pairs/op")
        span("relation.check_si", "relation.check_strong_inclusion", calls=True)
        ratio("relation.check_si.repeat_ratio", get("relation.check_strong_inclusion")[0],
              counters["relation.check_si.distinct"])

        span("framemap.validate_map", "framemap.validate_map", calls=True)
        ratio("framemap.validate_map.repeat_ratio", get("framemap.validate_map")[0],
              counters["framemap.validate_map.distinct"])
        ratio("framemap.validate_map.share", get("framemap.validate_map")[2], traced_seconds)
        span("framemap.compose", "framemap.compose")
        span("framemap.finer_than", "framemap.finer_than")
        per_op("framemap.extend.calls", self.counts.get("framemap.extend", [0])[0], "calls/op")

        span("compactify.enumerate", "compactify.enumerate_round_ideals", calls=True)
        per_op("compactify.enumerate.ideals", counters["compactify.enumerate.ideals"], "ideals/op")
        for fname in ("join_map", "extension_map", "compactify_extending",
                      "from_compactification", "compare"):
            span(f"compactify.{fname}", f"compactify.{fname}")

        span("io.parse_lattice", "io.parse_lattice", calls=True)
        # parse_lattice builds and validates the lattice it read: its wall
        # time is what parsing a document costs a CLI call
        per_op("io.parse_lattice.wall_ms", get("io.parse_lattice")[1] * 1e3, "ms/op")
        per_op("io.parse_lattice.bytes", counters["io.parse_lattice.bytes"], "bytes/op")
        span("io.parse_map", "io.parse_map")
        span("io.serialize", "io.serialize_lattice", "io.serialize_relation", "io.serialize_map")

        span("cli.main", "cli.main", calls=True)
        per_op("cli.exit_nonzero", counters["cli.exit_nonzero"], "exits/op")

        for layer in LAYERS:
            names = [n for n in stats if n.startswith(layer + ".")]
            out[f"{layer}.self_ms"] = (sum(stats[n][2] for n in names) * 1e3 / ops, "ms/op")
            per_op(f"{layer}.errors", self.errors[layer], "errors/op")
        return out
