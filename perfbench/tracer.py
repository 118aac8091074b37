"""Span tracing of the ``dmx`` layers, installed from outside ``src/``.

``install`` replaces the public functions and methods of each module with
timing wrappers, in every namespace where they are looked up (module
globals, the package namespace, classes and the ``verify.SUITE`` table), and
returns a function that puts the originals back.  Spans (name, parent,
start, end) are kept in typed arrays and written out, with the pass id of
the traced pass, only when that pass ends.

A layer's self time is its spans' total duration minus the time covered by
their child spans, so within a pass the self times of all layers add up to
the duration of the root span.
"""

from __future__ import annotations

import json
import logging
import re
import sys
import time
from array import array
from collections import Counter
from functools import cached_property, wraps

# layer name -> (module, attribute) or (module, class, attribute) targets
LAYERS = {
    "core.build": [
        ("core", "SetSystem", "__init__"),
        ("core", "DeltaMatroid", "__init__"),
        ("matroid", "Matroid", "__init__"),
    ],
    "core.exchange": [("core", "exchange_violation_masks")],
    "core.twist": [("core", "SetSystem", "twist")],
    "core.loop_complement": [("core", "SetSystem", "loop_complement")],
    "core.minor": [
        ("core", "SetSystem", "minor"),
        ("core", "SetSystem", "delete"),
        ("core", "SetSystem", "contract"),
    ],
    "matroid.circuits": [("matroid", "Matroid", "circuits")],
    "matroid.eulerian": [("matroid", "Matroid", "eulerian_partition")],
    "matroid.lower": [("matroid", "lower_matroid")],
    "gf2.d_of_a": [("gf2", "delta_matroid_from_symmetric")],
    "gf2.is_binary": [("gf2", "is_binary")],
    "gf2.column_matroid": [("gf2", "column_matroid")],
    "ribbon.trace": [("ribbon", "RibbonGraph", "boundary_trace")],
    "ribbon.delta_matroid": [("ribbon", "RibbonGraph", "delta_matroid")],
    "formats.parse": [("formats", "parse_dm"), ("formats", "parse_gf2"), ("formats", "parse_rg")],
    "formats.dump": [("formats", "dump_dm"), ("formats", "dump_gf2"), ("formats", "dump_rg")],
    "verify.gen.delta_exact": [("verify", "delta_matroids_exact")],
    "verify.gen.binary_delta": [("verify", "binary_delta_corpus_exact")],
    "verify.gen.binary_matroids": [("verify", "binary_matroids_exact")],
    "verify.gen.random": [("verify", "random_delta_matroids")],
    "cli.main": [("cli", "main")],
}
CHECKS = (
    "min_deletion",
    "odd_circuit",
    "bipartite_loop_complement",
    "welsh_duality",
    "twist_decomposition",
    "circuit_contraction",
    "bipartite_dual_eulerian",
    "characterization",
    "deletion_bipartite",
    "contraction_bipartite",
    "lower_bound",
    "operation_calculus",
    "ribbon_correspondence",
)
ROOT = "pass"
SPAN_NAMES = list(LAYERS) + ["verify.check.%s" % c for c in CHECKS] + [ROOT]

# per-layer metrics beyond .calls and .self_s: name -> unit
EXTRA_METRICS = {
    "core.exchange.sets": "count",
    "core.exchange.accept_ratio": "ratio",
    "gf2.is_binary.binary_ratio": "ratio",
    "formats.dump.bytes": "bytes",
    "verify.random.reject_ratio": "ratio",
    "verify.instances": "count",
    "cli.exit.0": "count",
    "cli.exit.1": "count",
    "cli.exit.2": "count",
    "trace.wall_s": "s",
    "trace.overhead": "ratio",
}


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in SPAN_NAMES:
        units[name + ".calls"] = "count"
        units[name + ".self_s"] = "s"
    units.update(EXTRA_METRICS)
    return units


_RANDOM_LOG = re.compile(r"random delta-matroid corpus: .* rejected=(\d+)")


class _RejectHandler(logging.Handler):
    """Reads the rejection count from the INFO record dmx.verify emits."""

    def __init__(self, counts: Counter):
        super().__init__(logging.INFO)
        self.counts = counts

    def emit(self, record):
        m = _RANDOM_LOG.match(record.getMessage())
        if m:
            self.counts["random.rejected"] += int(m.group(1))


class Tracer:
    def __init__(self, pass_id: int = 1):
        self.pass_id = pass_id
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, after=None):
        """A wrapper of fn that records one span per call; ``after`` sees
        (args, result) of calls that return."""
        nid = self._id(name)
        clock = time.perf_counter
        names, parents, starts, ends, stack = self.name, self.parent, self.start, self.end, self._stack

        @wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def root(self, fn, *args, **kwargs):
        """Run fn under the root span of this pass."""
        return self.wrap(fn, ROOT)(*args, **kwargs)

    # -- results -------------------------------------------------------------

    def layer_totals(self) -> tuple[Counter, Counter]:
        calls: Counter = Counter()
        self_s: Counter = Counter()
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        for i in range(len(starts)):
            d = ends[i] - starts[i]
            nid = names[i]
            calls[nid] += 1
            self_s[nid] += d
            p = parents[i]
            if p >= 0:
                self_s[names[p]] -= d
        return calls, self_s

    def metrics(self) -> dict:
        """Per-layer metrics of the traced pass (trace.overhead is added by the caller)."""
        calls, self_s = self.layer_totals()
        out = {}
        for name in SPAN_NAMES:
            nid = self._ids.get(name)
            out[name + ".calls"] = calls[nid] if nid is not None else 0
            out[name + ".self_s"] = self_s[nid] if nid is not None else 0.0
        c = self.counts

        def ratio(num, den):
            return num / den if den else 0.0

        out["core.exchange.sets"] = c["exchange.sets"]
        out["core.exchange.accept_ratio"] = ratio(c["exchange.accepted"], out["core.exchange.calls"])
        out["gf2.is_binary.binary_ratio"] = ratio(c["is_binary.yes"], out["gf2.is_binary.calls"])
        out["formats.dump.bytes"] = c["dump.bytes"]
        rejected = c["random.rejected"]
        out["verify.random.reject_ratio"] = ratio(rejected, rejected + c["random.accepted"])
        out["verify.instances"] = c["verify.instances"]
        for code in (0, 1, 2):
            out["cli.exit.%d" % code] = c["cli.exit.%d" % code]
        root = [i for i in range(len(self.start)) if self.parent[i] < 0]
        out["trace.wall_s"] = sum(self.end[i] - self.start[i] for i in root)
        return out

    def write(self, path: str) -> None:
        """Spans as a JSON header line followed by the packed arrays."""
        header = {
            "names": self.names,
            "pass_id": self.pass_id,
            "spans": len(self.start),
            "columns": [["name", "H"], ["parent", "i"], ["start", "d"], ["end", "d"]],
            "byteorder": sys.byteorder,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for col in (self.name, self.parent, self.start, self.end):
                col.tofile(fh)


def install(tracer: Tracer):
    """Wrap every layer of an imported dmx; returns the undo function."""
    import dmx
    import dmx.cli
    import dmx.verify

    modules = [getattr(dmx, m) for m in ("core", "matroid", "gf2", "ribbon", "formats", "verify", "cli")]
    modules.append(dmx)
    undo = []
    c = tracer.counts

    def count_exchange(args, result):
        c["exchange.sets"] += len(args[0])
        c["exchange.accepted"] += result is None

    def count_binary(args, result):
        c["is_binary.yes"] += bool(result.verdict)

    def count_dump(args, result):
        c["dump.bytes"] += len(result.encode("utf-8"))

    def count_random(args, result):
        c["random.accepted"] += sum(len(d.family) - 1 for d in result)

    def count_exit(args, result):
        c["cli.exit.%s" % result] += 1

    def count_tested(args, result):
        c["verify.instances"] += result.tested

    hooks = {
        "core.exchange": count_exchange,
        "gf2.is_binary": count_binary,
        "formats.dump": count_dump,
        "verify.gen.random": count_random,
        "cli.main": count_exit,
    }

    def replace_everywhere(original, wrapped):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapped)
                    undo.append((setattr, mod, attr, original))

    for layer, targets in LAYERS.items():
        for target in targets:
            mod = getattr(dmx, target[0])
            if len(target) == 2:
                original = getattr(mod, target[1])
                replace_everywhere(original, tracer.wrap(original, layer, hooks.get(layer)))
                continue
            cls = getattr(mod, target[1])
            attr = target[2]
            original = cls.__dict__[attr]
            if isinstance(original, cached_property):
                wrapped = cached_property(tracer.wrap(original.func, layer))
                wrapped.__set_name__(cls, attr)
            else:
                wrapped = tracer.wrap(original, layer, hooks.get(layer))
            setattr(cls, attr, wrapped)
            undo.append((setattr, cls, attr, original))

    suite = dmx.verify.SUITE
    for check, original in list(suite.items()):
        wrapped = tracer.wrap(original, "verify.check.%s" % check, count_tested)
        suite[check] = wrapped
        undo.append((suite.__setitem__, check, original))
        replace_everywhere(original, wrapped)

    logger = logging.getLogger("dmx.verify")
    handler = _RejectHandler(c)
    old_level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)

    def uninstall():
        logger.removeHandler(handler)
        logger.setLevel(old_level)
        for fn, *rest in reversed(undo):
            fn(*rest)

    return uninstall
