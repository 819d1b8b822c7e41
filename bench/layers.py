"""Span recorder that times calls into each package module from outside.

``install`` wraps the public functions listed in ``LAYERS`` and replaces
every reference to them that the package holds: the defining module's
attribute, every ``thicket.*`` module that imported the name (for example
``interleave.space_dim`` as well as ``morphisms.space_dim``) and the function
fields of module-level ``SpaceOps`` hook tables.  Classes are traced through
their ``__init__``, which every construction runs.

A span is (op id, span id, parent span id, name, start ns, end ns).  Spans
stay in memory and are written when the run ends.  Self time is a span's
duration minus the time covered by its child spans, accumulated per name as
the spans close.  Spans are recorded only while an operation is open, so the
correctness checks that run between operations are not traced.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
from array import array
from time import perf_counter_ns

# (module, attribute) pairs: the public entry points of each layer.  An
# attribute that is a class is traced through its __init__.  The end-to-end
# metric each layer should move: thicken, barcode -> ops_per_s on distance
# and bulk-io; docio -> ops_per_s on bulk-io; morphisms, model -> op_p50_ms
# and ops_per_s on distance (model also ops_per_s on decompose); interleave
# -> op_p90_ms and exact_ratio on distance; fieldmath, zigzag, circle,
# plmaps -> ops_per_s and op_p90_ms on decompose, with the circle pairs'
# share of distance.
LAYERS = (
    ("thicken", "bar_rule"), ("thicken", "thicken"),
    ("barcode", "GradedBarcode"), ("barcode", "dualize"),
    ("barcode", "global_sections"),
    ("docio", "parse"), ("docio", "serialize"),
    ("morphisms", "space_dim"), ("morphisms", "struct_scalar"),
    ("morphisms", "compose"), ("morphisms", "restriction"),
    ("morphisms", "thicken_morphism"), ("morphisms", "shape_key"),
    ("model", "RepPair"), ("model", "rep_sections"),
    ("interleave", "distance"), ("interleave", "check_matching"),
    ("interleave", "check_exhaustive"), ("interleave", "verify_certificate"),
    ("fieldmath", "rref"),
    ("zigzag", "decompose_line"), ("zigzag", "decompose_cyclic_rep"),
    ("zigzag", "canonical_monodromy"),
    ("circle", "circle_thicken"), ("circle", "cyclic_model_of"),
    ("circle", "decompose_cyclic"), ("circle", "circle_global_sections"),
    ("circle", "CircleSheaf"), ("circle", "circle_distance"),
    ("plmaps", "pushforward_shriek"),
)

# Memo dicts whose growth separates misses from hits: cache name -> (the
# function that fills it, its dict in thicket.morphisms).  ``pair_data`` is
# counted but not traced, so its cold-cache Hom/Ext set-up stays in the self
# time of the traced function that called it.
CACHES = {
    "pair": ("morphisms.pair_data", "_PAIR_CACHE"),
    "dims": ("morphisms.space_dim", "_DIMS_CACHE"),
    "struct": ("morphisms.struct_scalar", "_STRUCT_CACHE"),
}


class Recorder:
    """Spans and per-name aggregates of one traced run."""

    def __init__(self):
        self.names: list[str] = []
        self.op_id = -1                 # -1: no operation open, record nothing
        self.ops = array("i")
        self.parents = array("i")
        self.name_ids = array("i")
        self.starts = array("q")
        self.ends = array("q")
        self.stack: list[list] = []     # [span id, child ns]
        self.calls: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.counts: dict[str, int] = {}   # extra counters: bytes, cells, ...

    def count(self, key: str, n: int = 1):
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, name: str, fn, on_call=None):
        """``fn`` timed as span ``name``; ``on_call(args, kwargs, result,
        error)`` adds counters after each call."""
        name_id = len(self.names)
        self.names.append(name)
        self.calls[name] = self.self_ns[name] = 0
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if rec.op_id < 0:
                return fn(*args, **kwargs)
            span = len(rec.starts)
            rec.ops.append(rec.op_id)
            rec.parents.append(rec.stack[-1][0] if rec.stack else -1)
            rec.name_ids.append(name_id)
            rec.ends.append(0)
            frame = [span, 0]
            rec.stack.append(frame)
            result = error = None
            t0 = perf_counter_ns()
            rec.starts.append(t0)
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                t1 = perf_counter_ns()
                rec.ends[span] = t1
                rec.stack.pop()
                dur = t1 - t0
                rec.calls[name] += 1
                rec.self_ns[name] += dur - frame[1]
                if rec.stack:
                    rec.stack[-1][1] += dur
                if on_call is not None:
                    on_call(args, kwargs, result, error)

        return traced

    def begin(self, op_id: int):
        self.op_id = op_id

    def end(self):
        """Close the operation; spans a timeout interrupted are closed by
        their ``finally`` clauses on the way out."""
        self.op_id = -1
        self.stack.clear()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op\tspan\tparent\tname\tstart_ns\tend_ns\n")
            for i in range(len(self.starts)):
                fh.write(f"{self.ops[i]}\t{i}\t{self.parents[i]}\t"
                         f"{self.names[self.name_ids[i]]}\t{self.starts[i]}\t"
                         f"{self.ends[i]}\n")


def _counters(rec: Recorder):
    """on_call hooks keyed by traced name."""
    from thicket.interleave import CapacityError

    def rref(args, kwargs, result, error):
        mat = args[0]
        rows = len(mat)
        rec.count("fieldmath.rref.cells", rows * (len(mat[0]) if rows else 0))

    def parse(args, kwargs, result, error):
        rec.count("docio.parse.bytes", len(args[0].encode()))

    def serialize(args, kwargs, result, error):
        if result is not None:
            rec.count("docio.serialize.bytes", len(result.encode()))

    def matching(args, kwargs, result, error):
        if result is not None:
            rec.count("interleave.check_matching.found")

    def exhaustive(args, kwargs, result, error):
        if isinstance(error, CapacityError):
            rec.count("interleave.check_exhaustive.capacity")
        elif error is None:
            rec.count("interleave.check_exhaustive.decided")

    return {
        "fieldmath.rref": rref,
        "docio.parse": parse,
        "docio.serialize": serialize,
        "interleave.check_matching": matching,
        "interleave.check_exhaustive": exhaustive,
    }


def _count_cache(rec: Recorder, fn, morphisms, cache: str, attr: str):
    """``fn`` with lookups and misses of its memo dict counted.  A miss grows
    the dict, so misses are measured as its growth during the call;
    ``struct_scalar`` answers ext-ext pairs without a lookup, and those calls
    are not counted."""
    memo = getattr(morphisms, attr)

    @functools.wraps(fn)
    def counted(*args, **kwargs):
        before = len(memo)
        try:
            return fn(*args, **kwargs)
        finally:
            if rec.op_id >= 0 and not (cache == "struct" and args[5:7] == ("e", "e")):
                rec.count(f"morphisms.{cache}_cache.lookups")
                rec.count(f"morphisms.{cache}_cache.misses", len(memo) - before)

    return counted


def install(rec: Recorder, callers=()):
    """Wrap every traced and cache-counted function and rebind each
    reference the package holds, and those of the modules in ``callers``
    (the benchmark's own code that calls in)."""
    import thicket.docio  # noqa: F401  (imports every traced module)
    modules = [mod for name, mod in sys.modules.items()
               if name == "thicket" or name.startswith("thicket.")]
    targets = modules + list(callers)
    by_name = {mod.__name__: mod for mod in modules}
    morphisms = by_name["thicket.morphisms"]
    hooks = _counters(rec)
    counted = {}                        # name -> (original, cache-counted)
    for cache, (name, attr) in CACHES.items():
        orig = getattr(morphisms, name.split(".")[1])
        counted[name] = (orig, _count_cache(rec, orig, morphisms, cache, attr))
    for mod_name, attr in LAYERS:
        orig = getattr(by_name[f"thicket.{mod_name}"], attr)
        name = f"{mod_name}.{attr}"
        if isinstance(orig, type):
            init = orig.__init__
            setattr(orig, "__init__", rec.wrap(name, init, hooks.get(name)))
            continue
        fn = counted.pop(name, (orig, orig))[1]
        _rebind(targets, orig, rec.wrap(name, fn, hooks.get(name)))
    for orig, fn in counted.values():   # counted but not traced
        _rebind(targets, orig, fn)


def _rebind(modules, orig, new):
    """Replace ``orig`` by ``new`` in the globals of ``modules`` and in the
    function fields of their module-level dataclass instances."""
    for mod in modules:
        for key, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, key, new)
            elif dataclasses.is_dataclass(val) and not isinstance(val, type):
                for field in dataclasses.fields(val):
                    if getattr(val, field.name) is orig:
                        object.__setattr__(val, field.name, new)


def layer_metrics(rec: Recorder) -> dict[str, float]:
    """Every per-layer value the recorder can give: calls and self time of
    each traced name, and the counters and ratios derived from them.
    ``trace.overhead_ratio`` needs an untraced run and is not here."""
    out: dict[str, float] = {}
    for name in rec.names:
        out[f"{name}.calls"] = rec.calls[name]
        out[f"{name}.self_s"] = rec.self_ns[name] / 1e9
    c = rec.counts
    out["fieldmath.rref.cells"] = c.get("fieldmath.rref.cells", 0)
    out["docio.parse.bytes"] = c.get("docio.parse.bytes", 0)
    out["docio.serialize.bytes"] = c.get("docio.serialize.bytes", 0)
    out["interleave.check_matching.found_ratio"] = _ratio(
        c.get("interleave.check_matching.found", 0),
        rec.calls["interleave.check_matching"])
    out["interleave.check_exhaustive.capacity_count"] = c.get(
        "interleave.check_exhaustive.capacity", 0)
    out["interleave.check_exhaustive.decided_ratio"] = _ratio(
        c.get("interleave.check_exhaustive.decided", 0),
        rec.calls["interleave.check_exhaustive"])
    out["interleave.probes_per_distance"] = _ratio(
        rec.calls["interleave.check_matching"], rec.calls["interleave.distance"])
    for cache in CACHES:
        lookups = c.get(f"morphisms.{cache}_cache.lookups", 0)
        misses = c.get(f"morphisms.{cache}_cache.misses", 0)
        out[f"morphisms.{cache}_cache.lookups"] = lookups
        out[f"morphisms.{cache}_cache.hit_ratio"] = _ratio(lookups - misses, lookups)
    return out


def _ratio(num, den) -> float:
    """num / den, and 0 when nothing was attempted."""
    return num / den if den else 0.0
