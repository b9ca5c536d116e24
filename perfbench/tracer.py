"""Outside-in tracer for vpvlab.

`install()` wraps the public functions of series, lattice, closedform,
determinants, binary, catalog and cli, plus the `Series` ring and
series-function methods and `IdentityEntry.build_lhs`/`build_rhs`. Each
wrapped call records a span (name, start, end, parent, counts) in memory.
Every module that imported a wrapped function by name gets the wrapper too,
and so does every class alias of a wrapped method (`__rmul__`, `__radd__`,
`__pow__`), so no call bypasses the tracer. `layer_metrics()` turns the spans
into the per-layer metrics; `write()` dumps them as JSON lines at the end.

A span's self time is its duration minus the durations of its child spans.
Counts are taken after a span ends, so their cost falls into the parent's
self time; `trace.overhead_ratio` measures the total cost of tracing.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import time

ITEM = "bench.item"
LAYER_MODULES = ("series", "lattice", "closedform", "determinants", "binary",
                 "catalog", "cli")

# Series methods and their span names. Class aliases of these functions
# (`__rmul__ = __mul__` and so on) are rebound to the same wrapper.
SERIES_METHODS = {"__mul__": "series.mul", "__add__": "series.add",
                  "exp": "series.func", "log": "series.func",
                  "pow": "series.func", "inverse": "series.func"}
ENTRY_METHODS = {"build_lhs": "catalog.lhs", "build_rhs": "catalog.rhs"}


def span_name(module: str, func: str) -> str:
    """Span name of a public module-level function; its layer is the part
    before the first dot."""
    if module == "series":
        if func in ("first_mismatch", "max_rel_error"):
            return "catalog.compare"  # the compare stage of verify_identity
        return "series.other"
    if module == "lattice":
        if func.startswith("count_"):
            return "lattice.count"
        return {"enumerate_region": "lattice.region",
                "product_series": "lattice.product"}.get(func, "lattice.other")
    if module == "closedform":
        return "closedform.build" if func == "build_closed_form" else "closedform.other"
    if module == "catalog":
        return {"verify_identity": "catalog.verify",
                "oracle_series": "catalog.oracle"}.get(func, "catalog.other")
    if module == "cli":
        return "cli.main" if func == "main" else "cli.other"
    return f"{module}.{func}"


class Tracer:
    def __init__(self):
        self.spans = []   # [name, start, end, parent index, counts or None]
        self._stack = []

    def wrap(self, fn, name, count=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if count is not None:
                rec[4] = count(args, result)
            return result
        return wrapper

    @contextlib.contextmanager
    def span(self, name):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            yield rec
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for rec in self.spans:
                handle.write(json.dumps(rec, separators=(",", ":")) + "\n")


# -- counters: called with (args, result) after the span ends -----------------


def _count_mul(args, result):
    a, b = args[0], args[1]
    approx = a.mode == "approx"
    if not hasattr(b, "terms"):        # scalar product
        return {"approx": approx}
    bits = 0
    if not approx:
        for c in result.terms.values():
            bits = max(bits, c.numerator.bit_length(), c.denominator.bit_length())
    return {"approx": approx, "pairs": len(a.terms) * len(b.terms),
            "out": len(result.terms), "bits": bits}


def _count_oracle(args, result):
    target = args[0]
    target = tuple(getattr(target, "limits", target))
    cells = 1
    for t in target:
        cells *= t + 1
    if isinstance(result, int):
        answered = [list(target)]
    else:
        answered = [list(k) for k in result]
    return {"cells": cells, "answered": answered}


def _axis_points(lo, hi, base):
    """Candidate values of one component: every integer in [lo, hi], or only
    the powers of `base` there."""
    if base is None:
        return max(0, hi - lo + 1)
    count, p = 0, 1
    while p <= hi:
        count += p >= lo
        p *= base
    return count


def _count_region(args, result):
    region, bounds = args[0], args[1]
    points = 1
    for lo, hi in zip(region.lower, bounds):
        points *= _axis_points(lo, int(hi), region.base_powers)
    return {"points": points, "hits": len(result)}


def install(tracer, vpv):
    """Wrap vpvlab's layers. `vpv` maps module names to imported modules."""
    wrappers = {}

    def add(fn, name, count=None):
        wrappers.setdefault(fn, tracer.wrap(fn, name, count))

    counters = {"series.mul": _count_mul, "lattice.count": _count_oracle,
                "lattice.region": _count_region}
    for modname in LAYER_MODULES:
        mod = vpv[modname]
        for fname, fn in list(vars(mod).items()):
            if fname.startswith("_") or not inspect.isfunction(fn) \
                    or fn.__module__ != mod.__name__:
                continue
            name = span_name(modname, fname)
            add(fn, name, counters.get(name))
    series_cls = vpv["series"].Series
    entry_cls = vpv["catalog"].IdentityEntry
    for cls, methods in ((series_cls, SERIES_METHODS), (entry_cls, ENTRY_METHODS)):
        for attr, name in methods.items():
            add(cls.__dict__[attr], name, counters.get(name))
        for attr, value in list(cls.__dict__.items()):
            if inspect.isfunction(value) and value in wrappers:
                setattr(cls, attr, wrappers[value])
    for modname, mod in list(sys.modules.items()):
        if modname != "vpvlab" and not modname.startswith("vpvlab."):
            continue
        for attr, value in list(vars(mod).items()):
            if inspect.isfunction(value) and value in wrappers:
                setattr(mod, attr, wrappers[value])


# -- span aggregation -----------------------------------------------------------

# Span names and layers whose ancestry matters for the metrics below.
_KEYS = ("series.func", "lattice.count", "closedform.build", "catalog.lhs",
         "catalog.rhs", "catalog.compare", "cli.main", "determinants", "binary")
_BIT = {k: 1 << i for i, k in enumerate(_KEYS)}


def _bits(name):
    return _BIT.get(name, 0) | _BIT.get(name.split(".", 1)[0], 0)


PER_LAYER = (
    "series.mul.calls", "series.mul.self_s", "series.mul.approx_self_s",
    "series.mul.term_pairs", "series.mul.pairs_per_s", "series.mul.out_ratio",
    "series.mul.coeff_bits_max", "series.add.self_s", "series.func.s",
    "series.func.self_s", "series.func.muls", "series.other.self_s",
    "lattice.count.calls", "lattice.count.self_s", "lattice.count.dp_cells",
    "lattice.count.useful_ratio", "lattice.region.self_s",
    "lattice.region.points", "lattice.region.hit_ratio",
    "lattice.product.self_s", "lattice.product.factors",
    "lattice.other.self_s",
    "closedform.build_s", "closedform.self_s", "closedform.nodes",
    "determinants.s", "determinants.self_s", "binary.s", "binary.self_s",
    "catalog.lhs_s", "catalog.rhs_s", "catalog.compare_s",
    "catalog.oracle_rhs_s", "catalog.self_s",
    "cli.main_s", "cli.self_s",
    "trace.wall_s", "trace.spans", "trace.attributed_ratio",
)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, wall):
    """Per-layer metrics of one traced pass lasting `wall` seconds."""
    n = len(spans)
    dur = [rec[2] - rec[1] for rec in spans]
    child = [0.0] * n
    anc = [0] * n    # ancestry bits: keys some ancestor span carries
    item = [-1] * n  # index of the enclosing bench item span
    for i, rec in enumerate(spans):
        p = rec[3]
        if p >= 0:
            child[p] += dur[i]
            anc[i] = anc[p] | _bits(spans[p][0])
            item[i] = item[p]
        if rec[0] == ITEM:
            item[i] = i
    selfs = {}
    outer = {}   # inclusive time of spans with no ancestor of the same key
    calls = {}
    m = dict.fromkeys(PER_LAYER, 0.0)
    answered = set()
    oracle_rhs = set()
    out_terms = region_hits = 0
    attributed = 0.0
    for i, (name, _, _, p, counts) in enumerate(spans):
        s = dur[i] - child[i]
        if name != ITEM:
            attributed += s
        layer = name.split(".", 1)[0]
        selfs[name] = selfs.get(name, 0.0) + s
        selfs[layer] = selfs.get(layer, 0.0) + s
        calls[name] = calls.get(name, 0) + 1
        for key in (name, layer):
            if key in _BIT and not anc[i] & _BIT[key]:
                outer[key] = outer.get(key, 0.0) + dur[i]
        if name == "series.mul":
            if counts["approx"]:
                m["series.mul.approx_self_s"] += s
            m["series.mul.term_pairs"] += counts.get("pairs", 0)
            out_terms += counts.get("out", 0)
            m["series.mul.coeff_bits_max"] = max(m["series.mul.coeff_bits_max"],
                                                 counts.get("bits", 0))
            if anc[i] & _BIT["series.func"]:
                m["series.func.muls"] += 1
            if p >= 0 and spans[p][0] == "lattice.product":
                m["lattice.product.factors"] += 1
        elif name == "lattice.count":
            if not anc[i] & _BIT["lattice.count"]:
                m["lattice.count.calls"] += 1
                m["lattice.count.dp_cells"] += counts["cells"]
                answered.update((item[i], tuple(c)) for c in counts["answered"])
            # the outermost catalog.rhs span above this one is oracle-backed
            j, top = p, -1
            while j >= 0:
                if spans[j][0] == "catalog.rhs":
                    top = j
                j = spans[j][3]
            if top >= 0:
                oracle_rhs.add(top)
        elif name == "lattice.region":
            m["lattice.region.points"] += counts["points"]
            region_hits += counts["hits"]
    m["series.mul.calls"] = calls.get("series.mul", 0)
    m["series.mul.self_s"] = selfs.get("series.mul", 0.0)
    m["series.mul.pairs_per_s"] = _ratio(m["series.mul.term_pairs"],
                                         m["series.mul.self_s"])
    m["series.mul.out_ratio"] = _ratio(out_terms, m["series.mul.term_pairs"])
    m["series.add.self_s"] = selfs.get("series.add", 0.0)
    m["series.func.s"] = outer.get("series.func", 0.0)
    m["series.func.self_s"] = selfs.get("series.func", 0.0)
    m["series.other.self_s"] = selfs.get("series.other", 0.0)
    m["lattice.count.self_s"] = selfs.get("lattice.count", 0.0)
    m["lattice.count.useful_ratio"] = _ratio(len(answered),
                                             m["lattice.count.dp_cells"])
    m["lattice.region.self_s"] = selfs.get("lattice.region", 0.0)
    m["lattice.region.hit_ratio"] = _ratio(region_hits,
                                           m["lattice.region.points"])
    m["lattice.product.self_s"] = selfs.get("lattice.product", 0.0)
    m["lattice.other.self_s"] = selfs.get("lattice.other", 0.0)
    m["closedform.build_s"] = outer.get("closedform.build", 0.0)
    m["closedform.self_s"] = selfs.get("closedform", 0.0)
    m["closedform.nodes"] = calls.get("closedform.build", 0)
    m["determinants.s"] = outer.get("determinants", 0.0)
    m["determinants.self_s"] = selfs.get("determinants", 0.0)
    m["binary.s"] = outer.get("binary", 0.0)
    m["binary.self_s"] = selfs.get("binary", 0.0)
    m["catalog.lhs_s"] = outer.get("catalog.lhs", 0.0)
    m["catalog.rhs_s"] = outer.get("catalog.rhs", 0.0)
    m["catalog.compare_s"] = outer.get("catalog.compare", 0.0)
    m["catalog.oracle_rhs_s"] = sum(dur[j] for j in oracle_rhs)
    m["catalog.self_s"] = selfs.get("catalog", 0.0)
    m["cli.main_s"] = outer.get("cli.main", 0.0)
    m["cli.self_s"] = selfs.get("cli", 0.0)
    m["trace.wall_s"] = wall
    m["trace.spans"] = n
    m["trace.attributed_ratio"] = _ratio(attributed, wall)
    return m

