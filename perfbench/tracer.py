"""Span tracing around calls into the package's public functions.

The tracer wraps functions from the benchmark's side: it replaces each
listed function in every ``verlinde`` module namespace that holds it
(``from .polynomials import mult_matrix`` makes a second binding in
``family`` and in ``jumping``) and each listed method on its class.
Nothing inside the package changes.  Spans are kept in memory as
``[name, start, end, parent, item, attrs]`` and written out at the end.
A span's self time is its duration minus the durations of its direct
children, so self times over all spans add up to the traced item time.

Work the tracer itself does per call (matrix fingerprints, entry bit
lengths) runs in a child span named ``trace.hook`` so it never lands in
a layer's self time.
"""

from __future__ import annotations

import functools
import json
import operator
import sys
from time import perf_counter

# Public entry points of each layer, by module: functions, and methods as
# "Class.method".
LAYERS = {
    "linalg": ("ExactMatrix.__init__", "ExactMatrix.rank"),
    "polynomials": ("mult_matrix", "restrict_to_line", "gcd_degree", "random_form"),
    "pencils": ("splitting_type", "twisted_section_dims", "is_injective",
                "sylvester_block", "Pencil.at"),
    "family": ("context", "sample_line", "verlinde_pencil", "zero_count", "generic_type",
               "near_generic_type", "is_generic_type", "predict_by_gcd"),
    "jumping": ("reconcile", "dim_z_jacobian", "dim_z_formula", "bookkeeping_dim",
                "class_from_formula", "class_from_pushpull"),
    "schubert": ("sigma", "pieri", "giambelli", "product", "degree", "hyperplane_power",
                 "bidegree_product", "bidegree_degree", "pushforward_factor2",
                 "BidegreeClass.__mul__"),
}

# Rank calls are bucketed by rows x cols.
RANK_SMALL_CELLS = 2_000
RANK_LARGE_CELLS = 20_000

HOOK = "trace.hook"
ITEM = "bench.item"


# Span names where the attribute path is not the natural name.
SPAN_NAMES = {
    "ExactMatrix.__init__": "linalg.ExactMatrix.new",
    "ExactMatrix.rank": "linalg.rank",
    "BidegreeClass.__mul__": "schubert.BidegreeClass.mul",
}


def _span_name(module, attr):
    return SPAN_NAMES.get(attr, f"{module}.{attr}")


_numerator = operator.attrgetter("numerator")
_denominator = operator.attrgetter("denominator")


def _rank_attrs(tracer, args, kwargs):
    """Shape, largest entry bit length, and whether the matrix or its
    transpose was already ranked in this item."""
    m = args[0]
    nums = [tuple(map(_numerator, row)) for row in m.entries]
    dens = [tuple(map(_denominator, row)) for row in m.entries]
    bits = max((max(map(int.bit_length, r), default=0) for r in nums + dens), default=0)
    key = hash((tuple(nums), tuple(dens)))
    seen = tracer.item_seen
    repeat = ("rank", key) in seen
    seen.add(("rank", key))
    seen.add(("rank", hash((tuple(zip(*nums)), tuple(zip(*dens))))))
    return {"rows": m.rows, "cols": m.cols, "bits": bits, "repeat": repeat}


def _mult_matrix_attrs(tracer, args, kwargs):
    f = args[0]
    src = args[1] if len(args) > 1 else kwargs["src_deg"]
    key = ("mult", hash(f), f.degree, src)
    repeat = key in tracer.item_seen
    tracer.item_seen.add(key)
    return {"repeat": repeat}


def _sylvester_attrs(tracer, args, kwargs):
    pencil = args[0]
    j = args[1] if len(args) > 1 else kwargs["j"]
    return {"cells": (j + 1) * pencil.u * j * pencil.w}


ATTR_HOOKS = {
    "linalg.rank": _rank_attrs,
    "polynomials.mult_matrix": _mult_matrix_attrs,
    "pencils.sylvester_block": _sylvester_attrs,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []
        self.item = None
        self.item_seen = set()

    # ------------------------------------------------------------ recording

    def _open(self, name):
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1,
                           self.item, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def _call(self, name, fn, hook, args, kwargs):
        attrs = None
        if hook is not None:
            h = self._open(HOOK)
            try:
                attrs = hook(self, args, kwargs)
            finally:
                self._close(h)
        idx = self._open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._close(idx)
        if attrs is not None:
            attrs["result"] = result if isinstance(result, int) else None
            self.spans[idx][5] = attrs
        return result

    def run_item(self, item_id, fn, *args):
        """Run one benchmark item under a root span."""
        self.item = item_id
        self.item_seen = set()
        idx = self._open(ITEM)
        try:
            return fn(*args)
        finally:
            self._close(idx)
            self.item = None

    # -------------------------------------------------------------- patching

    def _wrap(self, name, fn):
        hook = ATTR_HOOKS.get(name)
        call = self._call

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return call(name, fn, hook, args, kwargs)
        return wrapper

    def install(self, package="verlinde"):
        """Wrap every layer entry point in every namespace that binds it."""
        modules = [m for key, m in sys.modules.items()
                   if key == package or key.startswith(package + ".")]
        for layer, attrs in LAYERS.items():
            home = sys.modules[f"{package}.{layer}"]
            for attr in attrs:
                name = _span_name(layer, attr)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[meth]
                    wrapper = self._wrap(name, original)
                    for key, val in list(cls.__dict__.items()):
                        if val is original:  # also catches __rmul__ = __mul__
                            self._patches.append((cls, key, val))
                            setattr(cls, key, wrapper)
                    continue
                original = getattr(home, attr)
                wrapper = self._wrap(name, original)
                for mod in modules:
                    for key, val in list(vars(mod).items()):
                        if val is original:
                            self._patches.append((mod, key, val))
                            setattr(mod, key, wrapper)

    def uninstall(self):
        for owner, key, val in reversed(self._patches):
            setattr(owner, key, val)
        self._patches.clear()

    # ----------------------------------------------------------------- output

    def self_times(self):
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _item, _attrs in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [s[2] - s[1] - c for s, c in zip(self.spans, child)]

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def unit(name):
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_frac"):
        return "1"
    if name.endswith("max_entry_bits"):
        return "bits"
    if name.endswith(".cells"):
        return "cells/item"
    if ".self_s" in name:
        return "s/item"
    return "1/item"


def _frac(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, items, wall_s):
    """Per-layer metrics of a traced phase, normalised per item."""
    spans = tracer.spans
    self_t = tracer.self_times()
    names = [s[0] for s in spans]
    stat = {}
    for name, st in zip(names, self_t):
        c = stat.setdefault(name, [0, 0.0])
        c[0] += 1
        c[1] += st

    def calls(name):
        return stat.get(name, [0, 0.0])[0]

    def self_s(name):
        return stat.get(name, [0, 0.0])[1]

    def layer_self_s(layer):
        return sum(v[1] for k, v in stat.items() if k.startswith(layer + "."))

    def under(idx, ancestor):
        parent = spans[idx][3]
        while parent >= 0:
            if names[parent] == ancestor:
                return True
            parent = spans[parent][3]
        return False

    rank = [(i, s[5]) for i, s in enumerate(spans) if s[0] == "linalg.rank"]
    buckets = {"small": 0.0, "medium": 0.0, "large": 0.0}
    cells = bits = full = repeat = 0
    for i, a in rank:
        size = a["rows"] * a["cols"]
        cells += size
        bits = max(bits, a["bits"])
        full += a["result"] == min(a["rows"], a["cols"])
        repeat += a["repeat"]
        bucket = ("small" if size < RANK_SMALL_CELLS
                  else "medium" if size < RANK_LARGE_CELLS else "large")
        buckets[bucket] += self_t[i]
    mult = [s[5] for s in spans if s[0] == "polynomials.mult_matrix"]
    syl = [(i, s[5]) for i, s in enumerate(spans) if s[0] == "pencils.sylvester_block"]
    inj_ranks = sum(1 for i, _ in rank if under(i, "pencils.is_injective"))
    h_steps = sum(1 for i, _ in syl if under(i, "pencils.splitting_type"))
    schubert_calls = sum(v[0] for k, v in stat.items() if k.startswith("schubert."))
    accounted = sum(self_t)

    per = 1.0 / items
    m = {
        "linalg.self_s": layer_self_s("linalg") * per,
        "linalg.ExactMatrix.self_s": self_s("linalg.ExactMatrix.new") * per,
        "linalg.rank.calls": len(rank) * per,
        "linalg.rank.self_s": self_s("linalg.rank") * per,
        "linalg.rank.self_s.small": buckets["small"] * per,
        "linalg.rank.self_s.medium": buckets["medium"] * per,
        "linalg.rank.self_s.large": buckets["large"] * per,
        "linalg.rank.cells": cells * per,
        "linalg.rank.max_entry_bits": bits,
        "linalg.rank.full_frac": _frac(full, len(rank)),
        "linalg.rank.repeat_frac": _frac(repeat, len(rank)),
        "polynomials.self_s": layer_self_s("polynomials") * per,
        "polynomials.mult_matrix.calls": len(mult) * per,
        "polynomials.mult_matrix.self_s": self_s("polynomials.mult_matrix") * per,
        "polynomials.mult_matrix.repeat_frac": _frac(sum(a["repeat"] for a in mult), len(mult)),
        "polynomials.restrict_to_line.calls": calls("polynomials.restrict_to_line") * per,
        "polynomials.restrict_to_line.self_s": self_s("polynomials.restrict_to_line") * per,
        "polynomials.gcd_degree.self_s": self_s("polynomials.gcd_degree") * per,
        "polynomials.random_form.self_s": self_s("polynomials.random_form") * per,
        "pencils.self_s": layer_self_s("pencils") * per,
        "pencils.splitting_type.self_s": self_s("pencils.splitting_type") * per,
        "pencils.splitting_type.h_steps": h_steps * per,
        "pencils.sylvester_block.calls": len(syl) * per,
        "pencils.sylvester_block.self_s": self_s("pencils.sylvester_block") * per,
        "pencils.sylvester_block.cells": sum(a["cells"] for _, a in syl) * per,
        "pencils.Pencil.at.self_s": self_s("pencils.Pencil.at") * per,
        "pencils.is_injective.self_s": self_s("pencils.is_injective") * per,
        "pencils.is_injective.rank_calls": inj_ranks * per,
        "family.self_s": layer_self_s("family") * per,
        "family.sample_line.self_s": self_s("family.sample_line") * per,
        "family.verlinde_pencil.calls": calls("family.verlinde_pencil") * per,
        "family.zero_count.self_s": self_s("family.zero_count") * per,
        "family.is_generic_type.self_s": self_s("family.is_generic_type") * per,
        "family.predict_by_gcd.self_s": self_s("family.predict_by_gcd") * per,
        "jumping.self_s": layer_self_s("jumping") * per,
        "jumping.dim_z_jacobian.self_s": self_s("jumping.dim_z_jacobian") * per,
        "jumping.class_from_formula.self_s": self_s("jumping.class_from_formula") * per,
        "jumping.class_from_pushpull.self_s": self_s("jumping.class_from_pushpull") * per,
        "jumping.reconcile.self_s": self_s("jumping.reconcile") * per,
        "schubert.calls": schubert_calls * per,
        "schubert.self_s": layer_self_s("schubert") * per,
        "bench.item.self_s": self_s(ITEM) * per,
        "trace.hook.self_s": self_s(HOOK) * per,
        "trace.accounted_frac": _frac(accounted, wall_s),
    }
    return m
