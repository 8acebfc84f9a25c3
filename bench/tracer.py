"""Outside-in instrumentation of relext, installed by the benchmark worker.

`Tracer` wraps every public module-level function of every relext module,
plus `HochschildCalculator.bar_h`/`is_coboundary` and `Bimodule.verify`,
and rebinds each wrapped name in every relext module that holds it (a
module that did `from .algebra import build` has its own binding, which
patching only `algebra` would miss).  Each call records a span
[name, start, end, parent, operation, extra] in memory; `extra` carries the
sizes some boundaries report (matrix shape and rank, hom-space unknowns,
algebra dimension, bar-complex degree 1 size).  Time spent in methods of
other modules' classes that are not wrapped counts to the caller.

`FieldCounter` counts calls to the `Field` methods.  Counting every field
operation roughly doubles the run time, so it runs in its own pass whose
times are discarded.

`layer_metrics` turns the spans of one pass into the per-layer metrics.
"""

from __future__ import annotations

import collections
import functools
import statistics
import sys
import time
import types

# relext module -> layer; quiver is part of the algebra layer
LAYERS = {
    "cli": "cli",
    "qdsl": "qdsl",
    "algebra": "algebra",
    "quiver": "algebra",
    "repmod": "repmod",
    "bimod": "bimod",
    "hochschild": "hochschild",
    "extensions": "extensions",
    "exactla": "exactla",
}
LAYER_ORDER = ("cli", "qdsl", "algebra", "repmod", "bimod", "hochschild", "extensions", "exactla")

METHODS = (
    ("hochschild", "HochschildCalculator", "bar_h"),
    ("hochschild", "HochschildCalculator", "is_coboundary"),
    ("bimod", "Bimodule", "verify"),
)

# A stage is a set of entry functions.  Its self time covers the entry
# spans and the spans of the same layer below them; its calls count the
# entry spans that are not already inside the stage.
STAGES = {
    "exactla.rref": {"exactla.rref", "exactla.solve"},
    "extensions.lift": {"extensions.lift_derivation"},
    "extensions.split": {"extensions.split_presentation"},
    "bimod.construct": {
        "bimod.regular_bimodule",
        "bimod.zero_bimodule",
        "bimod.sub_bimodule",
        "bimod.arrow_ideal_bimodule",
        "bimod.base_sub_bimodule",
    },
    "algebra.build": {"algebra.build"},
    "hochschild.bar": {
        "hochschild.HochschildCalculator.bar_h",
        "hochschild.HochschildCalculator.is_coboundary",
    },
    "hochschild.derivation": {"hochschild.h0", "hochschild.h1"},
}

FIELD_METHODS = (
    "zero", "one", "from_int", "from_fraction", "add", "sub", "mul", "neg",
    "inv", "div", "is_zero", "format",
)
FIELD_ARITHMETIC = ("add", "sub", "mul", "neg", "inv", "div")


def relext_modules() -> list:
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "relext" or n.startswith("relext."))]


def _module(short):
    return sys.modules["relext." + short]


def public_functions() -> dict:
    """span name -> original function, for every public function defined
    in a relext module of a known layer."""
    out = {}
    for short in LAYERS:
        mod = _module(short)
        for name, obj in vars(mod).items():
            if (isinstance(obj, types.FunctionType) and not name.startswith("_")
                    and obj.__module__ == mod.__name__):
                out["%s.%s" % (short, name)] = obj
    return out


def _extra(name, calculators):
    """Recorder of boundary sizes for one span name, or None.  Each bar
    complex calculator reports its degree 1 size once; `calculators` keeps
    the ones seen alive so that their ids stay unique."""
    if name == "exactla.rref":
        return lambda args, res: {"cells": args[0].rows * args[0].cols,
                                  "rows": args[0].rows, "rank": res[1]}
    if name == "exactla.solve":
        return lambda args, res: {"cells": args[0].rows * args[0].cols}
    if name in ("bimod.bimodule_hom_space", "bimod.curly_E"):
        return lambda args, res: {"unknowns": args[0].dim * args[1].dim}
    if name == "algebra.build":
        return lambda args, res: {"dim": res.dim}
    if name in STAGES["hochschild.bar"]:
        def c1(args, res):
            calc = args[0]
            if id(calc) in calculators:
                return None
            calculators[id(calc)] = calc
            return {"c1_dim": calc.alg.dim * calc.m.dim}
        return c1
    return None


class _Patcher:
    """Replaces originals by wrappers wherever relext binds them."""

    def __init__(self):
        self._undo = []

    def replace(self, owner, attr, new):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def rebind(self, wrappers: dict):
        """wrappers maps id(original) -> wrapper; rebinds module globals."""
        for mod in relext_modules():
            for attr, obj in list(vars(mod).items()):
                w = wrappers.get(id(obj))
                if w is not None:
                    self.replace(mod, attr, w)

    def restore(self):
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo = []


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._calculators = {}
        self._patcher = _Patcher()

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        extra = _extra(name, self._calculators)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                res = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if extra is not None:
                rec[5] = extra(args, res)
            return res
        return traced

    def install(self):
        wrappers = {}
        for name, fn in public_functions().items():
            wrappers[id(fn)] = self._wrap(name, fn)
        self._patcher.rebind(wrappers)
        for short, cls_name, meth in METHODS:
            cls = getattr(_module(short), cls_name)
            name = "%s.%s.%s" % (short, cls_name, meth)
            self._patcher.replace(cls, meth, self._wrap(name, cls.__dict__[meth]))

    def uninstall(self):
        self._patcher.restore()


class FieldCounter:
    """Counts calls to each Field method over every field in use."""

    def __init__(self):
        self._counts = {m: 0 for m in FIELD_METHODS}
        self._patcher = _Patcher()

    def _wrap(self, meth, fn):
        counts = self._counts

        @functools.wraps(fn)
        def counted(*args):
            counts[meth] += 1
            return fn(*args)
        return counted

    def install(self):
        exactla = _module("exactla")
        for cls in (exactla.Field, exactla.RationalField, exactla.PrimeField):
            for meth in FIELD_METHODS:
                if meth in cls.__dict__:
                    self._patcher.replace(cls, meth, self._wrap(meth, cls.__dict__[meth]))

    def uninstall(self):
        self._patcher.restore()

    def counts(self) -> dict:
        return dict(self._counts)


def field_metrics(counts: dict) -> dict:
    total = sum(counts.values())
    useful = sum(counts[m] for m in FIELD_ARITHMETIC)
    return {
        "exactla.field_ops": total,
        "exactla.field.useful_frac": useful / total if total else 0.0,
    }


def _layer(name):
    return LAYERS[name.split(".", 1)[0]]


def layer_metrics(spans: list, scale: list) -> dict:
    """Per-layer metrics of one traced pass (see README.md for each).
    Span times of operation i are multiplied by scale[i], the host-speed
    factor the worker measured for that operation."""
    self_s = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            self_s[s[3]] -= s[2] - s[1]
    self_s = [t * scale[s[4]] for t, s in zip(self_s, spans)]
    entry = {name: stage for stage, names in STAGES.items() for name in names}
    stage_of = [None] * len(spans)
    m = {}
    for group in LAYER_ORDER + tuple(STAGES):
        m[group + ".calls"] = 0
        m[group + ".self_s"] = 0.0
    sizes = collections.Counter()
    for i, (name, _, _, parent, _, extra) in enumerate(spans):
        layer = _layer(name)
        m[layer + ".calls"] += 1
        m[layer + ".self_s"] += self_s[i]
        inherited = None
        if parent >= 0 and _layer(spans[parent][0]) == layer:
            inherited = stage_of[parent]
        stage = entry.get(name)
        if stage is not None and stage != inherited:
            m[stage + ".calls"] += 1
        stage_of[i] = stage or inherited
        if stage_of[i] is not None:
            m[stage_of[i] + ".self_s"] += self_s[i]
        if extra:
            sizes.update(extra)
    m["exactla.rref.cells"] = sizes["cells"]
    m["exactla.rref.rank_frac"] = sizes["rank"] / sizes["rows"] if sizes["rows"] else 0.0
    m["bimod.hom.unknowns"] = sizes["unknowns"]
    m["algebra.build.dim_sum"] = sizes["dim"]
    m["hochschild.bar.c1_dim"] = sizes["c1_dim"]
    return m


def median_metrics(passes: list) -> dict:
    return {k: statistics.median(p[k] for p in passes) for k in passes[0]}
