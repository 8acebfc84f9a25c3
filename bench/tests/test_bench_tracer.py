"""The outside-in tracer and the Field call counter."""

import io
import json
import os
import sys
from contextlib import redirect_stdout

import pytest

import run
import tracer
import workloads
from relext import cli

from conftest import ROOT


def _bindings():
    """(owner, attr, value) for every module global and class attribute
    of every relext module."""
    out = []
    for mod in tracer.relext_modules():
        for attr, obj in vars(mod).items():
            out.append((mod, attr, obj))
            if isinstance(obj, type) and obj.__module__.startswith("relext"):
                out += [(obj, a, v) for a, v in vars(obj).items()]
    return out


def test_no_wrapped_name_keeps_its_original():
    originals = {id(f) for f in tracer.public_functions().values()}
    for short, cls, meth in tracer.METHODS:
        originals.add(id(vars(getattr(sys.modules["relext." + short], cls))[meth]))
    before = _bindings()
    t = tracer.Tracer()
    t.install()
    try:
        leaks = [(o, a) for o, a, v in _bindings() if id(v) in originals]
    finally:
        t.uninstall()
    assert leaks == []
    assert [(o, a, id(v)) for o, a, v in _bindings()] == [(o, a, id(v)) for o, a, v in before]


def _outputs(tmp_path, probe=None):
    files, ops, _ = workloads.inputs("fixtures", 0, ROOT)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    cwd = os.getcwd()
    os.chdir(tmp_path)
    if probe is not None:
        probe.install()
    try:
        outs = []
        for i, argv in enumerate(ops[:17]):  # every verb on ex1
            if isinstance(probe, tracer.Tracer):
                probe.op = i
            buf = io.StringIO()
            with redirect_stdout(buf):
                outs.append((cli.main(argv + ["--format", "json"]), buf.getvalue()))
    finally:
        if probe is not None:
            probe.uninstall()
        os.chdir(cwd)
    return outs


def test_stdout_is_byte_identical_with_tracing(tmp_path):
    plain = _outputs(tmp_path)
    t = tracer.Tracer()
    traced = _outputs(tmp_path, t)
    assert traced == plain
    assert t.spans


def test_spans_nest_and_self_times_add_up(tmp_path):
    t = tracer.Tracer()
    _outputs(tmp_path, t)
    roots = [s for s in t.spans if s[3] < 0]
    assert {s[0] for s in roots} == {"cli.main"}
    for s in t.spans:
        if s[3] >= 0:
            parent = t.spans[s[3]]
            assert parent[1] <= s[1] <= s[2] <= parent[2]
    m = tracer.layer_metrics(t.spans, [1.0] * 17)
    total = sum(s[2] - s[1] for s in roots)
    layers = sum(m[layer + ".self_s"] for layer in tracer.LAYER_ORDER)
    assert layers == pytest.approx(total, rel=1e-6)
    assert m["cli.calls"] == len(roots)
    assert m["algebra.build.calls"] > 0 and m["exactla.rref.calls"] > 0


def test_field_counts_repeat_exactly(tmp_path):
    counts = []
    for _ in range(2):
        c = tracer.FieldCounter()
        _outputs(tmp_path, c)
        counts.append(c.counts())
    assert counts[0] == counts[1]
    assert counts[0]["is_zero"] > 0
    m = tracer.field_metrics(counts[0])
    assert 0 < m["exactla.field.useful_frac"] < 1


def test_benchmark_json_lists_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
