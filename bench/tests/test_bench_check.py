"""The per-operation checker behind the error count."""

import io
import json
import os
from contextlib import redirect_stdout

import pytest

import check
import workloads
from relext import cli

from conftest import ROOT


def _run(tmp_path, workload, seed, index):
    files, ops, back = workloads.inputs(workload, seed, ROOT)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = ops[index]
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(tmp_path)
    try:
        with redirect_stdout(out):
            code = cli.main(argv + ["--format", "json"])
    finally:
        os.chdir(cwd)
    result = {"code": code, "stdout": out.getvalue(), "stderr": ""}
    return result, check.load_expected()[workload][index], back[argv[1]]


def test_expected_matches_the_operations():
    expected = check.load_expected()
    assert sorted(expected) == sorted(workloads.WORKLOADS)
    for workload in workloads.WORKLOADS:
        _, ops, _ = workloads.inputs(workload, 0, ROOT)
        assert [e["argv"] for e in expected[workload]] == ops


@pytest.mark.parametrize("seed", [0, 6])
def test_untampered_output_passes(tmp_path, seed):
    for index in (0, 12, 16):  # info, verify, poset on ex1
        res, exp, names = _run(tmp_path, "fixtures", seed, index)
        assert check.check_op(res, exp, seed, names) is None


def _tamper(res, edit):
    payload = json.loads(res["stdout"])
    edit(payload)
    return dict(res, stdout=json.dumps(payload, indent=2) + "\n")


@pytest.mark.parametrize("seed", [0, 6])
def test_tampered_dimension_fails(tmp_path, seed):
    res, exp, names = _run(tmp_path, "fixtures", seed, 0)
    bad = _tamper(res, lambda p: p.update(dim=p["dim"] + 1))
    assert check.check_op(bad, exp, seed, names) is not None


def test_tampered_bytes_fail_on_the_default_seed(tmp_path):
    res, exp, names = _run(tmp_path, "fixtures", 0, 0)
    assert check.check_op(dict(res, stdout=res["stdout"] + " "), exp, 0, names)


def test_false_self_check_fails(tmp_path):
    res, exp, names = _run(tmp_path, "fixtures", 0, 12)
    bad = _tamper(res, lambda p: p.update(all_pass=False))
    assert "all_pass" in check.check_op(bad, exp, 0, names)
    res, exp, names = _run(tmp_path, "fixtures", 0, 1)
    bad = _tamper(res, lambda p: p["oracle"].update(agrees=False))
    assert "oracle.agrees" in check.check_op(bad, exp, 0, names)


def test_nonzero_exit_fails(tmp_path):
    res, exp, names = _run(tmp_path, "fixtures", 0, 0)
    assert check.check_op(dict(res, code=1), exp, 0, names).startswith("exit code")
