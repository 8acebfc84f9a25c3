"""The seeded chain family and the relabelling behind every workload."""

import io
import json
from contextlib import redirect_stdout

import pytest

import chain
import workloads
from relext import cli, extensions, qdsl
from relext.algebra import build

from conftest import ROOT


def _blocks(k, seed):
    pf = qdsl.parse(chain.render(chain.relabel(chain.chain(k), seed)[0]))
    return pf.block("C"), pf.block("Ctilde")


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_dimensions(k, seed):
    c, ct = _blocks(k, seed)
    assert build(c).dim == 5 * k
    assert build(ct).dim == 6 * k


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("k", [2, 3])
def test_verify_all_pass(k, seed):
    c, ct = _blocks(k, seed)
    new = ct.new_arrows
    for subset in (new, new[::2]):
        assert extensions.verify_theorem(c, ct, subset).all_pass


def _json(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(argv + ["--format", "json"]) == 0
    return json.loads(out.getvalue())


def test_prime_field_agrees_with_rationals(tmp_path):
    path = tmp_path / "chain.quiv"
    path.write_text(chain.render(chain.relabel(chain.chain(3), 4)[0]))
    for verb in (["info"], ["hh", "--oracle"]):
        q = _json([verb[0], str(path), "Ctilde"] + verb[1:])
        fp = _json([verb[0], str(path), "Ctilde", "--field", workloads.FIELD_FP] + verb[1:])
        q.pop("field")
        fp.pop("field")
        for payload in (q, fp):
            for entry in payload.get("degrees", {}).values():
                entry.pop("representatives")
        assert q == fp


def test_seed_zero_is_canonical():
    blocks = chain.chain(2)
    assert chain.relabel(blocks, 0)[0] is blocks


def test_relabel_is_deterministic_and_renames_everything():
    a, back = chain.relabel(chain.chain(3), 11)
    b, _ = chain.relabel(chain.chain(3), 11)
    assert a == b
    assert not set(back) & set(back.values())
    assert sorted(back.values()) == sorted(
        {v for blk in chain.chain(3) for v in blk["vertices"]}
        | {x[0] for blk in chain.chain(3) for x in blk["arrows"]}
    )


def test_shared_arrows_keep_one_order():
    blocks, _ = chain.relabel(chain.chain(4), 5)
    base = [a[0] for a in blocks[0]["arrows"]]
    full = [a[0] for a in blocks[1]["arrows"] if a[0] in base]
    assert base == full


def test_relabelled_fixture_verifies(tmp_path):
    files, ops, _ = workloads.inputs("fixtures", 9, ROOT)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    for argv in ops:
        if argv[0] == "verify":
            argv = [argv[0], str(tmp_path / argv[1])] + argv[2:]
            assert _json(argv)["all_pass"]
