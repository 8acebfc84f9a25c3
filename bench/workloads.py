"""The benchmark's workloads: seeded input files and the fixed list of
command lines run against them.

Why each workload is here (README.md has the metric table):

- verify-chain: `verify` on the chain family at k=6 over Q, once with all
  new arrows and once split on every other new arrow.  Large dense linear
  systems: exactla RREF, curly_E and lift_derivation dominate.
- poset-chain: `poset` at k=4 over Q (16 nodes, 65 projections).  Repeated
  algebra builds, bimodule construction and split presentations dominate;
  RREF is a negligible share, so RREF changes should not move it.
- oracle-chain-fp: `hh --oracle`, `hcoh --oracle` on all new arrows and
  `cup` on Ctilde at k=8 over F<32003>.  The bar complex's sparse degree 2
  echelon in hochschild dominates, with prime-field arithmetic, so a
  change that only speeds up rational arithmetic should leave it alone.
- fixtures: every verb on every block of the shipped ex1/ex2 files.  Many
  small operations, so fixed per-call cost (argument parsing, parsing the
  file, building small algebras, repmod) dominates.

Operations are written against canonical names and translated through
the seeded relabelling, so every seed runs the same mathematics.
"""

from __future__ import annotations

import os
from itertools import combinations

import chain

WORKLOADS = ("verify-chain", "poset-chain", "oracle-chain-fp", "fixtures")
FIELD_FP = "F32003"
FAMILY = ["--base", "C", "--tilde", "Ctilde"]


def _canonical(name, root):
    """(files, ops): file name -> blocks, and canonical argument vectors."""
    if name == "verify-chain":
        new = chain.chain(6)[1]["new"]
        return {"chain6.quiv": chain.chain(6)}, [
            ["verify", "chain6.quiv"] + FAMILY,
            ["verify", "chain6.quiv"] + FAMILY + ["--split", ",".join(new[::2])],
        ]
    if name == "poset-chain":
        return {"chain4.quiv": chain.chain(4)}, [["poset", "chain4.quiv"] + FAMILY]
    if name == "oracle-chain-fp":
        new = ",".join(chain.chain(8)[1]["new"])
        fp = ["--field", FIELD_FP]
        return {"chain8.quiv": chain.chain(8)}, [
            ["hh", "chain8.quiv", "Ctilde", "--oracle"] + fp,
            ["hcoh", "chain8.quiv", "Ctilde", "--arrows", new, "--oracle"] + fp,
            ["cup", "chain8.quiv", "Ctilde"] + fp,
        ]
    if name != "fixtures":
        raise ValueError("unknown workload %r (choose from %s)" % (name, ", ".join(WORKLOADS)))
    files, ops = {}, []
    for path in ("ex1.quiv", "ex2.quiv"):
        with open(os.path.join(root, "src", "relext", "fixtures", path), encoding="utf-8") as fh:
            blocks = files[path] = chain.parse(fh.read())
        for b in blocks:
            for verb in (["info"], ["hh", "--oracle"], ["ext2"], ["cup"]):
                ops.append([verb[0], path, b["name"]] + verb[1:])
        new = next(b for b in blocks if b["name"] == "Ctilde")["new"]
        for r in range(len(new) + 1):
            for subset in combinations(new, r):
                ops.append(["verify", path] + FAMILY + ["--split", ",".join(subset)])
        ops.append(["poset", path] + FAMILY)
    return files, ops


def inputs(name, seed, root):
    """(files, ops, back) for a workload under a seed.

    files maps a file name to its text, ops lists argument vectors naming
    those files (relative to the work directory), and back maps each
    file name to the map from its relabelled names to canonical ones.
    """
    canon, canon_ops = _canonical(name, root)
    files, back, forward = {}, {}, {}
    for path, blocks in canon.items():
        blocks, names = chain.relabel(blocks, seed)
        files[path] = chain.render(blocks)
        back[path] = names
        forward[path] = {c: n for n, c in names.items()}
    ops = []
    for argv in canon_ops:
        fwd = forward[argv[1]]
        ops.append([
            ",".join(fwd.get(a, a) for a in arg.split(",")) if prev in ("--split", "--arrows")
            else arg
            for prev, arg in zip([None] + argv[:-1], argv)
        ])
    return files, ops, back
