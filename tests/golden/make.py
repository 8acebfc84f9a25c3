"""The byte-identity corpus of the command line.

    python tests/golden/make.py        # rewrite manifest.jsonl from this tree

Every command of `commands()` runs in-process through relext.cli.main, in a
directory that holds the inputs of `inputs()` under their own names, so
that no path outside it reaches an output.  manifest.jsonl gets one JSON
line per command, in order: its argv, its exit code, and the sha256 of its
stdout and of its stderr.  test_golden.py replays the manifest against the
tree it runs in; a changed byte or exit code fails it.

The inputs are the paper's two fixtures, the files of tests/data, the chain
family at k <= 4 (bench/chain.py, only read) and the squares family at
k <= 3 (tests/families.py).  Every block gets `info`, `ext2`, `hh`,
`hh --oracle` and `cup`, every block with new arrows `hcoh` on them, and
every pair (X, Xtilde) `verify` on the default, empty, first and last
single split and `poset`; each over the declared field and over F7, in
human and JSON form.  A few error inputs close the list.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
TESTS = os.path.dirname(HERE)
ROOT = os.path.dirname(TESTS)
MANIFEST = os.path.join(HERE, "manifest.jsonl")
for _path in (os.path.join(ROOT, "src"), TESTS):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from families import bench_chain, squares  # noqa: E402
from relext import cli, qdsl  # noqa: E402
from relext.fixtures import fixture_text  # noqa: E402

VARIANTS = ([], ["--field", "F7"], ["--format", "json"], ["--field", "F7", "--format", "json"])
# an input that fails to parse: an arrow to an undeclared vertex
BROKEN = "algebra C\nvertices 1 2\narrow a 1 3\nend\n"


def inputs() -> dict:
    """File name -> presentation text, in a fixed order."""
    out = {"ex1.quiv": fixture_text("ex1.quiv"), "ex2.quiv": fixture_text("ex2.quiv")}
    for name in ("halfsquare.quiv", "linked.quiv"):
        with open(os.path.join(TESTS, "data", name), encoding="utf-8") as fh:
            out[name] = fh.read()
    for k in range(1, 5):
        out["chain%d.quiv" % k] = bench_chain.render(bench_chain.chain(k))
    for k in range(1, 4):
        out["squares%d.quiv" % k] = squares(k)
    return out


def commands(texts: dict) -> list:
    """Every argv of the corpus, in manifest order."""
    out = []
    for name, text in texts.items():
        blocks = qdsl.parse(text).blocks
        names = {b.name for b in blocks}
        for variant in VARIANTS:
            for b in blocks:
                for verb in (["info"], ["ext2"], ["hh"], ["hh", "--oracle"], ["cup"]):
                    out.append([verb[0], name, b.name] + verb[1:] + variant)
                if b.new_arrows:
                    arrows = ",".join(b.new_arrows)
                    out.append(["hcoh", name, b.name, "--arrows", arrows] + variant)
            for b in blocks:
                base = b.name[: -len("tilde")]
                if not b.name.endswith("tilde") or base not in names:
                    continue
                pair = [name, "--base", base, "--tilde", b.name]
                splits = [[], ["--split", ""]]
                splits += [["--split", n] for n in dict.fromkeys(b.new_arrows[:1] + b.new_arrows[-1:])]
                for split in splits:
                    out.append(["verify"] + pair + split + variant)
                out.append(["poset"] + pair + variant)
    out += [
        ["info", "ex1.quiv", "Nope"],
        ["info", "missing.quiv", "C"],
        ["hcoh", "ex1.quiv", "Ctilde", "--arrows", "zz"],
        ["verify", "ex1.quiv", "--base", "C", "--tilde", "Ctilde", "--split", "zz"],
        ["info", "ex1.quiv", "C", "--field", "R"],
        ["info", "ex1.quiv", "C", "--field", "F4"],
        ["hh", "ex2.quiv", "C", "--field", "F0", "--format", "json"],
        ["info", "broken.quiv", "C"],
        ["poset", "broken.quiv", "--base", "C", "--tilde", "Ctilde", "--format", "json"],
    ]
    return out


def write_inputs(directory: str, texts: dict):
    for name, text in dict(texts, **{"broken.quiv": BROKEN}).items():
        with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
            fh.write(text)


def run(argv: list) -> dict:
    """The manifest entry of one command, run in the current directory."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return {
        "argv": argv,
        "exit": code,
        "stdout": hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest(),
        "stderr": hashlib.sha256(err.getvalue().encode("utf-8")).hexdigest(),
    }


def read_manifest() -> list:
    with open(MANIFEST, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def main():
    texts = inputs()
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(tmp, texts)
        os.chdir(tmp)
        try:
            entries = [run(argv) for argv in commands(texts)]
        finally:
            os.chdir(here)
    with open(MANIFEST, "w", encoding="utf-8") as fh:
        for e in entries:
            fh.write(json.dumps(e) + "\n")
    print("%d commands written to %s" % (len(entries), MANIFEST))


if __name__ == "__main__":
    main()
