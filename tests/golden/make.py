"""The byte-identity corpus of the command line, in two tiers.

    python tests/golden/make.py        # rewrite both manifests from this tree

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

The large tier, large.jsonl, is every command of `LARGE` on the chain and
squares families at the sizes of `large_inputs()`, each run as a
`python -m relext.cli` child (`run_child`).  Its lines have the four keys
above, then the command's timeout in seconds, and where LARGE gives them
a peak-RSS bound in MB and the values that fields of its JSON must hold.
large.py replays it; `check` compares.  Recording refuses to write a large
entry whose own run breaks its timeout, bound or fields.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import signal
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
TESTS = os.path.dirname(HERE)
ROOT = os.path.dirname(TESTS)
SRC = os.path.join(ROOT, "src")
MANIFEST = os.path.join(HERE, "manifest.jsonl")
LARGE_MANIFEST = os.path.join(HERE, "large.jsonl")
for _path in (SRC, TESTS):
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


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


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
        "stdout": sha256(out.getvalue().encode("utf-8")),
        "stderr": sha256(err.getvalue().encode("utf-8")),
    }


def read_manifest(path: str = MANIFEST) -> list:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


# -- the large tier ------------------------------------------------------------

CHAIN_SIZES = (5, 7, 8, 10, 11, 24, 32, 64, 128, 256, 512, 1024)
SQUARES_SIZES = (3, 4, 8, 10)
ORACLE = {"oracle.agrees": True}

# (command line, timeout in seconds, peak-RSS bound in MB or None, fields),
# with {P} the pair C < Ctilde and {E64}, {E8} every new arrow of chain k=64
# and of squares k=8.  Sizes: chain k has dim C / Ctilde = 5k / 6k and 2^k
# partial extensions; squares k has 3k + 1 vertices and commutativity
# relations, so its build meets Groebner overlaps.
LARGE = [
    # poset over 32 .. 2,048 partial extensions (chain k=10: 5,120 Hasse
    # edges, 58,025 comparable pairs).  k=11 holds two rank layers at a time;
    # with every node alive it peaked at 314 MB on a 2-vCPU x86_64 host.
    ("poset chain5.quiv {P} --format json", 120, None,
     {"monotone": True, "surjective": True, "triangles_commute": True}),
    ("poset chain7.quiv {P} --format json", 60, None, {}),
    ("poset chain7.quiv {P} --field F7 --format json", 60, None, {}),
    ("poset chain8.quiv {P} --format json", 60, None, {}),
    ("poset chain8.quiv {P} --field F7 --format json", 60, None, {}),
    ("poset chain10.quiv {P} --format json", 60, None, {}),
    ("poset chain11.quiv {P} --format json", 120, 200, {}),
    ("poset squares3.quiv {P} --field Q --format json", 60, None, {}),
    ("poset squares3.quiv {P} --field F7 --format json", 60, None, {}),
    ("poset squares4.quiv {P} --field Q --format json", 60, None, {}),
    ("poset squares4.quiv {P} --field F7 --format json", 60, None, {}),
    # the bar oracle and cup: at chain k=64 the full bar complex has 147,456
    # degree 1 cochains, 255 relative ones
    ("hh chain32.quiv Ctilde --oracle --field F32003 --format json", 60, None, ORACLE),
    ("cup chain32.quiv Ctilde --field F32003 --format json", 60, None, {"all_pass": True}),
    ("hh chain64.quiv Ctilde --oracle --format json", 60, None, ORACLE),
    ("hcoh chain64.quiv Ctilde --arrows {E64} --oracle --format json", 60, None, ORACLE),
    ("cup chain64.quiv Ctilde --format json", 60, None, {"all_pass": True}),
    ("ext2 chain24.quiv C --format json", 60, None, {"ext2_dimension": 24}),
    ("ext2 chain24.quiv Ctilde --format json", 60, None, {"ext2_dimension": 22}),
    ("info chain24.quiv C --format json", 60, None, {"gldim_le_2": True, "center_dim": 1}),
    ("verify chain64.quiv {P} --format json", 120, None, {"all_pass": True}),
    ("hh chain64.quiv Ctilde --format json", 60, None, {}),
    ("hcoh chain64.quiv Ctilde --arrows {E64} --format json", 60, None, {}),
    # squares k=8: dim Ext^2(DC, C) = 8 = dim Ctilde - dim C (325 - 317); the
    # hcoh coefficients are an ideal of a non-monomial algebra
    ("verify squares8.quiv {P} --format json", 60, None,
     {"all_pass": True, "hh1_C": 0, "hh1_Ctilde": 8}),
    ("hh squares8.quiv Ctilde --oracle --format json", 60, None,
     {"oracle.agrees": True, "oracle.bar_dims": {"0": 1, "1": 8}}),
    ("hcoh squares8.quiv Ctilde --arrows {E8} --oracle --format json", 60, None,
     {"oracle.agrees": True, "oracle.bar_dims": {"0": 0, "1": 8}}),
    ("hcoh squares8.quiv Ctilde --arrows {E8} --oracle --field F7 --format json", 60, None,
     {"oracle.agrees": True, "oracle.bar_dims": {"0": 0, "1": 8}}),
    ("ext2 squares8.quiv C --field Q --format json", 60, None, {"ext2_dimension": 8}),
    ("ext2 squares8.quiv Ctilde --field Q --format json", 60, None, {"ext2_dimension": 6}),
    ("ext2 squares8.quiv C --field F7 --format json", 60, None, {"ext2_dimension": 8}),
    ("ext2 squares8.quiv Ctilde --field F7 --format json", 60, None, {"ext2_dimension": 6}),
    ("verify squares10.quiv {P} --format json", 60, None, {}),
    # a partial split over a non-monomial acting algebra, and prime-field lifts
    ("verify squares8.quiv {P} --split e1,e3,e5,e7 --format json", 60, None, {}),
    ("verify squares8.quiv {P} --split e1,e3,e5,e7 --field F7 --format json", 60, None, {}),
    ("verify chain64.quiv {P} --field F7 --format json", 60, None, {}),
    # minimal covers and resolutions at sizes beyond the fixtures; info at
    # chain k=512 took 16.9 s on a 2-vCPU x86_64 host while every module
    # held all 1,025 vertices
    ("info chain64.quiv C --format json", 60, None, {}),
    ("info chain64.quiv C --field F7 --format json", 60, None, {}),
    ("ext2 chain64.quiv Ctilde --format json", 60, None, {}),
    ("info squares8.quiv C --format json", 60, None, {}),
    ("info squares8.quiv C --field F7 --format json", 60, None, {}),
    ("ext2 squares8.quiv C --format json", 60, None, {}),
    ("info chain256.quiv C --format json", 10, None, {}),
    ("info chain512.quiv C --format json", 10, None, {}),
    # lifts along each derivation's own support; at chain k=1024 H1's class
    # basis is one sparse RREF, and writing each inner row out densely
    # peaked at 141 MB on a 2-vCPU x86_64 host
    ("verify chain128.quiv {P} --format json", 120, None, {}),
    ("verify chain256.quiv {P} --format json", 120, None, {}),
    ("verify chain1024.quiv {P} --format json", 60, 80, {}),
    ("ext2 chain256.quiv C --format json", 60, None, {}),
    ("ext2 chain256.quiv Ctilde --format json", 60, None, {}),
    ("info squares10.quiv C --field Q --format json", 60, None, {}),
    ("info squares10.quiv C --field F7 --format json", 60, None, {}),
    ("info squares10.quiv Ctilde --field Q --format json", 60, None, {}),
    ("info squares10.quiv Ctilde --field F7 --format json", 60, None, {}),
]


def large_inputs() -> dict:
    """File name -> presentation text of the large tier's inputs."""
    out = {"chain%d.quiv" % k: bench_chain.render(bench_chain.chain(k)) for k in CHAIN_SIZES}
    out.update(("squares%d.quiv" % k, squares(k)) for k in SQUARES_SIZES)
    return out


def large_commands() -> list:
    """Each large-tier command as its manifest line without the recorded
    exit code and hashes: argv, timeout, and max_rss_mb and fields where set."""
    names = {
        "P": "--base C --tilde Ctilde",
        "E64": ",".join("e%d" % j for j in range(1, 65)),
        "E8": ",".join("e%d" % j for j in range(1, 9)),
    }
    out = []
    for line, timeout, rss, fields in LARGE:
        spec = {"argv": line.format(**names).split(), "timeout": timeout}
        if rss is not None:
            spec["max_rss_mb"] = rss
        if fields:
            spec["fields"] = fields
        out.append(spec)
    return out


def run_child(argv: list, timeout: float, directory: str) -> dict:
    """Run `python -m relext.cli ARGV` in directory, killed after timeout
    seconds; its exit code (None if killed), stdout and stderr bytes, wall
    seconds and peak RSS in MB, which os.wait4 reports for the child.  The
    forked child starts with this process's resident pages, so the peak is
    at least this process's size at the fork: an RSS bound means what it
    says only from a small process such as large.py."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        start = time.monotonic()
        pid = os.fork()
        if pid == 0:
            try:
                os.chdir(directory)
                os.dup2(out.fileno(), 1)
                os.dup2(err.fileno(), 2)
                os.execve(sys.executable, [sys.executable, "-m", "relext.cli"] + argv, env)
            finally:
                os._exit(127)
        done = 0
        try:
            while time.monotonic() - start <= timeout:
                done, status, usage = os.wait4(pid, os.WNOHANG)
                if done:
                    break
                time.sleep(0.005)
        finally:
            if not done:
                os.kill(pid, signal.SIGKILL)
                _, status, usage = os.wait4(pid, 0)
        seconds = time.monotonic() - start
        out.seek(0)
        err.seek(0)
        return {"exit": os.waitstatus_to_exitcode(status) if done else None,
                "stdout": out.read(), "stderr": err.read(),
                "seconds": seconds, "rss_mb": usage.ru_maxrss / 1024}


def _field(doc, path: str):
    for key in path.split("."):
        doc = doc.get(key) if isinstance(doc, dict) else None
    return doc


def check(entry: dict, result: dict) -> list:
    """What a run_child result breaks of a large-tier entry, one message
    per failure; empty when it holds."""
    if result["exit"] is None:
        return ["killed after its timeout of %s s" % entry["timeout"]]
    bad = []
    if result["exit"] != entry["exit"]:
        bad.append("exit %s, recorded %s" % (result["exit"], entry["exit"]))
    for stream in ("stdout", "stderr"):
        if sha256(result[stream]) != entry[stream]:
            bad.append("%s sha256 %s, recorded %s" % (stream, sha256(result[stream]), entry[stream]))
    if "max_rss_mb" in entry and result["rss_mb"] > entry["max_rss_mb"]:
        bad.append("peak RSS %.1f MB, over its bound of %s MB" % (result["rss_mb"], entry["max_rss_mb"]))
    if entry.get("fields"):
        try:
            doc = json.loads(result["stdout"])
        except ValueError:
            return bad + ["stdout is not JSON"]
        for path, want in entry["fields"].items():
            got = _field(doc, path)
            if json.dumps(got, sort_keys=True) != json.dumps(want, sort_keys=True):
                bad.append("%s is %s, expected %s" % (path, json.dumps(got), json.dumps(want)))
    return bad


def record_large(directory: str) -> list:
    """The large manifest's entries, each from one run_child of its command
    in directory; raises SystemExit if a run breaks its timeout, RSS bound
    or fields."""
    entries = []
    for spec in large_commands():
        result = run_child(spec["argv"], spec["timeout"], directory)
        entry = {
            "argv": spec["argv"],
            "exit": result["exit"],
            "stdout": sha256(result["stdout"]),
            "stderr": sha256(result["stderr"]),
        }
        entry.update((k, v) for k, v in spec.items() if k != "argv")
        bad = check(entry, result)
        if bad:
            raise SystemExit("%s: %s" % (" ".join(spec["argv"]), "; ".join(bad)))
        entries.append(entry)
    return entries


def write_manifest(path: str, entries: list):
    with open(path, "w", encoding="utf-8") as fh:
        for e in entries:
            fh.write(json.dumps(e) + "\n")
    print("%d commands written to %s" % (len(entries), path))


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
    write_manifest(MANIFEST, entries)
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(tmp, large_inputs())
        write_manifest(LARGE_MANIFEST, record_large(tmp))


if __name__ == "__main__":
    main()
