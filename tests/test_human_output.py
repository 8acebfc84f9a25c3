"""The human text of the command line, pinned by hash.

`human_expected.json` holds, for each run in `CASES`, the sha256 of the
run's stdout under `--format human` and its exit code.  `bench/expected.json`
pins the JSON output; this file pins the human lines that JSON does not
show, such as how representatives and elements are written.
"""

import contextlib
import hashlib
import io
import json
import os

import pytest

from relext import cli
from relext.fixtures import fixture_path

EXPECTED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "human_expected.json")
CHAIN_K = 4


def _cases() -> dict:
    """Case id -> (source, argv without --format).  A source is a fixture
    name or "chain", the chain family at k = CHAIN_K; argv names its file as
    "{file}"."""
    new = {"B": ("eps",), "Ctilde": ("eps", "eps2")}
    cases = {}
    for src in ("ex1", "ex2"):
        for fld in ("Q", "F7"):
            def add(tag, *argv):
                cases["%s/%s/%s" % (src, fld, tag)] = (src, argv + ("--field", fld))

            for block in ("C", "B", "Ctilde"):
                for verb in ("info", "hh", "ext2", "cup"):
                    add("%s/%s" % (verb, block), verb, "{file}", block)
            for block, arrows in new.items():
                for arrow in arrows:
                    add("hcoh/%s/%s" % (block, arrow),
                        "hcoh", "{file}", block, "--arrows", arrow)
                if len(arrows) > 1:
                    add("hcoh/%s/all" % block,
                        "hcoh", "{file}", block, "--arrows", ",".join(arrows))
            add("poset", "poset", "{file}", "--base", "C", "--tilde", "Ctilde")
            add("verify", "verify", "{file}", "--base", "C", "--tilde", "Ctilde")
            for arrow in new["Ctilde"]:
                add("verify/%s" % arrow, "verify", "{file}",
                    "--base", "C", "--tilde", "Ctilde", "--split", arrow)
    everything = ",".join("e%d" % j for j in range(1, CHAIN_K + 1))
    for fld in ("Q", "F7"):
        for block in ("C", "Ctilde"):
            cases["chain/%s/hh-oracle/%s" % (fld, block)] = (
                "chain", ("hh", "{file}", block, "--oracle", "--field", fld))
        cases["chain/%s/hcoh-oracle/Ctilde/all" % fld] = (
            "chain",
            ("hcoh", "{file}", "Ctilde", "--arrows", everything, "--oracle", "--field", fld),
        )
    return cases


CASES = _cases()


def human_run(main, path, argv):
    """(sha256 of stdout, exit code) of one human-format run of `main`."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([a.replace("{file}", path) for a in argv] + ["--format", "human"])
    return hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest(), code


@pytest.fixture(scope="module")
def paths(tmp_path_factory, chain_text):
    chain = tmp_path_factory.mktemp("human") / "chain.quiv"
    chain.write_text(chain_text(CHAIN_K))
    return {"ex1": fixture_path("ex1.quiv"), "ex2": fixture_path("ex2.quiv"),
            "chain": str(chain)}


@pytest.fixture(scope="module")
def expected():
    with open(EXPECTED, encoding="utf-8") as fh:
        return json.load(fh)


def test_expected_file_covers_exactly_the_cases(expected):
    assert sorted(expected) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_human_output_matches_recorded_hash(case, paths, expected):
    src, argv = CASES[case]
    digest, code = human_run(cli.main, paths[src], argv)
    assert {"sha256": digest, "exit": code} == expected[case]
