"""Q scalars are ints when integral: every verb on relations with
non-integral coefficients, pinned by hash, and the types of the scalars.

`data/halfsquare.quiv` holds two commutative squares and their relation
extensions: C relates a.c to 1/2*b.d and D has the coefficient -3, so the
reduced rule of D is a.c -> 1/3*b.d and Q arithmetic meets scalars that are
not integers.  `data/halfsquare_expected.json` holds, for each run in `CASES`,
the sha256 of its stdout and its exit code, over Q and F7, in both output
formats.  To rewrite it, run
`PYTHONPATH=src python tests/test_rational_coefficients.py`.
"""
import contextlib
import hashlib
import io
import json
import os
from fractions import Fraction

import pytest

from relext import bimod, cli, hochschild, qdsl
from relext.algebra import build
from relext.exactla import QQ
from build_reference import rules_of

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
PATH = os.path.join(DATA, "halfsquare.quiv")
EXPECTED = os.path.join(DATA, "halfsquare_expected.json")
FAMILIES = {"C": "Ctilde", "D": "Dtilde"}


def _cases() -> dict:
    """Case id -> argv, with the presentation file as "{file}"."""
    cases = {}
    for fld in ("Q", "F7"):
        for fmt in ("json", "human"):
            def add(tag, *argv):
                cases["%s/%s/%s" % (fld, fmt, tag)] = argv + ("--field", fld, "--format", fmt)

            for base, tilde in FAMILIES.items():
                for block in (base, tilde):
                    for verb in ("info", "hh", "ext2", "cup"):
                        add("%s/%s" % (verb, block), verb, "{file}", block)
                    add("hh-oracle/%s" % block, "hh", "{file}", block, "--oracle")
                add("hcoh-oracle/%s/e" % tilde,
                    "hcoh", "{file}", tilde, "--arrows", "e", "--oracle")
                family = ("{file}", "--base", base, "--tilde", tilde)
                add("verify/%s" % tilde, "verify", *family)
                add("verify/%s/e" % tilde, "verify", *family, "--split", "e")
                add("poset/%s" % tilde, "poset", *family)
    return cases


CASES = _cases()


def run(argv) -> dict:
    """The sha256 of the stdout of one in-process run, and its exit code."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([a.replace("{file}", PATH) for a in argv])
    return {"sha256": hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest(), "exit": code}


@pytest.fixture(scope="module")
def halfsquare():
    """Every block of the file, built over Q."""
    with open(PATH, encoding="utf-8") as fh:
        return {b.name: build(b) for b in qdsl.parse(fh.read()).blocks}


def test_input_reduces_by_integral_and_non_integral_rules(halfsquare):
    """C's relation reduces to an integral rule, D's to a 1/3 one."""
    rules = {name: rules_of(alg)[2][(1, 3)] for name, alg in halfsquare.items()}
    assert rules == {"C": {(0, 2): 2}, "Ctilde": {(0, 2): 2},
                     "D": {(0, 2): Fraction(1, 3)}, "Dtilde": {(0, 2): Fraction(1, 3)}}
    assert [type(r[(0, 2)]) for r in rules.values()] == [int, int, Fraction, Fraction]


def test_representatives_hold_ints_when_integral(algebras, halfsquare):
    """Over Q, every scalar of an H1 representative of ex1, ex2 and the
    blocks here is an int or a non-integral Fraction."""
    for alg in [algebras[key] for key in sorted(algebras)] + list(halfsquare.values()):
        assert alg.field is QQ
        for rep in hochschild.h1(alg, bimod.regular_bimodule(alg)).representatives():
            for x in rep.values():
                assert type(x) is int or (
                    type(x) is Fraction and x.denominator != 1
                ), (alg.block.name, rep)


@pytest.fixture(scope="module")
def expected():
    with open(EXPECTED, encoding="utf-8") as fh:
        return json.load(fh)


def test_expected_file_covers_exactly_the_cases(expected):
    assert sorted(expected) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_matches_recorded_hash(case, expected):
    assert run(CASES[case]) == expected[case]


if __name__ == "__main__":
    with open(EXPECTED, "w", encoding="utf-8") as fh:
        json.dump({case: run(argv) for case, argv in sorted(CASES.items())}, fh, indent=1, sort_keys=True)
        fh.write("\n")
