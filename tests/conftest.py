"""Shared fixtures: parsed presentation files, built algebras, the standard
coefficient bimodules of each extension family, and cached verifier reports.

Everything heavy is session-scoped so the suite builds each object once.
"""

import os
import sys
from itertools import combinations

import pytest

from relext import extensions, qdsl
from relext.algebra import build
from relext.exactla import PrimeField
from relext.fixtures import fixture_text

# bench/chain.py generates the chain family; it is only read from here
BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
if BENCH not in sys.path:
    sys.path.insert(0, BENCH)
import chain as bench_chain  # noqa: E402

FIXTURES = ("ex1", "ex2")


@pytest.fixture(scope="session")
def chain_text():
    """The chain family generator of bench/chain.py, k -> presentation text."""
    return lambda k: bench_chain.render(bench_chain.chain(k))


@pytest.fixture(scope="session")
def files():
    return {n: qdsl.parse(fixture_text(n + ".quiv")) for n in FIXTURES}


@pytest.fixture(scope="session")
def families(files):
    """Per fixture: the tower C -> B_S -> Ctilde, gated once; every verifier
    report, poset and presentation below takes its algebras from it."""
    return {
        n: extensions.Family(files[n].block("C"), files[n].block("Ctilde"))
        for n in FIXTURES
    }


@pytest.fixture(scope="session")
def algebras(files, families):
    """Every declared block; C and Ctilde are the family's own objects."""
    out = {}
    for n, pf in files.items():
        shared = {"C": families[n].base, "Ctilde": families[n].full}
        for b in pf.blocks:
            out[(n, b.name)] = shared[b.name] if b.name in shared else build(b)
    return out


def _presentations(families, files):
    """Per fixture: the three split presentations of the family
    C -> B -> Ctilde, with B the partial extension named by the B block."""
    out = {}
    for n, fam in families.items():
        sub = tuple(files[n].block("B").new_arrows)
        out[n] = {
            "CB": fam.split((), sub),
            "BCt": fam.split(sub, fam.new_arrows),
            "CCt": fam.split((), fam.new_arrows),
        }
    return out


def _corpus_pairs(presentations):
    """Every (algebra, coefficient bimodule) pair the dual-method oracle and
    complex identities must cover, with readable tags."""
    pairs = []
    for n in FIXTURES:
        sp = presentations[n]
        c = sp["CB"].base
        b = sp["CB"].total
        ct = sp["CCt"].total
        pairs += [
            (n + ":C,C", c, extensions.regular_bimodule_of(c)),
            (n + ":B,B", b, extensions.regular_bimodule_of(b)),
            (n + ":Ct,Ct", ct, extensions.regular_bimodule_of(ct)),
            (n + ":B,E'", b, sp["CB"].ext),
            (n + ":C,E'", c, sp["CB"].ext_over_base),
            (n + ":Ct,E''", ct, sp["BCt"].ext),
            (n + ":B,E''", b, sp["BCt"].ext_over_base),
            (n + ":Ct,E", ct, sp["CCt"].ext),
        ]
    return pairs


@pytest.fixture(scope="session")
def presentations(families, files):
    return _presentations(families, files)


@pytest.fixture(scope="session")
def corpus_pairs(presentations):
    return _corpus_pairs(presentations)


@pytest.fixture(scope="session")
def corpus_pairs_by_field(files, corpus_pairs):
    """corpus_pairs over Q and over F7, by field name."""
    families = {
        n: extensions.Family(
            files[n].block("C"), files[n].block("Ctilde"), field=PrimeField(7)
        )
        for n in FIXTURES
    }
    return {"Q": corpus_pairs, "F7": _corpus_pairs(_presentations(families, files))}


@pytest.fixture(scope="session")
def reports(families):
    """TheoremReport for every subset of the new arrows, both fixtures."""
    out = {}
    for n, fam in families.items():
        for r in range(len(fam.new_arrows) + 1):
            for combo in combinations(fam.new_arrows, r):
                out[(n, combo)] = fam.verify(combo)
    return out


@pytest.fixture(scope="session")
def posets(families):
    return {n: fam.poset() for n, fam in families.items()}
