"""Shared fixtures: parsed presentation files, built algebras, the standard
coefficient bimodules of each extension family, and cached verifier reports.

Everything heavy is session-scoped so the suite builds each object once.
"""

from itertools import combinations

import pytest

from relext import extensions, qdsl
from relext.algebra import build
from relext.fixtures import fixture_text

FIXTURES = ("ex1", "ex2")


def _chain_text(k: int) -> str:
    """The type-A chain 1 -> ... -> 2k+1 with zero relations a(2j+1).a(2j+2),
    and its relation extension by arrows e(j+1): 2j+3 -> 2j+1."""
    verts = "vertices " + " ".join(str(i) for i in range(1, 2 * k + 2))
    arrows = ["arrow a%d %d %d" % (i, i, i + 1) for i in range(1, 2 * k + 1)]
    rels = ["rel a%d.a%d" % (2 * j + 1, 2 * j + 2) for j in range(k)]
    news = ["arrow e%d %d %d" % (j + 1, 2 * j + 3, 2 * j + 1) for j in range(k)]
    ext = []
    for j in range(k):
        ext += ["rel a%d.e%d" % (2 * j + 2, j + 1), "rel e%d.a%d" % (j + 1, 2 * j + 1)]
        if j:
            ext.append("rel e%d.e%d" % (j + 1, j))
    new = "new " + " ".join("e%d" % (j + 1) for j in range(k))
    base = ["algebra C", verts] + arrows + rels + ["end"]
    full = ["algebra Ctilde", "extension_of C", verts] + arrows + news + [new]
    return "\n".join(base + full + rels + ext + ["end", ""])


@pytest.fixture(scope="session")
def chain_text():
    """The chain family generator, k -> presentation text."""
    return _chain_text


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


@pytest.fixture(scope="session")
def presentations(families, files):
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


@pytest.fixture(scope="session")
def corpus_pairs(presentations):
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
