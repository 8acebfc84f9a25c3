"""algebra.build, which grows and reduces on tuples of arrow indices, against
the Path-based build it replaced (build_reference.path_build): the same
basis, rules, vanishing length, products, index maps and normal forms on the
fixtures and the generated families over Q and F7, the same outcome on
random presentations with mixed-length relations, and one Path made per
basis element."""

import os
import re

import pytest
from hypothesis import given, settings

import build_reference
from families import squares
from relext import algebra, qdsl
from relext.algebra import AlgebraBuildError, NotFiniteDimensionalError, build
from relext.exactla import QQ, PrimeField
from relext.fixtures import fixture_text
from relext.quiver import Path
from test_groebner import INHOMOGENEOUS, OVERLAP, SQUARE, presentations

FIELDS = (QQ, PrimeField(7))
HALFSQUARE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "halfsquare.quiv")


def tables(alg):
    """Everything a build fixes, with paths as (vertex, arrows)."""
    return (
        [(p.vertex, p.arrows) for p in alg.basis],
        alg.dim,
        alg.zero_length,
        alg.products,
        [list(row) for row in alg.products],
        alg._rules,
        alg.idem_index,
        alg.arrow_index_in_basis,
        {(p.vertex, p.arrows): i for p, i in alg.basis_index.items()},
    )


def blocks(chain_text):
    with open(HALFSQUARE, encoding="utf-8") as fh:
        texts = [fixture_text("ex1.quiv"), fixture_text("ex2.quiv"), fh.read()]
    texts += [chain_text(k) for k in range(1, 9)]
    texts += [squares(k) for k in range(1, 7)]
    texts += [INHOMOGENEOUS, SQUARE, OVERLAP]
    return [blk for text in texts for blk in qdsl.parse(text).blocks]


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_build_matches_path_reference(chain_text, field):
    """Equal tables, and the same normal form of every alive path, the ones
    outside the basis reduced on demand."""
    for blk in blocks(chain_text):
        got = build(blk, field=field)
        ref = build_reference.path_build(blk, field=field)
        assert tables(got) == tables(ref), (blk.name, field.name)
        for paths in build_reference.alive_paths(ref).values():
            for p in paths:
                mine = Path(got.quiver, p.vertex, p.arrows)
                assert build_reference.nf_coords(got, mine) == ref.nf_coords(p), (blk.name, p.label())


def outcome(builder, blk, field):
    """The tables of the build, or the type and message of what it raised."""
    try:
        return tables(builder(blk, field=field, max_len_cap=6))
    except (NotFiniteDimensionalError, AlgebraBuildError) as exc:
        return type(exc), str(exc)


@settings(max_examples=150, deadline=None)
@given(presentations(mixed=True))
def test_random_presentations_match_path_reference(blk):
    for field in FIELDS:
        assert outcome(build, blk, field) == outcome(build_reference.path_build, blk, field)


def test_errors_match_path_reference():
    cases = [
        ("algebra A\nvertices 1\narrow a 1 1\nend\n", {}),
        ("algebra A\nvertices 1 2\narrow a 1 2\nend\n", {"max_len_cap": 1}),
        (INHOMOGENEOUS, {"max_len_cap": 2}),
    ]
    for text, kwargs in cases:
        blk = qdsl.parse(text).blocks[0]
        with pytest.raises(ValueError) as want:
            build_reference.path_build(blk, **kwargs)
        with pytest.raises(type(want.value), match="^%s$" % re.escape(str(want.value))):
            build(blk, **kwargs)


def test_build_makes_one_path_per_basis_element(monkeypatch, chain_text):
    """No Path for an alive path outside the basis or for a product."""
    made = []

    def path(*args):
        made.append(args)
        return Path(*args)

    path.stationary = lambda q, v: path(q, v, ())
    monkeypatch.setattr(algebra, "Path", path)
    for text in (chain_text(8), squares(4)):
        blk = qdsl.parse(text).block("Ctilde")
        del made[:]
        alg = build(blk, field=PrimeField(32003))
        assert len(made) == alg.dim
        assert sum(map(len, alg.products)) > alg.dim
    # on the squares both a.c and b.d stay alive, one of them off the basis
    ref = build_reference.path_build(blk, field=PrimeField(32003))
    assert sum(map(len, build_reference.alive_paths(ref).values())) > alg.dim
