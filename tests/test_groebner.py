"""The Groebner build against the enumeration builder it replaced, the
completion step on an input where Buchberger adds an element, a property
over small random admissible presentations, and the build certificate on
the arrows against the all-pairs one it replaced."""

import pytest
from hypothesis import given, settings, strategies as st

import build_reference
from families import squares
from relext import qdsl
from relext.algebra import (
    AlgebraBuildError,
    NotFiniteDimensionalError,
    _verify_build,
    build,
)
from relext.exactla import QQ, PrimeField
from relext.fixtures import fixture_text
from relext.quiver import Path, Quiver
from build_reference import enumerate_paths, from_arrow_names, nf_coords

FIELDS = (QQ, PrimeField(7))

# the mixed-length relation of test_algebra: a.b.c rewrites to -d.c
INHOMOGENEOUS = (
    "algebra A\nvertices 1 2 3 4\n"
    "arrow a 1 2\narrow b 2 3\narrow c 3 4\narrow d 1 3\n"
    "rel a.b.c + d.c\nend\n"
)

# test_cli's commutative square, with C free on its arrows
SQUARE = (
    "algebra C\nvertices 1 2 3 4\narrow a 1 2\narrow b 2 4\narrow d 3 4\nend\n\n"
    "algebra Ctilde\nextension_of C\nvertices 1 2 3 4\n"
    "arrow a 1 2\narrow b 2 4\narrow c 1 3\narrow d 3 4\n"
    "new c\nrel a.b - c.d\nend\n"
)

# the overlap a.b.e of the tips a.b and b.e gives c.d.e, which no
# relation reduces: completion must add it
OVERLAP = (
    "algebra A\nvertices 1 2 3 4 5\n"
    "arrow c 1 3\narrow d 3 4\narrow a 1 2\narrow b 2 4\narrow e 4 5\n"
    "rel a.b - c.d\nrel b.e\nend\n"
)


def tables(alg):
    """The basis labels in order, the vanishing length and the products."""
    return [p.label() for p in alg.basis], alg.zero_length, alg.products


def reference_cases(files, chain_text):
    """Every ex1/ex2 block, chain and squares k <= 4, the mixed-length
    relation and the commutative square, each over Q and F7: 50 pairs."""
    texts = [fixture_text(n + ".quiv") for n in sorted(files)]
    texts += [chain_text(k) for k in range(1, 5)]
    texts += [squares(k) for k in range(1, 5)]
    texts += [INHOMOGENEOUS, SQUARE]
    return [(blk, f) for text in texts for blk in qdsl.parse(text).blocks for f in FIELDS]


def certify_both_ways(alg):
    """Run the certificate on the arrows and the all-pairs one on alg."""
    _verify_build(alg, alg.block)
    build_reference.all_pairs_certificate(
        alg, alg.block, build_reference.alive_paths(alg)
    )


def test_build_matches_enumeration_reference(files, chain_text):
    """The same basis in the same order, the same vanishing length and the
    same products."""
    cases = reference_cases(files, chain_text)
    for blk, field in cases:
        got = build(blk, field=field)
        assert tables(got) == tables(build_reference.build(blk, field=field)), (
            blk.name,
            field.name,
        )
    assert len(cases) == 50


def test_both_certificates_accept_every_build(files, chain_text):
    """Each build of the 50 cases, by either builder, passes the
    certificate on the arrows and the all-pairs one."""
    for blk, field in reference_cases(files, chain_text):
        for builder in (build, build_reference.build):
            certify_both_ways(builder(blk, field=field))


def test_squares_dimensions():
    for k, dims in ((2, (26, 28)), (3, (52, 55))):
        pf = qdsl.parse(squares(k))
        assert (build(pf.block("C")).dim, build(pf.block("Ctilde")).dim) == dims


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_completion_adds_the_overlap_element(field):
    alg = build(qdsl.parse(OVERLAP).block("A"), field=field)
    assert alg.dim == 12
    q = alg.quiver
    assert nf_coords(alg, from_arrow_names(q, ("c", "d", "e"))) == {}
    assert nf_coords(alg, from_arrow_names(q, ("a", "b", "e"))) == {}
    assert "c.d" in [p.label() for p in alg.basis]
    rules = build_reference.rules_of(alg)
    tips = {".".join(q.arrows[i].name for i in t) for r in rules.values() for t in r}
    assert tips == {"a.b", "b.e", "c.d.e"}
    assert tables(alg) == tables(build_reference.build(alg.block, field=field))


# x.x.y - x.x and x.x.y - x.y give x.y - x.x, whose tip x.y lies inside the
# tip x.x.y: that rule is requeued, and x.x, x.y and x.x.y all vanish
REQUEUE = (
    "algebra L\nvertices 1\narrow x 1 1\narrow y 1 1\n"
    "rel x.x.y - x.x\nrel x.x.y - x.y\nrel y.y\nrel x.x.x\nend\n"
)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_completion_requeues_a_rule_holding_a_new_tip(field):
    """The enumeration builder is no reference here: with relations of
    mixed lengths its length-by-length span misses x.x at length 2 and
    runs on to the length cap."""
    alg = build(qdsl.parse(REQUEUE).block("L"), field=field)
    assert [p.label() for p in alg.basis] == ["e_1", "x", "y", "y.x"]
    assert alg.zero_length == 3
    for word in ("x.x", "x.y", "x.x.y"):
        assert nf_coords(alg, from_arrow_names(alg.quiver, word.split("."))) == {}
    certify_both_ways(alg)


def test_infinite_dimensional_is_refused_by_both():
    text = "algebra L\nvertices 1\narrow x 1 1\narrow y 1 1\nrel x.y - y.x\nend\n"
    blk = qdsl.parse(text).block("L")
    for builder in (build, build_reference.build):
        with pytest.raises(NotFiniteDimensionalError):
            builder(blk, max_len_cap=6)


# -- small random admissible presentations -----------------------------------


@st.composite
def presentations(draw, mixed=False):
    """Three or four vertices and 3 to 6 arrows, acyclic two times in
    three, with up to 3 monomial relations and, where the quiver has
    parallel paths of one length, 1 to 3 homogeneous binomials p - q,
    p + 2 q or p - 3 q; every term has length 2 or 3.  With mixed, the
    binomials may join parallel paths of lengths 2 and 3."""
    n = draw(st.integers(3, 4))
    ends = st.tuples(st.integers(1, n), st.integers(1, n))
    if draw(st.integers(0, 2)):
        ends = ends.filter(lambda e: e[0] != e[1]).map(sorted)
    arrows = [
        ("x%d" % i, str(s), str(t))
        for i, (s, t) in enumerate(draw(st.lists(ends, min_size=3, max_size=6)))
    ]
    q = Quiver([str(v) for v in range(1, n + 1)], arrows)
    paths = [p for p in enumerate_paths(q, 3) if p.length >= 2]
    binomials = [
        [p.label(), sign, coeff + r.label()]
        for p in paths
        for r in paths
        if p.sort_key() < r.sort_key()
        and (p.source, p.target) == (r.source, r.target)
        and (mixed or p.length == r.length)
        for sign, coeff in (("-", ""), ("+", "2*"), ("-", "3*"))
    ]
    rels = []
    for pool, least in (([[p.label()] for p in paths], 0), (binomials, 1)):
        if pool:
            rels += draw(st.lists(st.sampled_from(pool), min_size=least, max_size=3))
    lines = ["algebra A", "vertices %s" % " ".join(q.vertices)]
    lines += ["arrow %s %s %s" % a for a in arrows]
    lines += ["rel %s" % " ".join(r) for r in dict.fromkeys(map(tuple, rels))]
    return qdsl.parse("\n".join(lines + ["end", ""])).block("A")


def outcome(builder, blk, field):
    """The tables of the build, or the class of the exception it raised."""
    try:
        return tables(builder(blk, field=field, max_len_cap=6))
    except (NotFiniteDimensionalError, AlgebraBuildError) as exc:
        return type(exc)


@settings(max_examples=150, deadline=None)
@given(presentations())
def test_random_presentations_match_reference(blk):
    for field in FIELDS:
        assert outcome(build, blk, field) == outcome(build_reference.build, blk, field)


@settings(max_examples=150, deadline=None)
@given(presentations(mixed=True))
def test_random_builds_pass_both_certificates(blk):
    """Mixed lengths included, where the enumeration builder is no
    reference: every build that ends within the cap passes both."""
    for field in FIELDS:
        try:
            alg = build(blk, field=field, max_len_cap=6)
        except NotFiniteDimensionalError:
            continue
        certify_both_ways(alg)
