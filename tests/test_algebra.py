"""Bound quiver algebras: dimensions, ring axioms, normal forms, quotients."""

import pytest

from families import squares
from relext import exactla, qdsl
from relext.algebra import (
    AlgebraBuildError,
    BuildCheckError,
    NotFiniteDimensionalError,
    _verify_build,
    build,
    is_triangular,
    quotient_by_arrows,
)
from relext.extensions import center
from relext.fixtures import fixture_text
from relext.exactla import QQ, PrimeField
from relext.quiver import compose

DIMS = {
    ("ex1", "C"): 11,
    ("ex1", "B"): 12,
    ("ex1", "Ctilde"): 13,
    ("ex2", "C"): 8,
    ("ex2", "B"): 12,
    ("ex2", "Ctilde"): 16,
}


@pytest.mark.parametrize("key", sorted(DIMS))
def test_dimensions(algebras, key):
    assert algebras[key].dim == DIMS[key]


CENTER_DIMS = {
    ("ex1", "C"): 1,
    ("ex1", "B"): 1,
    ("ex1", "Ctilde"): 1,
    ("ex2", "C"): 1,
    ("ex2", "B"): 2,
    ("ex2", "Ctilde"): 3,
}


def unit(alg):
    """The identity of alg, the sum of the vertex idempotents, as a sparse
    element."""
    return {i: alg.field.one() for i in alg.idem_index.values()}


def basis_element(alg, i):
    return {i: alg.field.one()}


def arrow_product(alg, names):
    """The product of the named arrows, left to right, as a sparse element."""
    word = None
    for nm in names:
        e = basis_element(alg, alg.arrow_index_in_basis[nm])
        word = e if word is None else alg.multiply_sparse(word, e)
    return word


@pytest.mark.parametrize("key", sorted(CENTER_DIMS))
def test_center_dimensions(algebras, key):
    alg = algebras[key]
    z = center(alg)
    assert z.dim == CENTER_DIMS[key]
    # each center basis vector really commutes with every basis element
    for zc in z.rows:
        for i in range(alg.dim):
            e = basis_element(alg, i)
            assert alg.multiply_sparse(zc, e) == alg.multiply_sparse(e, zc)
    # the identity is central
    assert z.contains(unit(alg))


@pytest.mark.parametrize("key", sorted(DIMS))
def test_ring_axioms(algebras, key):
    alg = algebras[key]
    one = unit(alg)
    n = alg.dim
    # identity on every basis element
    for i in range(n):
        e = basis_element(alg, i)
        assert alg.multiply_sparse(one, e) == e
        assert alg.multiply_sparse(e, one) == e
    # associativity on a deterministic sample of triples
    idx = list(range(0, n, 2)) or [0]
    for i in idx:
        a = basis_element(alg, i)
        for j in idx:
            b = basis_element(alg, j)
            ab = alg.multiply_sparse(a, b)
            for k in idx:
                c = basis_element(alg, k)
                bc = alg.multiply_sparse(b, c)
                assert alg.multiply_sparse(ab, c) == alg.multiply_sparse(a, bc)


@pytest.mark.parametrize("key", sorted(DIMS))
def test_declared_relations_vanish(algebras, key):
    alg = algebras[key]
    f = alg.field
    for rel in alg.block.relations:
        total = {}
        for t in rel.terms:
            for i, c in arrow_product(alg, t.arrows).items():
                total[i] = f.add(total.get(i, f.zero()), f.mul(t.coeff, c))
        assert all(f.is_zero(c) for c in total.values())


def test_zero_length_truncates(algebras):
    alg = algebras[("ex1", "Ctilde")]
    # any product of basis paths of total length >= zero_length is zero
    for i in range(alg.dim):
        for j in range(alg.dim):
            p, q = alg.basis[i], alg.basis[j]
            if p.length + q.length >= alg.zero_length:
                out = alg.multiply_sparse(basis_element(alg, i), basis_element(alg, j))
                assert out == {}


def test_triangularity(algebras):
    assert is_triangular(algebras[("ex1", "C")])
    assert is_triangular(algebras[("ex2", "C")])
    assert not is_triangular(algebras[("ex1", "B")])
    assert not is_triangular(algebras[("ex2", "B")])
    assert not is_triangular(algebras[("ex1", "Ctilde")])


def test_quotient_by_arrows(files, algebras):
    ct = algebras[("ex1", "Ctilde")]
    red = quotient_by_arrows(ct, ("eps", "eps2"))
    c = algebras[("ex1", "C")]
    assert red.dim == c.dim
    assert [p.label() for p in red.basis] == [p.label() for p in c.basis]
    # products agree with the base algebra's
    for i in range(red.dim):
        for j in range(red.dim):
            assert red.product_coords(i, j) == c.product_coords(i, j)


def test_vertex_pair_index(algebras, families):
    """coords_of_vertex_pair and paths_from read an index built once per
    algebra, with the indices of e_x A e_y in basis order, as a scan over
    the basis gives, and the targets y of e_x A e_y != 0 in order of their
    first path."""
    algs = list(algebras.values()) + [
        fam.partial(s) for fam in families.values() for s in (("eps",), ("eps2",))
    ]
    for alg in algs:
        for x in alg.quiver.vertices:
            want = {}
            for i, p in enumerate(alg.basis):
                if p.source == x:
                    want.setdefault(p.target, []).append(i)
            assert alg.paths_from(x) == want
            assert list(alg.paths_from(x)) == list(want)
            for y in alg.quiver.vertices:
                scan = [
                    i for i, p in enumerate(alg.basis) if p.source == x and p.target == y
                ]
                assert alg.coords_of_vertex_pair(x, y) == scan
        table = alg._endpoints
        alg.paths_from(alg.quiver.vertices[0])
        assert alg._endpoints is table
        assert sum(len(ps) for row in table.values() for ps in row.values()) == alg.dim


def test_field_override_prime(files):
    blk = files["ex2"].block("Ctilde")
    alg = build(blk, field=exactla.PrimeField(5))
    assert alg.dim == 16
    assert alg.field.name == "F5"
    assert center(alg).dim == 3


def test_non_admissible_is_rejected():
    # a loop with no relation generates infinitely many paths
    text = "algebra L\nvertices 1\narrow l 1 1\nend\n"
    with pytest.raises(NotFiniteDimensionalError):
        build(qdsl.parse(text).block("L"))


def test_inhomogeneous_relation_builds_consistently():
    # relation mixing term lengths 3 and 2: a.b.c rewrites to -d.c
    text = (
        "algebra A\nvertices 1 2 3 4\n"
        "arrow a 1 2\narrow b 2 3\narrow c 3 4\narrow d 1 3\n"
        "rel a.b.c + d.c\nend\n"
    )
    alg = build(qdsl.parse(text).block("A"))
    # acyclic quiver has 12 paths; exactly one is rewritten away
    assert alg.dim == 11
    assert "a.b.c" not in [p.label() for p in alg.basis]
    f = alg.field
    abc = arrow_product(alg, ("a", "b", "c"))
    dc = arrow_product(alg, ("d", "c"))
    assert abc and dc
    total = {
        i: f.add(abc.get(i, f.zero()), dc.get(i, f.zero())) for i in abc.keys() | dc.keys()
    }
    assert all(f.is_zero(c) for c in total.values())


# -- the vertex-indexed build against an all-pairs reference -------------------


def reference_products(alg):
    """The structure constants from every basis pair (p, r): the normal form
    of the composite path, or nothing when p and r do not compose."""
    out = []
    for p in alg.basis:
        row = {}
        for j, r in enumerate(alg.basis):
            pq = compose(p, r)
            cell = alg.nf_coords(pq) if pq is not None else None
            if cell:
                row[j] = cell
        out.append(row)
    return out


def test_products_match_all_pairs_reference(files, chain_text):
    """Every ex1/ex2 block and the chain family at k <= 3 over Q and F7, and
    chain k=8 Ctilde over F32003: equal tables, rows in the same order."""
    cases = []
    for field in (QQ, PrimeField(7)):
        blocks = [b for n in sorted(files) for b in files[n].blocks]
        for k in (1, 2, 3):
            blocks += qdsl.parse(chain_text(k)).blocks
        cases += [(blk, field) for blk in blocks]
    cases.append((qdsl.parse(chain_text(8)).block("Ctilde"), PrimeField(32003)))
    for blk, field in cases:
        alg = build(blk, field=field)
        ref = reference_products(alg)
        assert alg.products == ref, (blk.name, field.name)
        assert [list(row) for row in alg.products] == [list(row) for row in ref]


# -- failure paths of the build checks ------------------------------------------


def _built(files):
    """A fresh ex2 Ctilde and its arrow basis indices."""
    alg = build(files["ex2"].block("Ctilde"))
    _verify_build(alg, alg.block)
    arrows = sorted(alg.arrow_index_in_basis.values())
    return alg, arrows


def test_verify_build_rejects_wrong_structure_constant(files):
    alg, arrows = _built(files)
    f = alg.field
    i, j = next((i, j) for i in arrows for j in arrows if alg.products[i].get(j))
    # a new cell: the build's cells are shared with the normal-form cache
    alg.products[i][j] = {k: f.add(c, f.one()) for k, c in alg.products[i][j].items()}
    with pytest.raises(AlgebraBuildError, match="associativity fails|inconsistent reduction"):
        _verify_build(alg, alg.block)


def test_verify_build_rejects_entry_at_non_composable_pair(files):
    alg, arrows = _built(files)
    basis = alg.basis
    i, j = next(
        (i, j) for i in arrows for j in arrows if basis[i].target != basis[j].source
    )
    alg.products[i][j] = {i: alg.field.one()}
    with pytest.raises(
        AlgebraBuildError,
        match=r"structure constant \(%d,%d,%d\) of 'Ctilde' breaks the grading" % (i, j, i),
    ):
        _verify_build(alg, alg.block)


def test_verify_build_rejects_off_grade_coordinate(files):
    alg, arrows = _built(files)
    basis = alg.basis
    i, j = next((i, j) for i in arrows for j in arrows if alg.products[i].get(j))
    k = next(k for k in arrows if basis[k].source != basis[i].source)
    alg.products[i][j] = {**alg.products[i][j], k: alg.field.one()}
    with pytest.raises(
        AlgebraBuildError,
        match=r"structure constant \(%d,%d,%d\) of 'Ctilde' breaks the grading" % (i, j, k),
    ):
        _verify_build(alg, alg.block)


def _cell_index(alg, label):
    return [p.label() for p in alg.basis].index(label)


def test_verify_build_rejects_wrong_constant_with_a_path_first(files):
    """b_(beta.eps) b_alpha doubled: no arrow is its first factor, so the
    associativity of (beta, eps, alpha) rejects it."""
    alg, arrows = _built(files)
    i, j = _cell_index(alg, "beta.eps"), _cell_index(alg, "alpha")
    f = alg.field
    alg.products[i][j] = {k: f.add(c, c) for k, c in alg.products[i][j].items()}
    beta, eps = _cell_index(alg, "beta"), _cell_index(alg, "eps")
    with pytest.raises(
        AlgebraBuildError,
        match=r"associativity fails on basis triple \(%d,%d,%d\) = \(beta, eps, alpha\) "
        r"of 'Ctilde'" % (beta, eps, j),
    ):
        _verify_build(alg, alg.block)


def test_verify_build_rejects_path_not_its_first_arrow_times_the_rest(files):
    alg, arrows = _built(files)
    i, j = _cell_index(alg, "beta"), _cell_index(alg, "eps.alpha")
    k = _cell_index(alg, "beta.eps.alpha")
    f = alg.field
    alg.products[i][j] = {k: f.add(f.one(), f.one())}
    with pytest.raises(
        AlgebraBuildError,
        match=r"inconsistent reduction at beta \* eps\.alpha in 'Ctilde': "
        r"not the basis path beta\.eps\.alpha",
    ):
        _verify_build(alg, alg.block)


def test_verify_build_rejects_wrong_unit_entry(files):
    """e_2 b_beta doubled: alpha.beta = 0 is the only product through e_2
    on the left of beta, so only the unit law sees it."""
    alg, arrows = _built(files)
    k = _cell_index(alg, "beta")
    f = alg.field
    alg.products[alg.idem_index["2"]][k] = {k: f.add(f.one(), f.one())}
    with pytest.raises(
        AlgebraBuildError, match=r"unit law fails at basis %d \(beta\) of 'Ctilde'" % k
    ):
        _verify_build(alg, alg.block)


@pytest.mark.parametrize("field", (QQ, PrimeField(7)), ids=lambda f: f.name)
@pytest.mark.parametrize("name", ("ex2:Ctilde", "squares2:Ctilde"))
def test_verify_build_rejects_every_doubled_structure_constant(files, field, name):
    """The checks pin the table down: doubling any one nonzero product,
    whatever its factors, fails the build check."""
    source, block = name.split(":")
    pf = files["ex2"] if source == "ex2" else qdsl.parse(squares(2))
    alg = build(pf.block(block), field=field)
    f = field
    cells = [(i, j) for i, row in enumerate(alg.products) for j in row]
    assert len(cells) > alg.dim
    for i, j in cells:
        cell = alg.products[i][j]
        alg.products[i][j] = {k: f.add(c, c) for k, c in cell.items()}
        with pytest.raises(AlgebraBuildError):
            _verify_build(alg, alg.block)
        alg.products[i][j] = cell
    _verify_build(alg, alg.block)


def test_verify_build_rejects_table_where_a_declared_relation_survives(files):
    """ex2's Ctilde table checked against its block plus rel beta.eps:
    beta.eps is a basis path of the table, so the relation survives."""
    alg, arrows = _built(files)
    text = fixture_text("ex2.quiv").replace("rel eps.gamma\n", "rel eps.gamma\nrel beta.eps\n")
    block = qdsl.parse(text).block("Ctilde")
    with pytest.raises(
        AlgebraBuildError,
        match=r"declared relation 'rel beta\.eps' of 'Ctilde' does not vanish",
    ):
        _verify_build(alg, block)


def test_reduction_leaving_a_non_basis_path_is_an_internal_fault(files):
    """nf_coords reduces a path outside basis_index by the rules; a
    remainder outside the basis is a BuildCheckError, not bad input."""
    alg = build(files["ex2"].block("Ctilde"))
    p = alg.basis[_cell_index(alg, "beta.eps")]
    del alg.basis_index[p]
    with pytest.raises(
        BuildCheckError, match=r"reduction of beta\.eps leaves non-basis path beta\.eps"
    ):
        alg.nf_coords(p)
