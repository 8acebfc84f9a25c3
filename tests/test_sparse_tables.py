"""The sparse structure constants and action tables against dense reference
builders: the dim x dim x dim product table of an algebra and the two
dim M x dim M action matrices per acting basis element of a bimodule."""

from itertools import combinations

import pytest

from relext import bimod, extensions, qdsl
from relext.algebra import build
from relext.exactla import PrimeField, QQ
from relext.quiver import compose

import build_reference
from dense_reference import action_tables, stores_no_zero

FIELDS = pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["Q", "F7"])


def _reference_mult_coords(alg):
    """The dense product table: entry [i][j] is the coordinate tuple of
    b_i b_j, zero rows included, each composite path reduced by the echelon
    of the enumeration builder.  A restriction made by quotient_by_arrows
    is reduced with the build of its presentation, on the same basis."""
    ref = build_reference.build(alg.block, field=alg.field)
    assert [p.label() for p in ref.basis] == [p.label() for p in alg.basis]
    f = alg.field
    zero_row = tuple(f.zero() for _ in range(alg.dim))
    mult = []
    for p in ref.basis:
        row = []
        for r in ref.basis:
            pq = compose(p, r)
            if pq is None or pq.length >= ref.zero_length:
                row.append(zero_row)
                continue
            coords = [f.zero()] * alg.dim
            for path, c in build_reference.normal_form(ref._echelon, {pq: f.one()}).items():
                coords[ref.basis_index[path]] = c
            row.append(tuple(coords))
        mult.append(row)
    return mult


def _reference_actions(m):
    """The dense left and right action matrices of an ambient-realized
    bimodule, restricted from the dense product table of the ambient."""
    f = m.field
    mult = _reference_mult_coords(m.ambient)
    pos = {g: i for i, g in enumerate(m.amb_index)}

    def restrict(coords):
        out = [f.zero()] * m.dim
        for k, c in enumerate(coords):
            if not f.is_zero(c):
                out[pos[k]] = c
        return out

    left = [[restrict(mult[ea][g]) for g in m.amb_index] for ea in m.embed]
    right = [[restrict(mult[g][ea]) for g in m.amb_index] for ea in m.embed]
    return left, right


def _dense_products(alg):
    f = alg.field
    return [
        [tuple(f.dense(alg.product_coords(i, j), alg.dim)) for j in range(alg.dim)]
        for i in range(alg.dim)
    ]


def _dense_table(m, table):
    f = m.field
    return [f.dense(table.get(i, {}), m.dim) for i in range(m.dim)]


def _families(files, chain_text, field):
    pfs = [files[n] for n in sorted(files)]
    pfs += [qdsl.parse(chain_text(k)) for k in (1, 2, 3)]
    return [extensions.Family(pf.block("C"), pf.block("Ctilde"), field) for pf in pfs]


def _bimodules(fam):
    """The regular bimodules of C and Ctilde, and for every valid split the
    new-arrow ideal over both algebras and the base inside the total."""
    for alg in (fam.base, fam.full):
        yield bimod.regular_bimodule(alg)
    for r in range(len(fam.new_arrows) + 1):
        for combo in combinations(fam.new_arrows, r):
            try:
                fam.partial(combo)
            except extensions.SplitError:
                continue
            for sp in (fam.split((), combo), fam.split(combo, fam.new_arrows)):
                yield sp.ext
                yield sp.ext_over_base
                yield sp.base_inside


@FIELDS
def test_products_match_dense_reference(files, chain_text, field):
    algebras = [build(b, field=field) for n in sorted(files) for b in files[n].blocks]
    for fam in _families(files, chain_text, field):
        algebras += [fam.base, fam.full]
    for alg in algebras:
        assert _dense_products(alg) == _reference_mult_coords(alg)
        assert all(stores_no_zero(field, row) for row in alg.products)


@FIELDS
def test_actions_match_dense_reference(files, chain_text, field):
    count = 0
    for fam in _families(files, chain_text, field):
        for m in _bimodules(fam):
            left, right = _reference_actions(m)
            own_left, own_right = action_tables(m)
            assert [_dense_table(m, t) for t in own_left] == left
            assert [_dense_table(m, t) for t in own_right] == right
            assert all(stores_no_zero(field, t) for t in own_left + own_right)
            count += 1
    # ex1, ex2 and chain k = 1, 2, 3: 2 regular bimodules per family and 3
    # bimodules for each of the two splits of every valid subset
    assert count == 2 * 5 + 6 * (4 + 4 + 2 + 4 + 8)

