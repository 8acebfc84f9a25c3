"""Bimodules: axioms, arrow ideals, direct sums, hom spaces, the map space
of the square-zero pairing."""

import re
from itertools import combinations

import pytest

import dense_reference as ref
from build_reference import from_arrow_names
from copies import replaced
from dense_reference import DenseSubspace
from relext import bimod, extensions, qdsl
from relext.algebra import build
from relext.extensions import center
from relext.exactla import Matrix, PrimeField, QQ
from families import squares
from split_reference import direct_sum_check, section_embed


@pytest.mark.parametrize("key", [("ex1", "C"), ("ex2", "Ctilde")])
def test_regular_bimodule_axioms(algebras, key):
    m = bimod.regular_bimodule(algebras[key])
    m.verify()  # raises on any axiom failure
    assert m.dim == algebras[key].dim


@pytest.mark.parametrize("name", ["ex1", "ex2"])
def test_arrow_ideal_squares_to_zero(algebras, files, name):
    ct = algebras[(name, "Ctilde")]
    new = tuple(files[name].block("Ctilde").new_arrows)
    e = bimod.arrow_ideal_bimodule(ct, new)
    assert e.dim == ct.dim - algebras[(name, "C")].dim
    for i in e.amb_index:
        for j in e.amb_index:
            assert ct.product_coords(i, j) == {}


def test_ideal_closed_under_actions(algebras, files):
    ct = algebras[("ex2", "Ctilde")]
    new = tuple(files["ex2"].block("Ctilde").new_arrows)
    e = bimod.arrow_ideal_bimodule(ct, new)
    span = set(e.amb_index)
    for g in e.amb_index:
        for j in range(ct.dim):
            for prod in (ct.product_coords(j, g), ct.product_coords(g, j)):
                assert set(prod) <= span


def test_sub_bimodule_requires_closure(algebras):
    alg = algebras[("ex1", "Ctilde")]
    # a single arrow path alone is not closed under the two-sided action
    k = alg.arrow_index_in_basis["alpha"]
    with pytest.raises(ValueError):
        bimod.sub_bimodule(alg, (k,))


def test_ambient_span_with_non_multiplicative_embed_rejected():
    """The section premise is skipped only for the identity embedding: an
    ambient span acted on by the ambient algebra itself through a basis
    permutation that is not multiplicative still fails it."""
    text = (
        "algebra A\nvertices 1 2 3\narrow a 1 2\narrow b 2 3\narrow c 1 3\nend\n"
    )
    alg = build(qdsl.parse(text).block("A"))
    ab = alg.basis_index[from_arrow_names(alg.quiver, ["a", "b"])]
    c = alg.arrow_index_in_basis["c"]
    swap = list(range(alg.dim))
    swap[ab], swap[c] = c, ab
    # a.b - c is the defect at (a, b), and e_1 (a.b - c) = a.b - c != 0
    with pytest.raises(ValueError, match="section defect does not annihilate the span"):
        bimod.Bimodule.from_ambient_span(alg, alg, range(alg.dim), swap)
    bimod.Bimodule.from_ambient_span(alg, alg, range(alg.dim), range(alg.dim))


def _all_pair_defects(acting, ambient, embed):
    f = ambient.field
    out = []
    for a in range(acting.dim):
        for b in range(acting.dim):
            delta = dict(ambient.product_coords(embed[a], embed[b]))
            for k, c in acting.product_coords(a, b).items():
                delta[embed[k]] = f.sub(delta.get(embed[k], f.zero()), c)
            if f.sparse(delta):
                out.append((a, b, f.sparse(delta)))
    return out


def test_section_defects_match_all_pairs(algebras):
    """Visiting only the pairs with a nonzero product finds the defects of
    the loop over every pair, in the same order, also for embeddings that
    are not multiplicative or not injective."""
    c = algebras[("ex1", "C")]
    ct = algebras[("ex1", "Ctilde")]
    sec = section_embed(c, ct)
    rev = tuple(reversed(range(ct.dim)))
    cases = [(c, ct, sec), (ct, ct, rev), (ct, ct, tuple(g // 2 for g in range(ct.dim)))]
    found = 0
    for acting, ambient, embed in cases:
        want = _all_pair_defects(acting, ambient, embed)
        assert bimod.section_defects(acting, ambient, embed) == want
        found += len(want)
    assert found


def test_section_embed_and_base_sub(algebras, files):
    c = algebras[("ex1", "C")]
    ct = algebras[("ex1", "Ctilde")]
    sec = section_embed(c, ct)
    assert len(sec) == c.dim
    for i, g in enumerate(sec):
        assert c.basis[i].label() == ct.basis[g].label()
    new = tuple(files["ex1"].block("Ctilde").new_arrows)
    base = bimod.sub_bimodule(ct, sec, acting=c, embed=sec)
    ideal = bimod.arrow_ideal_bimodule(ct, new)
    assert base.dim + ideal.dim == ct.dim
    assert set(base.amb_index) | set(ideal.amb_index) == set(range(ct.dim))


@pytest.mark.parametrize("name", ["ex1", "ex2"])
def test_direct_sum_check(algebras, name):
    ct = algebras[(name, "Ctilde")]
    assert direct_sum_check(ct, [["eps"], ["eps2"]])
    assert direct_sum_check(ct, [["eps", "eps2"]])
    assert not direct_sum_check(ct, [["eps"], ["eps", "eps2"]])


def test_end_enveloping_of_regular_is_center(algebras):
    for key in (("ex1", "C"), ("ex1", "Ctilde"), ("ex2", "Ctilde")):
        alg = algebras[key]
        m = bimod.regular_bimodule(alg)
        assert bimod.end_enveloping(m) == center(alg).dim


def test_hom_space_contains_identity(algebras):
    alg = algebras[("ex1", "C")]
    m = bimod.regular_bimodule(alg)
    h = bimod.bimodule_hom_space(m, m)
    ident = ref.identity(alg.field, m.dim)
    flat = [x for row in ident.entries for x in row]
    assert h.contains(alg.field.sparse(flat))


@pytest.mark.parametrize("name", ["ex1", "ex2"])
def test_square_zero_pairing_space_vanishes_on_ideal_vs_base(
    presentations, name
):
    # maps from the one-arrow ideal to the base sub-bimodule satisfying the
    # square-zero pairing condition: always zero for these families
    sp = presentations[name]["CB"]
    eprime_c = sp.ext_over_base
    assert bimod.curly_E_dimension(eprime_c, sp.base_inside) == 0


def test_to_ambient_maps_sparse_vectors_and_checks_their_range(presentations):
    """to_ambient re-indexes a sparse vector of an ideal by its basis paths,
    and rejects a coordinate outside range(dim), negative ones included,
    instead of wrapping it into amb_index."""
    e = presentations["ex1"]["CCt"].ext
    one = e.field.one()
    assert e.to_ambient({}) == {}
    assert e.to_ambient({i: one for i in range(e.dim)}) == {g: one for g in e.amb_index}
    for bad in (-1, e.dim):
        with pytest.raises(ValueError, match=r"coordinate outside range\(%d\)" % e.dim):
            e.to_ambient({bad: one})


def test_zero_bimodule(algebras):
    alg = algebras[("ex1", "C")]
    z = bimod.sub_bimodule(alg, ())
    assert z.dim == 0
    z.verify()


def _dense_action(m, table):
    """The dense dim(M) x dim(M) matrix of one sparse action table."""
    f = m.field
    return [
        [table.get(i, {}).get(j, f.zero()) for j in range(m.dim)]
        for i in range(m.dim)
    ]


def _reference_hom_equations(m, n):
    """Rows, over the flattened dim(M) x dim(N) unknowns, of the conditions
    a.f(x) = f(a.x) and f(x).a = f(x.a) for every acting basis element a.
    This is the dense system the graded builder replaced, reading the
    actions as dense matrices."""
    f = m.field
    dm, dn = m.dim, n.dim
    total = dm * dn
    rows = []
    m_tables, n_tables = ref.action_tables(m), ref.action_tables(n)
    for a in range(m.acting.dim):
        for lm, ln in (
            (_dense_action(m, m_tables[0][a]), _dense_action(n, n_tables[0][a])),
            (_dense_action(m, m_tables[1][a]), _dense_action(n, n_tables[1][a])),
        ):
            for i in range(dm):
                for j in range(dn):
                    row = [f.zero()] * total
                    for k in range(dm):
                        c = lm[i][k]
                        if not f.is_zero(c):
                            row[k * dn + j] = f.add(row[k * dn + j], c)
                    for l in range(dn):
                        c = ln[l][j]
                        if not f.is_zero(c):
                            row[i * dn + l] = f.sub(row[i * dn + l], c)
                    rows.append(row)
    return rows


def _reference_curly_E_equations(m, n):
    """The dense hom rows followed by the rows of x.f(y) + f(x).y = 0."""
    f = m.field
    amb = m.ambient
    dm, dn = m.dim, n.dim
    total = dm * dn
    rows = _reference_hom_equations(m, n)
    for i in range(dm):
        gi = m.amb_index[i]
        for j in range(dm):
            gj = m.amb_index[j]
            coeff = [[f.zero()] * total for _ in range(amb.dim)]
            for k in range(dn):
                gk = n.amb_index[k]
                for t, c in amb.product_coords(gi, gk).items():
                    coeff[t][j * dn + k] = f.add(coeff[t][j * dn + k], c)
                for t, c in amb.product_coords(gk, gj).items():
                    coeff[t][i * dn + k] = f.add(coeff[t][i * dn + k], c)
            rows += [r for r in coeff if any(not f.is_zero(c) for c in r)]
    return rows


def _reference_kernel(m, n, rows):
    return ref.kernel(Matrix(m.field, len(rows), m.dim * n.dim, rows))


def _valid_splits(fam):
    """split((), S) and split(S, all) for every subset S that splits."""
    for r in range(len(fam.new_arrows) + 1):
        for combo in combinations(fam.new_arrows, r):
            try:
                fam.partial(combo)
            except extensions.SplitError:
                continue
            yield fam.split((), combo)
            yield fam.split(combo, fam.new_arrows)


def _families(files, chain_text, field):
    pfs = [files[n] for n in sorted(files)]
    pfs += [qdsl.parse(chain_text(k)) for k in (2, 3)]
    return [extensions.Family(pf.block("C"), pf.block("Ctilde"), field) for pf in pfs]


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["Q", "F7"])
def test_graded_systems_match_dense_reference(files, chain_text, field):
    """End and the map space of the square-zero pairing, solved over the
    graded unknowns, equal the dense solutions as canonical bases."""
    pairs = 0
    for fam in _families(files, chain_text, field):
        for sp in _valid_splits(fam):
            e = sp.ext_over_base
            base_inside = sp.base_inside
            dense = _reference_hom_equations(e, e)
            assert DenseSubspace.of(bimod.bimodule_hom_space(e, e)) == _reference_kernel(
                e, e, dense
            )
            dense = _reference_curly_E_equations(e, base_inside)
            assert DenseSubspace.of(bimod.curly_E(e, base_inside)) == _reference_kernel(
                e, base_inside, dense
            )
            pairs += 1
    assert pairs == 40


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["Q", "F7"])
def test_pairing_space_of_radical_matches_dense_reference(
    files, chain_text, field
):
    """The pairing space of the radical of Ctilde over C is nonzero and
    smaller than its End, so here the bilinear rows cut; the pairing
    spaces above are 0 on these families."""
    for fam in _families(files, chain_text, field):
        sp = fam.split((), fam.new_arrows)
        total = sp.total
        rad = bimod.sub_bimodule(
            total,
            [g for g, p in enumerate(total.basis) if p.arrows],
            acting=sp.base,
            embed=sp.section,
        )
        dense = _reference_curly_E_equations(rad, rad)
        space = bimod.curly_E(rad, rad)
        assert DenseSubspace.of(space) == _reference_kernel(rad, rad, dense)
        assert 0 < space.dim < bimod.end_enveloping(rad)


def _all_pairs_bilinear_rows(m, n, var):
    """The rows of x_i.f(x_j) + f(x_i).x_j = 0 over every pair (i, j), in
    order: the loop curly_E ran before it visited only the pairs with a
    term."""
    f = m.field
    amb = m.ambient
    n_at = n._pos
    left = [
        [(n_at[g], prod) for g, prod in amb.products[gi].items() if g in n_at]
        for gi in m.amb_index
    ]
    right = [
        [(n_at[g], prod) for g, prod in amb.column(gj).items() if g in n_at]
        for gj in m.amb_index
    ]
    rows = []
    for i in range(m.dim):
        for j in range(m.dim):
            coeff = {}
            for terms, row_of_f in ((left[i], j), (right[j], i)):
                for k, prod in terms:
                    col = var.get((row_of_f, k))
                    if col is None:
                        continue
                    for t, c in prod.items():
                        eq = coeff.setdefault(t, {})
                        eq[col] = f.add(eq.get(col, f.zero()), c)
            rows += [eq for eq in map(f.sparse, coeff.values()) if eq]
    return rows


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["Q", "F7"])
def test_curly_E_rows_match_the_all_pairs_loop(files, chain_text, field, monkeypatch):
    """The system curly_E hands to its kernel is the hom rows followed by
    the bilinear rows of every pair, each equation whole and in order, on
    the pairings of every split and on the radical of Ctilde."""
    seen = []
    kernel = bimod._graded_kernel
    monkeypatch.setattr(
        bimod, "_graded_kernel", lambda m, n, var, rows: seen.append(rows) or kernel(m, n, var, rows)
    )
    bilinear = 0
    for fam in _families(files, chain_text, field):
        sp = fam.split((), fam.new_arrows)
        rad = bimod.sub_bimodule(
            sp.total,
            [g for g, p in enumerate(sp.total.basis) if p.arrows],
            acting=sp.base,
            embed=sp.section,
        )
        cases = [(s.ext_over_base, s.base_inside) for s in _valid_splits(fam)]
        for m, n in cases + [(rad, rad)]:
            del seen[:]
            bimod.curly_E(m, n)
            var, hom_rows, _ = bimod.hom_equations(m, n)
            want = _all_pairs_bilinear_rows(m, n, var)
            assert seen == [hom_rows + want]
            bilinear += len(want)
    assert bilinear > 0


def _probe_tables(acting, ambient, amb_index, embed):
    """Both action tables by probing every (acting, span) pair of basis
    indices, i ascending in each row."""
    pos = {g: i for i, g in enumerate(amb_index)}
    left, right = [], []
    for ea in embed:
        lt, rt = {}, {}
        for i, g in enumerate(amb_index):
            for table, cell in ((lt, ambient.products[ea].get(g)),
                                (rt, ambient.products[g].get(ea))):
                if cell is not None:
                    table[i] = {pos[k]: c for k, c in cell.items()}
        left.append(lt)
        right.append(rt)
    return left, right


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["Q", "F7"])
def test_span_tables_match_probing(files, chain_text, field):
    """The actions read off the nonzero ambient products, by touched and by
    act, equal the tables probed pair by pair, key order included: for the
    regular bimodule of C, of Ctilde and of every partial extension, and
    for the arrow ideal over Ctilde, listed in basis order and reversed,
    and over C, and the base span acted on by C, on ex1/ex2, chain k <= 4
    and squares k <= 3."""
    pfs = [files[n] for n in sorted(files)]
    pfs += [qdsl.parse(chain_text(k)) for k in range(1, 5)]
    pfs += [qdsl.parse(squares(k)) for k in range(1, 4)]
    seen = 0
    for pf in pfs:
        fam = extensions.Family(pf.block("C"), pf.block("Ctilde"), field)
        ct, new = fam.full, fam.new_arrows
        ideal = bimod.arrow_ideal_bimodule(ct, new)
        cases = [ideal,
                 bimod.sub_bimodule(ct, ideal.amb_index[::-1]),
                 fam.split((), new).ext_over_base,
                 fam.split((), new).base_inside]
        for r in range(len(new) + 1):
            for combo in combinations(new, r):
                try:
                    alg = fam.partial(combo)
                except extensions.SplitError:
                    continue
                cases.append(bimod.regular_bimodule(alg))
        for m in cases:
            probed = _probe_tables(m.acting, m.ambient, m.amb_index, m.embed)
            for side, (own, want) in enumerate(zip(ref.action_tables(m), probed)):
                assert own == want
                assert [list(t) for t in own] == [list(t) for t in want]
                assert [
                    [m.act(side, a, i) for i in range(m.dim)]
                    for a in range(m.acting.dim)
                ] == [[t.get(i, {}) for i in range(m.dim)] for t in want]
            seen += 1
    # 4 spans per family, then 4 partials per fixture and 2**k per chain
    # and per squares
    assert seen == 4 * 9 + 4 + 4 + (2 + 4 + 8 + 16) + (2 + 4 + 8)


def test_span_listing_a_path_twice_is_refused(algebras):
    alg = algebras[("ex1", "C")]
    with pytest.raises(ValueError, match="twice"):
        bimod.Bimodule.from_ambient_span(alg, alg, (0, 0))


def test_span_indices_are_checked_before_any_product_is_read(algebras):
    """An index outside range(ambient.dim), negative ones included, and an
    embed of the wrong length are refused by name, on an ambient whose
    products cannot be read."""
    alg = algebras[("ex1", "C")]
    assert alg.dim == 11
    unreadable = replaced(alg, products=None)
    for bad in (11, -1):
        with pytest.raises(ValueError, match=r"span index %d is outside range\(11\)" % bad):
            bimod.Bimodule.from_ambient_span(alg, unreadable, (bad,), range(11))
    with pytest.raises(ValueError, match="embed lists 10 ambient indices for the 11 "):
        bimod.Bimodule.from_ambient_span(alg, unreadable, (), range(10))
    with pytest.raises(ValueError, match=r"embed index -1 is outside range\(11\)"):
        bimod.Bimodule.from_ambient_span(alg, unreadable, (), (-1, *range(1, 11)))


def test_span_not_closed_under_one_action_is_refused(algebras, files):
    """Mutation check of the closure pass: the new-arrow ideal of ex2's
    Ctilde minus one of its paths of length >= 2 is refused, naming that
    path.  A path that starts with a new arrow is hit only by the right
    action, one that ends with a new arrow only by the left."""
    ct = algebras[("ex2", "Ctilde")]
    new = tuple(files["ex2"].block("Ctilde").new_arrows)
    span = bimod.square_zero_ideal_paths(ct, new)
    new_arrows = {ct.quiver.arrow_index[n] for n in new}
    ends = set()
    for g in span:
        p = ct.basis[g]
        if p.length < 2:
            continue
        rest = tuple(h for h in span if h != g)
        want = "not closed under the action: product hits %s$" % re.escape(p.label())
        with pytest.raises(ValueError, match=want):
            bimod.sub_bimodule(ct, rest)
        ends.add((p.arrows[0] in new_arrows, p.arrows[-1] in new_arrows))
    assert {(True, False), (False, True)} <= ends


def test_embedding_that_swaps_the_idempotents_is_refused():
    """k x k on vertices 1 and 2, acting on itself with e_1 and e_2
    swapped: the swap is multiplicative, so the section premise holds, but
    e_1 would act as the projection onto e_2.  The bimodule so twisted has
    H0 = 0; the view read through the swap would report 2."""
    alg = build(qdsl.parse("algebra A\nvertices 1 2\nend\n").block("A"))
    assert bimod.section_defects(alg, alg, (1, 0)) == []
    with pytest.raises(ValueError, match="idempotent at '1' is embedded as"):
        bimod.Bimodule.from_ambient_span(alg, alg, range(2), (1, 0))
