"""Partial extensions as restrictions of the full extension's tables.

The references here are the builders the restriction replaced: the
quotient built from its own presentation, the dense loop that spans a
two-sided ideal, the direct sum check over those dense ideals, and the split
presentation whose two bimodules each run the full Bimodule.verify.  The
restricted algebras, split bimodules and reports must equal theirs
literally."""

from itertools import combinations

import pytest

from relext import bimod, extensions, qdsl
from relext.algebra import (
    AlgebraBuildError,
    IdealNotSpanned,
    arrow_ideal_paths,
    build,
    quotient_by_arrows,
)
from relext.exactla import PrimeField, QQ, Subspace
from relext.quiver import Path
from build_reference import enumerate_paths, nf_coords

from dense_reference import action_tables
from families import squares
from split_reference import direct_sum_check, section_embed

FIELDS = pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["Q", "F7"])

# a commutative square: c.d reduces to a.b, so the ideal of c holds a.b,
# a path that avoids c
SQUARE = (
    "algebra S\nvertices 1 2 3 4\narrow a 1 2\narrow b 2 4\narrow c 1 3\n"
    "arrow d 3 4\nrel a.b - c.d\nend\n"
)


# -- references ------------------------------------------------------------------


def _reference_ideal_subspace(alg, arrows):
    """The two-sided ideal generated by the arrows, spanned by multiplying
    with every basis element until the span stops growing."""
    f = alg.field
    units = [{i: f.one()} for i in range(alg.dim)]
    span = Subspace.from_sparse(
        f, alg.dim, [units[alg.arrow_index_in_basis[a]] for a in arrows]
    )
    while True:
        extra = []
        for vec in span.rows:
            for unit in units:
                for prod in (alg.multiply_sparse(unit, vec), alg.multiply_sparse(vec, unit)):
                    if prod and not span.contains(prod):
                        extra.append(prod)
        if not extra:
            return span
        span = Subspace.from_sparse(f, alg.dim, list(span.rows) + extra)


def _path_span(alg, arrows):
    names = set(arrows)
    f = alg.field
    return Subspace.from_sparse(
        f,
        alg.dim,
        [
            {i: f.one()}
            for i, p in enumerate(alg.basis)
            if any(alg.quiver.arrows[k].name in names for k in p.arrows)
        ],
    )


def _reference_quotient_by_arrows(alg, arrows):
    """The quotient built from the presentation without the arrows, with the
    dimension identity checked against the dense ideal."""
    arrows = frozenset(arrows)
    block = alg.block
    if not arrows:
        return alg
    kept_rels = []
    for rel in block.relations:
        kept = tuple(t for t in rel.terms if not any(n in arrows for n in t.arrows))
        if kept:
            kept_rels.append(qdsl.RelationExpr(kept, rel.source, rel.target))
    sub_block = qdsl.AlgebraBlock(
        name="%s_minus_%s" % (block.name, "_".join(sorted(arrows))),
        field_spec=block.field_spec,
        vertices=block.vertices,
        arrows=tuple(a for a in block.arrows if a[0] not in arrows),
        relations=tuple(kept_rels),
        extension_of=None,
        new_arrows=(),
    )
    quot = build(sub_block, field=alg.field, max_len_cap=max(alg.zero_length, 2))
    ideal_dim = _reference_ideal_subspace(alg, arrows).dim
    if quot.dim + ideal_dim != alg.dim:
        raise AlgebraBuildError("quotient dimension does not add up")
    return quot


def _reference_direct_sum_check(ambient, parts):
    parts = [set(p) for p in parts]
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            if parts[i] & parts[j]:
                return False
    union = set().union(*parts) if parts else set()
    total = _reference_ideal_subspace(ambient, union)
    subs = [_reference_ideal_subspace(ambient, p) for p in parts]
    if sum(s.dim for s in subs) != total.dim:
        return False
    for i in range(len(subs)):
        for j in range(i + 1, len(subs)):
            if subs[i].intersect(subs[j]).dim != 0:
                return False
    acc = Subspace.zero(ambient.field, ambient.dim)
    for s in subs:
        acc = acc.sum(s)
    return acc == total


def _reference_split_presentation(base, total, new_arrow_names):
    """Both split bimodules built from the ambient span and verified, after
    the dense ideal check; then the partition and the multiplicativity."""
    new_arrow_names = tuple(new_arrow_names)
    section = section_embed(base, total)
    projection = [None] * total.dim
    for i, g in enumerate(section):
        projection[g] = i
    span = tuple(
        i
        for i, p in enumerate(total.basis)
        if any(total.quiver.arrows[k].name in new_arrow_names for k in p.arrows)
    )
    if _reference_ideal_subspace(total, new_arrow_names) != _path_span(
        total, new_arrow_names
    ):
        raise ValueError("ideal is not spanned by the paths through those arrows")
    ext = bimod.sub_bimodule(total, span)
    ext_over_base = bimod.sub_bimodule(total, span, acting=base, embed=section)
    covered = set(section) | set(ext.amb_index)
    if len(section) + ext.dim != total.dim or covered != set(range(total.dim)):
        raise extensions.SplitError("total algebra does not split")
    for i in range(base.dim):
        for j in range(base.dim):
            lhs = total.product_coords(section[i], section[j])
            rhs = {section[k]: c for k, c in base.product_coords(i, j).items()}
            if lhs != rhs:
                raise extensions.SplitError("products disagree")
    sp = extensions.SplitPresentation(
        base=base,
        total=total,
        new_arrows=new_arrow_names,
        section=section,
        projection=tuple(projection),
    )
    sp._ext, sp._ext_over_base = ext, ext_over_base
    return sp


# -- helpers ---------------------------------------------------------------------


def _families(files, chain_text, field):
    pfs = [files[n] for n in sorted(files)]
    pfs += [qdsl.parse(chain_text(k)) for k in (1, 2, 3)]
    return [extensions.Family(pf.block("C"), pf.block("Ctilde"), field) for pf in pfs]


def _families_and_squares(files, chain_text, field):
    """_families, then squares k <= 3, whose relations are not monomial."""
    fams = _families(files, chain_text, field)
    for k in (1, 2, 3):
        pf = qdsl.parse(squares(k))
        fams.append(extensions.Family(pf.block("C"), pf.block("Ctilde"), field))
    return fams


def _subsets(names):
    return [c for r in range(len(names) + 1) for c in combinations(names, r)]


def _reference_partials(fam):
    """B_S for every subset that splits the ideal under the references; as
    in the family, C itself for the empty subset."""
    out = {(): fam.base}
    for s in _subsets(fam.new_arrows)[1:]:
        comp = tuple(n for n in fam.new_arrows if n not in s)
        if comp and not _reference_direct_sum_check(fam.full, [s, comp]):
            continue
        out[s] = _reference_quotient_by_arrows(fam.full, comp)
    return out


def _assert_same_algebra(alg, ref):
    assert [p.label() for p in alg.basis] == [p.label() for p in ref.basis]
    assert alg.products == ref.products
    assert alg.block == ref.block
    assert alg.idem_index == ref.idem_index
    assert alg.arrow_index_in_basis == ref.arrow_index_in_basis
    # normal forms of every path up to the vanishing length, arrows matched
    # by name
    for p in enumerate_paths(ref.quiver, ref.zero_length):
        names = [ref.quiver.arrows[k].name for k in p.arrows]
        q = Path(alg.quiver, p.vertex, tuple(alg.quiver.arrow_index[n] for n in names))
        assert nf_coords(alg, q) == nf_coords(ref, p), p.label()


def _bimodule_fields(m):
    return (
        m.dim, action_tables(m), m.src, m.tgt, m.amb_index, m.embed,
        m.acting.block.name, m.ambient.block.name,
    )


# -- the restriction ---------------------------------------------------------------


@FIELDS
def test_partials_match_build_reference(files, chain_text, field):
    """Family.partial and quotient_by_arrows by restriction equal the quotient
    built from its presentation: labels, structure constants, presentation,
    idempotent and arrow positions, and every normal form."""
    count = 0
    for fam in _families(files, chain_text, field):
        refs = _reference_partials(fam)
        for s in _subsets(fam.new_arrows):
            comp = tuple(n for n in fam.new_arrows if n not in s)
            if s and comp:
                assert direct_sum_check(fam.full, [s, comp]) == (s in refs)
            if s not in refs:
                with pytest.raises(extensions.SplitError, match="does not split"):
                    fam.partial(s)
                continue
            _assert_same_algebra(fam.partial(s), refs[s])
            count += 1
        # every arrow subset, splitting or not, restricts like it builds
        for s in _subsets(fam.new_arrows):
            _assert_same_algebra(
                quotient_by_arrows(fam.full, s),
                _reference_quotient_by_arrows(fam.full, s),
            )
    # ex1, ex2 (4 subsets each) and chain k = 1, 2, 3 (2, 4, 8)
    assert count == 4 + 4 + 2 + 4 + 8


@FIELDS
def test_splits_match_reference(files, chain_text, field):
    """Every split of every comparable pair equals the reference split over
    the reference partials, table for table, and its bimodules pass the
    full Bimodule.verify that the restriction no longer runs."""
    count = 0
    for fam in _families(files, chain_text, field):
        refs = _reference_partials(fam)
        for lower in refs:
            for upper in refs:
                if not set(lower) <= set(upper):
                    continue
                extra = tuple(n for n in upper if n not in lower)
                sp = fam.split(lower, upper)
                ref = _reference_split_presentation(refs[lower], refs[upper], extra)
                assert sp.new_arrows == ref.new_arrows
                assert sp.section == ref.section
                assert sp.projection == ref.projection
                for m, r in ((sp.ext, ref.ext), (sp.ext_over_base, ref.ext_over_base)):
                    assert _bimodule_fields(m) == _bimodule_fields(r)
                    m.verify()
                count += 1
    # comparable pairs: 9 per 2-arrow family, 3, 9, 27 for chain k = 1, 2, 3
    assert count == 9 + 9 + 3 + 9 + 27


@pytest.mark.parametrize("name", ["ex1", "ex2", "chain2"])
def test_family_reports_match_reference_builders(files, chain_text, monkeypatch, name):
    """poset and verify on every subset give the same reports when the
    partials, the test of which subsets split and the splits come from the
    references."""
    pf = qdsl.parse(chain_text(2)) if name == "chain2" else files[name]

    def reports():
        fam = extensions.Family(pf.block("C"), pf.block("Ctilde"))
        out = {s: fam.verify(s).to_dict() for s in _subsets(fam.new_arrows)}
        out["poset"] = fam.poset().to_dict()
        return out

    restricted = reports()
    monkeypatch.setattr(extensions, "quotient_by_arrows", _reference_quotient_by_arrows)
    monkeypatch.setattr(
        extensions, "restrict", lambda alg, arrows, kept: _reference_quotient_by_arrows(alg, arrows)
    )
    monkeypatch.setattr(
        extensions,
        "_split_of",
        lambda lower, upper, extra: _reference_split_presentation(lower[0], upper[0], extra),
    )
    monkeypatch.setattr(
        extensions.Family,
        "_splits",
        lambda fam, key: _reference_direct_sum_check(
            fam.full, [key, [n for n in fam.new_arrows if n not in key]]
        ),
    )
    assert reports() == restricted


@FIELDS
def test_restrictions_carry_reduced_groebner_basis(files, chain_text, field):
    """A restriction reduces by its own rules, which are the reduced
    Groebner basis that building its presentation completes: reduced bases
    are unique."""
    count = 0
    for fam in _families_and_squares(files, chain_text, field):
        for s in _subsets(fam.new_arrows):
            alg = quotient_by_arrows(fam.full, s)
            assert alg._rules == _reference_quotient_by_arrows(fam.full, s)._rules, s
            count += 1
    # 4 subsets per fixture, 2 + 4 + 8 for chain k <= 3, 2 + 4 + 8 for squares
    assert count == 4 + 4 + 14 + 14


@FIELDS
def test_split_views_match_arrow_scan(files, chain_text, field):
    """On every comparable pair, the base inside the total and the ideal
    over the base are views passing Bimodule.verify, and the base sits at
    the total's paths that avoid the new arrows, in ascending order."""
    count = 0
    for fam in _families_and_squares(files, chain_text, field):
        valid = []
        for s in _subsets(fam.new_arrows):
            try:
                fam.partial(s)
            except extensions.SplitError:
                continue
            valid.append(s)
        for lower in valid:
            for upper in valid:
                if not set(lower) <= set(upper):
                    continue
                sp = fam.split(lower, upper)
                sp.base_inside.verify()
                sp.ext_over_base.verify()
                names = set(sp.new_arrows)
                scan = tuple(
                    i
                    for i, p in enumerate(sp.total.basis)
                    if not any(sp.total.quiver.arrows[k].name in names for k in p.arrows)
                )
                assert sp.base_inside.amb_index == sp.base_inside.embed == scan
                count += 1
    # comparable pairs: 9 per 2-arrow family, 3, 9, 27 for k = 1, 2, 3
    assert count == 9 + 9 + 3 + 9 + 27 + 3 + 9 + 27


# -- the closure check -------------------------------------------------------------


def _closure_cases(files, chain_text):
    square = build(qdsl.parse(SQUARE).block("S"))
    algs = [square] + [build(b) for n in sorted(files) for b in files[n].blocks]
    pf = qdsl.parse(chain_text(2))
    fam = extensions.Family(pf.block("C"), pf.block("Ctilde"))
    algs += [fam.partial(s) for s in (("e1",), ("e2",))]
    for alg in algs:
        names = [a.name for a in alg.quiver.arrows]
        for r in (1, 2):
            for arrows in combinations(names, r):
                yield alg, arrows


def test_arrow_ideal_paths_match_dense_ideal(files, chain_text):
    """The index-set closure check passes exactly when the dense ideal is
    the span of the paths through the arrows, and then returns those paths."""
    closed = not_closed = 0
    for alg, arrows in _closure_cases(files, chain_text):
        ideal = _reference_ideal_subspace(alg, arrows)
        paths = _path_span(alg, arrows)
        try:
            span = arrow_ideal_paths(alg, arrows)
        except ValueError:
            assert ideal != paths, (alg, arrows)
            not_closed += 1
        else:
            assert ideal == paths, (alg, arrows)
            assert Subspace.from_sparse(
                alg.field, alg.dim, [{g: alg.field.one()} for g in span]
            ) == paths
            closed += 1
    assert closed and not_closed


def test_ideal_not_spanned_by_its_paths_rejected():
    sq = build(qdsl.parse(SQUARE).block("S"))
    msg = r"ideal of \['c'\] is not spanned by the paths through those arrows"
    with pytest.raises(IdealNotSpanned, match=msg):
        quotient_by_arrows(sq, ("c",))
    with pytest.raises(IdealNotSpanned, match=msg):
        bimod.arrow_ideal_bimodule(sq, ("c",))
    # the check answers only for ideals spanned by their paths
    assert direct_sum_check(sq, [["c"]]) is False
    # a part whose ideal outgrows its paths inside a union that does not
    assert direct_sum_check(sq, [["a"], ["c"]]) is False
    assert _reference_direct_sum_check(sq, [["a"], ["c"]]) is False
    # the ideal of a is its paths: the quotient keeps c.d = a.b = 0
    red = quotient_by_arrows(sq, ("a",))
    _assert_same_algebra(red, _reference_quotient_by_arrows(sq, ("a",)))
    assert red.dim == sq.dim - 2
