"""The checked split of two arbitrary algebras, which Family.split replaced.

`Family.split` reads the section and the projection of a pair of partial
extensions off index sets, relying on facts the family checks once.  This
reference builds the same `SplitPresentation` for any base and total
algebra and checks everything on the pair itself; the tests compare the
family's splits with it and run its refusals on broken inputs.

`section_embed` and `direct_sum_check` are the per-subset checks that
`Family` ran before it indexed each partial extension by the Ctilde basis
indices it keeps and decided which subsets split from the linked pairs of
new arrows, collected once per family.  The tests compare both with them.

`from_ambient_span` and `sub_bimodule` are the checked constructors of a
`Bimodule` on a span of ambient basis paths, which run the full
`Bimodule.verify`.  The package builds its bimodules as plain views, each
one's checks argued where it is made; the tests build theirs here.
"""

from __future__ import annotations

from relext import bimod
from relext.algebra import IdealNotSpanned, arrow_ideal_paths
from relext.bimod import Bimodule
from relext.extensions import (
    SplitError,
    SplitPresentation,
    _check_opposite_relations,
    _index_maps,
)


def from_ambient_span(acting, ambient, amb_index, embed=None) -> Bimodule:
    """The bimodule on the span of the ambient basis paths amb_index, acted
    on through embed, once Bimodule.verify passes; embed defaults to the
    identity, which needs acting to be ambient."""
    if embed is None:
        if acting is not ambient:
            raise ValueError("an embedding is required when acting != ambient")
        embed = range(acting.dim)
    m = Bimodule(acting, ambient, amb_index, embed)
    m.verify()
    return m


def sub_bimodule(ambient, amb_index, acting=None, embed=None) -> Bimodule:
    """from_ambient_span, acting by default through the ambient itself."""
    return from_ambient_span(ambient if acting is None else acting, ambient, amb_index, embed)


def section_embed(acting, ambient) -> tuple:
    """Ambient basis index of each acting basis path, matched by labels."""
    amb_pos = {}
    for i, p in enumerate(ambient.basis):
        amb_pos[p.label()] = i
    out = []
    for p in acting.basis:
        j = amb_pos.get(p.label())
        if j is None:
            raise ValueError(
                "path %s of %r is not a basis path of %r"
                % (p.label(), acting.block.name, ambient.block.name)
            )
        out.append(j)
    return tuple(out)


def direct_sum_check(ambient, parts) -> bool:
    """Do the arrow ideals of the given disjoint arrow sets decompose the
    ideal of their union as a direct sum, each of these ideals being the
    span of the basis paths through its arrows?  False when one of them is
    not such a span.

    With every ideal a span of basis paths, the sum is direct iff no basis
    path runs through two parts.  With the union's ideal such a span, a
    part's ideal larger than its paths' span makes the dimensions of the
    parts add up to more than the union's, so False is then exact."""
    parts = [set(p) for p in parts]
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            if parts[i] & parts[j]:
                return False
    seen = set()
    try:
        arrow_ideal_paths(ambient, set().union(*parts))
        for p in parts:
            span = arrow_ideal_paths(ambient, p)
            if seen.intersection(span):
                return False
            seen.update(span)
    except IdealNotSpanned:
        return False
    return True


def split_presentation(base, total, new_arrow_names) -> SplitPresentation:
    """The split of total over base along the named new arrows, for any
    pair of algebras, with every check: the arrows match, each new arrow is
    opposite to a base relation, the new-arrow ideal is a span of paths
    squaring to zero, the label-matched section is multiplicative, and the
    base paths and the ideal paths partition the total basis.  Family.split
    reads the same maps off the family's index sets instead."""
    new_arrow_names = tuple(new_arrow_names)

    base_names = {a.name for a in base.quiver.arrows}
    total_names = {a.name for a in total.quiver.arrows}
    for n in new_arrow_names:
        if n not in total_names:
            raise SplitError("new arrow %s is not an arrow of the total algebra" % n)
        if n in base_names:
            raise SplitError("new arrow %s already belongs to the base" % n)
    if total_names - base_names != set(new_arrow_names):
        raise SplitError(
            "arrows of the total algebra are not base arrows plus the new ones"
        )
    _check_opposite_relations(base.block.relations, total, new_arrow_names)

    section, projection = _index_maps(
        section_embed(base, total), range(total.dim), total.dim
    )
    sp = SplitPresentation(base, total, new_arrow_names, section, projection)
    ext = sp.ext
    if base.field is not total.field:
        raise ValueError("acting and ambient algebras use different fields")

    # the section must be multiplicative, so the base is a subalgebra and
    # the product takes the form (c,e)(c',e') = (cc', ce'+ec') on the nose;
    # a defect that does not even annihilate the ideal breaks the bimodule
    # axioms of the base's action, and is reported as Bimodule.verify does
    defects = bimod.section_defects(base, total, section)
    sp.ext_over_base.check_section_defects(defects)

    # the base paths and the ideal paths must partition the total basis
    covered = set(section) | set(ext.amb_index)
    if len(section) + ext.dim != total.dim or covered != set(range(total.dim)):
        raise SplitError(
            "total algebra does not split as base plus the new-arrow ideal"
        )
    if defects:
        i, j, _ = defects[0]
        raise SplitError(
            "products of base paths %s and %s disagree between the "
            "base and total algebras"
            % (base.basis[i].label(), base.basis[j].label())
        )
    return sp
