"""Trivial extensions of bound quiver algebras along designated arrow sets.

A presentation here is a pair of algebras (base, total) where the total
algebra is the base plus some new arrows whose two-sided ideal squares to
zero, together with the section re-reading every base path inside the total
algebra.  On top of that this module provides:

  * the degree 0 and 1 cohomology projection maps, each as the sparse
    images of the source class basis, with well-definedness checked (inner
    derivations land on inner ones),
  * a solver for the lifting conditions that let a base derivation extend
    to the total algebra: given d on the base, find a linear alpha on the
    extension ideal with x d(c) = alpha(x) c - alpha(xc) and
    d(c) x = c alpha(x) - alpha(cx); every d of one presentation is a
    right-hand side of one system, and each alpha is checked on the pairs
    where a term can be nonzero,
  * a verifier for the four dimension identities tying the cohomology of
    the base, a partial extension and the full extension together, with
    the kernel bookkeeping behind each identity,
  * the poset of partial extensions indexed by subsets of the new arrows.

Everything is deterministic: subsets are enumerated in declaration order,
class bases come from the echelon form, and reports are reproducible
byte for byte.
"""

from __future__ import annotations

from itertools import combinations

from . import bimod, exactla, repmod
from .algebra import (
    BoundQuiverAlgebra,
    IdealNotSpanned,
    build,
    quotient_by_arrows,
    restrict,
)
from .bimod import Bimodule
from .exactla import Subspace
from .hochschild import (
    CohomologySpace,
    arrow_layout,
    derivation_values,
    h0,
    h1,
)
from .qdsl import AlgebraBlock


class SplitError(ValueError):
    pass


class LiftCheckError(SplitError, ArithmeticError):
    """A solved lift that fails the defining conditions: an internal fault,
    not a derivation without a lift and not bad input."""


class ProjectionCheckError(SplitError, ArithmeticError):
    """A cohomology projection, or the arrow layouts it reads, failing an
    identity of every valid split: an internal fault, not bad input."""


# -- regular coefficients, cached on the algebra object ------------------------


def regular_bimodule_of(alg) -> Bimodule:
    if alg._regular is None:
        alg._regular = bimod.regular_bimodule(alg)
    return alg._regular


def center(alg) -> Subspace:
    """{z : zb = bz for all b}, H0 with coefficients in alg itself;
    computed once per algebra."""
    if alg._center is None:
        alg._center = h0(regular_bimodule_of(alg))
    return alg._center


def regular_h1(alg) -> CohomologySpace:
    if alg._regular_h1 is None:
        alg._regular_h1 = h1(alg, regular_bimodule_of(alg))
    return alg._regular_h1


# -- split presentations ------------------------------------------------------


class SplitPresentation:
    """total = base + new arrows, with the ideal of the new arrows squaring
    to zero and the base sitting inside as a subalgebra, path by path.

    The section and the projection are index maps between the two bases.
    The ideal, as a bimodule over the total and over the base, is built on
    first use: projections read only the index maps."""

    def __init__(
        self,
        base: BoundQuiverAlgebra,
        total: BoundQuiverAlgebra,
        new_arrows: tuple,
        section: tuple,  # base basis index -> total basis index
        projection: tuple,  # total basis index -> base basis index or None
    ):
        self.base = base
        self.total = total
        self.new_arrows = new_arrows
        self.section = section
        self.projection = projection
        self._ext = None  # set by ext
        self._ext_over_base = None  # set by ext_over_base
        self._derivation_map = None  # set by derivation_map

    @property
    def field(self):
        return self.base.field

    @property
    def ext(self) -> Bimodule:
        """The ideal of the new arrows, acting algebra = total."""
        if self._ext is None:
            self._ext = bimod.arrow_ideal_bimodule(self.total, self.new_arrows)
        return self._ext

    @property
    def ext_over_base(self) -> Bimodule:
        """The same span, acting algebra = base: the base acts on the ideal
        as sigma(c) does, through the section.  ext is closed under the
        total's action, and the section sends idempotents to idempotents
        (it matches labels) and is multiplicative, so this view passes what
        Bimodule.verify checks."""
        if self._ext_over_base is None:
            self._ext_over_base = Bimodule(
                self.base, self.total, self.ext.amb_index, self.section
            )
        return self._ext_over_base

    @property
    def base_inside(self) -> Bimodule:
        """The base as a bimodule over itself, sitting in the total at the
        section.  The section is multiplicative, sends each e_v to e_v and
        has no defects, so the span is closed under the base's action and
        this view passes what Bimodule.verify checks."""
        return Bimodule(self.base, self.total, self.section, self.section)

    def project_coords(self, coords: dict) -> dict:
        """Sparse coordinates over the base; those on new-arrow paths are
        killed."""
        proj = self.projection
        return {proj[g]: c for g, c in coords.items() if proj[g] is not None}

    def derivation_map(self) -> dict:
        """The projection of derivations c |-> p(d(sigma(c))) in arrow
        coordinates, as {total coordinate: base coordinate}; built once per
        presentation.  Each kept coordinate of a base arrow's slice must
        land in its slice over the base, which is checked once per slice
        entry."""
        if self._derivation_map is None:
            lt = arrow_layout(self.total, regular_bimodule_of(self.total))
            lb = arrow_layout(self.base, regular_bimodule_of(self.base))
            pos_t = {a.name: k for k, a in enumerate(self.total.quiver.arrows)}
            to_base = {}
            for kb, a in enumerate(self.base.quiver.arrows):
                kt = pos_t[a.name]
                block_pos = {b: u for u, b in enumerate(lb.blocks[kb])}
                for u, g in enumerate(lt.blocks[kt]):
                    b = self.projection[g]
                    if b is None:
                        continue
                    if b not in block_pos:
                        raise ProjectionCheckError(
                            "projected derivation leaves the bigraded slice of %s"
                            % a.name
                        )
                    to_base[lt.offsets[kt] + u] = lb.offsets[kb] + block_pos[b]
            self._derivation_map = to_base
        return self._derivation_map


def _index_maps(base_index, total_index, total_dim) -> tuple:
    """(section, projection) of a base whose basis sits at base_index in
    some ambient basis, inside a total sitting at total_index: the section
    sends base basis index i to the total index of the same ambient path,
    and the projection is its inverse, None off the section."""
    at = {g: j for j, g in enumerate(total_index)}
    section = tuple(at[g] for g in base_index)
    projection = [None] * total_dim
    for i, j in enumerate(section):
        projection[j] = i
    return section, tuple(projection)


def _split_of(lower, upper, extra) -> SplitPresentation:
    """The split of upper over lower along the arrows extra, each of lower
    and upper given as (algebra, the ambient indices of its basis)."""
    (base, base_index), (total, total_index) = lower, upper
    return SplitPresentation(base, total, extra, *_index_maps(base_index, total_index, total.dim))


def _check_opposite_relations(relations, total, new_arrow_names):
    """Every new arrow x -> y must be opposite to a relation y -> x."""
    ends = {(rel.source, rel.target) for rel in relations}
    for a in total.quiver.arrows:
        if a.name in new_arrow_names and (a.target, a.source) not in ends:
            raise SplitError(
                "new arrow %s (%s -> %s) is not opposite to any base relation"
                % (a.name, a.source, a.target)
            )


# -- cohomology projections ---------------------------------------------------


def project_derivation(sp: SplitPresentation, vec: dict) -> dict:
    """Sparse arrow coordinates over the base of the projected derivation
    c |-> p(d(sigma(c))), for d given by its sparse arrow coordinates over
    the total."""
    to_base = sp.derivation_map()
    return {to_base[t]: c for t, c in vec.items() if t in to_base}


def _coefficient_slots_in_regular(alg, coeff: Bimodule) -> dict:
    """{slot of coeff's arrow layout: the regular layout's slot of the same
    arrow and path}, for a coefficient bimodule inside alg.  A derivation
    valued in an ideal of the algebra is a derivation of the algebra
    itself, with its sparse arrow coordinates re-keyed by this map."""
    if coeff.ambient is not alg or coeff.acting is not alg:
        raise SplitError("coefficient bimodule does not live inside this algebra")
    lc = arrow_layout(alg, coeff)
    lr = arrow_layout(alg, regular_bimodule_of(alg))
    to_reg = {}
    for k in range(len(alg.quiver.arrows)):
        reg_pos = {g: u for u, g in enumerate(lr.blocks[k])}
        for u, i in enumerate(lc.blocks[k]):
            to_reg[lc.offsets[k] + u] = lr.offsets[k] + reg_pos[coeff.amb_index[i]]
    return to_reg


def hochschild_projection(sp: SplitPresentation, degree: int) -> list:
    """The projection map on cohomology classes, as the images of the
    class basis of the total algebra, each sparse on the base's class
    basis.

    In degree 1 the map is well defined because inner derivations project
    to inner ones, checked as an identity on the stored ad(x) of the total
    (CohomologySpace.ad): p is an algebra map fixing the base's arrows, so
    for x in the diagonal of the total, p(ad(x)(a)) = a p(x) - p(x) a =
    ad(p(x))(a) on every base arrow a, and project_derivation(ad(x)) must
    equal the base's ad(p(x)) entry for entry, with ad(0) = {} where p
    kills x.  The ad(x) span the total's inner derivations, so this says
    more than membership of their projections in the base's, and needs no
    reduction.  A projected representative then gets its class coordinates
    in one reduction, which raises exactly when it lies outside the span
    of the base's inner basis and representatives, that is outside its
    derivations."""
    if degree == 0:
        tgt = center(sp.base)
        images = []
        for z in center(sp.total).rows:
            coords = tgt.coordinates_of(sp.project_coords(z))
            if coords is None:
                raise ProjectionCheckError("projection of a central element is not central")
            images.append(coords)
        return images
    if degree != 1:
        raise ValueError("projection matrices are built in degrees 0 and 1")

    tgt = regular_h1(sp.base)
    for x, vec in regular_h1(sp.total).ad.items():
        px = sp.projection[x]
        if project_derivation(sp, vec) != ({} if px is None else tgt.ad.get(px)):
            raise ProjectionCheckError("projection of an inner derivation is not inner")
    return _class_images(sp)


def _class_images(sp: SplitPresentation) -> list:
    """hochschild_projection in degree 1 without its inner check, which
    Family.poset's per-node checks imply on the edges it reads here."""
    tgt = regular_h1(sp.base)
    images = []
    for r in regular_h1(sp.total).representatives():
        pr = project_derivation(sp, r)
        try:
            images.append(tgt.class_coordinates(pr))
        except ValueError:
            raise ProjectionCheckError(
                "projection of a derivation breaks a base relation"
            ) from None
    return images


def _check_layout_restricts(sp: SplitPresentation):
    """Raise ProjectionCheckError unless derivation_map, which reads the
    base's arrows in turn and the total's slots of each in order, sends
    the slots it keeps onto the base's slots 0, 1, 2, ... in turn: that
    is, unless each block of the base's arrow layout, read through the
    section, is the part of the total's block that the projection keeps."""
    kept = list(sp.derivation_map().values())
    n = arrow_layout(sp.base, regular_bimodule_of(sp.base)).total
    if kept != list(range(n)):
        raise ProjectionCheckError(
            "arrow layout of %s (%d slots) is not that of %s restricted to "
            "it (%d slots kept)" % (sp.base.block.name, n, sp.total.block.name, len(kept))
        )


# -- lifting a base derivation through the extension --------------------------


class LiftWitness:
    def __init__(self, derivation: dict, alpha: dict | None):
        self.derivation = derivation  # the base derivation, in sparse arrow coordinates
        self.alpha = alpha  # {g: {k: c}}, the nonzero coordinates of alpha(x_g)

    @property
    def ok(self) -> bool:
        return self.alpha is not None


def lift_derivations(sp: SplitPresentation, dvecs) -> list:
    """A LiftWitness per normalized base derivation d, in sparse arrow
    coordinates: a linear alpha on the extension ideal with
    x d(c) = alpha(x) c - alpha(xc) and d(c) x = c alpha(x) - alpha(cx), or
    None where none exists.  The left side of this system does not depend
    on d, so it is built once and every d is one right-hand side of a
    single solve.  Raises ValueError on a coordinate outside the base's
    arrow layout, and LiftCheckError when a solved alpha fails the check.

    As in bimod.hom_equations, the conditions at the base arrows c suffice.
    At an idempotent d(e) = 0 and the graded alpha commutes with e.  A
    longer basis path is q.c for a shorter one q, and derivation_values
    gives d(q.c) = d(q).c + q.d(c); so if the conditions hold at q for all
    x and at c for all x, then x d(q.c) = (alpha(x) q - alpha(xq)) c +
    alpha(xq) c - alpha(xqc) = alpha(x) q.c - alpha(x q.c), and the left
    condition telescopes the same way.  So only the arrows get right-hand
    sides.

    The sides d(c) x and x d(c) are built at each c with d(c) != 0 from the
    nonzero products a.x and x.a of the a in d(c)'s support
    (Bimodule.touched, each line read once per call), and kept only at the
    pairs (c, x) where one of them is nonzero: the arrows' entries are the
    right-hand sides, and _lift_holds checks every entry."""
    base = sp.base
    e = sp.ext_over_base
    f = base.field
    reg = regular_bimodule_of(base)
    arrows = set(base.arrow_index_in_basis.values())
    var, rows, keys = bimod.hom_equations(e, e)
    at = {key: r for r, key in enumerate(keys)}
    lines = {}  # acting a -> (touched(0, a), touched(1, a))
    all_sides = []
    rhs_list = []
    for dvec in dvecs:
        # sides[(j, i)] = (d(c) x, x d(c)) for c the base basis element j
        # and x = x_i, where one of them is nonzero
        sides = {}
        rhs = {}
        for j, dj in enumerate(derivation_values(base, reg, dvec)):
            if not dj:
                continue
            acc = {}  # i -> [d(c) x_i, x_i d(c)]
            for a, c in dj.items():
                if a not in lines:
                    lines[a] = (e.touched(0, a), e.touched(1, a))
                for side, line in enumerate(lines[a]):
                    for i, img in line:
                        f.axpy(acc.setdefault(i, [{}, {}])[side], c, img)
            for i in sorted(acc):
                pair = acc[i]
                if not (pair[0] or pair[1]):
                    continue
                sides[(j, i)] = tuple(pair)
                if j not in arrows:
                    continue
                for side, vec in enumerate(pair):
                    for t, c in vec.items():
                        r = at.setdefault((j, i, side, t), len(rows))
                        if r == len(rows):
                            rows.append({})  # no left side: 0 = c
                        rhs[r] = c
        all_sides.append(sides)
        rhs_list.append(rhs)

    sols = exactla.solve_rows(f, len(var), rows, rhs_list)
    unknown = list(var)  # column -> (g, k), the entry alpha(x_g) on x_k
    out = []
    for dvec, sol in zip(dvecs, sols):
        alpha = None
        if sol is not None:
            alpha = {}
            for col, x in sol.items():
                g, k = unknown[col]
                alpha.setdefault(g, {})[k] = x
        out.append(LiftWitness(dvec, alpha))
    checks = [(sides, w.alpha) for sides, w in zip(all_sides, out) if w.ok]
    if checks and not _lift_holds(e, checks):
        raise LiftCheckError(
            "solved lift fails the defining conditions: base %s, total %s, "
            "%d derivations checked, ideal of dim %d"
            % (base.block.name, sp.total.block.name, len(checks), e.dim)
        )
    return out


def _lift_holds(e: Bimodule, checks) -> bool:
    """Exact check of both lifting conditions for each (sides, alpha) of
    checks, alpha given by its sparse rows: alpha(x) c - alpha(xc) and
    c alpha(x) - alpha(cx) are evaluated from the nonzero ambient products
    c.x and x.c (acted), read once for all of checks, and compared with
    x d(c) and d(c) x, which sides holds at every pair (c, x) where one of
    them is nonzero.

    Per alpha, the pairs (c, x) of a base basis element and a basis element
    of the ideal visited are the union of three sets:
      (1) the pairs of sides;
      (2) (c, x) with x in alpha's support and c.x_t or x_t.c != 0 for some
          x_t in the support of alpha(x);
      (3) (c, x) with xc or cx meeting alpha's support.
    On any other pair, x d(c) and d(c) x vanish by (1); alpha(x) c and
    c alpha(x) are sums of the products x_t.c and c.x_t over the x_t in
    alpha(x), all 0 by (2); and alpha(xc) and alpha(cx) vanish by (3), as
    xc and cx have no coordinate where alpha is nonzero.  So both sides of
    both conditions are 0 there.  (2) and (3) are read off two indexes of
    acted, built once per call."""
    f = e.field
    acted = {}  # (j, i) -> [c_j x_i, x_i c_j], where one of them is nonzero
    for j in range(e.acting.dim):
        for side in (0, 1):
            for i, img in e.touched(side, j):
                acted.setdefault((j, i), [{}, {}])[side] = img
    near = {}  # t -> the j with c_j x_t or x_t c_j != 0, for (2)
    hits = {}  # g -> the pairs (j, i) with x_g in c_j x_i or x_i c_j, for (3)
    for (j, i), prods in acted.items():
        near.setdefault(i, []).append(j)
        for g in prods[0].keys() | prods[1].keys():
            hits.setdefault(g, []).append((j, i))
    none = ({}, {})

    for sides, alpha in checks:
        visit = set(sides)
        for i, ax in alpha.items():
            visit.update((j, i) for t in ax for j in near.get(t, ()))
            visit.update(hits.get(i, ()))
        for j, i in visit:
            d_sides = sides.get((j, i), none)
            prods = acted.get((j, i), none)
            ax = alpha.get(i, {})
            # side 1: alpha(x) c - alpha(xc) = x d(c); side 0: c alpha(x) -
            # alpha(cx) = d(c) x
            for side in (1, 0):
                val = {}
                for t, c in ax.items():
                    f.axpy(val, c, acted.get((j, t), none)[side])
                for g, c in prods[side].items():
                    f.axpy(val, f.neg(c), alpha.get(g, {}))
                if val != d_sides[side]:
                    return False
    return True


# -- the four-sequence verifier ------------------------------------------------


class TheoremReport:
    """All dimensions and map-level checks for one splitting; every row
    verdict is recomputed from the stored integers."""

    # field_name is a str, subset a tuple, the dimensions and ranks ints,
    # and the checks bools
    DIMENSIONS = (
        "hh0_C", "hh0_B", "hh0_Ctilde", "hh1_C", "hh1_B", "hh1_Ctilde",
        "h0_B_Eprime", "h0_Ct_Esec", "h1_C_Eprime", "h1_B_Eprime", "h1_Ct_Esec",
        "h1_B_Esec", "h1_Ct_E", "end_Ce_Eprime", "end_Be_Esec",
        "curlyE_Eprime_C", "curlyE_Esec_B",
    )
    CHECKS = (
        "kernel_deg0_matches", "ideal_classes_embed", "ideal_classes_embed_tilde",
        "center_annihilates_complement", "center_symmetric_on_complement",
        "center_positive_part_annihilates", "lifts_ok",
    )
    FIELDS = (
        ("field_name", "subset") + DIMENSIONS
        + ("phi0_rank_BC", "phi1_rank_BC", "phi0_rank_CtB", "phi1_rank_CtB")
        + CHECKS
    )

    def __init__(self, **values):
        """Every one of FIELDS, by keyword."""
        wrong = set(self.FIELDS).symmetric_difference(values)
        if wrong:
            raise TypeError("TheoremReport fields missing or unknown: %s" % ", ".join(sorted(wrong)))
        vars(self).update(values)

    @property
    def rows(self):
        return [
            {
                "name": "deg0 partial over base",
                "lhs": self.hh0_B,
                "rhs": [self.h0_B_Eprime, self.hh0_C],
                "pass": self.hh0_B == self.h0_B_Eprime + self.hh0_C,
            },
            {
                "name": "deg1 partial over base",
                "lhs": self.hh1_B,
                "rhs": [self.h1_B_Eprime, self.hh1_C],
                "pass": self.hh1_B == self.h1_B_Eprime + self.hh1_C,
            },
            {
                "name": "deg0 full over partial",
                "lhs": self.hh0_Ctilde,
                "rhs": [self.h0_Ct_Esec, self.hh0_B],
                "pass": self.hh0_Ctilde == self.h0_Ct_Esec + self.hh0_B,
            },
            {
                "name": "deg1 full over partial",
                "lhs": self.hh1_Ctilde,
                "rhs": [self.h1_Ct_Esec, self.curlyE_Esec_B, self.hh1_B],
                "pass": self.hh1_Ctilde
                == self.h1_Ct_Esec + self.curlyE_Esec_B + self.hh1_B,
            },
        ]

    @property
    def refinement_a_pass(self) -> bool:
        return self.h1_B_Eprime == self.h1_C_Eprime + self.end_Ce_Eprime

    @property
    def refinement_b_pass(self) -> bool:
        return self.h1_Ct_Esec == self.h1_B_Esec + self.end_Be_Esec

    @property
    def pushout_pass(self) -> bool:
        return self.hh1_B == self.hh1_Ctilde + self.h1_B_Eprime - self.h1_Ct_E

    @property
    def surjective(self) -> bool:
        return (
            self.phi0_rank_BC == self.hh0_C
            and self.phi1_rank_BC == self.hh1_C
            and self.phi0_rank_CtB == self.hh0_B
            and self.phi1_rank_CtB == self.hh1_B
        )

    @property
    def all_pass(self) -> bool:
        return (
            all(r["pass"] for r in self.rows)
            and self.refinement_a_pass
            and self.refinement_b_pass
            and self.pushout_pass
            and self.surjective
            and self.kernel_deg0_matches
            and self.ideal_classes_embed
            and self.ideal_classes_embed_tilde
            and self.lifts_ok
        )

    def to_dict(self) -> dict:
        """The report as JSON: the dimensions and the checks in FIELDS
        order, around the verdicts derived from them."""
        out = {"field": self.field_name, "split": list(self.subset)}
        out.update((k, getattr(self, k)) for k in self.DIMENSIONS)
        out.update(
            rows=self.rows,
            refinement_a_pass=self.refinement_a_pass,
            refinement_b_pass=self.refinement_b_pass,
            pushout_pass=self.pushout_pass,
            phi_ranks={
                "deg0_B_to_C": self.phi0_rank_BC,
                "deg1_B_to_C": self.phi1_rank_BC,
                "deg0_Ctilde_to_B": self.phi0_rank_CtB,
                "deg1_Ctilde_to_B": self.phi1_rank_CtB,
            },
            surjective=self.surjective,
        )
        out.update((k, getattr(self, k)) for k in self.CHECKS)
        out["all_pass"] = self.all_pass
        return out


def _ideal_classes_embed(alg, coeff: Bimodule, space: CohomologySpace, sp) -> bool:
    """Classes of ideal-valued derivations must stay independent inside the
    algebra's own degree 1 cohomology and die under the projection.  The
    span of the inner derivations and the classes so far grows in one
    echelon; an insert that adds no row means a dependent class."""
    reg = regular_h1(alg)
    base_inner = regular_h1(sp.base).inner
    span = exactla.Echelon(alg.field)
    for row in reg.inner.rows:
        span.insert(row)
    to_reg = _coefficient_slots_in_regular(alg, coeff)
    count = 0
    for r in space.representatives():
        m = {to_reg[t]: c for t, c in r.items()}
        if not reg.derivations.contains(m):
            return False
        if span.insert(m) is None:
            return False
        count += 1
        if not base_inner.contains(project_derivation(sp, m)):
            return False
    return count == space.dim


def _center_flags(zb: Subspace, esec: Bimodule, stationary: set):
    """(annihilates, symmetric, positive part annihilates) for the base
    center acting on the complement ideal."""
    f = esec.field
    annihilates = True
    symmetric = True
    positive = True
    for z in zb.rows:
        zpos = {i: c for i, c in z.items() if i not in stationary}
        for i in range(esec.dim):
            unit = {i: f.one()}
            ze = esec.left_act(z, unit)
            ez = esec.right_act(z, unit)
            if ze or ez:
                annihilates = False
            if ze != ez:
                symmetric = False
            if esec.left_act(zpos, unit) or esec.right_act(zpos, unit):
                positive = False
    return annihilates, symmetric, positive


# -- the poset of partial extensions -------------------------------------------


class PosetNode:
    def __init__(self, arrows: tuple, dim_hh1: int):
        self.arrows = arrows
        self.dim_hh1 = dim_hh1


class PosetEdge:
    def __init__(self, lower: int, upper: int, phi_rank: int, surjective: bool, monotone: bool):
        self.lower = lower
        self.upper = upper
        self.phi_rank = phi_rank
        self.surjective = surjective
        self.monotone = monotone


class ExtensionPoset:
    def __init__(
        self, nodes: list, edges: list, triangles_commute: bool, minimum: int, maximum: int
    ):
        self.nodes = nodes
        self.edges = edges  # Hasse edges between node indices
        self.triangles_commute = triangles_commute
        self.minimum = minimum
        self.maximum = maximum

    @property
    def monotone(self) -> bool:
        return all(e.monotone for e in self.edges)

    @property
    def surjective(self) -> bool:
        return all(e.surjective for e in self.edges)

    def to_dict(self) -> dict:
        return {
            "nodes": [
                {"arrows": list(n.arrows), "dim_hh1": n.dim_hh1} for n in self.nodes
            ],
            "edges": [
                {
                    "lower": list(self.nodes[e.lower].arrows),
                    "upper": list(self.nodes[e.upper].arrows),
                    "phi_rank": e.phi_rank,
                    "surjective": e.surjective,
                    "monotone": e.monotone,
                }
                for e in self.edges
            ],
            "monotone": self.monotone,
            "surjective": self.surjective,
            "triangles_commute": self.triangles_commute,
            "minimum": list(self.nodes[self.minimum].arrows),
            "maximum": list(self.nodes[self.maximum].arrows),
        }




# -- the family C < B_S < Ctilde -----------------------------------------------


def _components(names: tuple, links) -> list:
    """The connected components of the graph on names whose edges are the
    pairs of links, each a tuple in the order of names, ordered by their
    first name."""
    comp = {n: {n} for n in names}
    for x, y in links:
        if comp[x] is not comp[y]:
            merged = comp[x] | comp[y]
            for n in merged:
                comp[n] = merged
    out = []
    for n in names:
        c = tuple(m for m in names if m in comp[n])
        if c[0] == n:
            out.append(c)
    return out


def _labels(alg) -> list:
    """The label of each basis path, Path.label's, read off the words."""
    names = [a.name for a in alg.quiver.arrows]
    return [".".join([names[k] for k in w]) or "e_" + v for w, v in zip(alg.words, alg.src)]


class Family:
    """The tower C < B_S < Ctilde of one relation extension: the base C, the
    full extension Ctilde, and the partial extension B_S for every subset S
    of Ctilde's new arrows that splits the ideal.

    The family gates run once, here: Ctilde modulo all new arrows must be
    C (same basis labels and structure constants), and the new-arrow ideal
    must have the dimension of Ext^2 of C.  Only C and Ctilde are built:
    every other B_S is Ctilde restricted to the basis paths that avoid the
    new arrows outside S (algebra.restrict), cached per subset by partial.
    C and Ctilde share one field object: `field`, or else the field that
    both blocks must declare.

    Each B_S is indexed by the tuple of the Ctilde basis indices it keeps;
    C's are those of the gate's quotient, whose labels the gate compared
    with C's, so no node matches labels.  split(S, T) reads the section
    B_S -> B_T and the projection back off two such tuples.  The checks a
    split of two arbitrary algebras needs on each pair (the arrows match,
    the section is multiplicative, base and ideal paths partition the total
    basis) follow from facts checked once per family, here:

      (a) C is a subalgebra of Ctilde, path by path: section_defects of C
          in Ctilde is empty;
      (b) the ideal J of all new arrows is the span of its paths and
          squares to zero, and no basis path runs through two new arrows
          (square_zero_ideal_paths);
      (c) every new arrow x -> y is opposite to a relation y -> x of C,
          which by (a) vanishes in Ctilde and so in every B_S;
      (d) the ideal of S is the span of the paths through S, and that of
          its complement the span of theirs, exactly when S separates no
          linked pair.  A pair (x, y) of new arrows, y != x, is linked when
          a nonzero product of a path through x with a basis path has a
          coordinate on a path through y; the pairs are collected once,
          here.  By (b) such a product is a combination of paths through
          single new arrows, and the other factor is a path avoiding them.
          So the span of the paths through S is closed under products, an
          ideal holding the arrows of S and so their ideal, iff no linked
          pair leads out of S; likewise for the complement.  So the valid
          S are the unions of the connected components of the graph of
          linked pairs, computed once, here, and partial refuses the
          others.

    Take S < T and two basis paths p, q of B_S.  If neither runs through a
    new arrow, pq in Ctilde lies in the span of C's paths by (a).  If both
    do, pq = 0 by (b).  Otherwise pq lies in the ideal of S, the span of
    the paths through S by (d), and by (b) none of those runs through an
    arrow of T - S.  So Ctilde's pq has no coordinate on a path through an
    arrow of T - S, and B_S's product, Ctilde's with the paths through the
    arrows outside S dropped, is B_T's: the section is multiplicative.
    The paths of B_T that avoid T - S are those of B_S, and the others span
    the ideal of T - S in B_T (its product with any path of B_T lies in the
    ideal of the arrows outside S, which by (d) is the span of its paths,
    and B_T keeps of those the ones through T - S), so the partition holds
    by the choice of the index sets.  So sp.base_inside, the base at the
    section (ascending: the total's paths avoiding T - S), is a bimodule
    over B_S.  verify runs the projection checks of hochschild_projection
    and derivation_map on each pair it reads; poset runs them once per
    node, and its docstring argues that this covers every pair.
    """

    def __init__(self, base_block: AlgebraBlock, full_block: AlgebraBlock, field=None):
        if field is None:
            if base_block.field_spec != full_block.field_spec:
                raise ValueError(
                    "algebras %s and %s declare different fields, %s and %s"
                    % (base_block.name, full_block.name,
                       base_block.field_spec, full_block.field_spec)
                )
            field = exactla.field_from_spec(base_block.field_spec)
        self.base = build(base_block, field=field)
        self.full = build(full_block, field=field)
        self.new_arrows = tuple(full_block.new_arrows)
        try:
            reduced = quotient_by_arrows(self.full, self.new_arrows)
        except IdealNotSpanned:
            reduced = None
        if reduced is None or _labels(reduced) != _labels(self.base) or (
            reduced.products != self.base.products
        ):
            raise SplitError(
                "the full extension does not reduce to the declared base algebra"
            )
        ext_dim = repmod.ext2_dimension(self.base)
        if ext_dim != self.full.dim - self.base.dim:
            raise SplitError(
                "extension ideal dimension %d does not match the expected %d"
                % (self.full.dim - self.base.dim, ext_dim)
            )
        names = [a.name for a in self.full.quiver.arrows]
        # per Ctilde basis path, the first new arrow it runs through, or None
        self._through = [
            next((names[k] for k in w if names[k] in self.new_arrows), None)
            for w in self.full.words
        ]
        self._partials = {self.new_arrows: self.full, (): self.base}
        # Ctilde basis index of each basis path, per subset
        self._index = {self.new_arrows: tuple(range(self.full.dim)), (): self._kept(())}
        self._components = _components(self.new_arrows, self._check_split_facts())
        self._over_full = None  # set by _full_split
        self._lifts = {}  # subset S -> do all derivations lift to B_S

    def _check_split_facts(self) -> set:
        """Facts (a) to (c) of the class docstring, raising SplitError;
        returns the linked pairs of (d)."""
        defects = bimod.section_defects(self.base, self.full, self._index[()])
        if defects:
            i, j, _ = defects[0]
            raise SplitError(
                "the base is not a subalgebra of the full extension: products "
                "of base paths %s and %s disagree between the base and total "
                "algebras" % (self.base.basis[i].label(), self.base.basis[j].label())
            )
        try:
            span = bimod.square_zero_ideal_paths(self.full, self.new_arrows)
        except ValueError as err:
            raise SplitError(str(err)) from None
        _check_opposite_relations(self.base.block.relations, self.full, self.new_arrows)
        # a product with a factor in J lies in J, and the other factor is
        # off J, as J squares to zero
        full, through = self.full, self._through
        return {
            (through[g], through[k])
            for g in span
            for line in (full.products[g], full.column(g))
            for cell in line.values()
            for k in cell
            if through[k] != through[g]
        }

    def _kept(self, key) -> tuple:
        """The Ctilde basis indices of B_S, S = key: the paths through no
        new arrow outside S."""
        return tuple(g for g, x in enumerate(self._through) if x is None or x in key)

    def partial(self, subset) -> BoundQuiverAlgebra:
        """B_S: Ctilde modulo the new arrows outside S, once S is checked to
        separate no linked pair (fact (d) of the class docstring)."""
        return self._partials[self._key(subset)]

    def _key(self, subset) -> tuple:
        """S in declaration order, with B_S built and indexed."""
        for n in subset:
            if n not in self.new_arrows:
                raise SplitError("%s is not one of the declared new arrows" % n)
        if len(set(subset)) != len(subset):
            raise SplitError("arrow subset %s repeats a name" % ",".join(subset))
        key = tuple(n for n in self.new_arrows if n in subset)
        if key not in self._partials:
            if not self._splits(key):
                raise SplitError("the chosen arrow subset does not split the ideal")
            self._partials[key], self._index[key] = self._node(key)
        return key

    def _splits(self, key) -> bool:
        """Does S = key separate no linked pair, that is, is it a union of
        components?"""
        return all((c[0] in key) == (n in key) for c in self._components for n in c)

    def _node(self, key) -> tuple:
        """(B_S, its Ctilde indices) for a valid S = key: partial's if it
        holds them, else restricted from Ctilde and not kept."""
        if key in self._partials:
            return self._partials[key], self._index[key]
        kept = self._kept(key)
        return restrict(self.full, frozenset(self.new_arrows) - set(key), kept), kept

    def split(self, lower, upper) -> SplitPresentation:
        """B_upper over B_lower; the new arrows keep the order of `upper`.
        The section and projection are index maps between the two Ctilde
        index sets; the ideal's bimodules are built only if read."""
        lo, up = self._key(lower), self._key(upper)
        if not set(lo) <= set(up):
            raise SplitError(
                "arrow subset %s does not contain %s" % (",".join(up), ",".join(lo))
            )
        extra = tuple(n for n in upper if n not in lower)
        return _split_of(self._node(lo), self._node(up), extra)

    def verify(self, subset) -> TheoremReport:
        """The four identities and their map-level checks for C < B_S < Ctilde."""
        subset = tuple(subset)
        key = self._key(subset)
        c_alg = self.base
        b_alg = self._partials[key]
        ct_alg = self.full

        full, h1_e = self._full_split()
        sp_cb = full if key == self.new_arrows else self.split((), subset)
        sp_bct = full if not key else self.split(subset, self.new_arrows)

        eprime_b = sp_cb.ext
        eprime_c = sp_cb.ext_over_base
        esec_ct = sp_bct.ext
        esec_b = sp_bct.ext_over_base

        h1_b_eprime = h1_e if sp_cb is full else h1(b_alg, eprime_b)
        h1_ct_esec = h1_e if sp_bct is full else h1(ct_alg, esec_ct)

        phi0_bc = hochschild_projection(sp_cb, 0)
        phi1_bc = hochschild_projection(sp_cb, 1)
        phi0_ctb = hochschild_projection(sp_bct, 0)
        phi1_ctb = hochschild_projection(sp_bct, 1)

        # the degree 0 kernel must literally be (ideal span) intersect (center)
        zb = center(b_alg)
        f = c_alg.field
        # phi0 kills sum lam_j z_j iff sum lam_j phi0(z_j) = 0
        coeff_kernel = exactla.kernel(f, center(c_alg).dim, phi0_bc)
        k1 = Subspace.from_sparse(
            f, b_alg.dim, [zb.combination(lam) for lam in coeff_kernel.rows]
        )
        ideal_span = Subspace.from_sparse(
            f, b_alg.dim, [{g: f.one()} for g in eprime_b.amb_index]
        )
        k2 = zb.intersect(ideal_span)
        kernel_deg0_matches = k1 == k2

        stationary_b = {b_alg.idem_index[v] for v in b_alg.quiver.vertices}
        center_flags = _center_flags(zb, esec_b, stationary_b)

        lifts_ok = self._lifts_ok(full)
        lifts_ok = self._lifts_ok(sp_cb) and lifts_ok
        hh0_c, hh1_c, hh1_b = center(c_alg).dim, regular_h1(c_alg).dim, regular_h1(b_alg).dim

        return TheoremReport(
            field_name=repr(c_alg.field),
            subset=subset,
            hh0_C=hh0_c,
            hh0_B=zb.dim,
            hh0_Ctilde=center(ct_alg).dim,
            hh1_C=hh1_c,
            hh1_B=hh1_b,
            hh1_Ctilde=regular_h1(ct_alg).dim,
            h0_B_Eprime=h0(eprime_b).dim,
            h0_Ct_Esec=h0(esec_ct).dim,
            h1_C_Eprime=h1(c_alg, eprime_c).dim,
            h1_B_Eprime=h1_b_eprime.dim,
            h1_Ct_Esec=h1_ct_esec.dim,
            h1_B_Esec=h1(b_alg, esec_b).dim,
            h1_Ct_E=h1_e.dim,
            end_Ce_Eprime=bimod.end_enveloping(eprime_c),
            end_Be_Esec=bimod.end_enveloping(esec_b),
            curlyE_Eprime_C=bimod.curly_E_dimension(eprime_c, sp_cb.base_inside),
            curlyE_Esec_B=bimod.curly_E_dimension(esec_b, sp_bct.base_inside),
            phi0_rank_BC=exactla.rank(f, hh0_c, phi0_bc),
            phi1_rank_BC=exactla.rank(f, hh1_c, phi1_bc),
            phi0_rank_CtB=exactla.rank(f, zb.dim, phi0_ctb),
            phi1_rank_CtB=exactla.rank(f, hh1_b, phi1_ctb),
            kernel_deg0_matches=kernel_deg0_matches,
            ideal_classes_embed=_ideal_classes_embed(
                b_alg, eprime_b, h1_b_eprime, sp_cb
            ),
            ideal_classes_embed_tilde=_ideal_classes_embed(
                ct_alg, esec_ct, h1_ct_esec, sp_bct
            ),
            center_annihilates_complement=center_flags[0],
            center_symmetric_on_complement=center_flags[1],
            center_positive_part_annihilates=center_flags[2],
            lifts_ok=lifts_ok,
        )

    def _full_split(self) -> tuple:
        """(C < Ctilde, H^1(Ctilde, E)), built once per family: verify reads
        them on every subset, and takes the split as its own for S = () and
        S = all, whatever order S lists the arrows in."""
        if self._over_full is None:
            sp = self.split((), self.new_arrows)
            self._over_full = (sp, h1(self.full, sp.ext))
        return self._over_full

    def _lifts_ok(self, sp: SplitPresentation) -> bool:
        """Does every base derivation lift through sp, a split C < B_S?
        Solved once per subset S, whatever order sp lists its arrows in."""
        key = tuple(n for n in self.new_arrows if n in sp.new_arrows)
        if key not in self._lifts:
            der = regular_h1(self.base).derivations
            self._lifts[key] = all(w.ok for w in lift_derivations(sp, der.rows))
        return self._lifts[key]

    def poset(self) -> ExtensionPoset:
        """All valid arrow subsets ordered by inclusion, each carrying its
        degree 1 cohomology dimension; Hasse edges carry the projection map.

        phi is computed on the Hasse edges and the pairs (S, top), top =
        Ctilde, only.  Once per node, on (S, top), hochschild_projection
        checks p(ad(x)) = ad(p(x)) and _check_layout_restricts that B_S's
        arrow layout is Ctilde's restricted to B_S's Ctilde indices.  So a
        layout slot is a pair (arrow, Ctilde index) on every node, and as
        _index_maps restricts the identity on Ctilde indices,
        derivation_map(S <- T) keeps the slots of B_S and drops the others:
        composed with derivation_map(T <- top) it is derivation_map(S <- top)
        exactly.  An ad(x) of B_T is the projection of ad(x') for x' = x in
        Ctilde, so its projection to B_S is ad(p(x)): the inner identity
        holds on every pair, and then phi(S <- T) phi(T <- U) = phi(S <- U)
        for all S < T < U, as p_(S <- U)(r) is p_(S <- T) of phi(T <- U)'s
        combination of representatives plus an inner derivation.  The
        other Hasse edges read phi through _class_images, without the inner
        check, and each checks phi(S <- T) phi(T <- top) = phi(S <- top);
        triangles_commute speaks for every comparable pair.

        The valid subsets are the unions of the components of the linked
        pairs (fact (d) of the class docstring), so T covers S exactly when
        T adds one component to S.  The rank of S is its number of
        components.  The walk goes down the ranks from Ctilde and holds the
        nodes of two ranks at a time.  A node of rank r gets its algebra
        (partial's, or a restriction of Ctilde kept only by the walk), its
        H^1, its phi(S <- top) and its edges up to rank r + 1; once rank r
        is done, the algebras, bimodules and H^1 of rank r + 1 are dropped,
        and only their arrows, dims and phi(S <- top) stay (the walk clears
        the cached regular bimodule, H^1 and center of the algebras it
        built, so that no reference cycle keeps them for the garbage
        collector).  Nodes are numbered by |S| from C up, subsets of one
        size in the order of combinations, and edges are listed by lower
        node, then by the position of the added component's first arrow
        among the new arrows, whatever order they are computed in."""
        new = self.new_arrows
        comps = self._components
        f = self.base.field
        pos = {n: k for k, n in enumerate(new)}
        # the valid subsets, by their number of components
        by_rank = [
            [tuple(n for n in new if any(n in c for c in cs)) for cs in combinations(comps, r)]
            for r in range(len(comps) + 1)
        ]
        valid = sorted(
            (c for subsets in by_rank for c in subsets),
            key=lambda c: (len(c), [pos[n] for n in c]),
        )
        by_arrows = {c: i for i, c in enumerate(valid)}
        top = by_arrows[new]
        full = self._node(new)
        from_top = {}  # node -> images of Ctilde's classes

        def project_from_top(ti, node):
            if ti != top and ti not in from_top:
                sp = _split_of(node, full, tuple(n for n in new if n not in valid[ti]))
                _check_layout_restricts(sp)
                from_top[ti] = hochschild_projection(sp, 1)

        # C is held throughout, like Ctilde: its pair is checked first
        project_from_top(by_arrows[()], self._node(()))
        dims = {}
        edges = {}  # (lower node, position of the added component) -> edge
        triangles = True
        above = {}  # the nodes of the rank above: index -> (algebra, Ctilde indices)
        for subsets in reversed(by_rank):
            layer = {}
            for lower in subsets:
                ti = by_arrows[lower]
                node = layer[ti] = self._node(lower)
                dims[ti] = regular_h1(node[0]).dim
                project_from_top(ti, node)
                for comp in comps:
                    if comp[0] in lower:
                        continue
                    si = by_arrows[tuple(n for n in new if n in lower or n in comp)]
                    if si == top:
                        mat = from_top[ti]
                    else:
                        mat = _class_images(_split_of(node, above[si], comp))
                        if exactla.compose(f, mat, from_top[si]) != from_top[ti]:
                            triangles = False
                    rank = exactla.rank(f, dims[ti], mat)
                    edges[(ti, pos[comp[0]])] = PosetEdge(
                        lower=ti,
                        upper=si,
                        phi_rank=rank,
                        surjective=rank == dims[ti],
                        monotone=dims[ti] <= dims[si],
                    )
            for si in above:  # binds no name to a node that outlives its rank
                if valid[si] not in self._partials:
                    _drop_cohomology(above[si][0])
            above = layer
        return ExtensionPoset(
            nodes=[PosetNode(arrows=c, dim_hh1=dims[i]) for i, c in enumerate(valid)],
            edges=[edges[key] for key in sorted(edges)],
            triangles_commute=triangles,
            minimum=by_arrows[()],
            maximum=top,
        )


def _drop_cohomology(alg: BoundQuiverAlgebra):
    """Clear alg's cached regular bimodule, H^1 and center.  As
    alg._regular.acting is alg, an algebra that still holds them is freed
    only by the cyclic garbage collector."""
    alg._regular = alg._regular_h1 = alg._center = None


def verify_theorem(
    base_block: AlgebraBlock, full_block: AlgebraBlock, subset, field=None
) -> TheoremReport:
    return Family(base_block, full_block, field).verify(subset)


def poset(
    base_block: AlgebraBlock, full_block: AlgebraBlock, field=None
) -> ExtensionPoset:
    return Family(base_block, full_block, field).poset()
