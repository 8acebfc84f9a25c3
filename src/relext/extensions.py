"""Trivial extensions of bound quiver algebras along designated arrow sets.

A presentation here is a pair of algebras (base, total) where the total
algebra is the base plus some new arrows whose two-sided ideal squares to
zero, together with the section re-reading every base path inside the total
algebra.  On top of that this module provides:

  * the degree 0 and 1 cohomology projection maps as explicit matrices,
    with well-definedness checked (inner derivations land on inner ones),
  * a solver for the lifting conditions that let a base derivation extend
    to the total algebra: given d on the base, find a linear alpha on the
    extension ideal with x d(c) = alpha(x) c - alpha(xc) and
    d(c) x = c alpha(x) - alpha(cx),
  * a verifier for the four dimension identities tying the cohomology of
    the base, a partial extension and the full extension together, with
    the kernel bookkeeping behind each identity,
  * the poset of partial extensions indexed by subsets of the new arrows.

Everything is deterministic: subsets are enumerated in declaration order,
class bases come from the echelon form, and reports are reproducible
byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from itertools import combinations

from . import bimod, exactla, repmod
from .algebra import BoundQuiverAlgebra, build, center, quotient_by_arrows
from .bimod import Bimodule
from .exactla import Matrix, Subspace
from .hochschild import (
    CohomologySpace,
    arrow_layout,
    derivation_to_cochain,
    h0,
    h1,
)
from .qdsl import AlgebraBlock


class SplitError(ValueError):
    pass


# -- regular coefficients, cached on the algebra object ------------------------


def regular_bimodule_of(alg) -> Bimodule:
    if alg._regular is None:
        alg._regular = bimod.regular_bimodule(alg)
    return alg._regular


def regular_h0(alg) -> Subspace:
    """H0 of the regular bimodule, which is the center of the algebra."""
    return center(alg)


def regular_h1(alg) -> CohomologySpace:
    if alg._regular_h1 is None:
        alg._regular_h1 = h1(alg, regular_bimodule_of(alg))
    return alg._regular_h1


# -- split presentations ------------------------------------------------------


@dataclass(eq=False)
class SplitPresentation:
    """total = base + new arrows, with the ideal of the new arrows squaring
    to zero and the base sitting inside as a subalgebra, path by path."""

    base: BoundQuiverAlgebra
    total: BoundQuiverAlgebra
    new_arrows: tuple
    section: tuple      # base basis index -> total basis index
    projection: tuple   # total basis index -> base basis index or None
    ext: Bimodule            # ideal of the new arrows, acting algebra = total
    ext_over_base: Bimodule  # the same span, acting algebra = base

    @property
    def field(self):
        return self.base.field

    def include_coords(self, coords):
        out = [self.field.zero()] * self.total.dim
        for i, c in enumerate(coords):
            out[self.section[i]] = c
        return out

    def project_coords(self, coords):
        f = self.field
        out = [f.zero()] * self.base.dim
        for g, c in enumerate(coords):
            b = self.projection[g]
            if b is not None:
                out[b] = c
            # coordinates on new-arrow paths are killed
        return out


def split_presentation(
    base: BoundQuiverAlgebra, total: BoundQuiverAlgebra, new_arrow_names
) -> SplitPresentation:
    new_arrow_names = tuple(new_arrow_names)
    f = base.field

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

    # every new arrow x -> y must be opposite to a base relation y -> x
    for a in total.quiver.arrows:
        if a.name not in new_arrow_names:
            continue
        if not any(
            rel.source == a.target and rel.target == a.source
            for rel in base.block.relations
        ):
            raise SplitError(
                "new arrow %s (%s -> %s) is not opposite to any base relation"
                % (a.name, a.source, a.target)
            )

    section = bimod.section_embed(base, total)
    projection = [None] * total.dim
    for i, g in enumerate(section):
        projection[g] = i

    if new_arrow_names:
        ext = bimod.arrow_ideal_bimodule(total, new_arrow_names)
        ext_over_base = bimod.arrow_ideal_bimodule(
            total, new_arrow_names, acting=base, embed=section
        )
    else:
        ext = bimod.sub_bimodule(total, ())
        ext_over_base = bimod.sub_bimodule(total, (), acting=base, embed=section)

    # the base paths and the ideal paths must partition the total basis
    covered = set(section) | set(ext.amb_index)
    if len(section) + ext.dim != total.dim or covered != set(range(total.dim)):
        raise SplitError(
            "total algebra does not split as base plus the new-arrow ideal"
        )

    # the section must be multiplicative, so the base is a subalgebra and
    # the product takes the form (c,e)(c',e') = (cc', ce'+ec') on the nose
    for i in range(base.dim):
        si = section[i]
        for j in range(base.dim):
            lhs = total.product_coords(si, section[j])
            rhs = [f.zero()] * total.dim
            for k, c in enumerate(base.product_coords(i, j)):
                rhs[section[k]] = c
            if list(lhs) != rhs:
                raise SplitError(
                    "products of base paths %s and %s disagree between the "
                    "base and total algebras"
                    % (base.basis[i].label(), base.basis[j].label())
                )

    return SplitPresentation(
        base=base,
        total=total,
        new_arrows=new_arrow_names,
        section=section,
        projection=tuple(projection),
        ext=ext,
        ext_over_base=ext_over_base,
    )


def _check_family(base_alg, full_alg, all_new):
    """Gates shared by every construction over the same (base, full) pair."""
    reduced = quotient_by_arrows(full_alg, all_new)
    if reduced.dim != base_alg.dim or [p.label() for p in reduced.basis] != [
        p.label() for p in base_alg.basis
    ]:
        raise SplitError(
            "the full extension does not reduce to the declared base algebra"
        )
    ext_dim = repmod.ext2_dimension(base_alg)
    if ext_dim != full_alg.dim - base_alg.dim:
        raise SplitError(
            "extension ideal dimension %d does not match the expected %d"
            % (full_alg.dim - base_alg.dim, ext_dim)
        )


def _check_subset_split(full_alg, subset, complement):
    parts = [list(part) for part in (subset, complement) if part]
    if parts and not bimod.direct_sum_check(full_alg, parts):
        raise SplitError("the chosen arrow subset does not split the ideal")


def _subset_complement(full_block, subset):
    all_new = tuple(full_block.new_arrows)
    for n in subset:
        if n not in all_new:
            raise SplitError("%s is not one of the declared new arrows" % n)
    return all_new, tuple(n for n in all_new if n not in subset)


def build_split(
    base_block: AlgebraBlock,
    full_block: AlgebraBlock,
    subset,
    field=None,
) -> SplitPresentation:
    """Presentation, over the declared base, of the partial extension cut
    out by `subset` of the full extension's new arrows."""
    subset = tuple(subset)
    base_alg = build(base_block, field=field)
    full_alg = build(full_block, field=field)
    all_new, complement = _subset_complement(full_block, subset)
    _check_family(base_alg, full_alg, all_new)
    _check_subset_split(full_alg, subset, complement)
    partial = quotient_by_arrows(full_alg, complement) if complement else full_alg
    return split_presentation(base_alg, partial, subset)


# -- cohomology projections ---------------------------------------------------


def project_derivation(sp: SplitPresentation, vec) -> list:
    """Arrow coordinates over the base of the projected derivation
    c |-> p(d(sigma(c))), for d given in arrow coordinates over the total."""
    lt = arrow_layout(sp.total, regular_bimodule_of(sp.total))
    lb = arrow_layout(sp.base, regular_bimodule_of(sp.base))
    f = sp.field
    pos_t = {a.name: k for k, a in enumerate(sp.total.quiver.arrows)}
    out = [f.zero()] * lb.total
    for kb, a in enumerate(sp.base.quiver.arrows):
        kt = pos_t[a.name]
        val = [f.zero()] * sp.total.dim
        for u, g in enumerate(lt.blocks[kt]):
            val[g] = vec[lt.offsets[kt] + u]
        proj = sp.project_coords(val)
        block_pos = {g: u for u, g in enumerate(lb.blocks[kb])}
        for g, c in enumerate(proj):
            if f.is_zero(c):
                continue
            if g not in block_pos:
                raise SplitError(
                    "projected derivation leaves the bigraded slice of %s" % a.name
                )
            out[lb.offsets[kb] + block_pos[g]] = c
    return out


def include_coefficient_derivation(alg, coeff: Bimodule, vec) -> list:
    """A derivation valued in an ideal of the algebra is a derivation of
    the algebra itself; re-coordinate it accordingly."""
    if coeff.ambient is not alg or coeff.acting is not alg:
        raise SplitError("coefficient bimodule does not live inside this algebra")
    lc = arrow_layout(alg, coeff)
    lr = arrow_layout(alg, regular_bimodule_of(alg))
    f = alg.field
    out = [f.zero()] * lr.total
    for k in range(len(alg.quiver.arrows)):
        reg_pos = {g: u for u, g in enumerate(lr.blocks[k])}
        for u, i in enumerate(lc.blocks[k]):
            c = vec[lc.offsets[k] + u]
            if f.is_zero(c):
                continue
            out[lr.offsets[k] + reg_pos[coeff.amb_index[i]]] = c
    return out


def class_coordinates(space: CohomologySpace, reps, vec) -> list:
    """Coordinates of a cocycle's class in the basis of classes given by
    `reps`; unique because the representatives are independent modulo the
    inner derivations."""
    f = space.algebra.field
    cols = [list(b) for b in space.inner.basis] + [list(r) for r in reps]
    n = space.layout.total
    mat = Matrix(
        f, n, len(cols), [[cols[j][i] for j in range(len(cols))] for i in range(n)]
    )
    sol = exactla.solve(mat, list(vec))
    if sol is None:
        raise SplitError("vector does not represent a class of this space")
    return sol[space.inner.dim :]


def hochschild_projection(sp: SplitPresentation, degree: int) -> Matrix:
    """Matrix of the projection map on cohomology classes; columns are
    indexed by the class basis of the total algebra, rows by the base's."""
    f = sp.field
    if degree == 0:
        src = regular_h0(sp.total)
        tgt = regular_h0(sp.base)
        cols = []
        for z in src.basis:
            pz = sp.project_coords(list(z))
            coords = tgt.coordinates_of(pz)
            if coords is None:
                raise SplitError("projection of a central element is not central")
            cols.append(coords)
        return Matrix(
            f,
            tgt.dim,
            len(cols),
            [[cols[j][i] for j in range(len(cols))] for i in range(tgt.dim)],
        )
    if degree != 1:
        raise ValueError("projection matrices are built in degrees 0 and 1")

    src = regular_h1(sp.total)
    tgt = regular_h1(sp.base)
    # well-definedness: inner derivations must project to inner derivations
    for b in src.inner.basis:
        if not tgt.inner.contains(project_derivation(sp, list(b))):
            raise SplitError("projection of an inner derivation is not inner")
    tgt_reps = tgt.representatives()
    cols = []
    for r in src.representatives():
        pr = project_derivation(sp, r)
        if not tgt.derivations.contains(pr):
            raise SplitError("projection of a derivation breaks a base relation")
        cols.append(class_coordinates(tgt, tgt_reps, pr))
    return Matrix(
        f,
        len(tgt_reps),
        len(cols),
        [[cols[j][i] for j in range(len(cols))] for i in range(len(tgt_reps))],
    )


# -- lifting a base derivation through the extension --------------------------


@dataclass(eq=False)
class LiftWitness:
    derivation: list
    alpha: Matrix | None  # row g = coordinates of alpha(basis g), or None

    @property
    def ok(self) -> bool:
        return self.alpha is not None


def _derivation_values(alg, dvec) -> list:
    flat = derivation_to_cochain(alg, regular_bimodule_of(alg), dvec)
    return [flat[j * alg.dim : (j + 1) * alg.dim] for j in range(alg.dim)]


def lift_derivation(sp: SplitPresentation, dvec) -> LiftWitness:
    """Solve for a linear alpha on the extension ideal satisfying both
    lifting conditions against the normalized base derivation d (given in
    arrow coordinates); alpha is None when the system has no solution."""
    base = sp.base
    e = sp.ext_over_base
    f = base.field
    dvals = _derivation_values(base, dvec)

    # taking c stationary in the conditions forces alpha to preserve the
    # vertex bigrading, so only graded entries are unknowns
    var = {}
    for g in range(e.dim):
        for k in range(e.dim):
            if e.src[g] == e.src[k] and e.tgt[g] == e.tgt[k]:
                var[(g, k)] = len(var)
    nvars = len(var)

    rows = []
    rhs = []

    def add_equations(act_mat, lhs_vec, i):
        # alpha(x_i) acted by c minus alpha(x_i acted by c) = lhs, where
        # `act_mat` is the matrix of the action on the relevant side
        for t in range(e.dim):
            row = [f.zero()] * nvars
            nonzero = False
            for k in range(e.dim):
                pos = var.get((i, k))
                if pos is not None and not f.is_zero(act_mat.entries[k][t]):
                    row[pos] = f.add(row[pos], act_mat.entries[k][t])
                    nonzero = True
            for g in range(e.dim):
                w = act_mat.entries[i][g]
                if f.is_zero(w):
                    continue
                pos = var.get((g, t))
                if pos is not None:
                    row[pos] = f.sub(row[pos], w)
                    nonzero = True
            if nonzero or not f.is_zero(lhs_vec[t]):
                rows.append(row)
                rhs.append(lhs_vec[t])

    for j in range(base.dim):
        dj = dvals[j]
        for i in range(e.dim):
            unit = e.zero_vec()
            unit[i] = f.one()
            # x d(c) = alpha(x) c - alpha(xc)
            add_equations(e.right_mats[j], e.right_act(dj, unit), i)
            # d(c) x = c alpha(x) - alpha(cx)
            add_equations(e.left_mats[j], e.left_act(dj, unit), i)

    if rows:
        sol = exactla.solve(Matrix(f, len(rows), nvars, rows), rhs)
        if sol is None:
            return LiftWitness(list(dvec), None)
    else:
        sol = [f.zero()] * nvars

    entries = [[f.zero()] * e.dim for _ in range(e.dim)]
    for (g, k), pos in var.items():
        entries[g][k] = sol[pos]
    alpha = Matrix(f, e.dim, e.dim, entries)
    if not _lift_holds(e, dvals, alpha):
        raise SplitError("solved lift fails the defining conditions")
    return LiftWitness(list(dvec), alpha)


def _lift_holds(e: Bimodule, dvals, alpha: Matrix) -> bool:
    """Exact check of both lifting conditions for a candidate alpha."""
    f = e.field
    base_dim = len(dvals)
    for j in range(base_dim):
        dj = dvals[j]
        for i in range(e.dim):
            unit = e.zero_vec()
            unit[i] = f.one()
            ax = list(alpha.entries[i])
            # alpha(x) c - alpha(xc) vs x d(c)
            lhs = e.right_act(dj, unit)
            rhs = e.right_act_basis(j, ax)
            xc = e.right_act_basis(j, unit)
            axc = alpha.transpose().mat_vec(xc)
            if any(
                not f.is_zero(f.sub(f.sub(rhs[t], axc[t]), lhs[t]))
                for t in range(e.dim)
            ):
                return False
            # c alpha(x) - alpha(cx) vs d(c) x
            lhs = e.left_act(dj, unit)
            rhs = e.left_act_basis(j, ax)
            cx = e.left_act_basis(j, unit)
            acx = alpha.transpose().mat_vec(cx)
            if any(
                not f.is_zero(f.sub(f.sub(rhs[t], acx[t]), lhs[t]))
                for t in range(e.dim)
            ):
                return False
    return True


# -- the four-sequence verifier ------------------------------------------------


@dataclass(eq=False)
class TheoremReport:
    """All dimensions and map-level checks for one splitting; every row
    verdict is recomputed from the stored integers."""

    field_name: str
    subset: tuple
    hh0_C: int
    hh0_B: int
    hh0_Ctilde: int
    hh1_C: int
    hh1_B: int
    hh1_Ctilde: int
    h0_B_Eprime: int
    h0_Ct_Esec: int
    h1_C_Eprime: int
    h1_B_Eprime: int
    h1_Ct_Esec: int
    h1_B_Esec: int
    h1_Ct_E: int
    end_Ce_Eprime: int
    end_Be_Esec: int
    curlyE_Eprime_C: int
    curlyE_Esec_B: int
    phi0_rank_BC: int
    phi1_rank_BC: int
    phi0_rank_CtB: int
    phi1_rank_CtB: int
    kernel_deg0_matches: bool
    ideal_classes_embed: bool
    ideal_classes_embed_tilde: bool
    center_annihilates_complement: bool
    center_symmetric_on_complement: bool
    center_positive_part_annihilates: bool
    lifts_ok: bool

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
        return {
            "field": self.field_name,
            "split": list(self.subset),
            "hh0_C": self.hh0_C,
            "hh0_B": self.hh0_B,
            "hh0_Ctilde": self.hh0_Ctilde,
            "hh1_C": self.hh1_C,
            "hh1_B": self.hh1_B,
            "hh1_Ctilde": self.hh1_Ctilde,
            "h0_B_Eprime": self.h0_B_Eprime,
            "h0_Ct_Esec": self.h0_Ct_Esec,
            "h1_C_Eprime": self.h1_C_Eprime,
            "h1_B_Eprime": self.h1_B_Eprime,
            "h1_Ct_Esec": self.h1_Ct_Esec,
            "h1_B_Esec": self.h1_B_Esec,
            "h1_Ct_E": self.h1_Ct_E,
            "end_Ce_Eprime": self.end_Ce_Eprime,
            "end_Be_Esec": self.end_Be_Esec,
            "curlyE_Eprime_C": self.curlyE_Eprime_C,
            "curlyE_Esec_B": self.curlyE_Esec_B,
            "rows": [
                {"name": r["name"], "lhs": r["lhs"], "rhs": r["rhs"], "pass": r["pass"]}
                for r in self.rows
            ],
            "refinement_a_pass": self.refinement_a_pass,
            "refinement_b_pass": self.refinement_b_pass,
            "pushout_pass": self.pushout_pass,
            "phi_ranks": {
                "deg0_B_to_C": self.phi0_rank_BC,
                "deg1_B_to_C": self.phi1_rank_BC,
                "deg0_Ctilde_to_B": self.phi0_rank_CtB,
                "deg1_Ctilde_to_B": self.phi1_rank_CtB,
            },
            "surjective": self.surjective,
            "kernel_deg0_matches": self.kernel_deg0_matches,
            "ideal_classes_embed": self.ideal_classes_embed,
            "ideal_classes_embed_tilde": self.ideal_classes_embed_tilde,
            "center_annihilates_complement": self.center_annihilates_complement,
            "center_symmetric_on_complement": self.center_symmetric_on_complement,
            "center_positive_part_annihilates": self.center_positive_part_annihilates,
            "lifts_ok": self.lifts_ok,
            "all_pass": self.all_pass,
        }


def _ideal_classes_embed(alg, coeff: Bimodule, space: CohomologySpace, sp) -> bool:
    """Classes of ideal-valued derivations must stay independent inside the
    algebra's own degree 1 cohomology and die under the projection."""
    f = alg.field
    reg = regular_h1(alg)
    base_inner = regular_h1(sp.base).inner
    span = reg.inner
    count = 0
    for r in space.representatives():
        m = include_coefficient_derivation(alg, coeff, r)
        if not reg.derivations.contains(m):
            return False
        if span.contains(m):
            return False
        span = span.sum(Subspace.from_vectors(f, span.ambient_dim, [m]))
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
    for z in zb.basis:
        z = list(z)
        zpos = [f.zero() if i in stationary else c for i, c in enumerate(z)]
        for i in range(esec.dim):
            unit = esec.zero_vec()
            unit[i] = f.one()
            ze = esec.left_act(z, unit)
            ez = esec.right_act(z, unit)
            if any(not f.is_zero(c) for c in ze) or any(
                not f.is_zero(c) for c in ez
            ):
                annihilates = False
            if any(not f.is_zero(f.sub(a, b)) for a, b in zip(ze, ez)):
                symmetric = False
            zpe = esec.left_act(zpos, unit)
            epz = esec.right_act(zpos, unit)
            if any(not f.is_zero(c) for c in zpe) or any(
                not f.is_zero(c) for c in epz
            ):
                positive = False
    return annihilates, symmetric, positive


def verify_theorem(
    base_block: AlgebraBlock,
    full_block: AlgebraBlock,
    subset,
    field=None,
) -> TheoremReport:
    subset = tuple(subset)
    c_alg = build(base_block, field=field)
    ct_alg = build(full_block, field=field)
    all_new, complement = _subset_complement(full_block, subset)
    _check_family(c_alg, ct_alg, all_new)
    _check_subset_split(ct_alg, subset, complement)
    b_alg = quotient_by_arrows(ct_alg, complement) if complement else ct_alg

    sp_cb = split_presentation(c_alg, b_alg, subset)
    sp_bct = split_presentation(b_alg, ct_alg, complement)
    sp_cct = split_presentation(c_alg, ct_alg, all_new)

    eprime_b = sp_cb.ext
    eprime_c = sp_cb.ext_over_base
    esec_ct = sp_bct.ext
    esec_b = sp_bct.ext_over_base
    e_ct = sp_cct.ext
    e_c = sp_cct.ext_over_base

    h1_b_eprime = h1(b_alg, eprime_b)
    h1_ct_esec = h1(ct_alg, esec_ct)

    base_inside_b = bimod.base_sub_bimodule(
        b_alg, subset, acting=c_alg, embed=sp_cb.section
    )
    b_inside_ct = bimod.base_sub_bimodule(
        ct_alg, complement, acting=b_alg, embed=sp_bct.section
    )

    phi0_bc = hochschild_projection(sp_cb, 0)
    phi1_bc = hochschild_projection(sp_cb, 1)
    phi0_ctb = hochschild_projection(sp_bct, 0)
    phi1_ctb = hochschild_projection(sp_bct, 1)

    # the degree 0 kernel must literally be (ideal span) intersect (center)
    zb = regular_h0(b_alg)
    f = c_alg.field
    coeff_kernel = exactla.kernel(phi0_bc)
    k1_vecs = []
    for lam in coeff_kernel.basis:
        vec = [f.zero()] * b_alg.dim
        for r, c in enumerate(lam):
            if f.is_zero(c):
                continue
            for t, zc in enumerate(zb.basis[r]):
                vec[t] = f.add(vec[t], f.mul(c, zc))
        k1_vecs.append(vec)
    k1 = Subspace.from_vectors(f, b_alg.dim, k1_vecs)
    ideal_units = []
    for g in eprime_b.amb_index:
        u = [f.zero()] * b_alg.dim
        u[g] = f.one()
        ideal_units.append(u)
    ideal_span = Subspace.from_vectors(f, b_alg.dim, ideal_units)
    k2 = exactla.intersect(zb, ideal_span)
    kernel_deg0_matches = k1 == k2

    stationary_b = {b_alg.idem_index[v] for v in b_alg.quiver.vertices}
    center_flags = _center_flags(zb, esec_b, stationary_b)

    lifts_ok = True
    for d in regular_h1(c_alg).derivations.basis:
        if not lift_derivation(sp_cct, list(d)).ok:
            lifts_ok = False
        if not lift_derivation(sp_cb, list(d)).ok:
            lifts_ok = False

    return TheoremReport(
        field_name=repr(c_alg.field),
        subset=subset,
        hh0_C=regular_h0(c_alg).dim,
        hh0_B=zb.dim,
        hh0_Ctilde=regular_h0(ct_alg).dim,
        hh1_C=regular_h1(c_alg).dim,
        hh1_B=regular_h1(b_alg).dim,
        hh1_Ctilde=regular_h1(ct_alg).dim,
        h0_B_Eprime=h0(eprime_b).dim,
        h0_Ct_Esec=h0(esec_ct).dim,
        h1_C_Eprime=h1(c_alg, eprime_c).dim,
        h1_B_Eprime=h1_b_eprime.dim,
        h1_Ct_Esec=h1_ct_esec.dim,
        h1_B_Esec=h1(b_alg, esec_b).dim,
        h1_Ct_E=h1(ct_alg, e_ct).dim,
        end_Ce_Eprime=bimod.end_enveloping(eprime_c),
        end_Be_Esec=bimod.end_enveloping(esec_b),
        curlyE_Eprime_C=bimod.curly_E_dimension(eprime_c, base_inside_b),
        curlyE_Esec_B=bimod.curly_E_dimension(esec_b, b_inside_ct),
        phi0_rank_BC=exactla.rank(phi0_bc),
        phi1_rank_BC=exactla.rank(phi1_bc),
        phi0_rank_CtB=exactla.rank(phi0_ctb),
        phi1_rank_CtB=exactla.rank(phi1_ctb),
        kernel_deg0_matches=kernel_deg0_matches,
        ideal_classes_embed=_ideal_classes_embed(b_alg, eprime_b, h1_b_eprime, sp_cb),
        ideal_classes_embed_tilde=_ideal_classes_embed(
            ct_alg, esec_ct, h1_ct_esec, sp_bct
        ),
        center_annihilates_complement=center_flags[0],
        center_symmetric_on_complement=center_flags[1],
        center_positive_part_annihilates=center_flags[2],
        lifts_ok=lifts_ok,
    )


# -- the poset of partial extensions -------------------------------------------


@dataclass(eq=False)
class PosetNode:
    arrows: tuple
    algebra: BoundQuiverAlgebra
    dim_hh1: int


@dataclass(eq=False)
class PosetEdge:
    lower: int
    upper: int
    phi_rank: int
    surjective: bool
    monotone: bool


@dataclass(eq=False)
class ExtensionPoset:
    nodes: list
    edges: list  # Hasse edges between node indices
    triangles_commute: bool
    minimum: int
    maximum: int

    @property
    def monotone(self) -> bool:
        return all(e.monotone for e in self.edges)

    @property
    def surjective(self) -> bool:
        return all(e.surjective for e in self.edges)

    def node_index(self, arrows) -> int:
        key = tuple(arrows)
        for i, n in enumerate(self.nodes):
            if n.arrows == key:
                return i
        raise KeyError(key)

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


def poset(
    base_block: AlgebraBlock, full_block: AlgebraBlock, field=None
) -> ExtensionPoset:
    """All valid arrow subsets ordered by inclusion, each carrying its
    degree 1 cohomology dimension; Hasse edges carry the projection map."""
    c_alg = build(base_block, field=field)
    ct_alg = build(full_block, field=field)
    all_new = tuple(full_block.new_arrows)
    _check_family(c_alg, ct_alg, all_new)

    nodes = []
    by_arrows = {}
    for r in range(len(all_new) + 1):
        for combo in combinations(all_new, r):
            complement = tuple(n for n in all_new if n not in combo)
            try:
                _check_subset_split(ct_alg, combo, complement)
            except SplitError:
                continue
            alg = quotient_by_arrows(ct_alg, complement) if complement else ct_alg
            node = PosetNode(
                arrows=combo, algebra=alg, dim_hh1=regular_h1(alg).dim
            )
            by_arrows[combo] = len(nodes)
            nodes.append(node)

    if () not in by_arrows or all_new not in by_arrows:
        raise SplitError("the poset lost its minimum or maximum node")

    def presentation(lower: PosetNode, upper: PosetNode) -> SplitPresentation:
        extra = tuple(n for n in upper.arrows if n not in lower.arrows)
        return split_presentation(lower.algebra, upper.algebra, extra)

    edges = []
    proj_mats = {}
    for (t_arr, ti) in by_arrows.items():
        for (s_arr, si) in by_arrows.items():
            if set(t_arr) < set(s_arr):
                mat = hochschild_projection(presentation(nodes[ti], nodes[si]), 1)
                proj_mats[(si, ti)] = mat
                if len(s_arr) == len(t_arr) + 1:
                    edges.append(
                        PosetEdge(
                            lower=ti,
                            upper=si,
                            phi_rank=exactla.rank(mat),
                            surjective=exactla.rank(mat) == nodes[ti].dim_hh1,
                            monotone=nodes[ti].dim_hh1 <= nodes[si].dim_hh1,
                        )
                    )

    top = by_arrows[all_new]
    triangles = True
    for (si, ti), mat in proj_mats.items():
        if si == top:
            continue
        via = mat.mul(proj_mats[(top, si)])
        if via != proj_mats[(top, ti)]:
            triangles = False
    return ExtensionPoset(
        nodes=nodes,
        edges=edges,
        triangles_commute=triangles,
        minimum=by_arrows[()],
        maximum=top,
    )
