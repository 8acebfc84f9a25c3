"""Bimodules over a bound quiver algebra, realized inside an ambient algebra.

The bimodules this package cares about are spans of basis paths of a larger
algebra (an arrow ideal of a split extension, or the extension's base sitting
inside it), acted on by a possibly smaller algebra through the path-to-path
section.  A Bimodule stores one left and one right action matrix per acting
basis element plus the vertex bigrade of each of its basis elements; an
ambient-realized instance also remembers where its basis and the acting
algebra's basis live in the ambient algebra, which is what evaluates mixed
products like x.f(y) for the obstruction space of bimodule maps into the
base.

Construction verifies closure under both actions and the section premise
sigma(a).sigma(b) - sigma(ab) annihilating the module from either side;
those two facts make the bimodule axioms inherited from ambient
associativity.  Bimodules given by raw action matrices (from_actions) get
the axioms checked directly instead.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import exactla
from .algebra import BoundQuiverAlgebra, ideal_subspace
from .exactla import Matrix, Subspace


def _row_apply(field, vec, mat: Matrix):
    """Row vector times matrix."""
    out = [field.zero()] * mat.cols
    for i, c in enumerate(vec):
        if field.is_zero(c):
            continue
        row = mat.entries[i]
        for j, x in enumerate(row):
            if not field.is_zero(x):
                out[j] = field.add(out[j], field.mul(c, x))
    return out


@dataclass(eq=False)
class Bimodule:
    acting: BoundQuiverAlgebra
    dim: int
    left_mats: list  # per acting basis index: dim x dim Matrix, row convention
    right_mats: list
    src: tuple  # vertex of e_v . m = m, per basis element
    tgt: tuple  # vertex of m . e_v = m
    ambient: BoundQuiverAlgebra | None = None
    amb_index: tuple | None = None  # ambient basis index per bimodule basis elt
    embed: tuple | None = None  # ambient basis index per acting basis elt
    _calculator: "HochschildCalculator | None" = None  # set by hochschild.calculator

    # -- construction ------------------------------------------------------

    @staticmethod
    def from_ambient_span(
        acting: BoundQuiverAlgebra,
        ambient: BoundQuiverAlgebra,
        amb_index,
        embed=None,
    ) -> "Bimodule":
        f = ambient.field
        if acting.field is not ambient.field:
            raise ValueError("acting and ambient algebras use different fields")
        amb_index = tuple(amb_index)
        if embed is None:
            if acting is not ambient:
                raise ValueError("an embedding is required when acting != ambient")
            embed = tuple(range(acting.dim))
        else:
            embed = tuple(embed)
        pos = {g: i for i, g in enumerate(amb_index)}
        dim = len(amb_index)

        def restrict(coords):
            out = [f.zero()] * dim
            for k, c in enumerate(coords):
                if f.is_zero(c):
                    continue
                j = pos.get(k)
                if j is None:
                    raise ValueError(
                        "span is not closed under the action: product hits %s"
                        % ambient.basis[k].label()
                    )
                out[j] = c
            return out

        left = []
        right = []
        for a in range(acting.dim):
            ea = embed[a]
            lrows = [restrict(ambient.mult_coords[ea][g]) for g in amb_index]
            rrows = [restrict(ambient.mult_coords[g][ea]) for g in amb_index]
            left.append(Matrix(f, dim, dim, lrows))
            right.append(Matrix(f, dim, dim, rrows))
        src = tuple(ambient.basis[g].source for g in amb_index)
        tgt = tuple(ambient.basis[g].target for g in amb_index)
        m = Bimodule(acting, dim, left, right, src, tgt, ambient, amb_index, embed)
        m.verify()
        return m

    @staticmethod
    def from_actions(
        acting: BoundQuiverAlgebra, left_mats, right_mats, src, tgt
    ) -> "Bimodule":
        dim = len(src)
        m = Bimodule(acting, dim, list(left_mats), list(right_mats), tuple(src), tuple(tgt))
        m.verify()
        return m

    # -- actions -----------------------------------------------------------

    @property
    def field(self):
        return self.acting.field

    def left_act_basis(self, a: int, vec):
        return _row_apply(self.field, vec, self.left_mats[a])

    def right_act_basis(self, a: int, vec):
        return _row_apply(self.field, vec, self.right_mats[a])

    def left_act(self, acoords, vec):
        f = self.field
        out = [f.zero()] * self.dim
        for a, c in enumerate(acoords):
            if f.is_zero(c):
                continue
            img = self.left_act_basis(a, vec)
            for j, x in enumerate(img):
                if not f.is_zero(x):
                    out[j] = f.add(out[j], f.mul(c, x))
        return out

    def right_act(self, acoords, vec):
        f = self.field
        out = [f.zero()] * self.dim
        for a, c in enumerate(acoords):
            if f.is_zero(c):
                continue
            img = self.right_act_basis(a, vec)
            for j, x in enumerate(img):
                if not f.is_zero(x):
                    out[j] = f.add(out[j], f.mul(c, x))
        return out

    def zero_vec(self):
        return [self.field.zero()] * self.dim

    def diagonal_indices(self):
        """Basis positions of the diagonal part, the sum of e_v . M . e_v."""
        return [i for i in range(self.dim) if self.src[i] == self.tgt[i]]

    def to_ambient(self, vec):
        if self.ambient is None:
            raise ValueError("bimodule has no ambient realization")
        f = self.field
        out = [f.zero()] * self.ambient.dim
        for i, c in enumerate(vec):
            if not f.is_zero(c):
                out[self.amb_index[i]] = c
        return out

    # -- verification ------------------------------------------------------

    def verify(self):
        f = self.field
        A = self.acting
        if len(self.left_mats) != A.dim or len(self.right_mats) != A.dim:
            raise ValueError("need one action matrix per acting basis element")
        for m in list(self.left_mats) + list(self.right_mats):
            if m.rows != self.dim or m.cols != self.dim:
                raise ValueError("action matrix has wrong shape")
        # idempotents act as the bigrade projections
        for v in A.quiver.vertices:
            iv = A.idem_index[v]
            for i in range(self.dim):
                for j in range(self.dim):
                    want_l = f.one() if (i == j and self.src[i] == v) else f.zero()
                    want_r = f.one() if (i == j and self.tgt[i] == v) else f.zero()
                    if self.left_mats[iv].entries[i][j] != want_l:
                        raise ValueError(
                            "left action of idempotent at %r is not the bigrade projection" % (v,)
                        )
                    if self.right_mats[iv].entries[i][j] != want_r:
                        raise ValueError(
                            "right action of idempotent at %r is not the bigrade projection" % (v,)
                        )
        if self.ambient is not None:
            self._verify_section_premise()
        else:
            self._verify_axioms()

    def _verify_section_premise(self):
        """sigma(a)sigma(b) - sigma(ab) must annihilate the span on the
        relevant side; with ambient associativity this yields the axioms."""
        f = self.field
        A = self.acting
        amb = self.ambient
        for a in range(A.dim):
            for b in range(A.dim):
                prod = amb.mult_coords[self.embed[a]][self.embed[b]]
                delta = list(prod)
                for k, c in enumerate(A.mult_coords[a][b]):
                    if not f.is_zero(c):
                        g = self.embed[k]
                        delta[g] = f.sub(delta[g], c)
                if all(f.is_zero(x) for x in delta):
                    continue
                for i in range(self.dim):
                    g = self.amb_index[i]
                    # delta . m and m . delta must both vanish
                    dm = amb.multiply_coords(tuple(delta), self._amb_unit(g))
                    md = amb.multiply_coords(self._amb_unit(g), tuple(delta))
                    if any(not f.is_zero(x) for x in dm) or any(
                        not f.is_zero(x) for x in md
                    ):
                        raise ValueError(
                            "section defect does not annihilate the span"
                        )

    def _amb_unit(self, g):
        f = self.field
        out = [f.zero()] * self.ambient.dim
        out[g] = f.one()
        return tuple(out)

    def _verify_axioms(self):
        f = self.field
        A = self.acting
        for a in range(A.dim):
            for b in range(A.dim):
                ab = A.mult_coords[a][b]
                # left: L[b] L[a] = sum_k ab_k L[k]
                lhs = self.left_mats[b].mul(self.left_mats[a])
                acc = Matrix.zero(f, self.dim, self.dim)
                for k, c in enumerate(ab):
                    if f.is_zero(c):
                        continue
                    m = self.left_mats[k]
                    for i in range(self.dim):
                        for j in range(self.dim):
                            x = m.entries[i][j]
                            if not f.is_zero(x):
                                acc.entries[i][j] = f.add(acc.entries[i][j], f.mul(c, x))
                if lhs != acc:
                    raise ValueError("left action is not associative")
                # right: R[a] R[b] = sum_k ab_k R[k]
                rhs = self.right_mats[a].mul(self.right_mats[b])
                acc = Matrix.zero(f, self.dim, self.dim)
                for k, c in enumerate(ab):
                    if f.is_zero(c):
                        continue
                    m = self.right_mats[k]
                    for i in range(self.dim):
                        for j in range(self.dim):
                            x = m.entries[i][j]
                            if not f.is_zero(x):
                                acc.entries[i][j] = f.add(acc.entries[i][j], f.mul(c, x))
                if rhs != acc:
                    raise ValueError("right action is not associative")
                # middle: L[a] and R[b] commute
                if self.left_mats[a].mul(self.right_mats[b]) != self.right_mats[
                    b
                ].mul(self.left_mats[a]):
                    raise ValueError("left and right actions do not commute")

    def __repr__(self):
        kind = "ambient" if self.ambient is not None else "abstract"
        return "Bimodule(dim %d over %s, %s)" % (self.dim, self.acting.block.name, kind)


def section_embed(acting: BoundQuiverAlgebra, ambient: BoundQuiverAlgebra) -> tuple:
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


def regular_bimodule(alg: BoundQuiverAlgebra) -> Bimodule:
    return Bimodule.from_ambient_span(alg, alg, tuple(range(alg.dim)))


def zero_bimodule(alg: BoundQuiverAlgebra) -> Bimodule:
    return Bimodule.from_ambient_span(alg, alg, ())


def sub_bimodule(
    ambient: BoundQuiverAlgebra,
    amb_index,
    acting: BoundQuiverAlgebra | None = None,
    embed=None,
) -> Bimodule:
    if acting is None:
        acting = ambient
    elif embed is None:
        embed = section_embed(acting, ambient)
    return Bimodule.from_ambient_span(acting, ambient, amb_index, embed)


def arrow_ideal_bimodule(
    ambient: BoundQuiverAlgebra,
    arrow_names,
    acting: BoundQuiverAlgebra | None = None,
    embed=None,
) -> Bimodule:
    """The two-sided ideal of the named arrows, as a square-zero bimodule.

    Raises when a surviving path runs through two of the named arrows or
    when the ideal fails to square to zero, and when the ideal is not the
    plain span of the basis paths through those arrows (relations mixing
    the named arrows with old ones would break the path realization).
    """
    arrow_set = set(arrow_names)
    unknown = arrow_set - set(ambient.arrow_index_in_basis)
    if unknown:
        raise ValueError("not arrows of %r: %s" % (ambient.block.name, sorted(unknown)))
    f = ambient.field
    span = []
    for i, p in enumerate(ambient.basis):
        hits = sum(
            1 for k in p.arrows if ambient.quiver.arrows[k].name in arrow_set
        )
        if hits >= 2:
            raise ValueError(
                "path %s runs through two of the new arrows; "
                "the extension ideal does not square to zero" % p.label()
            )
        if hits == 1:
            span.append(i)
    ideal = ideal_subspace(ambient, arrow_set)
    coord_span = Subspace.from_vectors(
        f,
        ambient.dim,
        [
            [f.one() if k == g else f.zero() for k in range(ambient.dim)]
            for g in span
        ],
    )
    if ideal != coord_span:
        raise ValueError(
            "ideal of %s is not spanned by the paths through those arrows"
            % sorted(arrow_set)
        )
    # square-zero, checked on the ideal itself
    for g in span:
        for h in span:
            prod = ambient.mult_coords[g][h]
            if any(not f.is_zero(c) for c in prod):
                raise ValueError(
                    "extension ideal does not square to zero: %s * %s != 0"
                    % (ambient.basis[g].label(), ambient.basis[h].label())
                )
    return sub_bimodule(ambient, tuple(span), acting, embed)


def base_sub_bimodule(
    ambient: BoundQuiverAlgebra,
    new_arrow_names,
    acting: BoundQuiverAlgebra | None = None,
    embed=None,
) -> Bimodule:
    """The span of basis paths avoiding the named arrows, acted on by
    `acting` (default: the ambient algebra itself)."""
    arrow_set = set(new_arrow_names)
    span = tuple(
        i
        for i, p in enumerate(ambient.basis)
        if not any(ambient.quiver.arrows[k].name in arrow_set for k in p.arrows)
    )
    return sub_bimodule(ambient, span, acting, embed)


def direct_sum_check(ambient: BoundQuiverAlgebra, parts) -> bool:
    """Do the arrow ideals of the given disjoint arrow sets decompose the
    ideal of their union as a direct sum?"""
    parts = [set(p) for p in parts]
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            if parts[i] & parts[j]:
                return False
    union = set().union(*parts) if parts else set()
    total = ideal_subspace(ambient, union)
    subs = [ideal_subspace(ambient, p) for p in parts]
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


def hom_equations(m: Bimodule, n: Bimodule, sides=None) -> tuple:
    """The equations a.f(x) - f(a.x) = l and f(x).a - f(x.a) = r on a linear
    map f: M -> N, one row per acting basis element a, basis element x_i of
    M and coordinate j of N, with (l, r) = sides(a, i) (both 0 when sides is
    None).

    A solution preserves the vertex bigrade: the idempotent rows force every
    other entry to 0, since the idempotents act as the bigrade projections.
    So only the graded entries are unknowns; var maps (i, j) to the column of
    the entry F[i][j] of f (row convention: coords(f(x)) = x . F).  Returns
    (var, rows, values), dense rows over those columns, without the rows
    that are zero with value zero."""
    if m.acting is not n.acting:
        raise ValueError("bimodules over different acting algebras")
    f = m.field
    var = {}
    graded = []  # per i: (j, column) of its graded entries
    for i in range(m.dim):
        own = []
        for j in range(n.dim):
            if m.src[i] == n.src[j] and m.tgt[i] == n.tgt[j]:
                var[(i, j)] = len(var)
                own.append((j, var[(i, j)]))
        graded.append(own)
    nvars = len(var)

    def sparse(mat):
        return [
            [(j, x) for j, x in enumerate(row) if not f.is_zero(x)]
            for row in mat.entries
        ]

    zero = [f.zero()] * n.dim
    rows = []
    values = []
    for a in range(m.acting.dim):
        actions = [
            (sparse(m.left_mats[a]), sparse(n.left_mats[a])),
            (sparse(m.right_mats[a]), sparse(n.right_mats[a])),
        ]
        for i in range(m.dim):
            lr = sides(a, i) if sides is not None else (zero, zero)
            for (am, an), value in zip(actions, lr):
                eqs = [{} for _ in range(n.dim)]
                # a acting on f(x_i): F[i][k] times the action on n_k
                for k, col in graded[i]:
                    for j, c in an[k]:
                        eqs[j][col] = f.add(eqs[j].get(col, f.zero()), c)
                # f of a acting on x_i: its coefficient on x_g times F[g][j]
                for g, c in am[i]:
                    for j, col in graded[g]:
                        eqs[j][col] = f.sub(eqs[j].get(col, f.zero()), c)
                for j, eq in enumerate(eqs):
                    eq = {col: c for col, c in eq.items() if not f.is_zero(c)}
                    if not eq and f.is_zero(value[j]):
                        continue
                    row = [f.zero()] * nvars
                    for col, c in eq.items():
                        row[col] = c
                    rows.append(row)
                    values.append(value[j])
    return var, rows, values


def _graded_kernel(m: Bimodule, n: Bimodule, var, rows) -> Subspace:
    """Kernel of rows over the graded columns, in the flattened
    dim(M) x dim(N) coordinates."""
    f = m.field
    ker = exactla.kernel(Matrix(f, len(rows), len(var), rows))
    vectors = []
    for v in ker.basis:
        flat = [f.zero()] * (m.dim * n.dim)
        for (i, j), col in var.items():
            flat[i * n.dim + j] = v[col]
        vectors.append(flat)
    return Subspace.from_vectors(f, m.dim * n.dim, vectors)


def bimodule_hom_space(m: Bimodule, n: Bimodule) -> Subspace:
    """Bimodule maps f: M -> N as flattened dim(M) x dim(N) matrices
    (row convention: coords(f(x)) = x . F)."""
    var, rows, _ = hom_equations(m, n)
    return _graded_kernel(m, n, var, rows)


def end_enveloping(m: Bimodule) -> int:
    """Dimension of the space of bimodule endomorphisms of M."""
    return bimodule_hom_space(m, m).dim


def curly_E(m: Bimodule, n: Bimodule) -> Subspace:
    """Bimodule maps f: M -> N with x.f(y) + f(x).y = 0 in the ambient
    algebra for all x, y in M."""
    if m.ambient is None or n.ambient is None or m.ambient is not n.ambient:
        raise ValueError("both bimodules must live in one ambient algebra")
    f = m.field
    amb = m.ambient
    # the hom conditions followed by the bilinear ones, as one system
    var, rows, _ = hom_equations(m, n)
    nvars = len(var)
    for i in range(m.dim):
        gi = m.amb_index[i]
        for j in range(m.dim):
            gj = m.amb_index[j]
            # x_i . f(x_j) + f(x_i) . x_j = 0, one equation per ambient coord
            coeff = [[f.zero()] * nvars for _ in range(amb.dim)]
            for k in range(n.dim):
                gk = n.amb_index[k]
                # x_i . n_k weighs F[j][k]; n_k . x_j weighs F[i][k]
                for col, prod in (
                    (var.get((j, k)), amb.mult_coords[gi][gk]),
                    (var.get((i, k)), amb.mult_coords[gk][gj]),
                ):
                    if col is None:
                        continue
                    for t, c in enumerate(prod):
                        if not f.is_zero(c):
                            coeff[t][col] = f.add(coeff[t][col], c)
            for t in range(amb.dim):
                if any(not f.is_zero(c) for c in coeff[t]):
                    rows.append(coeff[t])
    return _graded_kernel(m, n, var, rows)


def curly_E_dimension(m: Bimodule, n: Bimodule) -> int:
    return curly_E(m, n).dim
