"""Bimodules over a bound quiver algebra, realized inside an ambient algebra.

The bimodules this package cares about are spans of basis paths of a larger
algebra (an arrow ideal of a split extension, or the extension's base sitting
inside it), acted on by a possibly smaller algebra through the path-to-path
section.  A Bimodule is a view on the ambient algebra: amb_index and embed
place its basis and the acting basis in the ambient basis, and both actions
are ambient products re-indexed on the span, a.x_i at
products[embed[a]][amb_index[i]] and x_i.a at products[amb_index[i]][embed[a]].
The same indices evaluate mixed products like x.f(y) for the obstruction
space of bimodule maps into the base.  Vectors are sparse {i: c}.

Bimodule.verify checks closure under both actions, that each acting e_v
is embedded as the ambient's e_v, and the section premise sigma(a).sigma(b)
- sigma(ab) annihilating the module from either side.  With the ambient's
associative, graded and unital structure constants, those give the bimodule
axioms, and each e_v acts as the projection onto the basis paths at v.  No
constructor runs it: on the regular bimodule and on an arrow ideal none of
the checks can fail (see their docstrings), and the split views of
extensions argue them from facts checked once per family.
"""

from __future__ import annotations

import itertools

from . import exactla
from .algebra import BoundQuiverAlgebra, arrow_ideal_paths
from .exactla import Subspace


class Bimodule:
    def __init__(
        self,
        acting: BoundQuiverAlgebra,
        ambient: BoundQuiverAlgebra,
        amb_index,  # ambient basis index per bimodule basis elt
        embed,  # ambient basis index per acting basis elt
    ):
        """Refuses bad indices before any product is read, then reads dim,
        src and tgt (the vertex of e_v . m = m and of m . e_v = m, per basis
        element) off the ambient endpoint tables at amb_index."""
        self.acting = acting
        self.ambient = amb = ambient
        self._calculator = None  # set by hochschild.calculator
        self._layout = None  # set by hochschild.arrow_layout
        self._ad = None  # set by hochschild._inner_derivations
        if acting.field is not amb.field:
            raise ValueError("acting and ambient algebras use different fields")
        self.amb_index = tuple(amb_index)
        self.embed = tuple(embed)
        if len(self.embed) != self.acting.dim:
            raise ValueError(
                "embed lists %d ambient indices for the %d basis elements of %r"
                % (len(self.embed), self.acting.dim, self.acting.block.name)
            )
        for what, index in (("span", self.amb_index), ("embed", self.embed)):
            bad = [g for g in index if g not in range(amb.dim)]
            if bad:
                raise ValueError("%s index %r is outside range(%d)" % (what, bad[0], amb.dim))
        self._pos = {g: i for i, g in enumerate(self.amb_index)}
        self.dim = len(self.amb_index)
        if len(self._pos) != self.dim:
            raise ValueError("span lists a basis path twice")
        self.src = tuple(map(amb.src.__getitem__, self.amb_index))
        self.tgt = tuple(map(amb.tgt.__getitem__, self.amb_index))

    # -- actions -----------------------------------------------------------

    @property
    def field(self):
        return self.acting.field

    def act(self, side: int, a: int, i: int) -> dict:
        """a.x_i (side 0) or x_i.a (side 1) for the acting basis element a,
        sparse."""
        g, h = self.embed[a], self.amb_index[i]
        if side:
            g, h = h, g
        cell = self.ambient.products[g].get(h)
        pos = self._pos
        return {pos[k]: c for k, c in cell.items()} if cell else {}

    def touched(self, side: int, a: int) -> list:
        """(i, act(side, a, i)) over the i where it is nonzero, i ascending,
        read off the ambient row (side 0) or column (side 1) of a's image."""
        ea = self.embed[a]
        line = self.ambient.column(ea) if side else self.ambient.products[ea]
        pos = self._pos
        return sorted(
            (pos[g], {pos[k]: c for k, c in cell.items()})
            for g, cell in line.items()
            if g in pos
        )

    def left_act(self, acoords: dict, vec: dict) -> dict:
        """a.x for sparse a = {acting index: c} and x = {index: c}."""
        return self._act(0, acoords, vec)

    def right_act(self, acoords: dict, vec: dict) -> dict:
        """x.a for sparse a = {acting index: c} and x = {index: c}."""
        return self._act(1, acoords, vec)

    def _act(self, side, acoords, vec):
        f = self.field
        out = {}
        for a, c in acoords.items():
            for i, x in vec.items():
                img = self.act(side, a, i)
                cx = f.mul(c, x) if img else None
                for j, y in img.items():
                    z = f.mul(cx, y)
                    old = out.get(j)
                    out[j] = z if old is None else f.add(old, z)
        return f.sparse(out)

    def diagonal_indices(self):
        """Basis positions of the diagonal part, the sum of e_v . M . e_v."""
        return [i for i in range(self.dim) if self.src[i] == self.tgt[i]]

    def to_ambient(self, vec: dict) -> dict:
        """The sparse ambient vector of a sparse vector of M; raises
        ValueError on a coordinate outside range(dim)."""
        exactla._check_coordinates(self.dim, vec)
        return {self.amb_index[i]: c for i, c in vec.items()}

    # -- verification ------------------------------------------------------

    def verify(self):
        """Raise ValueError unless the span is closed under both actions (on
        the nonzero ambient products that touch it), each acting e_v is
        embedded as the ambient's e_v (the graded, unital ambient then makes
        it act as the projection onto the paths at v), and the section
        premise holds."""
        amb = self.ambient
        products, pos = amb.products, self._pos
        images = dict.fromkeys(self.embed)
        for cell in itertools.chain(
            (cell for ea in images for g, cell in products[ea].items() if g in pos),
            (cell for g in pos for h, cell in products[g].items() if h in images),
        ):
            for k in cell:
                if k not in pos:
                    raise ValueError(
                        "span is not closed under the action: product hits %s"
                        % amb.basis[k].label()
                    )
        for v, a in self.acting.idem_index.items():
            if self.embed[a] != amb.idem_index.get(v):
                raise ValueError(
                    "the idempotent at %r is embedded as %s, not as the "
                    "ambient's e_%s" % (v, amb.basis[self.embed[a]].label(), v)
                )
        # sigma(a)sigma(b) - sigma(ab) must annihilate the span; it is
        # ab - ab = 0 when the ambient acts on itself through the identity
        if self.acting is not amb or self.embed != tuple(range(amb.dim)):
            self.check_section_defects(section_defects(self.acting, amb, self.embed))

    def check_section_defects(self, defects):
        """Raise unless each defect (a, b, delta) of section_defects
        annihilates the span on both sides: delta . m = m . delta = 0."""
        f = self.field
        amb = self.ambient
        for _, _, delta in defects:
            for g in self.amb_index:
                unit = {g: f.one()}
                if amb.multiply_sparse(delta, unit) or amb.multiply_sparse(unit, delta):
                    raise ValueError("section defect does not annihilate the span")

    def __repr__(self):
        return "Bimodule(dim %d over %s)" % (self.dim, self.acting.block.name)


def section_defects(
    acting: BoundQuiverAlgebra, ambient: BoundQuiverAlgebra, embed
) -> list:
    """(a, b, sigma(a)sigma(b) - sigma(ab)) for each pair of acting basis
    elements with a nonzero defect, in order of (a, b), the defect as a
    sparse ambient vector.  A pair can have one only where ab or
    sigma(a)sigma(b) is nonzero, so only those pairs are visited."""
    f = ambient.field
    pos = {}
    for a, g in enumerate(embed):
        pos.setdefault(g, []).append(a)
    out = []
    for a in range(acting.dim):
        amb_row = ambient.products[embed[a]]
        own_row = acting.products[a]
        visit = set(own_row)
        visit.update(b for g in amb_row for b in pos.get(g, ()))
        for b in sorted(visit):
            lhs = amb_row.get(embed[b], {})
            rhs = {}
            for k, c in own_row.get(b, {}).items():
                g = embed[k]
                rhs[g] = f.add(rhs[g], c) if g in rhs else c
            if lhs != rhs:
                delta = dict(lhs)
                for g, c in rhs.items():
                    delta[g] = f.sub(delta.get(g, f.zero()), c)
                delta = f.sparse(delta)
                if delta:
                    out.append((a, b, delta))
    return out


def regular_bimodule(alg: BoundQuiverAlgebra) -> Bimodule:
    """alg over itself, without Bimodule.verify, which could not fail: the
    span is the whole basis, so every product lies in it; embed is the
    identity, so it sends each e_v to e_v and has no section defect."""
    return Bimodule(alg, alg, range(alg.dim), range(alg.dim))


def square_zero_ideal_paths(ambient: BoundQuiverAlgebra, arrow_names) -> tuple:
    """Basis indices of the paths through the named arrows, once their span
    is checked to be a square-zero two-sided ideal.

    Raises when a surviving path runs through two of the named arrows or
    when the ideal fails to square to zero, and when the ideal is not the
    plain span of the basis paths through those arrows (relations mixing
    the named arrows with old ones would break the path realization).
    """
    arrow_set = set(arrow_names)
    unknown = arrow_set - set(ambient.arrow_index_in_basis)
    if unknown:
        raise ValueError("not arrows of %r: %s" % (ambient.block.name, sorted(unknown)))
    idx = {ambient.quiver.arrow_index[n] for n in arrow_set}
    for g, w in enumerate(ambient.words):
        if sum(k in idx for k in w) >= 2:
            raise ValueError(
                "path %s runs through two of the new arrows; "
                "the extension ideal does not square to zero" % ambient.basis[g].label()
            )
    span = arrow_ideal_paths(ambient, arrow_set)
    # square-zero, checked on the ideal itself
    in_span = set(span)
    for g in span:
        for h in ambient.products[g]:
            if h in in_span:
                raise ValueError(
                    "extension ideal does not square to zero: %s * %s != 0"
                    % (ambient.basis[g].label(), ambient.basis[h].label())
                )
    return span


def arrow_ideal_bimodule(ambient: BoundQuiverAlgebra, arrow_names) -> Bimodule:
    """The two-sided ideal of the named arrows, as a square-zero bimodule
    over the ambient algebra, without Bimodule.verify:
    square_zero_ideal_paths checks that its span is a two-sided ideal, so
    closed under both actions, and embed is the identity, so it sends each
    e_v to e_v and has no section defect."""
    span = square_zero_ideal_paths(ambient, arrow_names)
    return Bimodule(ambient, ambient, span, range(ambient.dim))


def hom_equations(m: Bimodule, n: Bimodule) -> tuple:
    """The equations a.f(x) - f(a.x) = 0 and f(x).a - f(x.a) = 0 on a linear
    map f: M -> N, one row per acting arrow a, basis element x_i of M, side
    (0 left, 1 right) and coordinate j of N.

    A solution preserves the vertex bigrade, since the idempotents act as
    the bigrade projections; so only the graded entries are unknowns, and
    on them the idempotent rows are zero.  The arrows then suffice: every
    other acting basis element is a path a.q of an arrow and a shorter
    path, and if f commutes with a and with q, f(a.q.x) = a.f(q.x) =
    a.q.f(x), so by induction on length f commutes with every basis
    element (on the right likewise).  var maps (i, j) to the column of the
    entry F[i][j] of f (row convention: coords(f(x)) = x . F), i then j
    ascending, the j read from N's basis bucketed by bigrade.  Returns
    (var, rows, keys), sparse rows {column: c} over those columns without
    the zero rows, and the key (a, i, side, j) of each row, a the acting
    basis index of an arrow, where a caller places its right-hand sides; a
    key without a row has a zero left side.

    The row of (a, i, side) has a term for each x_g in a acting on x_i and
    for each n_k graded like x_i that a acts on, so only the i where a acts
    on x_i or on some n_k of its bigrade are visited, in ascending order."""
    if m.acting is not n.acting:
        raise ValueError("bimodules over different acting algebras")
    f = m.field
    n_of = {}  # bigrade -> the j of N in it, ascending
    for j, grade in enumerate(zip(n.src, n.tgt)):
        n_of.setdefault(grade, []).append(j)
    m_of = {}  # bigrade -> the i of M in it, ascending
    var = {}
    graded = []  # per i: (j, column) of its graded entries
    for i, grade in enumerate(zip(m.src, m.tgt)):
        m_of.setdefault(grade, []).append(i)
        own = []
        for j in n_of.get(grade, ()):
            var[(i, j)] = len(var)
            own.append((j, var[(i, j)]))
        graded.append(own)

    rows = []
    keys = []
    for a in m.acting.arrow_index_in_basis.values():
        actions = []
        visit = set()
        for side in (0, 1):
            am = dict(m.touched(side, a))
            an = am if n is m else dict(n.touched(side, a))
            actions.append((am, an))
            visit.update(am)
            for grade in {(n.src[k], n.tgt[k]) for k in an}:
                visit.update(m_of.get(grade, ()))
        for i in sorted(visit):
            for side, (am, an) in enumerate(actions):
                eqs = {}  # coordinate j of N -> row
                # a acting on f(x_i): F[i][k] times the action on n_k
                for k, col in graded[i]:
                    for j, c in an.get(k, {}).items():
                        eq = eqs.setdefault(j, {})
                        eq[col] = f.add(eq.get(col, f.zero()), c)
                # f of a acting on x_i: its coefficient on x_g times F[g][j]
                for g, c in am.get(i, {}).items():
                    for j, col in graded[g]:
                        eq = eqs.setdefault(j, {})
                        eq[col] = f.sub(eq.get(col, f.zero()), c)
                for j, eq in eqs.items():
                    eq = f.sparse(eq)
                    if eq:
                        rows.append(eq)
                        keys.append((a, i, side, j))
    return var, rows, keys


def _graded_kernel(m: Bimodule, n: Bimodule, var, rows) -> Subspace:
    """Kernel of rows over the graded columns, in the flattened
    dim(M) x dim(N) coordinates.  Columns are numbered in the order of the
    flattened positions, so the canonical basis stays canonical."""
    f = m.field
    ker = exactla.null_space(f, len(var), rows)
    flat = [i * n.dim + j for (i, j) in var]
    return Subspace(
        f, m.dim * n.dim, tuple({flat[c]: x for c, x in v.items()} for v in ker.rows)
    )


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
    algebra for all x, y in M.  The bilinear equation of (x_i, x_j) has the
    term F[j][k] (x_i . n_k) for each nonzero product x_i . n_k and the term
    F[i][k] (n_k . x_j) for each nonzero n_k . x_j, over the unknowns F[j][k]
    and F[i][k] of the hom system; only the pairs with a term are visited,
    in the order of (i, j), so the equations come out as from every pair."""
    if m.ambient is not n.ambient:
        raise ValueError("both bimodules must live in one ambient algebra")
    f = m.field
    amb = m.ambient
    n_at = n._pos
    left = [  # per i: (k, x_i . n_k) over the nonzero products
        [(n_at[g], prod) for g, prod in amb.products[gi].items() if g in n_at]
        for gi in m.amb_index
    ]
    right = [  # per j: (k, n_k . x_j) over the nonzero products
        [(n_at[g], prod) for g, prod in amb.column(gj).items() if g in n_at]
        for gj in m.amb_index
    ]
    # the hom conditions followed by the bilinear ones, as one system
    var, rows, _ = hom_equations(m, n)
    rows_at = {}  # k -> the rows r with F[r][k] an unknown
    ks_of = {}  # r -> the k with F[r][k] an unknown
    for r, k in var:
        rows_at.setdefault(k, []).append(r)
        ks_of.setdefault(r, []).append(k)
    right_at = {}  # k -> the j with n_k . x_j nonzero
    for j, terms in enumerate(right):
        for k, _ in terms:
            right_at.setdefault(k, []).append(j)
    for i in range(m.dim):
        # (i, j) has a term iff F[j][k] is an unknown for a k of left[i], or
        # F[i][k] is for a k with n_k . x_j nonzero
        js = {j for k, _ in left[i] for j in rows_at.get(k, ())}
        js.update(j for k in ks_of.get(i, ()) for j in right_at.get(k, ()))
        for j in sorted(js):
            # x_i . f(x_j) + f(x_i) . x_j = 0, one equation per ambient coord
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
    return _graded_kernel(m, n, var, rows)


def curly_E_dimension(m: Bimodule, n: Bimodule) -> int:
    return curly_E(m, n).dim
