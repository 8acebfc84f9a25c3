"""Finite-dimensional bound quiver algebras kQ/I.

Paths are ordered by length, then by arrow declaration indices
(Path.sort_key), an admissible order; the tip of a vector is its largest
path.  build completes the relations to the reduced Groebner basis of I
(Green, "Noncommutative Groebner bases, and projective resolutions", 1999),
rules tip -> tail with tip = tail modulo I, by Buchberger on tip overlaps,
least first: for tips u s of g and s v of h, a nonzero remainder of
g v - u h is a new rule, which requeues each rule whose tip holds its tip.
Overlaps of two monomials are skipped (their S-vector is zero), so the
chain's ideal completes with no elimination.  Completion ends, as each new
tip is a path no earlier rule reduced and none may exceed max_len_cap
(NotFiniteDimensionalError); every path of the vanishing length lies in I,
so no tip of a reduced basis is longer.  The basis is the tip-free paths,
grown by arrows testing only new suffixes; a normal form rewrites tips
until none is left.  The tips of I depend only on I and the order, and the
enumeration builder this replaced (tests/build_reference.py) read them as
the pivots of an echelon spanning I length by length, exactly so for
homogeneous relations: the basis, the vanishing length and the structure
constants agree.  _verify_build checks every build (declared relations
vanish, graded structure constants, multiplicative reduction,
associativity, unit law) and raises AlgebraBuildError on any discrepancy.

The structure constants are stored sparsely: products[i] maps j to the
nonzero coordinates {k: c} of b_i b_j, and no table stores a zero, so two
algebras on the same basis have the same products iff their tables compare
equal.  The center is H0 of the regular bimodule and lives with the other
cohomology (extensions.center).
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

from . import exactla, qdsl
from .exactla import Field
from .quiver import Path, Quiver, compose, is_acyclic


class NotFiniteDimensionalError(ValueError):
    pass


class AlgebraBuildError(ValueError):
    pass


class IdealNotSpanned(ValueError):
    """The ideal of some arrows is larger than the span of the basis paths
    through them."""


@dataclass(eq=False)
class BoundQuiverAlgebra:
    block: qdsl.AlgebraBlock
    quiver: Quiver
    field: Field
    basis: tuple  # of Path, deterministic order
    dim: int
    zero_length: int  # every path of length >= this is zero in the algebra
    basis_index: dict  # Path -> int
    products: list  # per basis index i: {j: {k: c}}, the nonzero b_i b_j only
    idem_index: dict  # vertex -> basis index of its stationary path
    arrow_index_in_basis: dict  # arrow name -> basis index
    _nf_cache: dict  # Path -> {k: c}, shared with products: read only
    _rules: dict  # tip length -> {tip arrows: tail}, the reduced Groebner basis
    _center: exactla.Subspace | None = None  # set by extensions.center
    _regular: "Bimodule | None" = None  # set by extensions.regular_bimodule_of
    _regular_h1: "CohomologySpace | None" = None  # set by extensions.regular_h1
    _vertex_pairs: dict | None = None  # set by coords_of_vertex_pair
    _columns: list | None = None  # set by column

    # -- normal forms ------------------------------------------------------

    def nf_coords(self, path: Path) -> dict:
        """Nonzero coordinates {k: c} of a quiver path's class in the path
        basis."""
        if path in self._nf_cache:
            return self._nf_cache[path]
        out = {}
        if path.length < self.zero_length:
            f = self.field
            for w, c in _reduce(f, {path.arrows: f.one()}, self._rules).items():
                p = Path(self.quiver, None, w)
                if p not in self.basis_index:
                    raise AlgebraBuildError(
                        "reduction of %s leaves non-basis path %s"
                        % (path.label(), p.label())
                    )
                out[self.basis_index[p]] = c
        self._nf_cache[path] = out
        return out

    def product_coords(self, i: int, j: int) -> dict:
        """The nonzero coordinates of b_i b_j."""
        return self.products[i].get(j, {})

    def multiply_sparse(self, a: dict, b: dict) -> dict:
        """The product of two sparse elements {i: c}, without zeros."""
        f = self.field
        out = {}
        for i, ca in a.items():
            for j, cell in self.products[i].items():
                cb = b.get(j)
                if cb is None:
                    continue
                c = f.mul(ca, cb)
                for k, ck in cell.items():
                    x = f.mul(c, ck)
                    old = out.get(k)
                    out[k] = x if old is None else f.add(old, x)
        return f.sparse(out)

    def column(self, j: int) -> dict:
        """{i: coordinates of b_i b_j} over the nonzero b_i b_j, i ascending;
        indexed by right factor once per algebra."""
        if self._columns is None:
            columns = [{} for _ in range(self.dim)]
            for i, row in enumerate(self.products):
                for h, cell in row.items():
                    columns[h][i] = cell
            self._columns = columns
        return self._columns[j]

    def coords_of_vertex_pair(self, x, y) -> list:
        """Basis indices lying in e_x A e_y, in basis order; the basis is
        indexed by (source, target) once per algebra."""
        if self._vertex_pairs is None:
            pairs = {}
            for i, p in enumerate(self.basis):
                pairs.setdefault((p.source, p.target), []).append(i)
            self._vertex_pairs = pairs
        return list(self._vertex_pairs.get((x, y), ()))

    def __repr__(self):
        return "BoundQuiverAlgebra(%s, dim %d, %s)" % (
            self.block.name,
            self.dim,
            self.field.name,
        )


def _relation_vector(q: Quiver, field: Field, rel: qdsl.RelationExpr) -> dict:
    vec = {}
    for t in rel.terms:
        p = Path.from_arrow_names(q, t.arrows)
        c = field.from_fraction(t.coeff)
        if p in vec:
            c = field.add(vec[p], c)
        vec[p] = c
    return {p: c for p, c in vec.items() if not field.is_zero(c)}


def _order(w: tuple):
    """The path order on arrow tuples of positive length."""
    return (len(w), w)


def _find_tip(w: tuple, rules: dict):
    """(i, j, tail) for the first tip w[i:j] in w, by end position, or None."""
    for j in range(1, len(w) + 1):
        for n, tips in rules.items():
            if n <= j and w[j - n : j] in tips:
                return j - n, j, tips[w[j - n : j]]
    return None


def _reduce(f: Field, vec: dict, rules: dict) -> dict:
    """The remainder of vec {arrows: c} under the rules, largest path first:
    a rewrite makes only smaller paths, so none in the remainder comes back."""
    vec, out = dict(vec), {}
    while vec:
        w = max(vec, key=_order)
        c = vec.pop(w)
        if f.is_zero(c):
            continue
        hit = _find_tip(w, rules)
        if hit is None:
            out[w] = c
            continue
        i, j, tail = hit
        for t, x in tail.items():
            y = w[:i] + t + w[j:]
            vec[y] = f.add(vec.get(y, f.zero()), f.mul(c, x))
    return out


def _complete(f: Field, relations: list, name: str, max_len_cap: int) -> dict:
    """The reduced Groebner basis of the ideal of the relations (vectors
    {Path: c}), as rules {tip length: {tip arrows: tail {arrows: c}}}."""
    rules = {}
    queue = []
    order = itertools.count()

    def push(vec):
        if vec:
            heapq.heappush(queue, (_order(max(vec, key=_order)), next(order), vec))

    for vec in relations:
        push({p.arrows: c for p, c in vec.items()})
    while queue:
        vec = _reduce(f, heapq.heappop(queue)[2], rules)
        if not vec:
            continue
        tip = max(vec, key=_order)
        if len(tip) > max_len_cap:
            raise NotFiniteDimensionalError(
                "algebra %r is not finite-dimensional within cap %d"
                % (name, max_len_cap)
            )
        scale = f.neg(f.inv(vec.pop(tip)))
        tail = {w: f.mul(scale, c) for w, c in vec.items()}
        # a rule whose tip holds the new tip is no longer reduced: requeue it
        for tips in [r for n, r in rules.items() if n > len(tip)]:
            for old in [t for t in tips if _find_tip(t, {len(tip): {tip: None}})]:
                push({old: f.one(), **{w: f.neg(c) for w, c in tips.pop(old).items()}})
        rules.setdefault(len(tip), {})[tip] = tail
        # two monomials have a zero S-vector
        held = [r for tips in rules.values() for r in tips.items() if tail or r[1]]
        new = (tip, tail)
        pairs = [(new, r) for r in held] + [(r, new) for r in held if r[0] != tip]
        for (tg, tail_g), (th, tail_h) in pairs:
            for k in range(1, min(len(tg), len(th))):
                if tg[-k:] == th[:k]:  # tg = u s and th = s v: g v - u h
                    v = th[k:]
                    vec = {tg[:-k] + w: c for w, c in tail_h.items()}
                    for w, c in tail_g.items():
                        vec[w + v] = f.sub(vec.get(w + v, f.zero()), c)
                    push(f.sparse(vec))
    return {n: {t: _reduce(f, x, rules) for t, x in r.items()} for n, r in rules.items()}


def build(
    block: qdsl.AlgebraBlock,
    field: Field | None = None,
    max_len_cap: int = 64,
) -> BoundQuiverAlgebra:
    """Construct the bound quiver algebra of a validated presentation block."""
    if max_len_cap < 2:
        raise ValueError("max_len_cap must be >= 2")
    f = field if field is not None else exactla.field_from_spec(block.field_spec)
    q = Quiver(block.vertices, block.arrows)
    relations = [_relation_vector(q, f, rel) for rel in block.relations]
    rules = _complete(f, relations, block.name, max_len_cap)

    alive = {0: [Path.stationary(q, v) for v in q.vertices]}
    alg = BoundQuiverAlgebra(
        block=block,
        quiver=q,
        field=f,
        basis=(),
        dim=0,
        zero_length=max_len_cap + 1,  # until the nonzero paths run out
        basis_index={p: i for i, p in enumerate(alive[0])},
        products=[],
        idem_index={v: i for i, v in enumerate(q.vertices)},
        arrow_index_in_basis={},
        _nf_cache={p: {i: f.one()} for i, p in enumerate(alive[0])},
        _rules=rules,
    )
    # alive[L]: the paths grown from alive[L-1] whose class is nonzero, in
    # declaration order.  A normal form needs the basis up to its length.
    basis = list(alive[0])
    for L in range(1, max_len_cap + 1):
        grown = [
            (Path(q, None, p.arrows + (i,)), p in alg.basis_index)
            for p in alive[L - 1]
            for i, a in enumerate(q.arrows)
            if a.source == p.target
        ]
        grown.sort(key=lambda g: g[0].arrows)
        # a path grown from a basis path holds a tip only as a suffix
        for p, free in grown:
            if free and not any(n <= L and p.arrows[-n:] in t for n, t in rules.items()):
                alg.basis_index[p] = len(basis)
                alg._nf_cache[p] = {len(basis): f.one()}
                basis.append(p)
        alive[L] = [p for p, _ in grown if alg.nf_coords(p)]
        if L > 1 and not alive[L]:
            alg.zero_length = L
            break
    else:
        raise NotFiniteDimensionalError(
            "algebra %r is not finite-dimensional within cap %d"
            % (block.name, max_len_cap)
        )
    alg.basis = basis = tuple(basis)
    alg.dim = len(basis)
    for i, a in enumerate(q.arrows):
        if Path(q, None, (i,)) not in alg.basis_index:
            raise AlgebraBuildError(
                "arrow %r is zero in the algebra; ideal is not admissible" % (a.name,)
            )
        alg.arrow_index_in_basis[a.name] = alg.basis_index[Path(q, None, (i,))]

    # b_p b_r is zero unless r starts where p ends
    starts = _by_source(basis)
    for p in basis:
        row = {}
        for j in starts.get(p.target, ()):
            cell = alg.nf_coords(compose(p, basis[j]))
            if cell:
                row[j] = cell
        alg.products.append(row)

    _verify_build(alg, block, alive)
    return alg


def _by_source(paths) -> dict:
    """Vertex -> indices of the paths starting there, in ascending order."""
    out = {}
    for i, p in enumerate(paths):
        out.setdefault(p.source, []).append(i)
    return out


def _verify_build(alg: BoundQuiverAlgebra, block: qdsl.AlgebraBlock, alive):
    """Raise AlgebraBuildError unless the declared relations vanish, the
    structure constants are graded, reduction is multiplicative on the
    generated paths, and the basis is associative with the idempotents as
    unit.

    Graded: each nonzero b_i b_j has tgt(b_i) = src(b_j) and only
    coordinates k with src(b_k) = src(b_i), tgt(b_k) = tgt(b_j).  It holds
    because qdsl rejects non-parallel relation terms, so normal forms keep
    endpoints.  Given it, (b_i b_j) b_l and b_i (b_j b_l) both vanish when
    tgt(b_i) != src(b_j), so associativity is checked on composable pairs
    (i, j) only, as multiplicativity is on composable paths."""
    f = alg.field
    basis = alg.basis
    products = alg.products
    # declared relations vanish
    for rel in block.relations:
        acc = {}
        for p, c in _relation_vector(alg.quiver, f, rel).items():
            for k, x in alg.nf_coords(p).items():
                acc[k] = f.add(acc.get(k, f.zero()), f.mul(c, x))
        if f.sparse(acc):
            raise AlgebraBuildError(
                "a declared relation of %r does not vanish" % alg.block.name
            )
    # the structure constants are graded
    for i, row in enumerate(products):
        src, tgt = basis[i].source, basis[i].target
        for j, cell in row.items():
            for k in cell:
                if not (
                    tgt == basis[j].source
                    and basis[k].source == src
                    and basis[k].target == basis[j].target
                ):
                    raise AlgebraBuildError(
                        "structure constant (%d,%d,%d) of %r breaks the grading"
                        % (i, j, k, alg.block.name)
                    )
    # reduction is multiplicative on classes of generated paths
    enumerated = [p for L in sorted(alive) if L < alg.zero_length for p in alive[L]]
    starts = _by_source(enumerated)
    for p in enumerated:
        pc = alg.nf_coords(p)
        for s in starts.get(p.target, ()):
            r = enumerated[s]
            if alg.nf_coords(compose(p, r)) != alg.multiply_sparse(pc, alg.nf_coords(r)):
                raise AlgebraBuildError(
                    "inconsistent reduction at %s * %s in %r"
                    % (p.label(), r.label(), alg.block.name)
                )
    # associativity on composable basis pairs (i, j) and every l: acc[l]
    # holds (b_i b_j) b_l - b_i (b_j b_l), over the nonzero products only
    starts = _by_source(basis)
    for i in range(alg.dim):
        row_i = products[i]
        for j in starts.get(basis[i].target, ()):
            acc = {}
            for k, c in row_i.get(j, {}).items():
                for l, cell in products[k].items():
                    out = acc.setdefault(l, {})
                    for m, d in cell.items():
                        out[m] = f.add(out.get(m, f.zero()), f.mul(c, d))
            for l, cell in products[j].items():
                out = acc.setdefault(l, {})
                for k, c in cell.items():
                    for m, d in row_i.get(k, {}).items():
                        out[m] = f.sub(out.get(m, f.zero()), f.mul(c, d))
            bad = [l for l, out in acc.items() if f.sparse(out)]
            if bad:
                raise AlgebraBuildError(
                    "associativity fails on basis triple (%d,%d,%d)" % (i, j, min(bad))
                )
    # unit law
    one = {i: f.one() for i in alg.idem_index.values()}
    for i in range(alg.dim):
        b = {i: f.one()}
        if alg.multiply_sparse(one, b) != b or alg.multiply_sparse(b, one) != b:
            raise AlgebraBuildError("unit law fails at basis %d" % i)


def arrow_ideal_paths(alg: BoundQuiverAlgebra, arrows) -> tuple:
    """Basis indices of the paths through any of the named arrows; raises
    IdealNotSpanned unless their span is the two-sided ideal of the arrows.

    The span lies in the ideal and holds the arrows, so it is the ideal iff
    it is closed under products with basis elements on both sides, which
    is checked on the nonzero structure constants."""
    idx = {alg.quiver.arrow_index[n] for n in arrows}
    span = tuple(g for g, p in enumerate(alg.basis) if idx.intersection(p.arrows))
    inside = set(span)
    for g, row in enumerate(alg.products):
        for h, cell in row.items():
            if (g in inside or h in inside) and not inside.issuperset(cell):
                raise IdealNotSpanned(
                    "ideal of %s is not spanned by the paths through those arrows"
                    % sorted(arrows)
                )
    return span


def quotient_by_arrows(alg: BoundQuiverAlgebra, arrows) -> BoundQuiverAlgebra:
    """alg modulo the two-sided ideal J of the listed arrows, as alg
    restricted to the basis paths that avoid them; raises IdealNotSpanned
    unless J is the span of the paths through them.

    Given that span, the other basis paths give a basis of alg/J, whose
    products are alg's with the coordinates on J dropped, so the checks of
    a build hold: reducing modulo J is an algebra map, and each relation of
    the presentation (alg's, minus the terms in J) vanishes.
    dim(quotient) + dim(J) = dim(alg) by construction, and zero_length is
    alg's.  Its rules are alg's whose tips avoid the arrows, minus the tail
    terms through them (which lie in J), re-indexed to the kept arrows.  A
    kept path never meets a tip through a dropped arrow, so the kept paths
    free of these tips are alg's basis paths avoiding the arrows, dim(alg/J)
    of them: the kept tips are the quotient ideal's, and the rules its
    reduced Groebner basis."""
    arrows = frozenset(arrows)
    block = alg.block
    unknown = arrows - {a[0] for a in block.arrows}
    if unknown:
        raise ValueError("not arrows of %r: %s" % (block.name, sorted(unknown)))
    if not arrows:
        return alg
    dropped = arrow_ideal_paths(alg, arrows)

    kept_arrows = tuple(a for a in block.arrows if a[0] not in arrows)
    kept_rels = []
    for rel in block.relations:
        kept = tuple(t for t in rel.terms if not any(n in arrows for n in t.arrows))
        if kept:
            kept_rels.append(qdsl.RelationExpr(kept, rel.source, rel.target))
    sub_block = qdsl.AlgebraBlock(
        name="%s_minus_%s" % (block.name, "_".join(sorted(arrows))),
        field_spec=block.field_spec,
        vertices=block.vertices,
        arrows=kept_arrows,
        relations=tuple(kept_rels),
        extension_of=None,
        new_arrows=(),
    )
    q = Quiver(sub_block.vertices, kept_arrows)
    own_arrow = {alg.quiver.arrow_index[a[0]]: i for i, a in enumerate(kept_arrows)}

    def own(w):
        return tuple(own_arrow[k] for k in w)

    gone = set(dropped)
    kept_idx = [g for g in range(alg.dim) if g not in gone]
    pos = {g: i for i, g in enumerate(kept_idx)}
    rules = {}
    for n, tips in alg._rules.items():
        for tip, tail in tips.items():
            if own_arrow.keys() >= set(tip):
                rules.setdefault(n, {})[own(tip)] = {
                    own(w): c for w, c in tail.items() if own_arrow.keys() >= set(w)
                }
    # the deleted arrows keep the relative order of the others, and with it
    # the basis order
    basis = tuple(
        Path(q, p.vertex, own(p.arrows)) for p in (alg.basis[g] for g in kept_idx)
    )
    products = []
    for g in kept_idx:
        row = {}
        for h, cell in alg.products[g].items():
            if h in pos:
                cell = {pos[k]: c for k, c in cell.items() if k in pos}
                if cell:
                    row[pos[h]] = cell
        products.append(row)
    one = alg.field.one()
    return BoundQuiverAlgebra(
        block=sub_block,
        quiver=q,
        field=alg.field,
        basis=basis,
        dim=len(basis),
        zero_length=alg.zero_length,
        basis_index={p: i for i, p in enumerate(basis)},
        products=products,
        idem_index={v: pos[g] for v, g in alg.idem_index.items()},
        arrow_index_in_basis={
            a[0]: pos[alg.arrow_index_in_basis[a[0]]] for a in kept_arrows
        },
        _nf_cache={p: {i: one} for i, p in enumerate(basis)},
        _rules=rules,
    )


def is_triangular(alg: BoundQuiverAlgebra) -> bool:
    return is_acyclic(alg.quiver)
