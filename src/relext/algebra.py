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
until none is left.  The build grows and reduces paths as words, tuples of
arrow indices, and keeps the rules and the normal forms of the alive ones
only while it runs.  An algebra keeps its basis as words with the tables of
their endpoints; the basis as Path objects, and the index of a Path, are
made on first read, for labels and messages.  The
tips of I depend only on I and the order, and the enumeration builder this
replaced (tests/build_reference.py) read them as the pivots of an
echelon spanning I length by length, exactly so for
homogeneous relations: the basis, the vanishing length and the structure
constants agree.  _verify_build certifies every build from the arrows,
with the same checks whatever the representation, and raises
BuildCheckError, an internal fault and not bad input, on any discrepancy:
graded structure constants, each basis path its first arrow times the
rest, associativity on the triples whose first factor is an arrow, the
unit law per basis element, and the declared relations vanishing in the
table.  By induction on the
length of the first factor, associativity then holds on all triples, so
the table is an algebra generated by the arrows in which I vanishes, a
quotient of kQ/I; as the tip-free paths span kQ/I (every rule has
tip - tail in I, by construction), it is kQ/I (Bergman's diamond lemma).

The structure constants are stored sparsely: products[i] maps j to the
nonzero coordinates {k: c} of b_i b_j, and no table stores a zero, so two
algebras on the same basis have the same products iff their tables compare
equal.  The center is H0 of the regular bimodule and lives with the other
cohomology (extensions.center).
"""

from __future__ import annotations

import functools
import heapq
import itertools

from . import exactla, qdsl
from .exactla import Field
from .quiver import Path, Quiver, is_acyclic


class NotFiniteDimensionalError(ValueError):
    pass


class AlgebraBuildError(ValueError):
    pass


class BuildCheckError(AlgebraBuildError, ArithmeticError):
    """A built table failed its certificate, or a reduction left a path
    outside the basis: an internal fault, not bad input."""


class IdealNotSpanned(ValueError):
    """The ideal of some arrows is larger than the span of the basis paths
    through them."""


class BoundQuiverAlgebra:
    def __init__(
        self,
        block: qdsl.AlgebraBlock,
        quiver: Quiver,
        field: Field,
        words: tuple,  # per basis index, its path's arrow indices, () at e_v
        src: tuple,  # per basis index, the vertex its path starts at
        tgt: tuple,  # per basis index, the vertex its path ends at
        zero_length: int,  # every path of length >= this is zero in the algebra
        products: list,  # per basis index i: {j: {k: c}}, the nonzero b_i b_j only
        idem_index: dict,  # vertex -> basis index of its stationary path
        arrow_index_in_basis: dict,  # arrow name -> basis index
    ):
        self.block = block
        self.quiver = quiver
        self.field = field
        self.words = words
        self.src = src
        self.tgt = tgt
        self.dim = len(words)
        self.zero_length = zero_length
        self.products = products
        self.idem_index = idem_index
        self.arrow_index_in_basis = arrow_index_in_basis
        self._center = None  # set by extensions.center
        self._regular = None  # set by extensions.regular_bimodule_of
        self._regular_h1 = None  # set by extensions.regular_h1
        self._endpoints = None  # set by paths_from
        self._columns = None  # set by column
        self._prefixes = None  # set by prefix_index

    @functools.cached_property
    def basis(self) -> tuple:
        """The basis as Paths, in basis order, made on first read."""
        return tuple(Path(self.quiver, None if w else v, w) for w, v in zip(self.words, self.src))

    @functools.cached_property
    def arrow_basis(self) -> tuple:
        """Per arrow index, the basis index of that arrow, made on first read."""
        return tuple(self.arrow_index_in_basis[a.name] for a in self.quiver.arrows)

    @functools.cached_property
    def basis_index(self) -> dict:
        """Path -> basis index, made on first read."""
        return {p: i for i, p in enumerate(self.basis)}

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

    def paths_from(self, x) -> dict:
        """{y: basis indices lying in e_x A e_y, in basis order} over the y
        with e_x A e_y nonzero, from an index of the basis by source, then
        target, built once per algebra and shared: read only."""
        if self._endpoints is None:
            index = {v: {} for v in self.quiver.vertices}
            for i, (s, t) in enumerate(zip(self.src, self.tgt)):
                index[s].setdefault(t, []).append(i)
            self._endpoints = index
        return self._endpoints[x]

    def prefix_index(self, i: int) -> int:
        """The basis index of b_i without its last arrow, for a basis path
        b_i of positive length.  That prefix is a basis path met earlier in
        the basis, since a subpath of a tip-free path is tip-free and build
        grows each basis path from a shorter one (a restriction's basis is
        the full algebra's paths avoiding some arrows, in the same order).
        Read from a table built once per algebra off the words; None at a
        stationary path."""
        if self._prefixes is None:
            at = {w: k for k, w in enumerate(self.words) if w}
            self._prefixes = [
                (at[w[:-1]] if len(w) > 1 else self.idem_index[v]) if w else None
                for w, v in zip(self.words, self.src)
            ]
        return self._prefixes[i]

    def __repr__(self):
        return "BoundQuiverAlgebra(%s, dim %d, %s)" % (
            self.block.name,
            self.dim,
            self.field.name,
        )


def _relation_vector(q: Quiver, field: Field, rel: qdsl.RelationExpr) -> dict:
    """The relation as {arrow indices: c} over the field, without zeros."""
    vec = {}
    for t in rel.terms:
        w = q.word(t.arrows)
        c = field.from_fraction(t.coeff)
        if w in vec:
            c = field.add(vec[w], c)
        vec[w] = c
    return {w: c for w, c in vec.items() if not field.is_zero(c)}


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


def _normal_form(f: Field, rules: dict, q: Quiver, w: tuple, where) -> dict:
    """{k: c} of the class of the arrow word w, where(u) giving the basis
    index of a word u left by the reduction, or None."""
    out = {}
    for u, c in _reduce(f, {w: f.one()}, rules).items():
        k = where(u)
        if k is None:
            raise BuildCheckError(
                "reduction of %s leaves non-basis path %s"
                % (Path(q, None, w).label(), Path(q, None, u).label())
            )
        out[k] = c
    return out


def _complete(f: Field, relations: list, name: str, max_len_cap: int) -> dict:
    """The reduced Groebner basis of the ideal of the relations (vectors
    {arrows: c}), as rules {tip length: {tip arrows: tail {arrows: c}}}."""
    rules = {}
    tailed = {}  # tip -> tail of the rules with a nonempty tail
    queue = []
    order = itertools.count()

    def push(vec):
        if vec:
            heapq.heappush(queue, (_order(max(vec, key=_order)), next(order), vec))

    for vec in relations:
        push(vec)
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
                tailed.pop(old, None)
                push({old: f.one(), **{w: f.neg(c) for w, c in tips.pop(old).items()}})
        rules.setdefault(len(tip), {})[tip] = tail
        # two monomials have a zero S-vector, so a monomial rule pairs with
        # the tailed rules only
        if tail:
            tailed[tip] = tail
            held = [r for tips in rules.values() for r in tips.items()]
        else:
            held = tailed.items()
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
    """Construct the bound quiver algebra of a validated presentation block.

    Paths grow and reduce as words, tuples of arrow indices, the normal
    forms of the alive ones in a dict that the products are read from and
    that ends with the build.  The algebra keeps the basis words and their
    endpoints; it makes no Path until its basis is read."""
    if max_len_cap < 2:
        raise ValueError("max_len_cap must be >= 2")
    f = field if field is not None else exactla.field_from_spec(block.field_spec)
    q = Quiver(block.vertices, block.arrows)
    relations = [_relation_vector(q, f, rel) for rel in block.relations]
    rules = _complete(f, relations, block.name, max_len_cap)

    one = f.one()
    after = [q.out_arrows[a.target] for a in q.arrows]
    words = [()] * len(q.vertices)  # per basis index, the stationary paths first
    index = {}  # basis word of positive length -> basis index
    nf = {}  # alive word -> the nonzero coordinates of its class
    # alive: the words grown from the previous length's alive words whose
    # class is nonzero, in declaration order.  A normal form needs the basis
    # up to its length.
    alive = []
    for L in range(1, max_len_cap + 1):
        if L == 1:
            grown = [((i,), True) for i in range(len(q.arrows))]
        else:
            grown = sorted((w + (i,), w in index) for w in alive for i in after[w[-1]])
        # a word grown from a basis word holds a tip only as a suffix
        for w, free in grown:
            if free and not any(n <= L and w[-n:] in t for n, t in rules.items()):
                index[w] = len(words)
                nf[w] = {len(words): one}
                words.append(w)
        alive = []
        for w, _ in grown:
            cell = nf.get(w) or _normal_form(f, rules, q, w, index.get)
            if cell:
                nf[w] = cell
                alive.append(w)
        if L > 1 and not alive:
            zero_length = L
            break
    else:
        raise NotFiniteDimensionalError(
            "algebra %r is not finite-dimensional within cap %d"
            % (block.name, max_len_cap)
        )
    arrow_index_in_basis = {}
    for i, a in enumerate(q.arrows):
        if (i,) not in index:
            raise AlgebraBuildError(
                "arrow %r is zero in the algebra; ideal is not admissible" % (a.name,)
            )
        arrow_index_in_basis[a.name] = index[(i,)]
    words = tuple(words)
    src = q.vertices + tuple(q.arrows[w[0]].source for w in words[len(q.vertices) :])
    tgt = q.vertices + tuple(q.arrows[w[-1]].target for w in words[len(q.vertices) :])

    # b_p b_r is zero unless r starts where p ends
    starts = _by_source(src)
    products = []
    for i, w in enumerate(words):
        row = {}
        for j in starts.get(tgt[i], ()):
            u = words[j]
            # a stationary factor gives the other factor
            cell = nf.get(w + u) if w and u else {i if w else j: one}
            if cell:
                row[j] = cell
        products.append(row)

    alg = BoundQuiverAlgebra(
        block=block,
        quiver=q,
        field=f,
        words=words,
        src=src,
        tgt=tgt,
        zero_length=zero_length,
        products=products,
        idem_index={v: i for i, v in enumerate(q.vertices)},
        arrow_index_in_basis=arrow_index_in_basis,
    )
    _verify_build(alg, block, relations)
    return alg


def _by_source(src) -> dict:
    """Vertex -> the indices i with src[i] that vertex, ascending."""
    out = {}
    for i, v in enumerate(src):
        out.setdefault(v, []).append(i)
    return out


def _verify_build(alg: BoundQuiverAlgebra, block: qdsl.AlgebraBlock, relations=None):
    """Raise BuildCheckError unless the structure constants are graded,
    each basis path is its first arrow times the rest, the table is
    associative on the triples whose first factor is an arrow, the
    idempotents act as unit, and the declared relations vanish in the table.
    It reads the endpoint tables and the basis words, and makes Paths only
    for the message of a failed check; relations, the block's as vectors
    {arrows: c}, are made from the block unless the build passes its own.

    Graded: each nonzero b_i b_j has tgt(b_i) = src(b_j) and only
    coordinates k with src(b_k) = src(b_i), tgt(b_k) = tgt(b_j).  It holds
    because qdsl rejects non-parallel relation terms, so normal forms keep
    endpoints.  Given it, e_v b = 0 unless v = src(b) and b e_v = 0 unless
    v = tgt(b), so the unit law is read as e_src(b) b = b = b e_tgt(b) per
    basis element, and (b_a b_j) b_l and b_a (b_j b_l) both vanish unless
    tgt(b_a) = src(b_j), so associativity is checked on composable pairs.

    These checks certify the table as kQ/I, with b_p the class of p.  By
    induction on the length of p, (b_p y) z = b_p (y z) for all y, z: e_v
    keeps the basis elements starting at v and kills the others, and y z
    starts where y does; for p = a r, b_p = b_a b_r, and associativity with
    the arrow a first and the induction give (b_p y) z = (b_a (b_r y)) z =
    b_a ((b_r y) z) = b_a (b_r (y z)) = b_p (y z).  So the table is an
    associative algebra with unit the sum of the e_v, generated by the
    arrows, in which the declared relations vanish: a quotient of kQ/I.
    The premise is that every rule has tip - tail in I, which _complete
    gives by construction and no check here reads.  With it the tip-free
    paths, the basis, span kQ/I, so dim kQ/I <= dim and the quotient map
    is an isomorphism."""
    f = alg.field
    one = f.one()
    axpy = f.axpy
    q = alg.quiver
    words = alg.words
    products = alg.products
    idem = alg.idem_index
    name = alg.block.name
    src, tgt = alg.src, alg.tgt
    # the structure constants are graded
    for i, row in enumerate(products):
        s, t = src[i], tgt[i]
        for j, cell in row.items():
            for k in cell:
                if not (t == src[j] and src[k] == s and tgt[k] == tgt[j]):
                    raise BuildCheckError(
                        "structure constant (%d,%d,%d) of %r breaks the grading"
                        % (i, j, k, name)
                    )
    # each basis path is its first arrow times the rest
    index = {w: k for k, w in enumerate(words) if w}
    for k, w in enumerate(words):
        if w:
            a = index[w[:1]]
            r = index[w[1:]] if len(w) > 1 else idem[tgt[k]]
            if products[a].get(r) != {k: one}:
                basis = alg.basis
                raise BuildCheckError(
                    "inconsistent reduction at %s * %s in %r: not the basis path %s"
                    % (basis[a].label(), basis[r].label(), name, basis[k].label())
                )
    # associativity with an arrow first: for each composable pair (a, j),
    # acc[l] holds (b_a b_j) b_l - b_a (b_j b_l), over the nonzero products
    starts = _by_source(src)
    for a in alg.arrow_index_in_basis.values():
        row_a = products[a]
        for j in starts.get(tgt[a], ()):
            acc = {}
            for k, c in row_a.get(j, {}).items():
                for l, cell in products[k].items():
                    axpy(acc.setdefault(l, {}), c, cell)
            for l, cell in products[j].items():
                out = acc.setdefault(l, {})
                for k, c in cell.items():
                    if k in row_a:
                        axpy(out, f.neg(c), row_a[k])
            bad = [l for l, out in acc.items() if out]
            if bad:
                l, basis = min(bad), alg.basis
                raise BuildCheckError(
                    "associativity fails on basis triple (%d,%d,%d) = (%s, %s, %s) of %r"
                    % (a, j, l, basis[a].label(), basis[j].label(), basis[l].label(), name)
                )
    # the unit law, per basis element
    for k in range(alg.dim):
        e_src, e_tgt = idem[src[k]], idem[tgt[k]]
        if products[e_src].get(k) != {k: one} or products[k].get(e_tgt) != {k: one}:
            raise BuildCheckError(
                "unit law fails at basis %d (%s) of %r" % (k, alg.basis[k].label(), name)
            )
    # the declared relations vanish, each word the table product of its
    # arrows from e_src
    if relations is None:
        relations = [_relation_vector(q, f, rel) for rel in block.relations]
    arrow_basis = alg.arrow_basis
    for rel, vec in zip(block.relations, relations):
        acc = {}
        for w, c in vec.items():
            x = {idem[rel.source]: c}
            for n in w:
                y = {}
                for k, d in x.items():
                    cell = products[k].get(arrow_basis[n])
                    if cell:
                        axpy(y, d, cell)
                x = y
            axpy(acc, one, x)
        if acc:
            raise BuildCheckError(
                "declared relation '%s' of %r does not vanish in the structure constants"
                % (qdsl._format_relation(rel), name)
            )


def arrow_ideal_paths(alg: BoundQuiverAlgebra, arrows) -> tuple:
    """Basis indices of the paths through any of the named arrows; raises
    IdealNotSpanned unless their span is the two-sided ideal of the arrows.

    The span lies in the ideal and holds the arrows, so it is the ideal iff
    it is closed under products with basis elements on both sides, which
    is checked on the nonzero structure constants."""
    idx = {alg.quiver.arrow_index[n] for n in arrows}
    span = tuple(g for g, w in enumerate(alg.words) if not idx.isdisjoint(w))
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
    """alg modulo the two-sided ideal J of the listed arrows; raises
    IdealNotSpanned unless J is the span of the paths through them, and
    then restricts alg to the other basis paths."""
    arrows = frozenset(arrows)
    unknown = arrows - set(alg.quiver.arrow_index)
    if unknown:
        raise ValueError("not arrows of %r: %s" % (alg.block.name, sorted(unknown)))
    if not arrows:
        return alg
    gone = set(arrow_ideal_paths(alg, arrows))
    return restrict(alg, arrows, [g for g in range(alg.dim) if g not in gone])


def restrict(alg: BoundQuiverAlgebra, arrows, kept) -> BoundQuiverAlgebra:
    """alg modulo the two-sided ideal J of the named arrows, as alg
    restricted to its basis indices kept: those of the basis paths that
    avoid the arrows, ascending, where the caller knows J to be the span of
    the paths through them.

    Given that span, the kept paths give a basis of alg/J, whose products
    are alg's with the coordinates on J dropped, so the checks of a build
    hold: reducing modulo J is an algebra map, and each relation of the
    presentation (alg's, minus the terms in J) vanishes.
    dim(quotient) + dim(J) = dim(alg) by construction, and zero_length is
    alg's.  The quotient shares alg's Arrow objects; its words are alg's
    re-keyed by the kept arrows' own indices, and its endpoint tables are
    alg's at the kept indices."""
    block = alg.block
    kept_rels = []
    for rel in block.relations:
        terms = tuple(t for t in rel.terms if arrows.isdisjoint(t.arrows))
        if len(terms) == len(rel.terms):
            kept_rels.append(rel)
        elif terms:
            kept_rels.append(qdsl.RelationExpr(terms, rel.source, rel.target))
    sub_block = qdsl.AlgebraBlock(
        name="%s_minus_%s" % (block.name, "_".join(sorted(arrows))),
        field_spec=block.field_spec,
        vertices=block.vertices,
        arrows=tuple(a for a in block.arrows if a[0] not in arrows),
        relations=tuple(kept_rels),
    )
    q = Quiver(block.vertices, [a for a in alg.quiver.arrows if a.name not in arrows])
    # alg's arrow indices -> the kept arrows' own, None at a dropped arrow
    own = [q.arrow_index.get(a.name) for a in alg.quiver.arrows]
    pos = {g: i for i, g in enumerate(kept)}
    # the deleted arrows keep the relative order of the others, and with it
    # the basis order
    words = tuple(tuple(map(own.__getitem__, alg.words[g])) for g in kept)
    products = []
    for g in kept:
        row = {}
        for h, cell in alg.products[g].items():
            if h in pos:
                cell = {pos[k]: c for k, c in cell.items() if k in pos}
                if cell:
                    row[pos[h]] = cell
        products.append(row)
    return BoundQuiverAlgebra(
        block=sub_block,
        quiver=q,
        field=alg.field,
        words=words,
        src=tuple(map(alg.src.__getitem__, kept)),
        tgt=tuple(map(alg.tgt.__getitem__, kept)),
        zero_length=alg.zero_length,
        products=products,
        idem_index={v: pos[g] for v, g in alg.idem_index.items()},
        arrow_index_in_basis={a.name: pos[alg.arrow_index_in_basis[a.name]] for a in q.arrows},
    )


def is_triangular(alg: BoundQuiverAlgebra) -> bool:
    return is_acyclic(alg.quiver)
