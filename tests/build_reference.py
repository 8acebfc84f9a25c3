"""The enumeration builder that algebra.build replaced.

It spans the relation ideal length by length through the recurrence

    I_L = Q1 * I_{L-1}  +  I_{L-1} * Q1  +  { relations whose longest term has length L },

keeping every spanning vector that grew the rank as a row of an
exactla.Echelon keyed by the paths' sort keys (Path.sort_key), so that its
pivot is the largest path in (length, arrow declaration order).  It stops
at the first length all of whose paths reduce to zero.  Every path through
a relation is its own echelon row, so on the relation extensions, with
their cycles, the row count grows exponentially with the size.  The tests
compare the Groebner build with it: the leading terms of an ideal depend
only on the ideal and the order, so the basis, the vanishing length and the
structure constants must agree.

enumerate_paths, the listing of every path up to a length, is kept here
too; the package no longer enumerates paths.  So are nf_coords, the normal
form of any path of a built algebra, and from_arrow_names, a path from
arrow names, which the package no longer reads.

path_build is the Groebner build as it was before the build moved to arrow
index tuples: every alive path a hashed Path, its normal form cached in
_nf_cache, the products read through nf_coords, and path_certificate, the
same five checks on Path endpoints and per-entry field arithmetic.  The
tests compare tables, rules, errors and messages with it.
"""

from __future__ import annotations

from relext import exactla, qdsl
from relext.algebra import (
    AlgebraBuildError,
    BoundQuiverAlgebra,
    NotFiniteDimensionalError,
    _complete,
    _normal_form,
    _reduce,
)
from relext.exactla import Field
from relext.quiver import Path, Quiver, compose


def _keyed(vec: dict) -> dict:
    """{Path: c} as {sort key: c}, the keys the echelon orders."""
    return {p.sort_key(): c for p, c in vec.items()}


def _pathed(q: Quiver, vec: dict) -> dict:
    """{sort key: c} as {Path: c} over the quiver q, the inverse of _keyed."""
    return {Path(q, q.vertices[v[0]] if v else None, w): c for (_, w, v), c in vec.items()}


def normal_form(ech: exactla.Echelon, vec: dict) -> dict:
    """vec, sparse over paths, modulo the echelon's span: eliminate pivot
    keys, largest first, until none is left."""
    if not vec:
        return {}
    f = ech.field
    q = next(iter(vec)).quiver
    vec = {k: c for k, c in _keyed(vec).items() if not f.is_zero(c)}
    while True:
        hits = [k for k in vec if k in ech.rows]
        if not hits:
            return _pathed(q, vec)
        top = max(hits)
        ech._subtract(vec, top, ech.rows[top])


def from_arrow_names(q: Quiver, names) -> Path:
    """The path through a composable chain of arrow names, with the errors
    of Quiver.word (Path.from_arrow_names, which nothing in the package
    called)."""
    return Path(q, None, q.word(names))


def nf_coords(alg: BoundQuiverAlgebra, path: Path) -> dict:
    """Nonzero coordinates {k: c} of a quiver path's class in the path basis
    of a built algebra: a fresh {k: 1} at the basis path b_k, reduced by the
    rules otherwise (BoundQuiverAlgebra.nf_coords, which nothing in the
    package called).  The reference algebras below reduce by their own
    nf_coords."""
    own = getattr(alg, "nf_coords", None)
    if own is not None:
        return own(path)
    q, index = alg.quiver, alg.basis_index
    k = index.get(path)
    if k is not None:
        return {k: alg.field.one()}
    if path.length >= alg.zero_length:
        return {}
    return _normal_form(
        alg.field, alg._rules, q, path.arrows, lambda w: index.get(Path(q, None, w))
    )


class ReferenceAlgebra(BoundQuiverAlgebra):
    """A build whose normal forms reduce by the echelon of the ideal."""

    def __init__(self, *fields, _echelon=None, _nf_cache=None, **named):
        super().__init__(*fields, **named)
        self._echelon = _echelon
        self._nf_cache = {} if _nf_cache is None else _nf_cache  # Path -> its normal form

    def nf_coords(self, path: Path) -> dict:
        """Nonzero coordinates {k: c} of a quiver path's class in the path
        basis."""
        if path in self._nf_cache:
            return self._nf_cache[path]
        out = {}
        if path.length < self.zero_length:
            for p, c in normal_form(self._echelon, {path: self.field.one()}).items():
                i = self.basis_index.get(p)
                if i is None:
                    raise AlgebraBuildError(
                        "reduction of %s leaves non-basis path %s"
                        % (path.label(), p.label())
                    )
                out[i] = c
        self._nf_cache[path] = out
        return out


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

    rel_by_len = {}  # longest term length -> list of relation vectors
    for rel in block.relations:
        vec = path_relation_vector(q, f, rel)
        if not vec:
            continue  # terms cancelled syntactically
        L = max(p.length for p in vec)
        rel_by_len.setdefault(L, []).append(vec)

    ech = exactla.Echelon(f)
    one = f.one()

    # alive[L]: length-L paths whose class is nonzero, in declaration order
    alive = {0: [Path.stationary(q, v) for v in q.vertices]}
    alive[1] = [Path(q, None, (i,)) for i in range(len(q.arrows))]

    frontier = []  # echelon rows inserted at the previous length
    zero_length = None
    for L in range(2, max_len_cap + 1):
        incoming = list(rel_by_len.get(L, ()))
        for z in frontier:
            for i in range(len(q.arrows)):
                arrow_path = Path(q, None, (i,))
                left = {}
                right = {}
                for p, c in z.items():
                    lp = compose(arrow_path, p)
                    if lp is not None:
                        left[lp] = c
                    rp = compose(p, arrow_path)
                    if rp is not None:
                        right[rp] = c
                if left:
                    incoming.append(left)
                if right:
                    incoming.append(right)
        frontier = []
        for vec in incoming:
            row = ech.insert(_keyed(vec))
            if row is not None:
                frontier.append(_pathed(q, row))
        nxt = []
        for p in alive[L - 1]:
            for i, a in enumerate(q.arrows):
                if a.source == p.target:
                    cand = Path(q, None, p.arrows + (i,))
                    if not ech.contains({cand.sort_key(): one}):
                        nxt.append(cand)
        nxt.sort(key=lambda p: p.arrows)
        alive[L] = nxt
        if not nxt:
            zero_length = L
            break
    if zero_length is None:
        raise NotFiniteDimensionalError(
            "algebra %r is not finite-dimensional within cap %d"
            % (block.name, max_len_cap)
        )

    # basis: reduction-irreducible paths below the vanishing length
    basis = []
    for L in range(zero_length):
        for p in alive.get(L, []):
            if p.sort_key() not in ech.rows:
                basis.append(p)
    basis.sort(key=lambda p: p.sort_key())
    basis = tuple(basis)
    dim = len(basis)
    basis_index = {p: i for i, p in enumerate(basis)}

    alg = ReferenceAlgebra(
        block=block,
        quiver=q,
        field=f,
        basis=basis,
        dim=dim,
        zero_length=zero_length,
        basis_index=basis_index,
        products=[],
        idem_index={},
        arrow_index_in_basis={},
        _nf_cache={},
        _rules=None,
        _echelon=ech,
    )
    for v in q.vertices:
        p = Path.stationary(q, v)
        if p not in basis_index:
            raise AlgebraBuildError("stationary path at %r was eliminated" % (v,))
        alg.idem_index[v] = basis_index[p]
    for i, a in enumerate(q.arrows):
        p = Path(q, None, (i,))
        if p not in basis_index:
            raise AlgebraBuildError(
                "arrow %r is zero in the algebra; ideal is not admissible" % (a.name,)
            )
        alg.arrow_index_in_basis[a.name] = basis_index[p]

    # b_p b_r is zero unless r starts where p ends
    starts = by_source(basis)
    for p in basis:
        row = {}
        for j in starts.get(p.target, ()):
            cell = alg.nf_coords(compose(p, basis[j]))
            if cell:
                row[j] = cell
        alg.products.append(row)

    all_pairs_certificate(alg, block, alive)
    return alg


def alive_paths(alg: BoundQuiverAlgebra) -> dict:
    """Length -> the paths grown by arrows from the previous length's whose
    class is nonzero, in declaration order, below the vanishing length."""
    q = alg.quiver
    alive = {0: [Path.stationary(q, v) for v in q.vertices]}
    for L in range(1, alg.zero_length):
        grown = [
            Path(q, None, p.arrows + (i,))
            for p in alive[L - 1]
            for i, a in enumerate(q.arrows)
            if a.source == p.target
        ]
        alive[L] = sorted((p for p in grown if nf_coords(alg, p)), key=lambda p: p.arrows)
    return alive


def all_pairs_certificate(alg: BoundQuiverAlgebra, block: qdsl.AlgebraBlock, alive):
    """Raise AlgebraBuildError unless the declared relations vanish, the
    structure constants are graded, reduction is multiplicative on the
    generated paths, and the basis is associative with the idempotents as
    unit.

    Graded: each nonzero b_i b_j has tgt(b_i) = src(b_j) and only
    coordinates k with src(b_k) = src(b_i), tgt(b_k) = tgt(b_j).  Given it,
    (b_i b_j) b_l and b_i (b_j b_l) both vanish when tgt(b_i) != src(b_j),
    so associativity is checked on composable pairs (i, j) only, as
    multiplicativity is on composable paths."""
    f = alg.field
    basis = alg.basis
    products = alg.products
    # declared relations vanish
    for rel in block.relations:
        acc = {}
        for p, c in path_relation_vector(alg.quiver, f, rel).items():
            for k, x in nf_coords(alg, p).items():
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
    starts = by_source(enumerated)
    for p in enumerated:
        pc = nf_coords(alg, p)
        for s in starts.get(p.target, ()):
            r = enumerated[s]
            if nf_coords(alg, compose(p, r)) != alg.multiply_sparse(pc, nf_coords(alg, r)):
                raise AlgebraBuildError(
                    "inconsistent reduction at %s * %s in %r"
                    % (p.label(), r.label(), alg.block.name)
                )
    # associativity on composable basis pairs (i, j) and every l: acc[l]
    # holds (b_i b_j) b_l - b_i (b_j b_l), over the nonzero products only
    starts = by_source(basis)
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


def enumerate_paths(q: Quiver, max_len: int) -> list:
    """All paths of length <= max_len, ordered by (length, arrow indices).

    The listing is prefix closed: dropping the last arrow of any entry
    yields an earlier entry.
    """
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    out = [Path.stationary(q, v) for v in q.vertices]
    frontier = out[:]
    for _ in range(max_len):
        nxt = []
        for p in frontier:
            for i, a in enumerate(q.arrows):
                if a.source == p.target:
                    nxt.append(Path(q, None, p.arrows + (i,)))
        nxt.sort(key=lambda p: p.arrows)
        out.extend(nxt)
        frontier = nxt
        if not frontier:
            break
    return out


# -- the Path-based Groebner build ----------------------------------------------


class PathAlgebra(BoundQuiverAlgebra):
    """A build whose normal forms are cached for every path asked."""

    def __init__(self, *fields, _nf_cache=None, **named):
        super().__init__(*fields, **named)
        self._nf_cache = {} if _nf_cache is None else _nf_cache  # Path -> its normal form

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


def path_relation_vector(q: Quiver, field: Field, rel: qdsl.RelationExpr) -> dict:
    """The relation as {Path: c} over the field, without zeros."""
    vec = {}
    for t in rel.terms:
        p = from_arrow_names(q, t.arrows)
        c = field.from_fraction(t.coeff)
        if p in vec:
            c = field.add(vec[p], c)
        vec[p] = c
    return {p: c for p, c in vec.items() if not field.is_zero(c)}


def path_build(
    block: qdsl.AlgebraBlock,
    field: Field | None = None,
    max_len_cap: int = 64,
) -> BoundQuiverAlgebra:
    """The parent build: every alive path a Path, reduced and cached in
    _nf_cache, and the table certified by path_certificate."""
    if max_len_cap < 2:
        raise ValueError("max_len_cap must be >= 2")
    f = field if field is not None else exactla.field_from_spec(block.field_spec)
    q = Quiver(block.vertices, block.arrows)
    relations = [path_relation_vector(q, f, rel) for rel in block.relations]
    rules = _complete(
        f, [{p.arrows: c for p, c in vec.items()} for vec in relations], block.name, max_len_cap
    )

    alive = {0: [Path.stationary(q, v) for v in q.vertices]}
    alg = PathAlgebra(
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
            for i in q.out_arrows[p.target]
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
    starts = by_source(basis)
    for p in basis:
        row = {}
        for j in starts.get(p.target, ()):
            cell = alg.nf_coords(compose(p, basis[j]))
            if cell:
                row[j] = cell
        alg.products.append(row)

    path_certificate(alg, block)
    return alg


def by_source(paths) -> dict:
    """Vertex -> indices of the paths starting there, in ascending order."""
    out = {}
    for i, p in enumerate(paths):
        out.setdefault(p.source, []).append(i)
    return out


def path_certificate(alg: BoundQuiverAlgebra, block: qdsl.AlgebraBlock):
    """Raise AlgebraBuildError unless the structure constants are graded,
    each basis path is its first arrow times the rest, the table is
    associative on the triples whose first factor is an arrow, the
    idempotents act as unit, and the declared relations vanish in the table.

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
    q = alg.quiver
    basis = alg.basis
    products = alg.products
    name = alg.block.name
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
                        % (i, j, k, name)
                    )
    # each basis path is its first arrow times the rest
    for k, p in enumerate(basis):
        if p.arrows:
            a = alg.basis_index[Path(q, None, p.arrows[:1])]
            r = alg.basis_index[Path(q, None if p.length > 1 else p.target, p.arrows[1:])]
            if products[a].get(r) != {k: one}:
                raise AlgebraBuildError(
                    "inconsistent reduction at %s * %s in %r: not the basis path %s"
                    % (basis[a].label(), basis[r].label(), name, p.label())
                )
    # associativity with an arrow first: for each composable pair (a, j),
    # acc[l] holds (b_a b_j) b_l - b_a (b_j b_l), over the nonzero products
    starts = by_source(basis)
    for a in alg.arrow_index_in_basis.values():
        row_a = products[a]
        for j in starts.get(basis[a].target, ()):
            acc = {}
            for k, c in row_a.get(j, {}).items():
                for l, cell in products[k].items():
                    out = acc.setdefault(l, {})
                    for m, d in cell.items():
                        out[m] = f.add(out.get(m, f.zero()), f.mul(c, d))
            for l, cell in products[j].items():
                out = acc.setdefault(l, {})
                for k, c in cell.items():
                    for m, d in row_a.get(k, {}).items():
                        out[m] = f.sub(out.get(m, f.zero()), f.mul(c, d))
            bad = [l for l, out in acc.items() if f.sparse(out)]
            if bad:
                l = min(bad)
                raise AlgebraBuildError(
                    "associativity fails on basis triple (%d,%d,%d) = (%s, %s, %s) of %r"
                    % (a, j, l, basis[a].label(), basis[j].label(), basis[l].label(), name)
                )
    # the unit law, per basis element
    for k, p in enumerate(basis):
        e_src, e_tgt = alg.idem_index[p.source], alg.idem_index[p.target]
        if products[e_src].get(k) != {k: one} or products[k].get(e_tgt) != {k: one}:
            raise AlgebraBuildError(
                "unit law fails at basis %d (%s) of %r" % (k, p.label(), name)
            )
    # the declared relations vanish, each term the table product of its
    # arrows from e_src
    for rel in block.relations:
        acc = {}
        for t in rel.terms:
            vec = {alg.idem_index[rel.source]: f.from_fraction(t.coeff)}
            for n in t.arrows:
                vec = alg.multiply_sparse(vec, {alg.arrow_index_in_basis[n]: one})
            for k, x in vec.items():
                acc[k] = f.add(acc.get(k, f.zero()), x)
        if f.sparse(acc):
            raise AlgebraBuildError(
                "declared relation '%s' of %r does not vanish in the structure constants"
                % (qdsl._format_relation(rel), name)
            )
