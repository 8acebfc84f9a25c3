"""Finite quivers and their paths.

Composition is read left to right: for arrows a: x -> y and b: y -> z the
composite path a.b runs x -> z.  Stationary paths e_v are the length-zero
units.  Paths are ordered by (length, arrow declaration index sequence),
Path.sort_key, which every downstream basis choice relies on.
"""

from __future__ import annotations


class Frozen:
    """A value: its fields are set once, in __init__ through
    object.__setattr__, and assigning or deleting an attribute raises
    AttributeError.  It equals a value of its own class with an equal
    `_key()`, the tuple of its fields, and hashes as that tuple."""

    def _key(self) -> tuple:
        raise NotImplementedError

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % (name,))

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % (name,))


class Arrow(Frozen):

    def __init__(self, name: str, source: str, target: str):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)

    def _key(self) -> tuple:
        return (self.name, self.source, self.target)


class Quiver:
    def __init__(self, vertices, arrows):
        self.vertices = tuple(vertices)
        self.arrows = tuple(a if isinstance(a, Arrow) else Arrow(*a) for a in arrows)
        vi = {}
        for i, v in enumerate(self.vertices):
            if v in vi:
                raise ValueError("duplicate vertex id %r" % (v,))
            vi[v] = i
        ai = {}
        out = {v: [] for v in self.vertices}
        for i, a in enumerate(self.arrows):
            if a.name in ai:
                raise ValueError("duplicate arrow name %r" % (a.name,))
            if a.source not in vi or a.target not in vi:
                raise ValueError("arrow %s has undeclared endpoint" % a.name)
            ai[a.name] = i
            out[a.source].append(i)
        self.vertex_index = vi
        self.arrow_index = ai
        self.out_arrows = {v: tuple(o) for v, o in out.items()}  # arrow indices, ascending

    def arrow(self, name: str) -> Arrow:
        return self.arrows[self.arrow_index[name]]

    def word(self, names) -> tuple:
        """The arrow indices of a composable chain of arrow names."""
        idxs = []
        for n in names:
            if n not in self.arrow_index:
                raise ValueError("unknown arrow %r" % (n,))
            idxs.append(self.arrow_index[n])
        if not idxs:
            raise ValueError("empty arrow sequence; use Path.stationary")
        for k in range(len(idxs) - 1):
            if self.arrows[idxs[k]].target != self.arrows[idxs[k + 1]].source:
                raise ValueError(
                    "arrows %s and %s do not compose"
                    % (self.arrows[idxs[k]].name, self.arrows[idxs[k + 1]].name)
                )
        return tuple(idxs)


class Path(Frozen):
    """Either the stationary path at `vertex` or a composable arrow chain.

    Arrows are stored as indices into quiver.arrows; the quiver itself is
    compared by identity (Quiver has no structural equality).
    """

    def __init__(self, quiver: Quiver, vertex: str | None, arrows: tuple):
        object.__setattr__(self, "quiver", quiver)
        object.__setattr__(self, "vertex", vertex)
        object.__setattr__(self, "arrows", arrows)

    def _key(self) -> tuple:
        return (self.quiver, self.vertex, self.arrows)

    @staticmethod
    def stationary(q: Quiver, v: str) -> "Path":
        if v not in q.vertex_index:
            raise ValueError("unknown vertex %r" % (v,))
        return Path(q, v, ())

    @property
    def length(self) -> int:
        return len(self.arrows)

    @property
    def source(self) -> str:
        if not self.arrows:
            return self.vertex
        return self.quiver.arrows[self.arrows[0]].source

    @property
    def target(self) -> str:
        if not self.arrows:
            return self.vertex
        return self.quiver.arrows[self.arrows[-1]].target

    def sort_key(self):
        return (len(self.arrows), self.arrows, () if self.vertex is None else (self.quiver.vertex_index[self.vertex],))

    def label(self) -> str:
        if not self.arrows:
            return "e_%s" % self.vertex
        return ".".join(self.quiver.arrows[i].name for i in self.arrows)

    def __repr__(self):
        return "Path(%s)" % self.label()


def compose(p: Path, q: Path) -> Path | None:
    """Concatenation p then q, or None when target(p) != source(q)."""
    if p.quiver is not q.quiver:
        raise ValueError("paths over different quivers")
    if p.target != q.source:
        return None
    if not p.arrows:
        return q
    if not q.arrows:
        return p
    return Path(p.quiver, None, p.arrows + q.arrows)


def is_acyclic(q: Quiver) -> bool:
    """True iff the quiver has no oriented cycle of positive length."""
    # Kahn's algorithm on the vertex set
    indeg = {v: 0 for v in q.vertices}
    for a in q.arrows:
        indeg[a.target] += 1
    stack = [v for v, d in indeg.items() if d == 0]
    seen = 0
    while stack:
        v = stack.pop()
        seen += 1
        for i in q.out_arrows[v]:
            t = q.arrows[i].target
            indeg[t] -= 1
            if indeg[t] == 0:
                stack.append(t)
    return seen == len(q.vertices)
