"""Finite quivers and their paths.

Composition is read left to right: for arrows a: x -> y and b: y -> z the
composite path a.b runs x -> z.  Stationary paths e_v are the length-zero
units.  Path enumeration is deterministic: sorted by (length, arrow
declaration index sequence), which every downstream basis choice relies on.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Arrow:
    name: str
    source: str
    target: str


@dataclass(eq=False)
class Quiver:
    vertices: tuple
    arrows: tuple  # of Arrow
    vertex_index: dict = field(init=False, repr=False)
    arrow_index: dict = field(init=False, repr=False)

    def __post_init__(self):
        self.vertices = tuple(self.vertices)
        self.arrows = tuple(
            a if isinstance(a, Arrow) else Arrow(*a) for a in self.arrows
        )
        vi = {}
        for i, v in enumerate(self.vertices):
            if v in vi:
                raise ValueError("duplicate vertex id %r" % (v,))
            vi[v] = i
        ai = {}
        for i, a in enumerate(self.arrows):
            if a.name in ai:
                raise ValueError("duplicate arrow name %r" % (a.name,))
            if a.source not in vi or a.target not in vi:
                raise ValueError("arrow %s has undeclared endpoint" % a.name)
            ai[a.name] = i
        object.__setattr__(self, "vertex_index", vi)
        object.__setattr__(self, "arrow_index", ai)

    def arrow(self, name: str) -> Arrow:
        return self.arrows[self.arrow_index[name]]


@dataclass(frozen=True)
class Path:
    """Either the stationary path at `vertex` or a composable arrow chain.

    Arrows are stored as indices into quiver.arrows; the quiver itself is
    compared by identity (Quiver has no structural equality).
    """

    quiver: Quiver
    vertex: str | None
    arrows: tuple

    @staticmethod
    def stationary(q: Quiver, v: str) -> "Path":
        if v not in q.vertex_index:
            raise ValueError("unknown vertex %r" % (v,))
        return Path(q, v, ())

    @staticmethod
    def from_arrow_names(q: Quiver, names) -> "Path":
        idxs = []
        for n in names:
            if n not in q.arrow_index:
                raise ValueError("unknown arrow %r" % (n,))
            idxs.append(q.arrow_index[n])
        if not idxs:
            raise ValueError("empty arrow sequence; use Path.stationary")
        p = Path(q, None, tuple(idxs))
        for k in range(len(idxs) - 1):
            if q.arrows[idxs[k]].target != q.arrows[idxs[k + 1]].source:
                raise ValueError(
                    "arrows %s and %s do not compose"
                    % (q.arrows[idxs[k]].name, q.arrows[idxs[k + 1]].name)
                )
        return p

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

    def __lt__(self, other: "Path") -> bool:
        return self.sort_key() < other.sort_key()

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
        for a in q.arrows:
            if a.source == v:
                indeg[a.target] -= 1
                if indeg[a.target] == 0:
                    stack.append(a.target)
    return seen == len(q.vertices)
