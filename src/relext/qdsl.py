"""Parser and serializer for the quiver presentation format.

One directive per line, `#` starts a comment, blocks are bracketed by
`algebra <name>` ... `end`:

    algebra <name>
    field Q | F<p>              # optional, default Q
    extension_of <base-name>    # optional
    vertices <id> <id> ...
    arrow <name> <src> <dst>
    new <arrow-name> ...        # arrows of this block absent from the base
    rel <term> ( (+|-) <term> )*

A relation term is `[<rat>*] <arrow>(.<arrow>)+`; the dot composes left to
right.  All terms of one relation must be parallel paths (same source and
target), each of length at least 2 so the generated ideal is admissible.

Diagnostics carry 1-based line/column and a `kind` tag:
  syntax, duplicate-name, unknown-arrow, unknown-name, short-relation,
  non-composable, non-parallel, zero-coefficient, duplicate-term.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .quiver import Frozen

_IDENT = re.compile(r"[A-Za-z0-9_]+\Z")
_RAT = re.compile(r"-?\d+(/\d+)?\Z")
_TOKEN = re.compile(r"\S+")
_ONE = Fraction(1)


class ParseError(ValueError):
    def __init__(self, kind: str, message: str, line: int, col: int):
        super().__init__("line %d col %d: %s" % (line, col, message))
        self.kind = kind
        self.message = message
        self.line = line
        self.col = col


class RelationTerm(Frozen):
    def __init__(self, coeff: Fraction, arrows: tuple):
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "arrows", arrows)  # arrow names, length >= 2

    def _key(self) -> tuple:
        return (self.coeff, self.arrows)


class RelationExpr(Frozen):
    def __init__(self, terms: tuple, source: str, target: str):
        object.__setattr__(self, "terms", terms)  # of RelationTerm
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)

    def _key(self) -> tuple:
        return (self.terms, self.source, self.target)


class AlgebraBlock(Frozen):
    def __init__(
        self,
        name: str,
        field_spec: str,  # "Q" or "F<p>"
        vertices: tuple,
        arrows: tuple,  # of (name, source, target)
        relations: tuple,  # of RelationExpr
        extension_of: str | None = None,
        new_arrows: tuple = (),
    ):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "field_spec", field_spec)
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "arrows", arrows)
        object.__setattr__(self, "relations", relations)
        object.__setattr__(self, "extension_of", extension_of)
        object.__setattr__(self, "new_arrows", new_arrows)

    def _key(self) -> tuple:
        return (
            self.name,
            self.field_spec,
            self.vertices,
            self.arrows,
            self.relations,
            self.extension_of,
            self.new_arrows,
        )

    def arrow_map(self) -> dict:
        return {a[0]: a for a in self.arrows}


class PresentationFile(Frozen):
    def __init__(self, blocks: tuple):
        object.__setattr__(self, "blocks", blocks)

    def _key(self) -> tuple:
        return (self.blocks,)

    def block(self, name: str) -> AlgebraBlock:
        for b in self.blocks:
            if b.name == name:
                return b
        raise KeyError("no algebra named %r in file" % (name,))

    def names(self):
        return [b.name for b in self.blocks]


def _tokens_with_cols(line: str):
    """Whitespace-split tokens with their 1-based start columns."""
    return [(m.group(), m.start() + 1) for m in _TOKEN.finditer(line)]


def _error(kind: str, message: str, line_no: int, line: str, k: int) -> ParseError:
    """The diagnostic located at the k-th token of the line."""
    return ParseError(kind, message, line_no, _column(line, k))


def _column(line: str, k: int) -> int:
    """The 1-based start column of the k-th token of line.split(), which
    splits on the whitespace that _TOKEN's \\S excludes."""
    return _tokens_with_cols(line)[k][1]


def _parse_term(tok: str, line_no: int, line: str, k: int):
    """Split `[rat*]a.b.c`, the k-th token of the line, into (coefficient,
    arrow name tuple)."""
    coeff = _ONE
    body = tok
    if "*" in tok:
        head, _, body = tok.partition("*")
        if not _RAT.match(head):
            raise _error("syntax", "bad coefficient %r" % (head,), line_no, line, k)
        if re.search(r"/0+\Z", head):
            raise _error(
                "syntax",
                "coefficient %r has a zero denominator" % (head,),
                line_no,
                line,
                k,
            )
        coeff = Fraction(head)
        if coeff == 0:
            raise _error(
                "zero-coefficient", "coefficient of %r is zero" % (tok,), line_no, line, k
            )
    elif _RAT.match(tok):
        raise _error("syntax", "term %r has no path part" % (tok,), line_no, line, k)
    names = body.split(".")
    for nm in names:
        if not _IDENT.match(nm):
            raise _error("syntax", "bad arrow name %r in term" % (nm,), line_no, line, k)
    return coeff, tuple(names)


class _BlockBuilder:
    def __init__(self, name, line_no):
        self.name = name
        self.line_no = line_no
        self.field_spec = None
        self.vertices = None
        self.arrows = []
        self.arrow_names = {}
        self.relations = []  # (terms, line, line text) validated at end-of-block
        self.extension_of = None
        self.new_arrows = None


def parse(text: str) -> PresentationFile:
    """The presentation file of the text.  Lines are split on whitespace;
    a token's column is found again only for the diagnostic naming it."""
    blocks = []
    names_seen = {}
    cur: _BlockBuilder | None = None

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        toks = line.split()
        if not toks:
            continue
        kw = toks[0]
        nargs = len(toks) - 1

        if kw == "algebra":
            if cur is not None:
                raise _error(
                    "syntax", "algebra block not closed before new block", line_no, line, 0
                )
            if nargs != 1:
                raise _error("syntax", "algebra takes one name", line_no, line, 0)
            name = toks[1]
            if not _IDENT.match(name):
                raise _error("syntax", "bad algebra name %r" % name, line_no, line, 1)
            if name in names_seen:
                raise _error(
                    "duplicate-name", "algebra %r already defined" % name, line_no, line, 1
                )
            names_seen[name] = line_no
            cur = _BlockBuilder(name, line_no)
            continue

        if cur is None:
            raise _error(
                "syntax", "directive %r outside an algebra block" % kw, line_no, line, 0
            )

        if kw == "field":
            if cur.field_spec is not None:
                raise _error("syntax", "field given twice", line_no, line, 0)
            if nargs != 1:
                raise _error("syntax", "field takes one spec", line_no, line, 0)
            spec = toks[1]
            if spec != "Q" and not re.match(r"F\d+\Z", spec):
                raise _error(
                    "syntax", "field must be Q or F<p>, got %r" % spec, line_no, line, 1
                )
            cur.field_spec = spec
        elif kw == "vertices":
            if cur.vertices is not None:
                raise _error("syntax", "vertices given twice", line_no, line, 0)
            if not nargs:
                raise _error("syntax", "vertices needs at least one id", line_no, line, 0)
            seen = set()
            for k in range(1, len(toks)):
                v = toks[k]
                if not _IDENT.match(v):
                    raise _error("syntax", "bad vertex id %r" % v, line_no, line, k)
                if v in seen:
                    raise _error(
                        "duplicate-name", "vertex %r listed twice" % v, line_no, line, k
                    )
                seen.add(v)
            cur.vertices = tuple(toks[1:])
        elif kw == "arrow":
            if nargs != 3:
                raise _error("syntax", "arrow takes: name source target", line_no, line, 0)
            _, nm, src, dst = toks
            for k in (1, 2, 3):
                if not _IDENT.match(toks[k]):
                    raise _error("syntax", "bad identifier %r" % toks[k], line_no, line, k)
            if cur.vertices is None:
                raise _error("syntax", "arrow before vertices directive", line_no, line, 0)
            if nm in cur.arrow_names:
                raise _error(
                    "duplicate-name", "arrow %r already declared" % nm, line_no, line, 1
                )
            if src not in cur.vertices:
                raise _error("unknown-name", "unknown vertex %r" % src, line_no, line, 2)
            if dst not in cur.vertices:
                raise _error("unknown-name", "unknown vertex %r" % dst, line_no, line, 3)
            cur.arrow_names[nm] = (src, dst)
            cur.arrows.append((nm, src, dst))
        elif kw == "rel":
            if not nargs:
                raise _error("syntax", "empty relation", line_no, line, 0)
            terms = []
            negative = False
            expect_term = True
            for k in range(1, len(toks)):
                tok = toks[k]
                if tok == "+" or tok == "-":
                    if expect_term:
                        raise _error("syntax", "unexpected sign %r" % tok, line_no, line, k)
                    negative = tok == "-"
                    expect_term = True
                    continue
                if not expect_term:
                    raise _error(
                        "syntax",
                        "expected + or - between terms, got %r" % tok,
                        line_no,
                        line,
                        k,
                    )
                coeff, arrow_names = _parse_term(tok, line_no, line, k)
                terms.append((-coeff if negative else coeff, arrow_names, k))
                negative = False
                expect_term = False
            if expect_term:
                raise _error("syntax", "relation ends with a sign", line_no, line, 0)
            cur.relations.append((terms, line_no, line))
        elif kw == "extension_of":
            if cur.extension_of is not None:
                raise _error("syntax", "extension_of given twice", line_no, line, 0)
            if nargs != 1:
                raise _error("syntax", "extension_of takes one name", line_no, line, 0)
            base = toks[1]
            if base not in names_seen:
                raise _error(
                    "unknown-name",
                    "base algebra %r not defined earlier in this file" % base,
                    line_no,
                    line,
                    1,
                )
            cur.extension_of = base
        elif kw == "new":
            if cur.new_arrows is not None:
                raise _error("syntax", "new given twice", line_no, line, 0)
            if not nargs:
                raise _error("syntax", "new needs at least one arrow", line_no, line, 0)
            cur.new_arrows = _tokens_with_cols(line)[1:]
        elif kw == "end":
            if nargs:
                raise _error("syntax", "end takes no arguments", line_no, line, 0)
            blocks.append(_finish_block(cur, blocks, line_no, _column(line, 0)))
            cur = None
        else:
            raise _error("syntax", "unknown directive %r" % kw, line_no, line, 0)

    if cur is not None:
        raise ParseError(
            "syntax", "algebra %r not closed by end" % cur.name, len(text.splitlines()) + 1, 1
        )
    return PresentationFile(tuple(blocks))


def _finish_block(cur: _BlockBuilder, done_blocks, end_line, end_col) -> AlgebraBlock:
    if cur.vertices is None:
        raise ParseError(
            "syntax", "algebra %r has no vertices directive" % cur.name, end_line, end_col
        )
    arrow_map = dict(cur.arrow_names)

    # validate and freeze relations
    relations = []
    for terms, line_no, line in cur.relations:
        frozen = []
        seen_paths = {}
        src_tgt = None
        for coeff, names, tk in terms:
            if len(names) < 2:
                raise _error(
                    "short-relation",
                    "relation term %s is shorter than 2 arrows" % ".".join(names),
                    line_no,
                    line,
                    tk,
                )
            for nm in names:
                if nm not in arrow_map:
                    raise _error(
                        "unknown-arrow",
                        "unknown arrow %r in relation" % nm,
                        line_no,
                        line,
                        tk,
                    )
            for k in range(len(names) - 1):
                if arrow_map[names[k]][1] != arrow_map[names[k + 1]][0]:
                    raise _error(
                        "non-composable",
                        "arrows %s and %s do not compose" % (names[k], names[k + 1]),
                        line_no,
                        line,
                        tk,
                    )
            st = (arrow_map[names[0]][0], arrow_map[names[-1]][1])
            if src_tgt is None:
                src_tgt = st
            elif st != src_tgt:
                raise _error(
                    "non-parallel",
                    "term %s runs %s -> %s but earlier terms run %s -> %s"
                    % (".".join(names), st[0], st[1], src_tgt[0], src_tgt[1]),
                    line_no,
                    line,
                    tk,
                )
            if names in seen_paths:
                raise _error(
                    "duplicate-term",
                    "path %s appears twice in one relation" % ".".join(names),
                    line_no,
                    line,
                    tk,
                )
            seen_paths[names] = True
            frozen.append(RelationTerm(coeff, names))
        relations.append(RelationExpr(tuple(frozen), src_tgt[0], src_tgt[1]))

    # validate the extension header
    new_names = ()
    if cur.new_arrows is not None:
        seen = set()
        for nm, col in cur.new_arrows:
            if nm not in arrow_map:
                raise ParseError(
                    "unknown-arrow", "new lists undeclared arrow %r" % nm, cur.line_no, col
                )
            if nm in seen:
                raise ParseError(
                    "duplicate-name", "new lists %r twice" % nm, cur.line_no, col
                )
            seen.add(nm)
        new_names = tuple(nm for nm, _ in cur.new_arrows)
    if cur.extension_of is not None:
        base = next(b for b in done_blocks if b.name == cur.extension_of)
        base_map = base.arrow_map()
        if set(cur.vertices) != set(base.vertices):
            raise ParseError(
                "syntax",
                "extension block %r must keep the vertex set of %r"
                % (cur.name, base.name),
                cur.line_no,
                1,
            )
        for nm, (src, dst) in arrow_map.items():
            if nm in base_map:
                if base_map[nm][1:] != (src, dst):
                    raise ParseError(
                        "syntax",
                        "arrow %r has different endpoints than in base %r"
                        % (nm, base.name),
                        cur.line_no,
                        1,
                    )
                if nm in new_names:
                    raise ParseError(
                        "syntax",
                        "arrow %r is marked new but exists in base %r" % (nm, base.name),
                        cur.line_no,
                        1,
                    )
            elif nm not in new_names:
                raise ParseError(
                    "syntax",
                    "arrow %r is absent from base %r but not marked new"
                    % (nm, base.name),
                    cur.line_no,
                    1,
                )
        for nm in base_map:
            if nm not in arrow_map:
                raise ParseError(
                    "syntax",
                    "extension block %r drops base arrow %r" % (cur.name, nm),
                    cur.line_no,
                    1,
                )
    elif cur.new_arrows is not None:
        raise ParseError(
            "syntax", "new without extension_of", cur.line_no, 1
        )

    return AlgebraBlock(
        name=cur.name,
        field_spec=cur.field_spec or "Q",
        vertices=cur.vertices,
        arrows=tuple(cur.arrows),
        relations=tuple(relations),
        extension_of=cur.extension_of,
        new_arrows=new_names,
    )


def _format_coeff(c: Fraction) -> str:
    if c.denominator == 1:
        return str(c.numerator)
    return "%d/%d" % (c.numerator, c.denominator)


def _format_relation(rel: RelationExpr) -> str:
    parts = []
    for i, t in enumerate(rel.terms):
        body = ".".join(t.arrows)
        mag = abs(t.coeff)
        txt = body if mag == 1 else "%s*%s" % (_format_coeff(mag), body)
        if i == 0:
            parts.append(txt if t.coeff > 0 else "-%s" % txt)
        else:
            parts.append("+ %s" % txt if t.coeff > 0 else "- %s" % txt)
    return "rel " + " ".join(parts)


def serialize(p: PresentationFile) -> str:
    """Canonical text form; parse(serialize(p)) is structurally p.

    Serialization is a fixed point: files written by this function parse
    and re-serialize byte-identically.
    """
    chunks = []
    for b in p.blocks:
        lines = ["algebra %s" % b.name]
        if b.field_spec != "Q":
            lines.append("field %s" % b.field_spec)
        if b.extension_of is not None:
            lines.append("extension_of %s" % b.extension_of)
        lines.append("vertices %s" % " ".join(b.vertices))
        for nm, src, dst in b.arrows:
            lines.append("arrow %s %s %s" % (nm, src, dst))
        if b.new_arrows:
            lines.append("new %s" % " ".join(b.new_arrows))
        for rel in b.relations:
            lines.append(_format_relation(rel))
        lines.append("end")
        chunks.append("\n".join(lines))
    if not chunks:
        return ""
    return "\n\n".join(chunks) + "\n"
