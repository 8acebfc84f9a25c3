"""The presentation parser as it was before parse split lines on whitespace
and stopped doing Fraction arithmetic on signs: every token matched with its
column, and each term's coefficient a product of Fractions.  The tests
compare relext.qdsl.parse with it, structure for structure and diagnostic
for diagnostic (kind, line, column and message).
"""

from __future__ import annotations

import re
from fractions import Fraction

from relext.qdsl import (
    AlgebraBlock,
    ParseError,
    PresentationFile,
    RelationExpr,
    RelationTerm,
)

_IDENT = re.compile(r"[A-Za-z0-9_]+\Z")
_RAT = re.compile(r"-?\d+(/\d+)?\Z")
_TOKEN = re.compile(r"\S+")


def _tokens_with_cols(line: str):
    """Whitespace-split tokens with their 1-based start columns."""
    return [(m.group(), m.start() + 1) for m in _TOKEN.finditer(line)]


def _parse_term(tok: str, line_no: int, col: int):
    """Split `[rat*]a.b.c` into (coefficient, arrow name tuple)."""
    coeff = Fraction(1)
    body = tok
    if "*" in tok:
        head, _, body = tok.partition("*")
        if not _RAT.match(head):
            raise ParseError(
                "syntax", "bad coefficient %r" % (head,), line_no, col
            )
        if re.search(r"/0+\Z", head):
            raise ParseError(
                "syntax", "coefficient %r has a zero denominator" % (head,), line_no, col
            )
        coeff = Fraction(head)
    elif _RAT.match(tok):
        raise ParseError(
            "syntax", "term %r has no path part" % (tok,), line_no, col
        )
    if coeff == 0:
        raise ParseError(
            "zero-coefficient", "coefficient of %r is zero" % (tok,), line_no, col
        )
    names = body.split(".")
    for nm in names:
        if not _IDENT.match(nm):
            raise ParseError(
                "syntax", "bad arrow name %r in term" % (nm,), line_no, col
            )
    return coeff, tuple(names)


class _BlockBuilder:
    def __init__(self, name, line_no):
        self.name = name
        self.line_no = line_no
        self.field_spec = None
        self.vertices = None
        self.arrows = []
        self.arrow_names = {}
        self.relations = []  # (terms, line, col) validated at end-of-block
        self.extension_of = None
        self.new_arrows = None


def parse(text: str) -> PresentationFile:
    blocks = []
    names_seen = {}
    cur: _BlockBuilder | None = None

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        toks = _tokens_with_cols(line)
        if not toks:
            continue
        (kw, kcol) = toks[0]
        args = toks[1:]

        if kw == "algebra":
            if cur is not None:
                raise ParseError(
                    "syntax", "algebra block not closed before new block", line_no, kcol
                )
            if len(args) != 1:
                raise ParseError("syntax", "algebra takes one name", line_no, kcol)
            name, ncol = args[0]
            if not _IDENT.match(name):
                raise ParseError("syntax", "bad algebra name %r" % name, line_no, ncol)
            if name in names_seen:
                raise ParseError(
                    "duplicate-name", "algebra %r already defined" % name, line_no, ncol
                )
            names_seen[name] = line_no
            cur = _BlockBuilder(name, line_no)
            continue

        if cur is None:
            raise ParseError(
                "syntax", "directive %r outside an algebra block" % kw, line_no, kcol
            )

        if kw == "field":
            if cur.field_spec is not None:
                raise ParseError("syntax", "field given twice", line_no, kcol)
            if len(args) != 1:
                raise ParseError("syntax", "field takes one spec", line_no, kcol)
            spec, scol = args[0]
            if spec != "Q" and not re.match(r"F\d+\Z", spec):
                raise ParseError(
                    "syntax", "field must be Q or F<p>, got %r" % spec, line_no, scol
                )
            cur.field_spec = spec
        elif kw == "vertices":
            if cur.vertices is not None:
                raise ParseError("syntax", "vertices given twice", line_no, kcol)
            if not args:
                raise ParseError("syntax", "vertices needs at least one id", line_no, kcol)
            vs = []
            seen = set()
            for v, vcol in args:
                if not _IDENT.match(v):
                    raise ParseError("syntax", "bad vertex id %r" % v, line_no, vcol)
                if v in seen:
                    raise ParseError(
                        "duplicate-name", "vertex %r listed twice" % v, line_no, vcol
                    )
                seen.add(v)
                vs.append(v)
            cur.vertices = tuple(vs)
        elif kw == "arrow":
            if len(args) != 3:
                raise ParseError(
                    "syntax", "arrow takes: name source target", line_no, kcol
                )
            (nm, ncol), (src, scol), (dst, dcol) = args
            for t, c in ((nm, ncol), (src, scol), (dst, dcol)):
                if not _IDENT.match(t):
                    raise ParseError("syntax", "bad identifier %r" % t, line_no, c)
            if cur.vertices is None:
                raise ParseError(
                    "syntax", "arrow before vertices directive", line_no, kcol
                )
            if nm in cur.arrow_names:
                raise ParseError(
                    "duplicate-name", "arrow %r already declared" % nm, line_no, ncol
                )
            if src not in cur.vertices:
                raise ParseError("unknown-name", "unknown vertex %r" % src, line_no, scol)
            if dst not in cur.vertices:
                raise ParseError("unknown-name", "unknown vertex %r" % dst, line_no, dcol)
            cur.arrow_names[nm] = (src, dst)
            cur.arrows.append((nm, src, dst))
        elif kw == "rel":
            if not args:
                raise ParseError("syntax", "empty relation", line_no, kcol)
            terms = []
            sign = Fraction(1)
            expect_term = True
            for tok, col in args:
                if tok in ("+", "-"):
                    if expect_term:
                        raise ParseError(
                            "syntax", "unexpected sign %r" % tok, line_no, col
                        )
                    sign = Fraction(1) if tok == "+" else Fraction(-1)
                    expect_term = True
                    continue
                if not expect_term:
                    raise ParseError(
                        "syntax",
                        "expected + or - between terms, got %r" % tok,
                        line_no,
                        col,
                    )
                coeff, arrow_names = _parse_term(tok, line_no, col)
                terms.append((sign * coeff, arrow_names, col))
                sign = Fraction(1)
                expect_term = False
            if expect_term:
                raise ParseError("syntax", "relation ends with a sign", line_no, kcol)
            cur.relations.append((terms, line_no, kcol))
        elif kw == "extension_of":
            if cur.extension_of is not None:
                raise ParseError("syntax", "extension_of given twice", line_no, kcol)
            if len(args) != 1:
                raise ParseError("syntax", "extension_of takes one name", line_no, kcol)
            base, bcol = args[0]
            if base not in names_seen:
                raise ParseError(
                    "unknown-name",
                    "base algebra %r not defined earlier in this file" % base,
                    line_no,
                    bcol,
                )
            cur.extension_of = base
        elif kw == "new":
            if cur.new_arrows is not None:
                raise ParseError("syntax", "new given twice", line_no, kcol)
            if not args:
                raise ParseError("syntax", "new needs at least one arrow", line_no, kcol)
            cur.new_arrows = [(n, c) for n, c in args]
        elif kw == "end":
            if args:
                raise ParseError("syntax", "end takes no arguments", line_no, kcol)
            blocks.append(_finish_block(cur, blocks, line_no, kcol))
            cur = None
        else:
            raise ParseError("syntax", "unknown directive %r" % kw, line_no, kcol)

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
    for terms, line_no, col in cur.relations:
        frozen = []
        seen_paths = {}
        src_tgt = None
        for coeff, names, tcol in terms:
            if len(names) < 2:
                raise ParseError(
                    "short-relation",
                    "relation term %s is shorter than 2 arrows" % ".".join(names),
                    line_no,
                    tcol,
                )
            for nm in names:
                if nm not in arrow_map:
                    raise ParseError(
                        "unknown-arrow", "unknown arrow %r in relation" % nm, line_no, tcol
                    )
            for k in range(len(names) - 1):
                if arrow_map[names[k]][1] != arrow_map[names[k + 1]][0]:
                    raise ParseError(
                        "non-composable",
                        "arrows %s and %s do not compose" % (names[k], names[k + 1]),
                        line_no,
                        tcol,
                    )
            st = (arrow_map[names[0]][0], arrow_map[names[-1]][1])
            if src_tgt is None:
                src_tgt = st
            elif st != src_tgt:
                raise ParseError(
                    "non-parallel",
                    "term %s runs %s -> %s but earlier terms run %s -> %s"
                    % (".".join(names), st[0], st[1], src_tgt[0], src_tgt[1]),
                    line_no,
                    tcol,
                )
            if names in seen_paths:
                raise ParseError(
                    "duplicate-term",
                    "path %s appears twice in one relation" % ".".join(names),
                    line_no,
                    tcol,
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
