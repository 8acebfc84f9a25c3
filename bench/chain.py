"""Seeded presentation files for the benchmark.

`chain(k)` is the type-A chain 1 -> ... -> 2k+1 with zero relations
a(2j+1).a(2j+2) (global dimension 2), together with its relation extension:
one new arrow e(j+1) from the end of each relation back to its start, with
relations a(2j+2).e(j+1), e(j+1).a(2j+1) and e(j+1).e(j).  dim C = 5k and
dim Ctilde = 6k.

`relabel(blocks, seed)` renames every vertex and arrow and shuffles the
declaration order.  Seed 0 keeps the canonical labelling.  Arrows shared
by several blocks keep one relative order in all of them, because the
family check compares basis labels of the reduced extension and the base
path by path; vertices likewise.  Relations and the `new` list are
shuffled per block.

A block is a dict with keys name, header (the `field`/`extension_of`
lines), vertices, arrows ((name, source, target) triples), new and rels
(each a list of tokens: terms `[c*]x.y.z` and the signs `+`/`-`).
"""

from __future__ import annotations

import random


def chain(k: int) -> list:
    """Blocks C and Ctilde of the chain family at size k >= 1."""
    if k < 1:
        raise ValueError("chain size must be at least 1")
    vertices = [str(i) for i in range(1, 2 * k + 2)]
    arrows = [("a%d" % i, str(i), str(i + 1)) for i in range(1, 2 * k + 1)]
    rels = [["a%d.a%d" % (2 * j + 1, 2 * j + 2)] for j in range(k)]
    news = [("e%d" % (j + 1), str(2 * j + 3), str(2 * j + 1)) for j in range(k)]
    ext_rels = list(rels)
    for j in range(k):
        e = "e%d" % (j + 1)
        ext_rels.append(["a%d.%s" % (2 * j + 2, e)])
        ext_rels.append(["%s.a%d" % (e, 2 * j + 1)])
        if j:
            ext_rels.append(["%s.e%d" % (e, j)])
    base = {"name": "C", "header": [], "vertices": vertices, "arrows": arrows,
            "new": [], "rels": rels}
    full = {"name": "Ctilde", "header": ["extension_of C"], "vertices": vertices,
            "arrows": arrows + news, "new": [n[0] for n in news], "rels": ext_rels}
    return [base, full]


def parse(text: str) -> list:
    """Blocks of a presentation file, kept as tokens (no validation)."""
    blocks = []
    cur = None
    for raw in text.splitlines():
        toks = raw.split("#", 1)[0].split()
        if not toks:
            continue
        head, rest = toks[0], toks[1:]
        if head == "algebra":
            cur = {"name": rest[0], "header": [], "vertices": [], "arrows": [],
                   "new": [], "rels": []}
        elif head == "end":
            blocks.append(cur)
            cur = None
        elif head == "vertices":
            cur["vertices"] += rest
        elif head == "arrow":
            cur["arrows"].append(tuple(rest))
        elif head == "new":
            cur["new"] += rest
        elif head == "rel":
            cur["rels"].append(rest)
        else:
            cur["header"].append(" ".join(toks))
    return blocks


def render(blocks: list) -> str:
    lines = []
    for b in blocks:
        lines.append("algebra %s" % b["name"])
        lines += b["header"]
        lines.append("vertices %s" % " ".join(b["vertices"]))
        lines += ["arrow %s %s %s" % a for a in b["arrows"]]
        if b["new"]:
            lines.append("new %s" % " ".join(b["new"]))
        lines += ["rel %s" % " ".join(r) for r in b["rels"]]
        lines.append("end")
        lines.append("")
    return "\n".join(lines)


def _rename_term(tok: str, names: dict) -> str:
    if tok in ("+", "-"):
        return tok
    coeff, star, path = tok.rpartition("*")
    return coeff + star + ".".join(names[a] for a in path.split("."))


def relabel(blocks: list, seed: int):
    """(relabelled blocks, map from new names back to canonical names)."""
    if seed == 0:
        names = {v: v for b in blocks for v in b["vertices"]}
        names.update((a[0], a[0]) for b in blocks for a in b["arrows"])
        return blocks, names
    rng = random.Random(seed)
    verts = list(dict.fromkeys(v for b in blocks for v in b["vertices"]))
    arrs = list(dict.fromkeys(a[0] for b in blocks for a in b["arrows"]))
    vname = dict(zip(verts, ("v%d" % n for n in rng.sample(range(1000), len(verts)))))
    aname = dict(zip(arrs, ("x%d" % n for n in rng.sample(range(1000), len(arrs)))))
    vrank = {v: i for i, v in enumerate(rng.sample(verts, len(verts)))}
    arank = {a: i for i, a in enumerate(rng.sample(arrs, len(arrs)))}
    out = []
    for b in blocks:
        rels = [[_rename_term(t, aname) for t in r] for r in b["rels"]]
        rng.shuffle(rels)
        new = [aname[a] for a in b["new"]]
        rng.shuffle(new)
        out.append({
            "name": b["name"],
            "header": b["header"],
            "vertices": [vname[v] for v in sorted(b["vertices"], key=vrank.get)],
            "arrows": [(aname[a], vname[s], vname[t])
                       for a, s, t in sorted(b["arrows"], key=lambda x: arank[x[0]])],
            "new": new,
            "rels": rels,
        })
    back = {n: v for v, n in vname.items()}
    back.update((n, a) for a, n in aname.items())
    return out, back
