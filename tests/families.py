"""Generated presentation families beyond the benchmark's chain.

`squares(k)` is k commutative squares a_j.c_j = b_j.d_j glued sink to
source, with its relation extension: one new arrow e_j from each square's
sink back to its source, with relations c_j.e_j, d_j.e_j, e_j.a_j, e_j.b_j
and e_j.e_(j-1).  Square j runs from vertex 3j-2 through 3j-1 (by a_j, c_j)
and 3j (by b_j, d_j) to 3j+1.  dim C / Ctilde is 26/28 at k=2 and 52/55 at
k=3.  The blocks render through bench/chain.render, which is only read.
"""

from __future__ import annotations

import os
import sys

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
if BENCH not in sys.path:
    sys.path.insert(0, BENCH)
import chain as bench_chain  # noqa: E402


def squares(k: int) -> str:
    """Presentation text of blocks C and Ctilde of the squares family."""
    if k < 1:
        raise ValueError("squares size must be at least 1")
    vertices = [str(i) for i in range(1, 3 * k + 2)]
    arrows, rels, news, ext_rels = [], [], [], []
    for j in range(1, k + 1):
        s, u, w, t = (str(3 * j - 2), str(3 * j - 1), str(3 * j), str(3 * j + 1))
        arrows += [("a%d" % j, s, u), ("b%d" % j, s, w), ("c%d" % j, u, t), ("d%d" % j, w, t)]
        rels.append(["a%d.c%d" % (j, j), "-", "b%d.d%d" % (j, j)])
        e = "e%d" % j
        news.append((e, t, s))
        ext_rels += [["c%d.%s" % (j, e)], ["d%d.%s" % (j, e)],
                     ["%s.a%d" % (e, j)], ["%s.b%d" % (e, j)]]
        if j > 1:
            ext_rels.append(["%s.e%d" % (e, j - 1)])
    base = {"name": "C", "header": [], "vertices": vertices, "arrows": arrows,
            "new": [], "rels": rels}
    full = {"name": "Ctilde", "header": ["extension_of C"], "vertices": vertices,
            "arrows": arrows + news, "new": [n[0] for n in news],
            "rels": rels + ext_rels}
    return bench_chain.render([base, full])

