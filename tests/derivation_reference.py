"""The normal-form evaluation of derivations that hochschild replaced.

derivation_values applies the Leibniz rule to every basis path at once: for
a path a_1...a_n it sums a_1...a_(j-1) . d(a_j) . a_(j+1)...a_n over j, each
prefix and suffix acting through its normal form.  derivation_space builds
the relation constraints the same way, one prefix and one suffix normal
form per arrow of each relation term.  The tests compare hochschild's
one-pass evaluation and arrow-by-arrow constraints with these.

inner_space is the span of the inner derivations as a Subspace, which
hochschild dropped once h1 kept the ad(x) themselves; the tests read it.
"""

from __future__ import annotations

from relext import exactla
from relext.hochschild import _inner_derivations, arrow_layout
from relext.quiver import Path


def path_value(alg, m, arrows: tuple, dvals: list) -> dict:
    """d(path) for a path given by quiver arrow indices, via the Leibniz
    rule, with d(arrow k) = dvals[k] as a sparse M vector."""
    f = m.field
    q = alg.quiver
    out = {}
    for j in range(len(arrows)):
        val = dvals[arrows[j]]
        if not val:
            continue
        if j > 0:
            val = m.left_act(alg.nf_coords(Path(q, None, arrows[:j])), val)
        if j + 1 < len(arrows):
            val = m.right_act(alg.nf_coords(Path(q, None, arrows[j + 1 :])), val)
        for t, c in val.items():
            out[t] = f.add(out.get(t, f.zero()), c)
    return f.sparse(out)


def derivation_values(alg, m, vec: dict) -> list:
    """d(b_p) as a sparse M vector for every basis element b_p of alg."""
    layout = arrow_layout(alg, m)
    exactla._check_coordinates(layout.total, vec)
    dvals = [
        {i: vec[o + u] for u, i in enumerate(block) if o + u in vec}
        for o, block in zip(layout.offsets, layout.blocks)
    ]
    return [path_value(alg, m, p.arrows, dvals) if p.length else {} for p in alg.basis]


def derivation_space(alg, m) -> exactla.Subspace:
    """Derivations d with d(e_v) = 0, in arrow coordinates: the kernel of
    the relation constraints sum_t c_t d(p_t) = 0."""
    layout = arrow_layout(alg, m)
    f = m.field
    q = alg.quiver
    rows = []
    for rel in alg.block.relations:
        acc = {}
        for term in rel.terms:
            c = f.from_fraction(term.coeff)
            arrows = tuple(q.arrow_index[n] for n in term.arrows)
            for k_pos, k in enumerate(arrows):
                pre = alg.nf_coords(Path(q, None, arrows[:k_pos])) if k_pos > 0 else None
                suf = (
                    alg.nf_coords(Path(q, None, arrows[k_pos + 1 :]))
                    if k_pos + 1 < len(arrows)
                    else None
                )
                for u, i in enumerate(layout.blocks[k]):
                    val = {i: f.one()}
                    if pre is not None:
                        val = m.left_act(pre, val)
                    if suf is not None:
                        val = m.right_act(suf, val)
                    col = layout.offsets[k] + u
                    for t, x in val.items():
                        eq = acc.setdefault(t, {})
                        eq[col] = f.add(eq.get(col, f.zero()), f.mul(c, x))
        rows += [eq for eq in map(f.sparse, acc.values()) if eq]
    return exactla.null_space(f, layout.total, rows)


def inner_space(alg, m) -> exactla.Subspace:
    """Span of the inner derivations c |-> c.x - x.c over diagonal x, in
    arrow coordinates."""
    return exactla.Subspace.from_sparse(
        m.field, arrow_layout(alg, m).total, _inner_derivations(alg, m).values()
    )
