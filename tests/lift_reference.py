"""The lift as it was before it followed each derivation's own support.

extensions.lift_derivations builds d(c) x and x d(c) from the nonzero
products of the elements in d(c)'s support and keeps them only where one is
nonzero; extensions._lift_holds visits, per alpha, the pairs where a term
can be nonzero.  Here each keeps what it had before: the sides at every
pair (c, x) with d(c) != 0, built through Bimodule.left_act and right_act,
and a check that visits every pair with a nonzero product c.x or x.c, every
pair of sides, and every (c, x) with alpha(x) != 0, whatever c is.  The
tests compare the two on every split.
"""

from __future__ import annotations

from relext import bimod, exactla
from relext.extensions import LiftWitness, regular_bimodule_of
from relext.hochschild import derivation_values


def lift_with_sides(sp, dvecs) -> tuple:
    """(witnesses, sides) of each derivation: the LiftWitness of
    extensions.lift_derivations, and {(j, i): (d(c_j) x_i, x_i d(c_j))} over
    every pair with d(c_j) != 0.  Raises ValueError when a solved alpha
    fails lift_holds."""
    base = sp.base
    e = sp.ext_over_base
    f = base.field
    one = f.one()
    reg = regular_bimodule_of(base)
    arrows = set(base.arrow_index_in_basis.values())
    var, rows, keys = bimod.hom_equations(e, e)
    at = {key: r for r, key in enumerate(keys)}
    all_sides = []
    rhs_list = []
    for dvec in dvecs:
        sides = {}
        rhs = {}
        for j, dj in enumerate(derivation_values(base, reg, dvec)):
            if not dj:
                continue
            for i in range(e.dim):
                x = {i: one}
                pair = sides[(j, i)] = (e.left_act(dj, x), e.right_act(dj, x))
                if j not in arrows:
                    continue
                for side, vec in enumerate(pair):
                    for t, c in vec.items():
                        r = at.setdefault((j, i, side, t), len(rows))
                        if r == len(rows):
                            rows.append({})  # no left side: 0 = c
                        rhs[r] = c
        all_sides.append(sides)
        rhs_list.append(rhs)

    sols = exactla.solve_rows(f, len(var), rows, rhs_list)
    unknown = list(var)  # column -> (g, k), the entry alpha(x_g) on x_k
    out = []
    for dvec, sol in zip(dvecs, sols):
        alpha = None
        if sol is not None:
            alpha = {}
            for col, x in sol.items():
                g, k = unknown[col]
                alpha.setdefault(g, {})[k] = x
        out.append(LiftWitness(dvec, alpha))
    checks = [(sides, w.alpha) for sides, w in zip(all_sides, out) if w.ok]
    if checks and not lift_holds(e, checks):
        raise ValueError("solved lift fails the defining conditions")
    return out, all_sides


def lift_holds(e, checks) -> bool:
    """Both lifting conditions for each (sides, alpha) of checks, on every
    pair (c, x) with alpha(x) != 0, xc != 0, cx != 0 or a pair of sides."""
    f = e.field
    one = f.one()
    acting = range(e.acting.dim)
    acted = {}  # (j, i) -> [c_j x_i, x_i c_j], where one of them is nonzero
    for j in acting:
        for side in (0, 1):
            for i, img in e.touched(side, j):
                acted.setdefault((j, i), [{}, {}])[side] = img

    def minus_alpha(alpha, u, v):
        """u - alpha(v)"""
        out = dict(u)
        for g, c in v.items():
            f.axpy(out, f.neg(c), alpha.get(g, {}))
        return out

    for sides, alpha in checks:
        for j, i in set(sides) | acted.keys() | {(j, i) for i in alpha for j in acting}:
            dx, xd = sides.get((j, i), ({}, {}))
            cx, xc = acted.get((j, i), ({}, {}))
            ax = alpha.get(i, {})
            if minus_alpha(alpha, e.right_act({j: one}, ax), xc) != xd:
                return False
            if minus_alpha(alpha, e.left_act({j: one}, ax), cx) != dx:
                return False
    return True
