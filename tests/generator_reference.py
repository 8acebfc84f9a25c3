"""The all-basis systems that the generator rows replaced.

bimod.hom_equations and the lift's right-hand sides in
extensions.lift_derivations have rows for the acting arrows only, and
hochschild.h0 is the kernel of ad on the diagonal coordinates only; their
docstrings argue that these cut out the same spaces.  Here each keeps what
it had before: hom_equations a row block per acting basis element,
idempotents and paths included, or per acting arrow as the package had it
before its rows followed the bigrade (every x_i of M visited and every
pair (i, j) compared for the unknowns); h0 every coordinate of M as an unknown,
with a row block per vertex idempotent and per arrow; the lift a
right-hand side at every base basis element c with d(c) != 0.  The tests
compare them with the package as Subspaces and as LiftWitness.alpha.
"""

from __future__ import annotations

from relext import exactla
from relext.extensions import regular_bimodule_of
from relext.hochschild import derivation_values

from dense_reference import commutator


def hom_equations(m, n, acting=None) -> tuple:
    """(var, rows, keys) of bimod.hom_equations, with the rows of every
    acting basis element a, in basis order, or of the a listed in acting;
    every x_i of M is visited."""
    if m.acting is not n.acting:
        raise ValueError("bimodules over different acting algebras")
    f = m.field
    var = {}
    graded = []  # per i: (j, column) of its graded entries
    for i in range(m.dim):
        own = []
        for j in range(n.dim):
            if m.src[i] == n.src[j] and m.tgt[i] == n.tgt[j]:
                var[(i, j)] = len(var)
                own.append((j, var[(i, j)]))
        graded.append(own)

    rows = []
    keys = []
    for a in range(m.acting.dim) if acting is None else acting:
        actions = []
        for side in (0, 1):
            am = dict(m.touched(side, a))
            actions.append((am, am if n is m else dict(n.touched(side, a))))
        for i in range(m.dim):
            for side, (am, an) in enumerate(actions):
                eqs = {}  # coordinate j of N -> row
                for k, col in graded[i]:
                    for j, c in an.get(k, {}).items():
                        eq = eqs.setdefault(j, {})
                        eq[col] = f.add(eq.get(col, f.zero()), c)
                for g, c in am.get(i, {}).items():
                    for j, col in graded[g]:
                        eq = eqs.setdefault(j, {})
                        eq[col] = f.sub(eq.get(col, f.zero()), c)
                for j, eq in eqs.items():
                    eq = f.sparse(eq)
                    if eq:
                        rows.append(eq)
                        keys.append((a, i, side, j))
    return var, rows, keys


def h0(m) -> exactla.Subspace:
    """{x in M : a.x = x.a} over every coordinate of M, with one block of
    rows per vertex idempotent and per arrow."""
    A = m.acting
    rows = []
    for a in (*A.idem_index.values(), *A.arrow_index_in_basis.values()):
        eqs = {}  # coordinate j -> {i: coefficient of x_i in (a.x - x.a)_j}
        for i in {i for side in (0, 1) for i, _ in m.touched(side, a)}:
            for j, c in commutator(m, a, i).items():
                eqs.setdefault(j, {})[i] = c
        rows += eqs.values()
    return exactla.null_space(m.field, m.dim, rows)


def lift_alphas(sp, dvecs) -> list:
    """The alpha of each base derivation's lift through sp, or None, from
    the all-basis hom equations with a right-hand side (d(c) x, x d(c)) at
    every base basis element c with d(c) != 0, solved as one system."""
    base = sp.base
    e = sp.ext_over_base
    f = base.field
    one = f.one()
    reg = regular_bimodule_of(base)
    var, rows, keys = hom_equations(e, e)
    at = {key: r for r, key in enumerate(keys)}
    rhs_list = []
    for dvec in dvecs:
        rhs = {}
        for j, dj in enumerate(derivation_values(base, reg, dvec)):
            if not dj:
                continue
            for i in range(e.dim):
                x = {i: one}
                for side, vec in enumerate((e.left_act(dj, x), e.right_act(dj, x))):
                    for t, c in vec.items():
                        r = at.setdefault((j, i, side, t), len(rows))
                        if r == len(rows):
                            rows.append({})  # no left side: 0 = c
                        rhs[r] = c
        rhs_list.append(rhs)
    unknown = list(var)  # column -> (g, k), the entry alpha(x_g) on x_k
    out = []
    for sol in exactla.solve_rows(f, len(var), rows, rhs_list):
        alpha = None
        if sol is not None:
            alpha = {}
            for col, x in sol.items():
                g, k = unknown[col]
                alpha.setdefault(g, {})[k] = x
        out.append(alpha)
    return out
