"""The full bar complex of (A, M), the oracle the relative complex replaced.

An n-cochain is a linear map from A^(tensor n) to M, with no condition on
idempotent arguments: dim A^n * dim M coordinates, stored as a sparse dict
under the key ((c1 * dim A + c2) * ... + cn) * dim M + t, the same integer
encoding relext.hochschild uses.  The tests compare the relative complex
against it, and run the full-complex identities on it.

bar_h and is_coboundary are the module-level forms of the relative
calculator's methods that relext.hochschild used to export, on the
calculator cached on the bimodule; verify_complex is the relative
calculator's former method, which only the tests called.
"""

from __future__ import annotations

from relext import exactla
from relext.hochschild import calculator

from dense_reference import action_tables


class FullBarCalculator:
    """Bar-complex machinery for one (algebra, bimodule) pair over the full
    complex, with the degree 2 image echelon cached for coboundary tests."""

    def __init__(self, alg, m):
        if m.acting is not alg:
            raise ValueError("bimodule is not over this algebra")
        self.alg = alg
        self.m = m
        self.field = alg.field
        self._fibers = None
        self._tables = None
        self._acts = None
        self._b2 = None
        self._b1_rank = None

    # fibers[p] = nonzero (g, h, coeff) with basis_g . basis_h hitting basis_p
    @property
    def prod_fibers(self):
        if self._fibers is None:
            fibers = [[] for _ in range(self.alg.dim)]
            for g, row in enumerate(self.alg.products):
                for h, cell in row.items():
                    for p, c in cell.items():
                        fibers[p].append((g, h, c))
            self._fibers = fibers
        return self._fibers

    # tables = (left, right), the action tables of dense_reference.action_tables
    @property
    def tables(self):
        if self._tables is None:
            self._tables = action_tables(self.m)
        return self._tables

    # acts_at = (left_at, right_at): left_at[t] = nonzero (g, t2, x) with x the
    # t2-coordinate of basis_g . m_t, in g order, then the table row's order
    @property
    def acts_at(self):
        if self._acts is None:

            def index(tables):
                at = [[] for _ in range(self.m.dim)]
                for g, table in enumerate(tables):
                    for t, row in table.items():
                        at[t] += ((g, t2, x) for t2, x in row.items())
                return at

            self._acts = tuple(map(index, self.tables))
        return self._acts

    def coboundary(self, n: int, cochain: dict) -> dict:
        """The (n+1)-cochain b f for a sparse n-cochain f:

        (b f)(c0,...,cn) = c0 f(c1,...,cn) + sum_j (-1)^j f(..., c_{j-1} c_j, ...)
                           + (-1)^(n+1) f(c0,...,c_{n-1}) cn,    j = 1..n.
        """
        f = self.field
        left_at, right_at = self.acts_at
        da, dm = self.alg.dim, self.m.dim
        first = da**n  # key weight of c0 among the n + 1 arguments
        out = {}

        def add(key, c):
            nv = f.add(out.get(key, f.zero()), c)
            if f.is_zero(nv):
                out.pop(key, None)
            else:
                out[key] = nv

        for key, v in cochain.items():
            args, t = divmod(key, dm)
            for g, t2, x in left_at[t]:
                add((g * first + args) * dm + t2, f.mul(v, x))
            for j in range(1, n + 1):
                low = da ** (n - j)
                high, rest = divmod(args, low * da)
                c, tail = divmod(rest, low)
                sv = f.neg(v) if j % 2 else v
                for g, h, x in self.prod_fibers[c]:
                    add((((high * da + g) * da + h) * low + tail) * dm + t, f.mul(sv, x))
            sv = v if n % 2 else f.neg(v)
            for h, t2, x in right_at[t]:
                add((args * da + h) * dm + t2, f.mul(sv, x))
        return out

    def b2_echelon(self):
        if self._b2 is None:
            ech = exactla.Echelon(self.field)
            one = self.field.one()
            for key in range(self.alg.dim * self.m.dim):
                ech.insert(self.coboundary(1, {key: one}))
            self._b2 = ech
        return self._b2

    @property
    def b1_rank(self) -> int:
        if self._b1_rank is None:
            ech = exactla.Echelon(self.field)
            one = self.field.one()
            for i in range(self.m.dim):
                ech.insert(self.coboundary(0, {i: one}))
            self._b1_rank = ech.rank
        return self._b1_rank

    def bar_h(self, n: int) -> int:
        """dim H^n from the full bar complex; n is 0 or 1."""
        if n == 0:
            return self.m.dim - self.b1_rank
        if n == 1:
            c1_dim = self.alg.dim * self.m.dim
            return (c1_dim - self.b2_echelon().rank) - self.b1_rank
        raise ValueError("bar_h supports degrees 0 and 1")

    def is_coboundary(self, f2: dict) -> bool:
        """Is this degree 2 cochain in the image of b2?"""
        return self.b2_echelon().contains(f2)

    def verify_complex(self) -> bool:
        """b2 b1 = 0 on every M basis vector, b3 b2 = 0 on every degree 1
        basis cochain; raises on any failure."""
        one = self.field.one()
        for i in range(self.m.dim):
            if self.coboundary(1, self.coboundary(0, {i: one})):
                raise ValueError("b2 after b1 is nonzero on basis vector %d" % i)
        for key in range(self.alg.dim * self.m.dim):
            if self.coboundary(2, self.coboundary(1, {key: one})):
                raise ValueError(
                    "b3 after b2 is nonzero on cochain (%d, %d)" % divmod(key, self.m.dim)
                )
        return True


def bar_h(alg, m, n: int) -> int:
    return calculator(alg, m).bar_h(n)


def is_coboundary(alg, m, f2: dict) -> bool:
    return calculator(alg, m).is_coboundary(f2)


def verify_complex(alg, m) -> bool:
    """b2 b1 = 0 on every degree 0 basis cochain, b3 b2 = 0 on every
    degree 1 basis cochain of the relative complex; raises on any failure."""
    calc = calculator(alg, m)
    one = calc.field.one()
    for t in calc.c0_keys:
        if calc.coboundary(1, calc.coboundary(0, {t: one})):
            raise ValueError("b2 after b1 is nonzero on basis vector %d" % t)
    for key in calc.c1_keys:
        if calc.coboundary(2, calc.coboundary(1, {key: one})):
            raise ValueError(
                "b3 after b2 is nonzero on cochain (%d, %d)" % divmod(key, m.dim)
            )
    return True
