"""The extension poset over every comparable pair, as `Family.poset` built
it before it computed the projection on the Hasse edges and the pairs
(S, Ctilde) only.

Every pair S < T of valid subsets gets the full `hochschild_projection`,
and the triangle phi(S <- T) phi(T <- Ctilde) = phi(S <- Ctilde) is checked
on each of them.  The Hasse edges are the covers of inclusion among the
valid subsets, S < T with no valid subset strictly between, found by
comparing every pair and not from the components of the linked pairs.  The
tests compare `Family.poset` with it.
"""

from __future__ import annotations

from itertools import combinations

from relext import exactla, extensions
from relext.extensions import (
    ExtensionPoset,
    PosetEdge,
    PosetNode,
    SplitError,
    regular_h1,
)


def reference_poset(fam) -> ExtensionPoset:
    """The poset of fam from the projections of all comparable pairs (3^n -
    2^n when every subset of the n new arrows splits), edges in the order
    Family.poset lists them: by lower node, then by the first new arrow
    the upper node adds."""
    nodes = []
    by_arrows = {}
    for r in range(len(fam.new_arrows) + 1):
        for combo in combinations(fam.new_arrows, r):
            try:
                alg = fam.partial(combo)
            except SplitError:
                continue
            by_arrows[combo] = len(nodes)
            nodes.append(PosetNode(arrows=combo, dim_hh1=regular_h1(alg).dim))

    f = fam.base.field
    edges = {}  # (lower, position of the first added arrow) -> edge
    proj_mats = {}  # (upper, lower) -> images of upper's classes
    for t_arr, ti in by_arrows.items():
        for s_arr, si in by_arrows.items():
            if set(t_arr) < set(s_arr):
                mat = extensions.hochschild_projection(fam.split(t_arr, s_arr), 1)
                proj_mats[(si, ti)] = mat
                if not any(set(t_arr) < set(u) < set(s_arr) for u in by_arrows):
                    rank = exactla.rank(f, nodes[ti].dim_hh1, mat)
                    first = min(fam.new_arrows.index(n) for n in s_arr if n not in t_arr)
                    assert (ti, first) not in edges
                    edges[(ti, first)] = PosetEdge(
                        lower=ti,
                        upper=si,
                        phi_rank=rank,
                        surjective=rank == nodes[ti].dim_hh1,
                        monotone=nodes[ti].dim_hh1 <= nodes[si].dim_hh1,
                    )

    top = by_arrows[fam.new_arrows]
    triangles = True
    for (si, ti), mat in proj_mats.items():
        if si == top:
            continue
        if exactla.compose(f, mat, proj_mats[(top, si)]) != proj_mats[(top, ti)]:
            triangles = False
    return ExtensionPoset(
        nodes=nodes,
        edges=[edges[key] for key in sorted(edges)],
        triangles_commute=triangles,
        minimum=by_arrows[()],
        maximum=top,
    )
