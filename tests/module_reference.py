"""The per-vertex projectives and the arrow-by-arrow direct sum that
repmod.projective_sum replaced.

projective built e_i.A by walking every vertex and every arrow of the
quiver, and regular and every projective cover summed such projectives
arrow by arrow with direct_sum.  repmod now builds the sum in one pass over
the summands' own paths; the tests compare the two entry for entry.
"""

from __future__ import annotations

from relext.repmod import Representation


def coords_of_vertex_pair(alg, x, y) -> list:
    """Basis indices lying in e_x A e_y, in basis order
    (BoundQuiverAlgebra.coords_of_vertex_pair, which nothing in the package
    called)."""
    return list(alg.paths_from(x).get(y, ()))


def projective_paths(alg, i) -> dict:
    """Basis paths of e_i.A at each vertex: v -> algebra basis indices."""
    return {v: coords_of_vertex_pair(alg, i, v) for v in alg.quiver.vertices}


def projective(alg, i) -> Representation:
    """The indecomposable projective e_i.A; at the generating vertex the
    stationary path sits at coordinate 0."""
    paths = projective_paths(alg, i)
    dims = {v: len(paths[v]) for v in alg.quiver.vertices}
    rho = {}
    for a in alg.quiver.arrows:
        ia = alg.arrow_index_in_basis[a.name]
        dst_pos = {g: k for k, g in enumerate(paths[a.target])}
        rho[a.name] = [
            {dst_pos[k]: c for k, c in alg.product_coords(g, ia).items()}
            for g in paths[a.source]
        ]
    return Representation(alg, dims, rho)


def direct_sum(alg, reps) -> Representation:
    """The modules of reps summed in order, blockwise on every arrow."""
    reps = list(reps)
    dims = {v: sum(r.dims[v] for r in reps) for v in alg.quiver.vertices}
    rho = {}
    for a in alg.quiver.arrows:
        images = []
        shift = 0
        for r in reps:
            images += [{shift + j: x for j, x in img.items()} for img in r.rho[a.name]]
            shift += r.dims[a.target]
        rho[a.name] = images
    return Representation(alg, dims, rho)


def projective_sum(alg, vertices) -> Representation:
    """direct_sum of one projective per listed vertex, built once per
    vertex as the parent's projective_cover did."""
    vertices = list(vertices)
    built = {v: projective(alg, v) for v in dict.fromkeys(vertices)}
    return direct_sum(alg, [built[v] for v in vertices])
