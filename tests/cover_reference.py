"""The path-by-path cover map that repmod.projective_cover replaced.

Representation.path_matrix composed every arrow matrix along a path, and
the cover sent each generator's lift through the whole matrix of each basis
path from its vertex.  repmod now builds the same images by the prefix
walk; the tests compare the two entry for entry, and check the declared
relations with path_matrix.
"""

from __future__ import annotations

from module_reference import projective_paths
from relext import exactla


def path_matrix(rep, path) -> list:
    """The images of the basis of rep at the path's source under the path,
    its arrow maps composed in path order; rep in the all-vertex format
    (module_reference.padded)."""
    f = rep.algebra.field
    if path.length == 0:
        return [{i: f.one()} for i in range(rep.dims[path.vertex])]
    q = rep.algebra.quiver
    m = rep.rho[q.arrows[path.arrows[0]].name]
    for i in path.arrows[1:]:
        m = exactla.compose(f, rep.rho[q.arrows[i].name], m)
    return m


def cover_mats(m, gens) -> dict:
    """The per-vertex images of the cover map of m, in the all-vertex
    format, for the generators gens (vertex, lift): the lift of each
    generator times the path matrix of every basis path from its vertex,
    summands in generator order, at every vertex."""
    alg = m.algebra
    f = alg.field
    paths = [projective_paths(alg, gv) for gv, _ in gens]
    mats = {}
    for w in alg.quiver.vertices:
        images = []
        for (gv, lift), pw in zip(gens, paths):
            for g in pw[w]:
                images += exactla.compose(f, path_matrix(m, alg.basis[g]), [lift])
        mats[w] = images
    return mats
