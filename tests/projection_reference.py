"""The degree 1 cohomology projection by reductions, as it was before the
inner check became an identity on the stored ad(x).

Every inner basis row of the total projects into the base's inner
derivations, and every projected representative into the base's
derivations, each decided by reducing against the base's subspace; then
each representative gets its class coordinates.  The tests compare
`extensions.hochschild_projection` with it.
"""

from __future__ import annotations

from relext.extensions import ProjectionCheckError, project_derivation, regular_h1


def reference_projection(sp) -> list:
    """The images of the total's class basis, each sparse on the base's
    class basis, or ProjectionCheckError with the text
    hochschild_projection uses."""
    src = regular_h1(sp.total)
    tgt = regular_h1(sp.base)
    for b in src.inner.rows:
        if not tgt.inner.contains(project_derivation(sp, b)):
            raise ProjectionCheckError("projection of an inner derivation is not inner")
    images = []
    for r in src.representatives():
        pr = project_derivation(sp, r)
        if not tgt.derivations.contains(pr):
            raise ProjectionCheckError("projection of a derivation breaks a base relation")
        images.append(tgt.class_coordinates(pr))
    return images
