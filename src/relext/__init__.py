"""Bound quiver algebras, degree 0 and 1 Hochschild cohomology, and
partial relation extensions, all over exact arithmetic."""

from .exactla import QQ, Field, FieldError, Matrix, PrimeField, Subspace, field_from_spec
from .quiver import Arrow, Path, Quiver, compose, is_acyclic
from .qdsl import AlgebraBlock, ParseError, PresentationFile, parse, serialize
from .algebra import (
    AlgebraBuildError,
    BoundQuiverAlgebra,
    BuildCheckError,
    IdealNotSpanned,
    NotFiniteDimensionalError,
    build,
    is_triangular,
    quotient_by_arrows,
)
from .repmod import ModuleCheckError, ext2_dimension, gldim_at_most
from .bimod import (
    Bimodule,
    arrow_ideal_bimodule,
    curly_E_dimension,
    end_enveloping,
    regular_bimodule,
)
from .hochschild import CohomologySpace, cup_product, h0, h1
from .extensions import (
    ExtensionPoset,
    Family,
    LiftCheckError,
    LiftWitness,
    ProjectionCheckError,
    SplitError,
    SplitPresentation,
    TheoremReport,
    center,
    hochschild_projection,
    lift_derivations,
    poset,
    verify_theorem,
)

__all__ = [
    "QQ",
    "Field",
    "FieldError",
    "Matrix",
    "PrimeField",
    "Subspace",
    "field_from_spec",
    "Arrow",
    "Path",
    "Quiver",
    "compose",
    "is_acyclic",
    "AlgebraBlock",
    "ParseError",
    "PresentationFile",
    "parse",
    "serialize",
    "AlgebraBuildError",
    "BoundQuiverAlgebra",
    "BuildCheckError",
    "IdealNotSpanned",
    "NotFiniteDimensionalError",
    "build",
    "center",
    "is_triangular",
    "quotient_by_arrows",
    "ModuleCheckError",
    "ext2_dimension",
    "gldim_at_most",
    "Bimodule",
    "arrow_ideal_bimodule",
    "curly_E_dimension",
    "end_enveloping",
    "regular_bimodule",
    "CohomologySpace",
    "cup_product",
    "h0",
    "h1",
    "ExtensionPoset",
    "Family",
    "LiftCheckError",
    "LiftWitness",
    "ProjectionCheckError",
    "SplitError",
    "SplitPresentation",
    "TheoremReport",
    "hochschild_projection",
    "lift_derivations",
    "poset",
    "verify_theorem",
]

__version__ = "0.1.0"
