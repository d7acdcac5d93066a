"""Exact-arithmetic toolkit for Poisson and Dirac linear algebra over Q,
pointwise analysis of polynomial Poisson patches, and coisotropic
embeddings of regular Dirac manifolds."""

from .bivector_fields import BivectorField, TwoFormField, is_closed, is_poisson, pushforward
from .dirac_linear import DiracVS, as_bivector, characteristic, from_bivector, from_subspace_form, gauge, pullback
from .embedding import DiracManifoldData, Section, build_embedding, compare_splittings
from .poisson_linear import (
    ClassificationRecord,
    PoissonVS,
    canonical_iso,
    classify_subspace,
    coisotropic_splitting,
    cosymplectic_extension,
    embedding_conditions,
    induced_bivector,
    leaf_form_value,
    linear_uniqueness_iso,
)
from .polynomials import Poly, PolyMap
from .rational_linalg import MatrixQ, Subspace
from .submanifolds import LevelSet, Parametrized, PointData, rank_profile

__version__ = "0.1.0"

__all__ = [
    "BivectorField", "TwoFormField", "is_closed", "is_poisson", "pushforward",
    "DiracVS", "as_bivector", "characteristic", "from_bivector", "from_subspace_form", "gauge", "pullback",
    "DiracManifoldData", "Section", "build_embedding", "compare_splittings",
    "ClassificationRecord", "PoissonVS", "canonical_iso", "classify_subspace",
    "coisotropic_splitting", "cosymplectic_extension", "embedding_conditions",
    "induced_bivector", "leaf_form_value", "linear_uniqueness_iso",
    "Poly", "PolyMap", "MatrixQ", "Subspace",
    "LevelSet", "Parametrized", "PointData", "rank_profile",
    "__version__",
]
