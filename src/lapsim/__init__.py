"""Exact Ehrhart-theoretic analysis of Laplacian simplices of graphs."""

from .errors import (
    DomainError,
    FeasibilityError,
    InternalInconsistencyError,
    LapsimError,
    ShapeError,
    SingularMatrixError,
)
from .graph import Graph, family, laplacian, spanning_tree_count
from .simplex import LaplacianSimplex, build, facets, is_reflexive
from .ehrhart import HStarVector, hstar
from .analysis import PropertyReport, analyze, paper_regression

__version__ = "0.1.0"

__all__ = [
    "DomainError",
    "FeasibilityError",
    "Graph",
    "HStarVector",
    "InternalInconsistencyError",
    "LapsimError",
    "LaplacianSimplex",
    "PropertyReport",
    "ShapeError",
    "SingularMatrixError",
    "analyze",
    "build",
    "facets",
    "family",
    "hstar",
    "is_reflexive",
    "laplacian",
    "paper_regression",
    "spanning_tree_count",
]
