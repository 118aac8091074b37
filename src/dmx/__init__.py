"""Delta-matroids: operation calculus, GF(2) representations, ribbon graphs,
classification and a verification harness."""

from .core import (
    EVEN,
    ODD,
    DeltaMatroid,
    GroundSet,
    ImproperSystemError,
    Mask,
    SetSystem,
    SymmetricExchangeError,
    exchange_violation_masks,
    numbered_ground,
    validate_delta_matroid,
)
from .gf2 import (
    BinaryCertificate,
    Gf2Matrix,
    Gf2SymmetricMatrix,
    column_matroid,
    delta_matroid_from_symmetric,
    gf2_rank,
    is_binary,
)
from .matroid import (
    ClassificationReport,
    Matroid,
    MatroidError,
    classify_delta,
    classify_matroid,
    is_bipartite_delta,
    is_eulerian_delta,
    lower_matroid,
    upper_matroid,
)
from .ribbon import BoundaryTrace, RibbonEdge, RibbonGraph

__all__ = [
    "EVEN",
    "ODD",
    "BinaryCertificate",
    "BoundaryTrace",
    "ClassificationReport",
    "DeltaMatroid",
    "Gf2Matrix",
    "Gf2SymmetricMatrix",
    "GroundSet",
    "ImproperSystemError",
    "Mask",
    "Matroid",
    "MatroidError",
    "RibbonEdge",
    "RibbonGraph",
    "SetSystem",
    "SymmetricExchangeError",
    "classify_delta",
    "classify_matroid",
    "column_matroid",
    "delta_matroid_from_symmetric",
    "exchange_violation_masks",
    "gf2_rank",
    "is_binary",
    "is_bipartite_delta",
    "is_eulerian_delta",
    "lower_matroid",
    "numbered_ground",
    "upper_matroid",
    "validate_delta_matroid",
]

__version__ = "0.1.0"
