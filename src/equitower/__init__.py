"""equitower: a workbench for the equidistance-only definition tower.

Betweenness, midpoints, and point distinctness are definable from the
single quaternary relation "segment ab is as long as segment cd" over
normed coordinate planes.  This package provides the coordinate plane
(exact rationals or tolerant floats, p-norms), analytic oracles for every
defined relation, a bounded formula evaluator with witness-closed
universes, a congruence-axiom checking suite, and a fuzzing harness for
equidistance-preserving plane maps.
"""

__version__ = "0.1.0"

from .geometry import (
    EXACT,
    FLOAT,
    L1,
    L2,
    LINF,
    BackendMismatchError,
    ExactBackendRefusedError,
    GeometryError,
    NoIntersectionError,
    NormSpec,
    Point,
    SolverError,
    Space,
    affine_combination,
    distance,
    lp,
    midpoint,
    sphere_intersection_point,
)
from .oracles import RelationId
from .scalars import Rad
from .universe import Universe
from .formulas.ast import format_formula
from .formulas.parser import parse_formula
from .formulas.schemas import TruncationParams, expand_schema
from .formulas.evaluator import ImplMap, eval_formula
from .formulas.verify import LayerReport, verification_space, verify_layer

__all__ = [
    "__version__",
    "EXACT",
    "FLOAT",
    "L1",
    "L2",
    "LINF",
    "BackendMismatchError",
    "ExactBackendRefusedError",
    "GeometryError",
    "NoIntersectionError",
    "NormSpec",
    "Point",
    "SolverError",
    "Space",
    "affine_combination",
    "distance",
    "lp",
    "midpoint",
    "sphere_intersection_point",
    "RelationId",
    "Rad",
    "Universe",
    "ImplMap",
    "LayerReport",
    "TruncationParams",
    "eval_formula",
    "expand_schema",
    "format_formula",
    "parse_formula",
    "verification_space",
    "verify_layer",
]
