"""Directed Steiner network toolkit.

Exact desk-scale solvers, structural analysis of inclusion-minimal
solutions (important/marked vertices, ladder recognition, protrusion
replacement, treewidth certificates), and a hardness-instance generator
from partitioned subgraph isomorphism.
"""

from .dsn import DsnInstance, SolutionSubgraph
from .errors import (
    CapacityError,
    DomainError,
    DsnkitError,
    InconsistencyError,
    InputError,
    InvariantError,
    ParseError,
    PreconditionError,
)
from .graphs import DirectedPath, UndirectedGraph, WeightedDigraph
from .ladders import LadderSpec, make_ladder
from .reduction import PsiInstance
from .solvers import SolveResult, solve_bnb, solve_dst, solve_exhaustive, solve_with_certificate
from .structure import StructureReport

__version__ = "0.1.0"

__all__ = [
    "DsnInstance",
    "SolutionSubgraph",
    "WeightedDigraph",
    "UndirectedGraph",
    "DirectedPath",
    "LadderSpec",
    "make_ladder",
    "PsiInstance",
    "SolveResult",
    "solve_exhaustive",
    "solve_bnb",
    "solve_dst",
    "solve_with_certificate",
    "StructureReport",
    "DsnkitError",
    "InputError",
    "ParseError",
    "CapacityError",
    "DomainError",
    "PreconditionError",
    "InconsistencyError",
    "InvariantError",
    "__version__",
]
