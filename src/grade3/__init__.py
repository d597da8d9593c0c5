"""3-graded Lie algebras, invariant cones, compression semigroups, and a
finite-dimensional modular-theory kernel.

The public surface mirrors the module layout:

- :mod:`grade3.numkit` shared numerics (tolerances, expm/logm, JSON matrices)
- :mod:`grade3.liealg` structure-constant algebras, gradings, Ad, tau, sharp
- :mod:`grade3.cones` cone membership and invariance certificates
- :mod:`grade3.roots` root decompositions over compactly embedded Cartans
- :mod:`grade3.semigroup` membership and factorization in S(h, C)
- :mod:`grade3.modular` standard subspaces and modular pairs
- :mod:`grade3.catalog` worked examples with samplers
- :mod:`grade3.verify` seeded invariant suites behind the CLI
"""

from .catalog import DEMO_NAMES, ENTRY_NAMES, CatalogEntry, get_entry
from .cones import Cone
from .errors import Grade3Error
from .liealg import (
    GroupElement,
    Grading,
    LieAlgebraSpec,
    ad_image,
    adjoint,
    grade_by,
    sharp,
    tau_group,
)
from .modular import (
    ModularPair,
    StandardSubspace,
    graph_projection,
    is_standard,
    log_integral,
    log_monotone_check,
    modular_pair,
    random_standard_subspace,
    standard_from_pair,
)
from .numkit import DEFAULT_TOL, Tolerance
from .roots import RootDatum, c_max, find_adapted_x0, root_decomposition
from .semigroup import (
    PolarFactorization,
    TriangularFactorization,
    member_P,
    member_ShC,
    member_decomposed,
    polar_factor,
    triangular_factor,
)
from .verify import SUITE_NAMES, run_suite

__version__ = "0.1.0"

__all__ = [
    "CatalogEntry",
    "Cone",
    "DEFAULT_TOL",
    "DEMO_NAMES",
    "ENTRY_NAMES",
    "Grade3Error",
    "Grading",
    "GroupElement",
    "LieAlgebraSpec",
    "ModularPair",
    "PolarFactorization",
    "RootDatum",
    "SUITE_NAMES",
    "StandardSubspace",
    "Tolerance",
    "TriangularFactorization",
    "__version__",
    "ad_image",
    "adjoint",
    "c_max",
    "find_adapted_x0",
    "get_entry",
    "grade_by",
    "graph_projection",
    "is_standard",
    "log_integral",
    "log_monotone_check",
    "member_P",
    "member_ShC",
    "member_decomposed",
    "modular_pair",
    "polar_factor",
    "random_standard_subspace",
    "root_decomposition",
    "run_suite",
    "sharp",
    "standard_from_pair",
    "tau_group",
    "triangular_factor",
]
