"""entroflow: entropy-gradient flow on exponential-family state manifolds.

Builds maximum-entropy state manifolds from exponential families, equips
them with the Fisher-Rao metric, and integrates the unique unit-speed flow
along the entropy gradient in intrinsic time, including transport
coefficient extraction and conservation-constrained relaxation of coupled
systems.
"""

__version__ = "0.1.0"

from .errors import (
    AtEquilibriumError,
    DomainError,
    EntroflowError,
    IllConditionedError,
    InfeasibleMeanError,
    MonotonicityError,
    NoConvergenceError,
    ParseError,
    SingularModelError,
    StepCollapseError,
    ValidationError,
)
from .family import (
    BernoulliFamily,
    ExponentialFamily,
    GaussianMeanFamily,
    IdealGasFamily,
    TabulatedFamily,
)
from .config import tabulated_from_json
from .geometry import (
    FamilyManifold,
    ManifoldPoint,
    StateManifold,
    as_manifold,
    christoffel,
    covariant_acceleration,
    field_strength,
    unit_velocity,
)
from .flow import (
    EntropyProductionReport,
    Trajectory,
    clock_invert,
    entropy_production_check,
    integrate,
    write_trajectory_csv,
)
from .coupled import CompositeSystem
from .onsager import (
    OnsagerReport,
    empirical_report,
    onsager_matrix,
    write_onsager_json,
)

__all__ = [
    "__version__",
    # errors
    "EntroflowError",
    "DomainError",
    "SingularModelError",
    "InfeasibleMeanError",
    "NoConvergenceError",
    "AtEquilibriumError",
    "StepCollapseError",
    "MonotonicityError",
    "IllConditionedError",
    "ParseError",
    "ValidationError",
    # families
    "ExponentialFamily",
    "TabulatedFamily",
    "BernoulliFamily",
    "GaussianMeanFamily",
    "IdealGasFamily",
    "tabulated_from_json",
    # geometry
    "ManifoldPoint",
    "StateManifold",
    "FamilyManifold",
    "as_manifold",
    "christoffel",
    "unit_velocity",
    "covariant_acceleration",
    "field_strength",
    # flow
    "Trajectory",
    "integrate",
    "entropy_production_check",
    "EntropyProductionReport",
    "clock_invert",
    "write_trajectory_csv",
    # coupled
    "CompositeSystem",
    # onsager
    "OnsagerReport",
    "onsager_matrix",
    "empirical_report",
    "write_onsager_json",
]
