"""Reduced incompressible Euler flows on compact cohomogeneity-one manifolds."""

from .coho_geometry import (
    MetricProfile,
    OrbitSpace,
    RoundS3T2Profile,
    TabulatedProfile,
    berger_circle,
    validate_profile,
    warped_torus,
)
from .diagnostics import (
    RunReport,
    c1_monitor,
    conservation_report,
    divergence_residual,
    endpoint_taylor_monitor,
    energy,
    pointwise_speed,
)
from .errors import (
    CohoEulerError,
    ConfigError,
    ConfigParseError,
    DomainError,
    InputError,
    NumericalFailureError,
    StructureError,
    UnsupportedConfigurationError,
)
from .homogeneous_geometry import (
    InvariantMetric,
    check_metric_invariance,
    invariant_connection,
    orbit_volume,
)
from .lie_core import (
    LieAlgebraSpec,
    ReductiveSplit,
    abelian,
    bracket,
    direct_sum,
    reductive_split,
    su2,
    validate_structure,
)
from .reduced_euler import (
    PressureField,
    ReducedState,
    SolverConfig,
    integrate,
    pressure_reconstruct,
    rhs,
    step_rk4,
)

__version__ = "0.1.0"
