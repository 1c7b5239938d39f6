"""Wide-beam array antenna power gain maximization via ADMM."""

from .arraymodel import (
    AngularGrid,
    ArrayGeometry,
    ElementPattern,
    build_gain_operators,
    build_region_operator,
    build_total_power_matrix,
    factorize,
    load_aep,
    power_gain_pattern,
    steering_matrix,
    steering_vector,
    synth_aep,
    write_aep,
)
from .engine import AdmmConfig, AdmmState, run_wosc, run_wsc
from .errors import (
    BeamgainError,
    ConfigError,
    DegenerateGeometryError,
    DomainError,
    FactorizationError,
    IngestionError,
    NumericalError,
)
from .fixtures import load_geometry_csv, nonuniform41, ula41
from .sphere import SphereSolver, secular_bisect
from .subproblems import update_g_wosc, update_gh_wsc
from .synthesis import (
    SynthesisProblem,
    SynthesisResult,
    assemble_regions,
    compute_metrics,
    gamma_from_dsll,
    scan_sweep,
    synthesize,
)

__version__ = "0.1.0"
