"""Energy-stable finite-difference simulation of the functionalized
Cahn-Hilliard equation with logarithmic Flory-Huggins potential."""

__version__ = "0.1.0"

from .grid import (
    Grid,
    SpectralWorkspace,
    face_avg,
    face_diff,
    cell_avg,
    cell_diff,
    laplacian,
    inner,
    norm,
)
from .potential import PhysParams, PotentialDomainError, admissible, mixing_family
from .energy import (
    EnergyBreakdown,
    energy_total,
    var_convex,
    var_concave,
    nonlinear_map,
    rhs_explicit,
    chemical_potential,
)
from .solver import (
    SolverConfig,
    SolveReport,
    SolverDivergedError,
    LineSearchError,
    precond_solve,
    line_minimize,
    psd_solve,
)
from .dynamics import (
    AdaptiveConfig,
    DiagnosticsRecord,
    StabilityViolationError,
    step,
    advance_fixed,
    advance_adaptive,
)
from .scenarios import (
    Scenario,
    preset,
    well_depth,
    init_pearling,
    init_meandering,
    init_spinodal,
    manufactured_state,
    manufactured_forcing,
)
from .output import write_snapshot, read_snapshot, DiagnosticsWriter
