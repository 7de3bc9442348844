"""Shape optimization of the clamped-plate fundamental tone on masked grids."""

from platetone.constants import (
    TheoryConstants,
    alpha0,
    ball_tone_for_volume,
    compute_constants,
    eps0,
    eps1,
    eps1_effective,
    gamma_ball,
    gamma_ball_bessel,
    gamma_ball_radial,
    unit_ball_volume,
)
from platetone.field_grid import (
    Grid,
    Mask,
    ScalarField,
    ball_mask,
    boundary_nodes,
    connected_components,
    dilate,
    erode,
    gradient_field,
    make_field,
    make_grid,
    mask_from_array,
    mask_volume,
)
from platetone.biharmonic import (
    ToneResult,
    eigen_residual,
    fundamental_tone,
    rayleigh_quotient,
)
from platetone.penalty import PenaltyKind, objective, penalty_value
from platetone.diagnostics import (
    DiagnosticsReport,
    Dichotomy,
    density_quotient,
    dichotomy_check,
    estimate_doubling_sigma,
    run_diagnostics,
)
from platetone.search import (
    RunConfig,
    RunResult,
    SearchState,
    candidate_masks,
    descent_step,
    initial_mask,
    optimize,
)

__version__ = "0.1.0"
