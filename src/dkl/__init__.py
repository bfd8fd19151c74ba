"""Two-sided heat-kernel and Green-function estimates for jump processes on
the half-space with boundary-degenerate jump kernels, with the killing
constant map, an exactly computable reference process, and a numerical
verification suite for the supporting comparability lemmas."""

from .geometry import (
    BoundaryWeight,
    HalfSpacePoint,
    ModelParams,
    eval_A,
    eval_B,
    eval_J,
    lift_ed,
    stable_factor,
    standard_weight,
    survival_factor,
)
from .green import (
    GreenBreakdown,
    GreenDivergenceError,
    GreenRangeError,
    eval_Hq,
    green_by_time_integration,
    green_estimate,
    green_free,
)
from .heatkernel import (
    EstimateBreakdown,
    Regime,
    detect_regime,
    dominance_map,
    hke_closed,
    hke_unified,
    killed_hke,
    twojump_ball_integral,
)
from .inequalities import check, lemma_ids
from .killing import CShapeTable, compute_C, scan_shape, solve_q
from .oracle import (
    OracleParams,
    compare_oracle_vs_estimate,
    killed_bm_density,
    oracle_J,
    oracle_kappa,
    oracle_p,
    oracle_survival,
)
from .quadrature import NonConvergenceError, QuadratureSpec
from .report import ComparabilityReport
from .special import bessel_I, stable_density

__version__ = "0.1.0"
