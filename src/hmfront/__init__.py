"""Pareto-front approximation for higher-moment portfolio selection.

The package estimates exact sample moment tensors from return data, defines
the mean-variance-skewness(-kurtosis) multi-objective portfolio problem,
and offers two front drivers (an adaptive epsilon-constraint grid and a
multi-start predictor-corrector tracer) plus the classical scalarization
family (shortage function, NBI, Pascoletti-Serafini, polynomial goal
programming) with numerically checked parameter maps between them.
"""

from .errors import (
    ConfigError,
    CorrectorStallError,
    DataError,
    HmfrontError,
    InsufficientDataError,
    MeasureUndefinedError,
    MultistartError,
    ParameterError,
    ShapeError,
    SolverError,
)
from .moments import (
    MomentPoint,
    MomentSet,
    ObjectiveVector,
    ReturnsMatrix,
    compute_moments,
    load_returns_csv,
    portfolio_stats,
    portfolio_stats_from_returns,
)
from .problem import (
    OBJECTIVE_SENSES,
    PortfolioMop,
    UtilityParams,
    iterative_utility_optimize,
    utility_objective,
    utility_optimize,
)
from .nlp import (
    NlpProblem,
    RowBlock,
    ScalarSolution,
    SolveStatus,
    solve,
    solve_multistart,
)
from .scalarization import (
    AnchorSet,
    NbiParams,
    PgpKktReport,
    PgpParams,
    SfParams,
    SpParams,
    check_pgp_kkt,
    compute_anchors,
    map_nbi_to_msf,
    map_nbi_to_sp,
    map_sf_to_sp,
    minimize_objective,
    nbi_params,
    pgp_efficient_scale,
    pgp_scale_factor,
    solve_msf,
    solve_nbi,
    solve_pgp,
    solve_sf,
    solve_sp,
)
from .epsilon import (
    EpsilonGrid,
    FrontArchive,
    RefinementRequest,
    build_grid,
    epsilon_as_sp,
    refine,
    run_adaptive_epsilon,
    solve_grid,
)
from .tracer import KktPoint, SmoothMop, TangentFrame, TracerConfig, corrector, predictor, tangent_frame, trace
from .quality import QualityReport, coverage_error, dominance_filter, quality_report, uniformity
from .fronts import FrontApproximation, FrontPoint
from .synthetic import symmetric_returns, synthetic_returns

__version__ = "0.1.0"
