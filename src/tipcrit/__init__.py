"""tipcrit: critical forcing speeds for rate-induced tipping in scalar ODEs.

Given a scalar field f with an attracting rest point, the package computes
the basin geometry, the fuel cost curve of constant-drive escapes, and the
critical speed m_c(L) below which no forcing of arclength L can tip the
system; it constructs the optimal bang-bang forcing that attains the bound
and classifies arbitrary forcings by simulating their pullback trajectories.
"""
from .field import (
    BasinGeometry,
    EmptyBasinError,
    EquilibriumPoint,
    FieldAnalysisError,
    FieldExpr,
    NoEquilibriaError,
    NonHyperbolicError,
    ParseError,
    ScalarField,
    analyze_basin,
    differentiate,
    find_equilibria,
    parse_field,
)
from .forcing import (
    ForcingProfile,
    PiecewiseLinear,
    TanhRamp,
    make_bang_bang,
    make_piecewise_linear_ramp,
    make_tanh_ramp,
    parse_forcing_spec,
    sample_random_forcing,
)
from .integrate import (
    IntegrationError,
    IntegrationSettings,
    QuadratureFault,
    SignChangeFault,
    Trajectory,
    first_passage_time,
    integrate_pieces,
)
from .control import (
    BangBangControl,
    CostCurve,
    CriticalRate,
    InfeasibleBudgetError,
    InfeasibleSideError,
    LowerBoundReport,
    cost,
    critical_rate,
    optimal_bang_bang,
    prototype_critical_rate_smooth,
    prototype_critical_slope,
    sample_cost_curve,
    verify_lower_bound,
)
from .classify import (
    StraddleError,
    ThresholdBracket,
    TippingOutcome,
    boundary_arrival,
    classify,
    pullback_start,
    threshold_bracket,
)
from .harness import (
    PrototypeRow,
    SweepRow,
    VerificationFailure,
    VerificationReport,
    build_field,
    prototype_table,
    run_sweep,
    run_verification,
)

__version__ = "0.1.0"
