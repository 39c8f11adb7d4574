"""Numerical laboratory for the ODE family u'' = A u u' + B u^3."""

from .classify import PeriodReport, Verdict, VerdictCheck, classify, detect_period, verify_verdict
from .closed_forms import ClosedForm, Lemniscatic, PoleAt, Riccati, eval_closed_form, riccati_poles
from .colehopf import ProfileF, eq0_residual_fd, eq0_residual_from_u, reconstruct_f
from .diagnostics import (
    DiagnosticsReport,
    check_gk_identity,
    cumulative_u_integral,
    diagnostics_report,
    energy,
    energy_drift,
    g_k,
)
from .elliptic import F_half, K_agm, lemniscate_quarter_period, sl
from .errors import (
    BlownUpTrajectory,
    BlowupLabError,
    BranchMismatch,
    DomainError,
    FitFailure,
    Inconclusive,
    InsufficientSamples,
    NonFiniteError,
    NonUniformGrid,
    NotACharacteristicRoot,
    StageSolveFailure,
)
from .integrate import (
    IntegrateOptions,
    IntegratorKind,
    Termination,
    Trajectory,
    estimate_blowup_time,
    integrate,
    quadrature_blowup_time,
    step_gauss6,
    step_rk4,
)
from .model import OdeParams, State, params_from_coeffs, params_from_dimension, rhs

__version__ = "0.1.0"
