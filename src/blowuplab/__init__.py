"""Numerical laboratory for the ODE family u'' = A u u' + B u^3.

``import blowuplab`` loads no numpy: the eager modules import it where
they build an array.  The leaf modules ``diagnostics``, ``closed_forms``
and ``colehopf``, which no other module imports, load on first access to
one of their names or to the module itself (PEP 562).
"""

import importlib

# eager: integrate and classify are also the names of functions exported
# here, and importing a submodule binds its module over a lazily bound name
from .classify import Verdict, VerdictCheck, classify, verify_verdict
from .elliptic import F_half, K_agm, lemniscate_quarter_period, sl
from .errors import BlowupLabError, DomainError, Inconclusive, NonFiniteError, StageSolveFailure
from .exact import period
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

# exported name -> the leaf module that defines it
_LAZY = {
    **dict.fromkeys(("Lemniscatic", "eval_closed_form"), "closed_forms"),
    **dict.fromkeys(("ProfileF", "eq0_residual_fd", "eq0_residual_from_u", "reconstruct_f"), "colehopf"),
    **dict.fromkeys(("DiagnosticsReport", "check_gk_identity", "cumulative_u_integral", "diagnostics_report",
                     "energy", "energy_drift", "g_k"), "diagnostics"),
}

__all__ = [
    "Verdict", "VerdictCheck", "classify", "verify_verdict",
    "F_half", "K_agm", "lemniscate_quarter_period", "sl",
    "BlowupLabError", "DomainError", "Inconclusive", "NonFiniteError", "StageSolveFailure",
    "period",
    "IntegrateOptions", "IntegratorKind", "Termination", "Trajectory", "estimate_blowup_time", "integrate",
    "quadrature_blowup_time", "step_gauss6", "step_rk4",
    "OdeParams", "State", "params_from_coeffs", "params_from_dimension", "rhs",
    *_LAZY,
]

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _LAZY.values():  # blowuplab.diagnostics and its kin: the leaf module itself
        return importlib.import_module(f".{name}", __name__)
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
