"""The record types' contract: construction, repr, equality, hashing,
immutability, validation, and pickle and copy round trips."""
import copy
import math
import pickle

import numpy as np
import pytest

from blowuplab import (
    DiagnosticsReport,
    DomainError,
    IntegrateOptions,
    IntegratorKind,
    NonFiniteError,
    OdeParams,
    State,
    Termination,
    Trajectory,
    Verdict,
    VerdictCheck,
)

OPTS_DEFAULTS = dict(h0=1e-3, t_end=1.0, blowup_threshold=1e8, local_tol=1e-10, h_min=1e-14, max_steps=10**7,
                     record_every=1, h_cap_factor=0.1, h_max=None)

# (record, the same record built by keyword, its repr): every frozen type,
# each by positional arguments with the defaults left out
FROZEN = [
    (OdeParams(1.0, 2.0), OdeParams(B=2.0, A=1.0, m=None),
     "OdeParams(A=1.0, B=2.0, m=None, disc=17.0, k_minus=-1.2807764064044151, k_plus=0.7807764064044151)"),
    (OdeParams(0.5, -1.0, 5.0), OdeParams(m=5.0, A=0.5, B=-1.0),
     "OdeParams(A=0.5, B=-1.0, m=5.0, disc=-7.75, k_minus=None, k_plus=None)"),
    (State(0.0, 0.5, -0.3), State(v=-0.3, u=0.5, t=0.0), "State(t=0.0, u=0.5, v=-0.3)"),
    (IntegrateOptions(), IntegrateOptions(**OPTS_DEFAULTS),
     "IntegrateOptions(h0=0.001, t_end=1.0, blowup_threshold=100000000.0, local_tol=1e-10, h_min=1e-14, "
     "max_steps=10000000, record_every=1, h_cap_factor=0.1, h_max=None)"),
    (IntegrateOptions(1e-2, -3.0, 1e3, 1e-8, 1e-12, 50, 2, 0.2, 0.5),
     IntegrateOptions(h_max=0.5, h_cap_factor=0.2, record_every=2, max_steps=50, h_min=1e-12, local_tol=1e-8,
                      blowup_threshold=1e3, t_end=-3.0, h0=1e-2),
     "IntegrateOptions(h0=0.01, t_end=-3.0, blowup_threshold=1000.0, local_tol=1e-08, h_min=1e-12, "
     "max_steps=50, record_every=2, h_cap_factor=0.2, h_max=0.5)"),
    (Termination("completed"), Termination(kind="completed", t_estimate=None, direction=None, t_last=None),
     "Termination(kind='completed', t_estimate=None, direction=None, t_last=None)"),
    (Termination("blowup", 0.75, -1, -0.5), Termination(t_last=-0.5, direction=-1, t_estimate=0.75, kind="blowup"),
     "Termination(kind='blowup', t_estimate=0.75, direction=-1, t_last=-0.5)"),
    (Verdict("trivial", "fixed-point"), Verdict(basis="fixed-point", kind="trivial", detail=None),
     "Verdict(kind='trivial', basis='fixed-point', detail=None)"),
    (VerdictCheck(True, "nothing claimed"),
     VerdictCheck(reason="nothing claimed", passed=True, t_blow_forward=None, t_blow_backward=None, max_abs_u=None),
     "VerdictCheck(passed=True, reason='nothing claimed', t_blow_forward=None, t_blow_backward=None, max_abs_u=None)"),
    (VerdictCheck(False, "blows up at 1.5", 1.5, None, 1000.0),
     VerdictCheck(max_abs_u=1000.0, t_blow_backward=None, t_blow_forward=1.5, reason="blows up at 1.5", passed=False),
     "VerdictCheck(passed=False, reason='blows up at 1.5', t_blow_forward=1.5, t_blow_backward=None, "
     "max_abs_u=1000.0)"),
    (DiagnosticsReport(1e-12, math.inf), DiagnosticsReport(energy_drift_rel=math.inf, gk_identity_residual_max=1e-12),
     "DiagnosticsReport(gk_identity_residual_max=1e-12, energy_drift_rel=inf)"),
]
IDS = [r for _, _, r in FROZEN]


@pytest.mark.parametrize("rec, by_keyword, text", FROZEN, ids=IDS)
def test_frozen_records_construct_compare_and_hash(rec, by_keyword, text):
    assert repr(rec) == text
    assert rec == by_keyword and not rec != by_keyword
    assert hash(rec) == hash(by_keyword)
    others = [r for r, _, _ in FROZEN if r is not rec]
    assert all(rec != other and not rec == other for other in others)
    assert rec != text and rec != tuple(text)


@pytest.mark.parametrize("rec, by_keyword, text", FROZEN, ids=IDS)
def test_frozen_records_refuse_assignment_and_deletion(rec, by_keyword, text):
    name = text[text.index("(") + 1:text.index("=")]
    before = getattr(rec, name)
    with pytest.raises(AttributeError):
        setattr(rec, name, before)
    with pytest.raises(AttributeError):
        delattr(rec, name)
    with pytest.raises(AttributeError):
        rec.no_such_field = 1.0
    assert getattr(rec, name) is before and repr(rec) == text


@pytest.mark.parametrize("rec, by_keyword, text", FROZEN, ids=IDS)
def test_frozen_records_round_trip(rec, by_keyword, text):
    for twin in (pickle.loads(pickle.dumps(rec)), copy.copy(rec), copy.deepcopy(rec)):
        assert type(twin) is type(rec) and twin == rec and hash(twin) == hash(rec) and repr(twin) == text
        with pytest.raises(AttributeError):
            setattr(twin, text[text.index("(") + 1:text.index("=")], 0.0)


def test_verdict_detail_keeps_its_dict():
    detail = {"t_bound": 0.25}
    v = Verdict("blowup_forward", "w-equation", detail)
    assert repr(v) == "Verdict(kind='blowup_forward', basis='w-equation', detail={'t_bound': 0.25})"
    assert v.detail is detail and v == Verdict("blowup_forward", "w-equation", {"t_bound": 0.25})
    assert v != Verdict("blowup_forward", "w-equation", {"t_bound": 0.5})
    with pytest.raises(TypeError):  # the dict field makes the record unhashable
        hash(v)
    for twin in (pickle.loads(pickle.dumps(v)), copy.copy(v), copy.deepcopy(v)):
        assert twin == v
    assert copy.copy(v).detail is detail and copy.deepcopy(v).detail is not detail


def test_records_validate_as_before():
    with pytest.raises(DomainError):
        OdeParams(math.nan, 1.0)
    with pytest.raises(DomainError):
        OdeParams(1.0, math.inf, 5.0)
    with pytest.raises(TypeError):
        OdeParams(1.0, 2.0, None, 17.0)  # disc is computed, never passed
    with pytest.raises(TypeError):
        OdeParams(1.0)
    for bad in ((math.inf, 0.0, 0.0), (0.0, math.nan, 0.0), (0.0, 0.0, -math.inf)):
        with pytest.raises(NonFiniteError):
            State(*bad)
    with pytest.raises(TypeError):
        State(0.0, 1.0)
    for bad in (dict(h0=0.0), dict(blowup_threshold=math.inf), dict(local_tol=-1e-10), dict(h_min=math.nan),
                dict(h_cap_factor=0.0), dict(h_max=0.0), dict(h_max=math.inf), dict(t_end=math.nan),
                dict(max_steps=1.5), dict(record_every=True), dict(max_steps=0), dict(record_every=-1)):
        with pytest.raises(DomainError):
            IntegrateOptions(**bad)
    with pytest.raises(TypeError):
        IntegrateOptions(no_such_option=1.0)
    for cls in (Termination, Verdict, VerdictCheck, DiagnosticsReport):
        with pytest.raises(TypeError):
            cls()


def test_trajectory_is_mutable_and_unhashable():
    p, term, opts = OdeParams(1.0, 2.0), Termination("completed"), IntegrateOptions()
    traj = Trajectory(p, ("row",), term, IntegratorKind.RK4, opts, 3, (0.0,))
    assert repr(traj) == (
        "Trajectory(params=OdeParams(A=1.0, B=2.0, m=None, disc=17.0, k_minus=-1.2807764064044151, "
        "k_plus=0.7807764064044151), states=('row',), termination=Termination(kind='completed', t_estimate=None, "
        "direction=None, t_last=None), integrator=<IntegratorKind.RK4: 'rk4'>, options=IntegrateOptions(h0=0.001, "
        "t_end=1.0, blowup_threshold=100000000.0, local_tol=1e-10, h_min=1e-14, max_steps=10000000, record_every=1, "
        "h_cap_factor=0.1, h_max=None), n_steps=3, t_residual=(0.0,))"
    )
    assert traj == Trajectory(params=p, states=("row",), termination=term, integrator=IntegratorKind.RK4,
                              options=opts, n_steps=3, t_residual=(0.0,))
    assert traj != Trajectory(p, ("row",), term, IntegratorKind.RK4, opts, 4, (0.0,))
    with pytest.raises(TypeError):
        hash(traj)
    traj.n_steps = 5
    traj.t_residual = (1e-20,)
    assert (traj.n_steps, traj.t_residual) == (5, (1e-20,))
    with pytest.raises(TypeError):
        Trajectory(p, ("row",), term, IntegratorKind.RK4)


def test_trajectory_defaults_and_round_trips():
    states = np.rec.fromarrays([[0.0, 0.5], [1.0, 1.25], [0.5, 0.5]], names="t,u,v")
    traj = Trajectory(OdeParams(0.0, 2.0), states, Termination("blowup", 0.7, 1, 0.5), IntegratorKind.GAUSS6,
                      IntegrateOptions(t_end=2.0))
    assert traj.n_steps == 0 and traj.t_residual.tolist() == [0.0, 0.0]
    assert traj.t.tolist() == [0.0, 0.5] and traj.u.tolist() == [1.0, 1.25] and traj.v.tolist() == [0.5, 0.5]
    for twin in (pickle.loads(pickle.dumps(traj)), copy.copy(traj), copy.deepcopy(traj)):
        assert type(twin) is Trajectory
        assert (twin.params, twin.termination, twin.integrator, twin.options, twin.n_steps) == (
            traj.params, traj.termination, traj.integrator, traj.options, traj.n_steps)
        assert np.array_equal(twin.states, traj.states) and np.array_equal(twin.t_residual, traj.t_residual)
        assert twin.u.tolist() == [1.0, 1.25]
    assert copy.copy(traj).states is states and copy.deepcopy(traj).states is not states
