from __future__ import annotations

import cmath
import math

import pytest

from faultloc import (
    CaseError,
    Channel,
    CurrentPlacement,
    DegenerateChannelError,
    FaultScenario,
    FaultType,
    HybridPlacement,
    LinearDependenceError,
    LinearLaw,
    MeasurementTaps,
    Method,
    VoltagePlacement,
    branch_coefficients,
    current_channel,
    estimate_for_placement,
    feasibility_check,
    locate,
    percent_error,
    rank_line_hypotheses,
    transfer_coefficients,
    voltage_channel,
)

from oracles import all_simple_paths


# ---------------------------------------------------------------------------
# Voltage-ratio method
# ---------------------------------------------------------------------------


def test_ssvm_fault_at_line_start(fourbus, fourbus_study):
    ms = fourbus_study.measurements(FaultScenario("T2", 0.0, FaultType.LG, 0.5))
    est = estimate_for_placement(
        fourbus, fourbus_study.zbus(1), "T2", VoltagePlacement(1, 2), ms, Method.SSVM
    )
    assert abs(est.m - 0.0) < 1e-9
    assert est.in_range


def test_ssvm_recovers_oracle_scenario(fourbus, fourbus_study):
    ms = fourbus_study.measurements(FaultScenario("T2", 0.56, FaultType.LG, 1.0))
    est = estimate_for_placement(
        fourbus, fourbus_study.zbus(1), "T2", VoltagePlacement(1, 2), ms, Method.SSVM
    )
    assert abs(est.m - 0.56) < 1e-9
    assert est.residual < 1e-9
    assert est.method is Method.SSVM


def test_ssvm_degenerate_channel_rejected(fourbus, fourbus_study):
    # An (almost) open fault leaves no observable signature on any channel.
    ms = fourbus_study.measurements(FaultScenario("T2", 0.5, FaultType.LG, 1e13))
    with pytest.raises(DegenerateChannelError):
        estimate_for_placement(
            fourbus, fourbus_study.zbus(1), "T2", VoltagePlacement(1, 2), ms, Method.SSVM
        )


def test_ssvm_buses_behind_bridge_are_dependent(bridge_five):
    from faultloc import FaultStudy

    study = FaultStudy(bridge_five)
    ms = study.measurements(FaultScenario("A", 0.5, FaultType.LLL, 1.0))
    with pytest.raises(LinearDependenceError):
        estimate_for_placement(
            bridge_five, study.zbus(1), "A", VoltagePlacement(4, 5), ms, Method.SSVM
        )


def test_ssvm_out_of_range_solution_is_flagged():
    # Synthetic channels consistent with a fault at m = 1.7 on the
    # hypothesized line: the estimator must report it, flagged, unclamped.
    ck, cl = LinearLaw(1.0, 1.0), LinearLaw(2.0, 0.5)
    m_true = 1.7
    ratio = ck.at(m_true) / cl.at(m_true)
    est = locate(
        Method.SSVM,
        Channel("busV", "1", 1.0 + 0j, 1.0 - ratio * 0.01),
        Channel("busV", "2", 1.0 + 0j, 1.0 - 0.01),
        ck,
        cl,
    )
    assert est.m == pytest.approx(1.7, abs=1e-9)
    assert not est.in_range
    assert "hypothesis" in est.notes


# ---------------------------------------------------------------------------
# Current-ratio method
# ---------------------------------------------------------------------------


def test_sscm_identical_parallel_branches_rejected(parallel_pair):
    from faultloc import FaultStudy

    study = FaultStudy(parallel_pair)
    ms = study.measurements(FaultScenario("T", 0.5, FaultType.LLL, 1.0))
    with pytest.raises(LinearDependenceError):
        estimate_for_placement(
            parallel_pair,
            study.zbus(1),
            "T",
            CurrentPlacement("P1", "P2"),
            ms,
            Method.SSCM,
        )


def test_sscm_recovers_oracle_scenario(fourbus, fourbus_study):
    ms = fourbus_study.measurements(FaultScenario("T2", 0.28, FaultType.LLL, 10.0))
    est = estimate_for_placement(
        fourbus,
        fourbus_study.zbus(1),
        "T2",
        CurrentPlacement("T1", "T3"),
        ms,
        Method.SSCM,
    )
    assert abs(est.m - 0.28) < 1e-9
    assert est.residual < 1e-9


# ---------------------------------------------------------------------------
# Hybrid method
# ---------------------------------------------------------------------------


def test_hybrid_fault_at_line_end(fourbus, fourbus_study):
    ms = fourbus_study.measurements(FaultScenario("T2", 1.0, FaultType.LL, 0.5))
    est = estimate_for_placement(
        fourbus, fourbus_study.zbus(1), "T2", HybridPlacement("T1", 2), ms,
        Method.HYBRID_DIRECT,
    )
    assert abs(est.m - 1.0) < 1e-9


def test_hybrid_recovers_ieee14_scenario(ieee14, ieee14_study):
    ms = ieee14_study.measurements(FaultScenario("1-5", 0.5, FaultType.LLL, 10.0))
    est = estimate_for_placement(
        ieee14, ieee14_study.zbus(1), "1-5", HybridPlacement("2-3", 1), ms,
        Method.HYBRID_DIRECT,
    )
    assert abs(est.m - 0.5) < 1e-9


def test_hybrid_quadratic_double_root():
    # beta(m) = m - 0.5 against a constant voltage law with zero ratio:
    # the quadratic is (m - 0.5)^2, a double root at the fault.
    est = locate(
        Method.HYBRID_QUAD,
        Channel("branchI", "T1", 0j, 0j),
        Channel("busV", "2", 1.0 + 0j, 0.7 + 0j),
        LinearLaw(-0.5 + 0j, 1.0 + 0j),
        LinearLaw(1.0 + 0j, 0j),
    )
    assert est.m == pytest.approx(0.5, abs=1e-12)
    assert not est.ambiguous
    assert est.residual < 1e-12


def test_hybrid_quadratic_linear_fallback():
    # Engineered so the quadratic term cancels: c2 = 0, c1 = 2, c0 = -1.
    est = locate(
        Method.HYBRID_QUAD,
        Channel("branchI", "T1", 0j, 0.2 + 0j),
        Channel("busV", "2", 1.0 + 0j, 1.2 + 0j),
        LinearLaw(0j, 1.0 + 0j),
        LinearLaw(-1.0 + 0j, 1.0 + 0j),
    )
    assert est.m == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("ftype", list(FaultType))
@pytest.mark.parametrize("rf", [1.0, 10.0])
def test_hybrid_quadratic_agrees_with_direct(fourbus, fourbus_study, ftype, rf):
    zb = fourbus_study.zbus(1)
    for m in (0.2, 0.56, 0.8):
        ms = fourbus_study.measurements(FaultScenario("T2", m, ftype, rf))
        placement = HybridPlacement("T1", 2)
        direct = estimate_for_placement(
            fourbus, zb, "T2", placement, ms, Method.HYBRID_DIRECT
        )
        quad = estimate_for_placement(
            fourbus, zb, "T2", placement, ms, Method.HYBRID_QUAD
        )
        assert abs(direct.m - quad.m) < 1e-9
        assert quad.in_range
        assert not quad.ambiguous or abs(quad.m - direct.m) < 1e-9


def test_methods_exact_with_circulating_prefault_flow():
    """Angle-shifted EMFs load the network before the fault; the estimators
    work on changes, so the nonzero pre-fault flow must cancel exactly."""
    from faultloc import FaultStudy, parse_case

    net = parse_case(
        """
        base 100 230 50
        bus 1
        bus 2
        bus 3
        bus 4
        line T1 3 1 21.4  0.096188 0.279293 0.243156 0.822918
        line T2 2 1 178.6 0.015455 0.116066 0.098871 0.365188
        line T3 2 4 91.4  0.096188 0.279293 0.243156 0.822918
        source 3 0.0006 0.037343 1.02 0
        source 4 0.0009 0.05423  0.98 -12
        """
    )
    study = FaultStudy(net)
    assert abs(study.prefault[1]["T2"]) > 1e-4  # the tie line is loaded
    ms = study.measurements(FaultScenario("T2", 0.64, FaultType.LLG, 5.0))
    zb = study.zbus(1)
    for method, placement in [
        (Method.SSVM, VoltagePlacement(1, 2)),
        (Method.SSCM, CurrentPlacement("T1", "T3")),
        (Method.HYBRID_DIRECT, HybridPlacement("T1", 2)),
        (Method.HYBRID_QUAD, HybridPlacement("T1", 2)),
    ]:
        est = estimate_for_placement(net, zb, "T2", placement, ms, method)
        assert abs(est.m - 0.64) < 1e-9, method


# ---------------------------------------------------------------------------
# Wiring and invariances
# ---------------------------------------------------------------------------


def test_pair_kind_and_token_validation():
    v = Channel("busV", "1", 1 + 0j, 0.9 + 0j, token="a")
    i = Channel("branchI", "T1", 0j, 0.1j, token="a")
    laws = (LinearLaw(1 + 0j, 1 + 0j), LinearLaw(2 + 0j, 0.5 + 0j))
    with pytest.raises(ValueError, match="channel kinds"):
        locate(Method.SSVM, v, i, *laws)
    with pytest.raises(ValueError, match="channel kinds"):
        locate(Method.HYBRID_DIRECT, v, i, *laws)  # current over voltage
    with pytest.raises(ValueError, match="not synchronized"):
        locate(Method.SSCM, i, Channel("branchI", "T3", 0j, 0.1j, token="b"), *laws)
    locate(Method.HYBRID_DIRECT, i, v, *laws)  # matching kinds and tokens solve


@pytest.mark.parametrize(
    "method,kinds",
    [
        (Method.SSVM, ("busV", "busV")),
        (Method.HYBRID_DIRECT, ("branchI", "busV")),
        (Method.HYBRID_QUAD, ("branchI", "busV")),
    ],
)
def test_near_proportional_laws_are_dependent(method, kinds):
    # Relative determinant about 1e-10: far below the rank tolerance, yet the
    # ratio solve alone would accept it and return an arbitrary position.
    a = LinearLaw(1.0 + 0.3j, 0.5 - 0.2j)
    b = LinearLaw(2.0 * a.b, 2.0 * a.c * (1.0 + 1e-10))
    numer = Channel(kinds[0], "x", 0j, a.at(0.4) * 1e-3)
    denom = Channel(kinds[1], "y", 0j, b.at(0.4) * 1.0001e-3)
    with pytest.raises(LinearDependenceError):
        locate(method, numer, denom, a, b)


def test_estimate_for_placement_type_checks(fourbus, fourbus_study):
    ms = fourbus_study.measurements(FaultScenario("T2", 0.5, FaultType.LG, 1.0))
    with pytest.raises(TypeError):
        estimate_for_placement(
            fourbus, fourbus_study.zbus(1), "T2", VoltagePlacement(1, 2), ms, Method.SSCM
        )
    with pytest.raises(TypeError):
        estimate_for_placement(
            fourbus, fourbus_study.zbus(1), "T2", CurrentPlacement("T1", "T3"), ms,
            Method.HYBRID_DIRECT,
        )


def test_scale_invariance_of_all_methods(fourbus, fourbus_study):
    """A common complex rescaling of all phasors must not move any estimate."""
    zb = fourbus_study.zbus(1)
    ms = fourbus_study.measurements(FaultScenario("T2", 0.56, FaultType.LLG, 10.0))
    scale = cmath.rect(0.83, math.radians(25.0))

    def scaled(ch: Channel) -> Channel:
        return Channel(ch.kind, ch.ident, ch.pre * scale, ch.fault * scale, ch.token)

    line = fourbus.line("T2")
    ck = transfer_coefficients(zb, line, 1)
    cl = transfer_coefficients(zb, line, 2)
    b1 = branch_coefficients(zb, line, fourbus.line("T1"))
    b3 = branch_coefficients(zb, line, fourbus.line("T3"))
    vk, vl = voltage_channel(ms, 1), voltage_channel(ms, 2)
    i1, i3 = current_channel(ms, "T1"), current_channel(ms, "T3")

    runs = [
        (Method.SSVM, vk, vl, ck, cl),
        (Method.SSCM, i1, i3, b1, b3),
        (Method.HYBRID_DIRECT, i1, vl, b1, cl),
        (Method.HYBRID_QUAD, i1, vl, b1, cl),
    ]
    baselines = [locate(method, a, b, la, lb) for method, a, b, la, lb in runs]
    rescaled = [
        locate(method, scaled(a), scaled(b), la, lb) for method, a, b, la, lb in runs
    ]
    for a, b in zip(baselines, rescaled):
        assert abs(a.m - b.m) < 1e-12


def test_channel_isolation_is_bit_exact(fourbus, fourbus_study):
    """Distorting channels a method does not consume leaves it bit-identical."""
    from faultloc import Distortion, apply_distortion

    zb = fourbus_study.zbus(1)
    taps = MeasurementTaps(faulted_segments=True)
    ms = fourbus_study.measurements(FaultScenario("T2", 0.56, FaultType.LLL, 1.0), taps)
    noisy = apply_distortion(
        ms,
        [
            Distortion(kind="branchI", channel="T2@from", clamp_pu=1e-6),
            Distortion(kind="busV", channel="3", gain=1.3),
            Distortion(kind="branchI", channel="T3", gain=0.7, phase_deg=12.0),
        ],
    )
    placement = HybridPlacement("T1", 2)  # consumes only T1 and bus 2
    a = estimate_for_placement(fourbus, zb, "T2", placement, ms, Method.HYBRID_DIRECT)
    b = estimate_for_placement(fourbus, zb, "T2", placement, noisy, Method.HYBRID_DIRECT)
    assert a == b
    a = estimate_for_placement(
        fourbus, zb, "T2", VoltagePlacement(1, 2), ms, Method.SSVM
    )
    b = estimate_for_placement(
        fourbus, zb, "T2", VoltagePlacement(1, 2), noisy, Method.SSVM
    )
    assert a == b


# ---------------------------------------------------------------------------
# Feasibility
# ---------------------------------------------------------------------------


def test_feasibility_buses_either_side(fourbus):
    ok, reason = feasibility_check(fourbus, "T2", VoltagePlacement(1, 2))
    assert ok and reason == "ok"


def test_feasibility_bridge_counterexample(bridge_five):
    ok, reason = feasibility_check(bridge_five, "A", VoltagePlacement(4, 5))
    assert not ok
    assert "simple path" in reason

    # Exhaustive enumeration on the graph with the fault node inserted on
    # line A confirms no simple path between buses 4 and 5 reaches it.
    adj = {1: [], 2: [], 3: [], 4: [], 5: [], "R": []}
    edges = [(1, "R"), ("R", 2), (2, 3), (3, 1), (3, 4), (4, 5)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    paths = all_simple_paths(adj, 4, 5)
    assert paths  # paths exist...
    assert not any("R" in p for p in paths)  # ...but none crosses the fault


def test_feasibility_identical_parallel_pair(parallel_pair):
    ok, reason = feasibility_check(parallel_pair, "T", CurrentPlacement("P1", "P2"))
    assert not ok
    assert "dependent" in reason


def test_feasibility_accepts_study_placements(fourbus, ieee14):
    fourbus_placements = [
        VoltagePlacement(1, 2),
        CurrentPlacement("T1", "T3"),
        HybridPlacement("T1", 2),
    ]
    for placement in fourbus_placements:
        ok, reason = feasibility_check(fourbus, "T2", placement)
        assert ok, reason
    ieee14_placements = [
        ("1-5", VoltagePlacement(1, 5)),
        ("1-5", HybridPlacement("2-3", 1)),
        ("12-13", VoltagePlacement(12, 13)),
        ("12-13", HybridPlacement("13-14", 12)),
        ("9-14", VoltagePlacement(9, 14)),
        ("9-14", HybridPlacement("13-14", 9)),
    ]
    for line_id, placement in ieee14_placements:
        ok, reason = feasibility_check(ieee14, line_id, placement)
        assert ok, reason


def test_feasibility_infeasible_voltage_pair_same_side(fourbus):
    # Buses 3 and 1 sit on the same side of T2; the only simple path between
    # them is the direct line T1.
    ok, reason = feasibility_check(fourbus, "T2", VoltagePlacement(3, 1))
    assert not ok


def test_bad_terminal_suffix_is_rejected_by_every_entry_point(fourbus, fourbus_study):
    placement = CurrentPlacement("T1@bogus", "T3")
    ms = fourbus_study.measurements(FaultScenario("T2", 0.4, FaultType.LG, 1.0))
    calls = [
        lambda: feasibility_check(fourbus, "T2", placement),
        lambda: estimate_for_placement(
            fourbus, fourbus_study.zbus(1), "T2", placement, ms, Method.SSCM
        ),
        lambda: rank_line_hypotheses(fourbus, ms, placement, Method.SSCM),
    ]
    for call in calls:
        with pytest.raises(CaseError, match="'T1@bogus'"):
            call()


def test_feasibility_unknown_measurement_bus(fourbus):
    from faultloc import CaseError

    with pytest.raises(CaseError, match="unknown bus"):
        feasibility_check(fourbus, "T2", VoltagePlacement(99, 2))


# ---------------------------------------------------------------------------
# Error metric
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "actual,estimated,expected",
    [
        (100.0, 102.159215520, 1.20896726),
        (100.0, 102.390658723, 1.33855472),
        (100.0, 99.8788673479, 0.06782342),
        (100.0, 99.5493028403, 0.2523499),
        (50.0, 51.2426146317, 0.695752875),
    ],
)
def test_percent_error_reference_rows(actual, estimated, expected):
    assert percent_error(actual, estimated, 178.6) == pytest.approx(expected, abs=1e-6)


def test_percent_error_trivial_and_validation():
    assert percent_error(100.0, 100.0, 178.6) == 0.0
    with pytest.raises(ValueError):
        percent_error(1.0, 2.0, 0.0)


# ---------------------------------------------------------------------------
# Line identification sweep
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "method,placement",
    [
        (Method.SSVM, VoltagePlacement(1, 2)),
        (Method.HYBRID_DIRECT, HybridPlacement("T1", 2)),
    ],
)
def test_rank_line_hypotheses_finds_true_line(fourbus, fourbus_study, method, placement):
    ms = fourbus_study.measurements(
        FaultScenario("T2", 0.56, FaultType.LG, 1.0),
        MeasurementTaps(faulted_segments=True),
    )
    ranked = rank_line_hypotheses(fourbus, ms, placement, method, fourbus_study.zbus(1))
    assert ranked
    top_line, top_est = ranked[0]
    assert top_line == "T2"
    assert abs(top_est.m - 0.56) < 1e-9
    assert top_est.in_range
