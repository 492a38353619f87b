from __future__ import annotations

import cmath
import math
import random
import time

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from faultloc import (
    CaseError,
    CurrentPlacement,
    DegenerateChannelError,
    FaultScenario,
    FaultType,
    HybridPlacement,
    LinearDependenceError,
    MeasurementTaps,
    Method,
    VoltagePlacement,
    build_zbus,
    estimate_for_placement,
    feasibility_check,
    percent_error,
    rank_line_hypotheses,
)
from faultloc import locator, seqmatrix
from faultloc.locator import current_channel, locate, voltage_channel
from faultloc.seqmatrix import LinearLaw, branch_coefficients, transfer_coefficients
from faultloc.netmodel import LineRecord, Network, SourceRecord

from oracles import all_simple_paths, feasibility_reason, measurement_set, path_crosses_line, python_solve


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
    ms = measurement_set(
        {("busV", 1): (1.0 + 0j, 1.0 - ratio * 0.01), ("busV", 2): (1.0 + 0j, 1.0 - 0.01)}
    )
    est = locate(Method.SSVM, ms, VoltagePlacement(1, 2), ck, cl)
    assert est.m == pytest.approx(1.7, abs=1e-9)
    assert not est.in_range
    assert "hypothesis" in est.notes


_OUTSIDE = "solution outside [0, 1]; wrong faulted-line hypothesis?"


@pytest.mark.parametrize(
    ("m", "method", "ambiguous", "notes"),
    [
        (0.5, Method.SSVM, False, ""),
        (1.0 + 1e-9, Method.SSCM, False, ""),  # within the range slack
        (-1e-9, Method.HYBRID_DIRECT, False, ""),
        (1.7, Method.SSVM, False, _OUTSIDE),
        (-0.2, Method.HYBRID_DIRECT, False, _OUTSIDE),
        (1.3, Method.HYBRID_QUAD, False, "no root in [0, 1]; wrong faulted-line hypothesis?"),
        (0.25, Method.HYBRID_QUAD, True, "both roots in [0, 1]; tie broken toward the direct solution"),
    ],
)
def test_estimates_carry_their_notes_from_construction(m, method, ambiguous, notes):
    est = locator._estimate(m, method, 0.125, ambiguous)
    assert est == locator.LocationEstimate(m, method, 0.125, ambiguous, notes)
    assert est.in_range is (notes != _OUTSIDE and "no root" not in notes)


def test_ranking_entries_note_the_out_of_range_hypotheses(ieee14, ieee14_study):
    ms = ieee14_study.measurements(FaultScenario("9-14", 0.85, FaultType.LG, 1.0))
    ranked = list(
        rank_line_hypotheses(ieee14, ms, VoltagePlacement(1, 14), Method.SSVM, ieee14_study.zbus(1))
    )
    notes = {est.notes for _, est in ranked if not est.in_range}
    assert notes == {_OUTSIDE}
    assert {est.notes for _, est in ranked if est.in_range} == {""}


def test_a_method_name_runs_the_method_it_names(fourbus, fourbus_study):
    """Both public entries take a method by name, and run it bit for bit as the
    :class:`Method` itself; an unknown name raises ``ValueError``."""
    from faultloc import Distortion, apply_distortion

    zbus = fourbus_study.zbus(1)
    clean = fourbus_study.measurements(FaultScenario("T2", 0.56, FaultType.LG, 1.0))
    ms = apply_distortion(clean, [Distortion("branchI", "T1", gain=1.02, phase_deg=2.0)])
    placements = {
        Method.SSVM: VoltagePlacement(1, 2), Method.SSCM: CurrentPlacement("T1", "T3"),
        Method.HYBRID_DIRECT: HybridPlacement("T1", 2), Method.HYBRID_QUAD: HybridPlacement("T1", 2),
    }

    def read(est):
        return type(est.method), est.method, _bits(est.m, est.residual), est.ambiguous, est.notes

    for method, placement in placements.items():
        by_enum, by_name = (
            estimate_for_placement(fourbus, zbus, "T2", placement, ms, how) for how in (method, method.value)
        )
        assert read(by_name) == read(by_enum) and read(by_name)[:2] == (Method, method)
        if method is not Method.HYBRID_QUAD:
            by_enum, by_name = (
                [(line_id, read(est)) for line_id, est in rank_line_hypotheses(fourbus, ms, placement, how, zbus)]
                for how in (method, method.value)
            )
            assert by_name == by_enum
    with pytest.raises(ValueError, match="'bogus' is not a valid Method"):
        estimate_for_placement(fourbus, zbus, "T2", placements[Method.SSVM], ms, "bogus")
    with pytest.raises(ValueError, match="'bogus' is not a valid Method"):
        rank_line_hypotheses(fourbus, ms, placements[Method.SSVM], "bogus", zbus)
    with pytest.raises(ValueError, match="hybrid-quad cannot rank lines"):
        rank_line_hypotheses(fourbus, ms, placements[Method.HYBRID_QUAD], "hybrid-quad", zbus)


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
        measurement_set({("branchI", "T1"): (0j, 0j), ("busV", 2): (1.0 + 0j, 0.7 + 0j)}),
        HybridPlacement("T1", 2),
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
        measurement_set({("branchI", "T1"): (0j, 0.2 + 0j), ("busV", 2): (1.0 + 0j, 1.2 + 0j)}),
        HybridPlacement("T1", 2),
        LinearLaw(0j, 1.0 + 0j),
        LinearLaw(-1.0 + 0j, 1.0 + 0j),
    )
    assert est.m == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("ratio, want", [(-0.5, 0.75), (0.5, 0.25)])
def test_hybrid_quadratic_two_roots_in_range_take_the_direct_one(ratio, want):
    # |1 - 2m| = |ratio| = 0.5 at m = 0.25 and 0.75; the direct solution
    # 1 - 2m = ratio picks one of them.
    est = locate(
        Method.HYBRID_QUAD,
        measurement_set({("branchI", "T1"): (0j, ratio + 0j), ("busV", 2): (1.0 + 0j, 2.0 + 0j)}),
        HybridPlacement("T1", 2),
        LinearLaw(1.0 + 0j, -2.0 + 0j),
        LinearLaw(1.0 + 0j, 0j),
    )
    assert est.ambiguous
    assert est.notes == "both roots in [0, 1]; tie broken toward the direct solution"
    assert est.m == pytest.approx(want, abs=1e-12)
    assert est.residual == 0.0


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


def test_locate_checks_the_placement_kinds():
    ms = measurement_set({("busV", 1): (1 + 0j, 0.9 + 0j), ("branchI", "T1"): (0j, 0.1j)})
    laws = (LinearLaw(1 + 0j, 1 + 0j), LinearLaw(2 + 0j, 0.5 + 0j))
    for method, placement in [
        (Method.SSVM, HybridPlacement("T1", 1)),
        (Method.SSCM, VoltagePlacement(1, 1)),
        (Method.HYBRID_DIRECT, CurrentPlacement("T1", "T1")),
    ]:
        with pytest.raises(TypeError, match="channel kinds"):
            locate(method, ms, placement, *laws)
    locate(Method.HYBRID_DIRECT, ms, HybridPlacement("T1", 1), *laws)  # matching kinds solve


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
    placement = {
        ("busV", "busV"): VoltagePlacement(1, 2),
        ("branchI", "busV"): HybridPlacement("T1", 2),
    }[kinds]
    changes = [(0j, a.at(0.4) * 1e-3), (0j, b.at(0.4) * 1.0001e-3)]
    with pytest.raises(LinearDependenceError):
        locate(method, measurement_set(dict(zip(placement.channels, changes))), placement, a, b)


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

    buses = {("busV", b): (ms.prefault_bus_v[b], v[1]) for b, v in ms.fault_bus_v.items()}
    branches = {("branchI", i): (ms.prefault_branch_i[i], v[1]) for i, v in ms.fault_branch_i.items()}
    scaled = measurement_set(
        {ch: (pre * scale, fault * scale) for ch, (pre, fault) in (buses | branches).items()}
    )

    line = fourbus.line("T2")
    ck = transfer_coefficients(zb, line, 1)
    cl = transfer_coefficients(zb, line, 2)
    b1 = branch_coefficients(zb, line, fourbus.channel("T1"))
    b3 = branch_coefficients(zb, line, fourbus.channel("T3"))
    runs = [
        (Method.SSVM, VoltagePlacement(1, 2), ck, cl),
        (Method.SSCM, CurrentPlacement("T1", "T3"), b1, b3),
        (Method.HYBRID_DIRECT, HybridPlacement("T1", 2), b1, cl),
        (Method.HYBRID_QUAD, HybridPlacement("T1", 2), b1, cl),
    ]
    for method, placement, numer_law, denom_law in runs:
        a = locate(method, ms, placement, numer_law, denom_law)
        b = locate(method, scaled, placement, numer_law, denom_law)
        assert abs(a.m - b.m) < 1e-12, method


def test_every_channel_read_goes_through_the_two_readers(fourbus, fourbus_study, monkeypatch):
    """``estimate_for_placement``, ``rank_line_hypotheses`` and ``locate`` each
    read exactly their placement's two channels, in order, from the set they
    are given, through ``voltage_channel`` and ``current_channel``."""
    from faultloc import locator

    reads = []
    for kind, read in (("busV", voltage_channel), ("branchI", current_channel)):

        def counted(ms, ident, kind=kind, read=read):
            reads.append((ms, kind, ident))
            return read(ms, ident)

        monkeypatch.setattr(locator, read.__name__, counted)
    zbus, line = fourbus_study.zbus(1), fourbus.line("T2")
    ms = fourbus_study.measurements(FaultScenario("T2", 0.56, FaultType.LG, 1.0))
    for method, placement in [
        (Method.SSVM, VoltagePlacement(1, 2)),
        (Method.SSCM, CurrentPlacement("T1", "T3")),
        (Method.HYBRID_DIRECT, HybridPlacement("T1", 2)),
        (Method.HYBRID_QUAD, HybridPlacement("T1", 2)),
    ]:
        laws = [
            branch_coefficients(zbus, line, fourbus.channel(i)) if kind == "branchI"
            else transfer_coefficients(zbus, line, i)
            for kind, i in placement.channels
        ]
        calls = [
            lambda: estimate_for_placement(fourbus, zbus, "T2", placement, ms, method),
            lambda: locate(method, ms, placement, *laws),
        ]
        if method is not Method.HYBRID_QUAD:
            calls.append(lambda: rank_line_hypotheses(fourbus, ms, placement, method, zbus))
        for call in calls:
            reads.clear()
            assert call()
            assert [(kind, i) for _, kind, i in reads] == list(placement.channels), method
            assert all(read_from is ms for read_from, _, _ in reads), method


def test_channel_isolation_is_bit_exact(fourbus, fourbus_study):
    """Distorting channels a method does not consume leaves it bit-identical."""
    from faultloc import Distortion, apply_distortion

    zb = fourbus_study.zbus(1)
    taps = MeasurementTaps()
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


def test_feasibility_buses_either_side(fourbus, fourbus_study):
    ok, reason = feasibility_check(fourbus, "T2", VoltagePlacement(1, 2), fourbus_study.zbus(1))
    assert ok and reason == "ok"


def test_feasibility_bridge_counterexample(bridge_five):
    ok, reason = feasibility_check(bridge_five, "A", VoltagePlacement(4, 5), build_zbus(bridge_five, 1))
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
    zbus = build_zbus(parallel_pair, 1)
    ok, reason = feasibility_check(parallel_pair, "T", CurrentPlacement("P1", "P2"), zbus)
    assert not ok
    assert "dependent" in reason


def test_feasibility_refuses_a_proportional_voltage_pair(diamond):
    # Buses 3 and 4 mirror each other about line F, which lies on a path
    # between them: under a fault on F their changes are proportional.
    zbus = build_zbus(diamond, 1)
    assert feasibility_check(diamond, "F", VoltagePlacement(3, 4), zbus) == (
        False, "channel fault responses are linearly dependent"
    )
    assert feasibility_check(diamond, "U1", VoltagePlacement(3, 4), zbus) == (True, "ok")


def test_feasibility_accepts_study_placements(fourbus, fourbus_study, ieee14, ieee14_study):
    fourbus_placements = [
        VoltagePlacement(1, 2),
        CurrentPlacement("T1", "T3"),
        HybridPlacement("T1", 2),
    ]
    for placement in fourbus_placements:
        ok, reason = feasibility_check(fourbus, "T2", placement, fourbus_study.zbus(1))
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
        ok, reason = feasibility_check(ieee14, line_id, placement, ieee14_study.zbus(1))
        assert ok, reason


def test_feasibility_infeasible_voltage_pair_same_side(fourbus, fourbus_study):
    # Buses 3 and 1 sit on the same side of T2; the only simple path between
    # them is the direct line T1.
    ok, reason = feasibility_check(fourbus, "T2", VoltagePlacement(3, 1), fourbus_study.zbus(1))
    assert not ok


def test_bad_terminal_suffix_is_rejected_by_every_entry_point(fourbus, fourbus_study):
    placement = CurrentPlacement("T1@bogus", "T3")
    ms = fourbus_study.measurements(FaultScenario("T2", 0.4, FaultType.LG, 1.0))
    calls = [
        lambda: feasibility_check(fourbus, "T2", placement, fourbus_study.zbus(1)),
        lambda: estimate_for_placement(
            fourbus, fourbus_study.zbus(1), "T2", placement, ms, Method.SSCM
        ),
        lambda: rank_line_hypotheses(fourbus, ms, placement, Method.SSCM, fourbus_study.zbus(1)),
    ]
    for call in calls:
        with pytest.raises(CaseError, match="'T1@bogus'"):
            call()


def test_faulted_line_current_is_refused(fourbus, fourbus_study):
    """The faulted line's own current is no channel: no instrument reads it
    while the fault draws current, and its law is the through current."""
    placement = CurrentPlacement("T2", "T1")
    message = "current channel 'T2' measures faulted line 'T2'"
    assert feasibility_check(fourbus, "T2", placement, build_zbus(fourbus, 1)) == (False, message)
    assert feasibility_check(fourbus, "T2", placement, fourbus_study.zbus(1)) == (False, message)
    ms = fourbus_study.measurements(FaultScenario("T2", 0.56, FaultType.LG, 1.0))
    renamed = replace(
        ms,
        prefault_branch_i={**ms.prefault_branch_i, "T2": ms.prefault_branch_i["T2@from"]},
        fault_branch_i={**ms.fault_branch_i, "T2": ms.fault_branch_i["T2@from"]},
    )
    for _ in range(2):  # a refusal is not memoised
        with pytest.raises(ValueError, match=message):
            estimate_for_placement(fourbus, fourbus_study.zbus(1), "T2", placement, renamed, Method.SSCM)
    # Its terminal is a channel: a CT there reads the current it feeds in.
    zbus = fourbus_study.zbus(1)
    assert feasibility_check(fourbus, "T2", CurrentPlacement("T2@from", "T1"), zbus) == (True, "ok")


def _oracle_verdict(net, line_id, placement):
    """:func:`feasibility_check`'s verdict from the oracle's reason."""
    return {
        "ok": (True, "ok"),
        "own": (False, f"current channel {line_id!r} measures faulted line {line_id!r}"),
        "dependent": (False, "channel fault responses are linearly dependent"),
        "path": (False, f"no simple path through line {line_id!r} joins the measurement locations"),
    }[feasibility_reason(net, line_id, placement)]


def test_table_verdicts_match_the_oracle(ieee14):
    """Every (line, placement) verdict read from a placement's table, asked
    twice of one matrix, against the oracle's own-current, rank and path
    tests: feasible and infeasible verdicts alike, for every reason, the
    second read the same entry.  A check that raises keeps nothing on the
    matrix and raises again."""
    zbus = build_zbus(ieee14, 1)
    placements = [
        VoltagePlacement(1, 14),
        VoltagePlacement(7, 8),
        VoltagePlacement(4, 4),
        CurrentPlacement("2-3", "13-14"),
        CurrentPlacement("1-2", "1-5"),
        CurrentPlacement("4-5@from", "4-5@to"),
        CurrentPlacement("7-8", "7-8"),
        HybridPlacement("7-8", 8),
        HybridPlacement("2-3@to", 14),
    ]
    reasons = set()
    for placement in placements:
        for rec in ieee14.lines:
            want = _oracle_verdict(ieee14, rec.id, placement)
            got = feasibility_check(ieee14, rec.id, placement, zbus)
            assert got == want, (rec.id, placement)
            assert feasibility_check(ieee14, rec.id, placement, zbus) is got
            reasons.add(got[1].split()[0])
    assert reasons == {"ok", "current", "channel", "no"}  # own current, dependent, no path
    assert len(zbus._tables) == seqmatrix.TABLES < len(placements)
    kept = list(zbus._tables)
    for rec in ieee14.lines:
        for placement in (VoltagePlacement(1, 99), HybridPlacement("2-3", 99)):
            for _ in range(2):
                with pytest.raises(CaseError, match="unknown bus 99"):
                    feasibility_check(ieee14, rec.id, placement, zbus)
    assert list(zbus._tables) == kept


def test_placement_laws_are_built_once_per_matrix_network_and_placement(
    ieee14, ieee14_study, monkeypatch
):
    """A placement's table of laws is built once per (matrix, network,
    placement): estimates on every faulted line, both hybrid methods, the
    feasibility rank test and ranking read it.  Another matrix or network
    builds its own, to the same estimates.  A method of the wrong channel
    kinds raises on every call and builds nothing."""
    from faultloc import locator

    built = []
    build = locator._PlacementLaws

    def counted(zbus, net, placement):
        built.append(placement)
        return build(zbus, net, placement)

    monkeypatch.setattr(locator, "_PlacementLaws", counted)
    zbus = build_zbus(ieee14, 1)
    placement, hybrid = CurrentPlacement("2-3", "13-14"), HybridPlacement("2-3", 14)
    sets = {
        (line_id, m): ieee14_study.measurements(FaultScenario(line_id, m, FaultType.LG, 1.0))
        for line_id in ("4-5", "9-14") for m in (0.2, 0.5, 0.8)
    }

    def estimates(method=Method.SSCM, placement=placement, zbus=zbus, net=ieee14):
        return [
            estimate_for_placement(net, zbus, line_id, placement, ms, method)
            for (line_id, _), ms in sets.items()
        ]

    first = estimates()
    assert feasibility_check(ieee14, "4-5", placement, zbus) == (True, "ok")
    ranked = rank_line_hypotheses(ieee14, sets["4-5", 0.5], placement, Method.SSCM, zbus)
    assert ranked[0][0] == "4-5" and estimates() == first
    assert built == [placement]
    for method in (Method.HYBRID_DIRECT, Method.HYBRID_QUAD, Method.HYBRID_DIRECT):
        got = estimates(method, hybrid)
        assert all(abs(est.m - m) < 1e-9 for est, (_, m) in zip(got, sets)), method
    assert feasibility_check(ieee14, "9-14", hybrid, zbus) == (True, "ok")
    assert rank_line_hypotheses(ieee14, sets["9-14", 0.8], hybrid, Method.HYBRID_DIRECT, zbus)
    assert built == [placement, hybrid]
    for _ in range(2):
        with pytest.raises(TypeError, match="channel kinds"):
            estimates(Method.SSVM)
    assert built == [placement, hybrid]
    flipped = replace(ieee14, lines=tuple(reversed(ieee14.lines)))
    assert estimates(zbus=build_zbus(ieee14, 1)) == first
    assert estimates(net=flipped) == first and estimates(net=flipped) == first
    assert built == [placement, hybrid, placement, placement]


def test_estimate_refuses_as_locate_does_on_every_call(fourbus, fourbus_study):
    """A dependent pair and a degenerate denominator raise the messages that
    :func:`locate` raises on the same channels and laws, on every call: the
    refusal is not kept, so a set with a fault signature then solves."""
    zbus, t2 = fourbus_study.zbus(1), fourbus.line("T2")
    live = fourbus_study.measurements(FaultScenario("T2", 0.56, FaultType.LG, 1.0))
    dead = fourbus_study.measurements(FaultScenario("T2", 0.56, FaultType.LG, math.inf))
    cases = [
        (Method.SSCM, CurrentPlacement("T2@from", "T3"), live, LinearDependenceError),
        (Method.SSVM, VoltagePlacement(1, 2), dead, DegenerateChannelError),
        (Method.HYBRID_QUAD, HybridPlacement("T1", 2), dead, DegenerateChannelError),
    ]
    for method, placement, ms, error in cases:
        laws = [
            branch_coefficients(zbus, t2, fourbus.channel(i)) if kind == "branchI"
            else transfer_coefficients(zbus, t2, i)
            for kind, i in placement.channels
        ]
        with pytest.raises(error) as want:
            locate(method, ms, placement, *laws)
        for _ in range(2):
            with pytest.raises(error) as got:
                estimate_for_placement(fourbus, zbus, "T2", placement, ms, method)
            assert str(got.value) == str(want.value)
        if error is DegenerateChannelError:
            est = estimate_for_placement(fourbus, zbus, "T2", placement, live, method)
            assert abs(est.m - 0.56) < 1e-9
            with pytest.raises(error):
                estimate_for_placement(fourbus, zbus, "T2", placement, ms, method)


def test_feasibility_unknown_measurement_bus(fourbus, fourbus_study):
    zbus = fourbus_study.zbus(1)
    with pytest.raises(CaseError, match="unknown bus"):
        feasibility_check(fourbus, "T2", VoltagePlacement(99, 2), zbus)
    with pytest.raises(CaseError, match="unknown line"):  # the line is checked first
        feasibility_check(fourbus, "T9", VoltagePlacement(99, 2), zbus)


def _network(n_buses, edges, grounded=(1,)):
    """Buses 1..n joined by lines ``L0``, ``L1``, ... along ``edges``, each
    line with its own impedance, with a source at each bus of ``grounded``."""
    lines = tuple(
        LineRecord(f"L{k}", a, b, 1.0 + k, complex(0.01, 0.1 + 0.01 * k), complex(0.03, 0.3))
        for k, (a, b) in enumerate(edges)
    )
    sources = tuple(SourceRecord(bus, 0.05j) for bus in grounded)
    return Network(tuple(range(1, n_buses + 1)), lines, sources)


def _path_verdicts_match(net, zbus, line_id, placement):
    """Compare the path verdict of a placement with the enumeration oracle,
    unless the rank test decides the placement first."""
    ok, reason = feasibility_check(net, line_id, placement, zbus)
    if "dependent" in reason:
        return True
    locations = [
        [net.line(i).from_bus, net.line(i).to_bus] if kind == "branchI" else [i]
        for kind, i in placement.channels
    ]
    return ok == path_crosses_line(net, line_id, *locations)


@st.composite
def _multigraphs(draw):
    """Connected multigraphs of 2 to 8 buses: a random spanning tree, whose
    lines are bridges until more lines close cycles, some of them parallel
    to tree lines and some self-loops."""
    n = draw(st.integers(2, 8))
    tree = [(b, draw(st.integers(1, b - 1))) for b in range(2, n + 1)]
    extra = draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n)), max_size=5))
    parallel = draw(st.lists(st.sampled_from(tree), max_size=2))
    return _network(n, tree + extra + parallel)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(net=_multigraphs(), data=st.data())
def test_feasibility_path_verdict_matches_enumeration(net, data):
    zbus = build_zbus(net, 1)
    line_id = data.draw(st.sampled_from([rec.id for rec in net.lines]))
    bus = st.sampled_from(net.buses)
    placements = [VoltagePlacement(data.draw(bus), data.draw(bus))]
    # The faulted line's own current is no channel; feasibility refuses it.
    others = [rec.id for rec in net.lines if rec.id != line_id]
    if others:
        placements.append(HybridPlacement(data.draw(st.sampled_from(others)), data.draw(bus)))
    for placement in placements:
        assert _path_verdicts_match(net, zbus, line_id, placement), placement


def test_feasibility_path_verdict_on_every_fourbus_pair(fourbus, fourbus_study):
    zbus = fourbus_study.zbus(1)
    for rec in fourbus.lines:
        for a in fourbus.buses:
            for b in fourbus.buses:
                assert _path_verdicts_match(fourbus, zbus, rec.id, VoltagePlacement(a, b))
            for branch in fourbus.lines:
                if branch is not rec:
                    placement = HybridPlacement(branch.id, a)
                    assert _path_verdicts_match(fourbus, zbus, rec.id, placement)


@pytest.mark.parametrize("n", [7, 30])
def test_feasibility_on_meshes_is_fast(n):
    # An n x n mesh with a tail: bus n*n + 1 hangs off bus 1 by a bridge.
    edges = [(k, k + 1) for k in range(1, n * n + 1) if k % n]
    edges += [(k, k + n) for k in range(1, n * n - n + 1)]
    net = _network(n * n + 1, edges + [(1, n * n + 1)])
    tail, zbus = net.lines[-1].id, build_zbus(net, 1)
    started = time.perf_counter()
    across = [feasibility_check(net, rec.id, VoltagePlacement(1, n * n), zbus)[0] for rec in net.lines]
    on_tail = [feasibility_check(net, rec.id, VoltagePlacement(n * n + 1, 1), zbus)[0] for rec in net.lines]
    elapsed = time.perf_counter() - started
    assert across == [rec.id != tail for rec in net.lines]
    assert on_tail == [rec.id == tail for rec in net.lines]
    assert elapsed < 1.0


def test_feasibility_on_a_long_chain_does_not_recurse():
    n = 3000  # deeper than Python's default recursion limit
    # A source every 100 buses keeps Y well conditioned along the chain.
    net = _network(n, [(k, k + 1) for k in range(1, n)], grounded=range(1, n, 100))
    zbus, middle = build_zbus(net, 1), net.line_between(1500, 1501).id
    assert feasibility_check(net, middle, VoltagePlacement(1, n), zbus)[0]
    assert not feasibility_check(net, middle, VoltagePlacement(1, 1500), zbus)[0]


def test_feasibility_edge_cases():
    # Two triangles with no line between them, and a self-loop at bus 2.
    # Each island has a source of its own.
    edges = [(1, 2), (2, 3), (3, 1), (4, 5), (5, 6), (6, 4), (2, 2)]
    net = _network(6, edges, grounded=(1, 4))
    zbus = build_zbus(net, 1)
    ok, reason = feasibility_check(net, "L0", VoltagePlacement(1, 4), zbus)
    assert not ok and "simple path" in reason  # locations in different islands
    assert feasibility_check(net, "L0", VoltagePlacement(1, 3), zbus)[0]
    assert not feasibility_check(net, "L6", VoltagePlacement(1, 3), zbus)[0]  # a self-loop
    assert not feasibility_check(net, "L0", VoltagePlacement(1, 1), zbus)[0]
    with pytest.raises(CaseError, match="unknown bus 9"):
        feasibility_check(net, "L0", VoltagePlacement(1, 9), zbus)


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
        MeasurementTaps(),
    )
    ranked = rank_line_hypotheses(fourbus, ms, placement, method, fourbus_study.zbus(1))
    assert ranked
    top_line, top_est = ranked[0]
    assert top_line == "T2"
    assert abs(top_est.m - 0.56) < 1e-9
    assert top_est.in_range


# ---------------------------------------------------------------------------
# Terminal channels
# ---------------------------------------------------------------------------


def _terminal_pairings(net, line, zbus):
    """Every sscm and hybrid placement reading a terminal of ``line`` that
    :func:`feasibility_check` accepts for a fault on it: the terminal over or
    under any other current channel, or over any bus voltage.  Each is checked
    when it is drawn, so its table is still kept for the caller's estimates."""
    terminals = (f"{line.id}@from", f"{line.id}@to")
    currents = [rec.id for rec in net.lines if rec.id != line.id] + list(terminals)
    pairs = {
        pair for t in terminals for other in currents if other != t
        for pair in ((t, other), (other, t))
    }
    pairings = [(Method.SSCM, CurrentPlacement(*pair)) for pair in sorted(pairs)]
    pairings += [(Method.HYBRID_DIRECT, HybridPlacement(t, bus)) for t in terminals for bus in net.buses]
    return ((meth, p) for meth, p in pairings if feasibility_check(net, line.id, p, zbus)[0])


@pytest.mark.parametrize("case", ["fourbus", "ieee14"])
def test_terminal_channels_recover_every_fault_position(request, case):
    """Each (line, placement) solves its five positions at once, as a sweep
    does; a lone estimate of the first has the bits of its batched row."""
    net = request.getfixturevalue(case)
    study = request.getfixturevalue(f"{case}_study")
    zbus = study.zbus(1)
    positions = (0.0, 0.01, 0.5, 0.99, 1.0)
    for line in net.lines:
        sets = [study.measurements(FaultScenario(line.id, m, FaultType.LG, 1.0)) for m in positions]
        rows, numerators = [line.id] * len(positions), set()
        for method, placement in _terminal_pairings(net, line, zbus):
            numerators.add(placement.channels[0][1])
            m_est, residual, _, errors = locator._estimates(net, zbus, rows, placement, sets, method)
            assert errors == [None] * len(positions), (line.id, placement, errors)
            assert np.all(np.abs(m_est - positions) <= 1e-6), (line.id, placement, m_est)
            lone = estimate_for_placement(net, zbus, line.id, placement, sets[0], method)
            assert _bits(lone.m, lone.residual) == _bits(m_est[0], residual[0]), (line.id, placement)
            for m, ms in zip(positions[1:-1], sets[1:-1]):  # a fault at a bus lies on every line there
                top, best = rank_line_hypotheses(net, ms, placement, method, zbus)[0]
                assert top == line.id and abs(best.m - m) <= 1e-6, (line.id, m, placement)
        assert numerators >= {f"{line.id}@from", f"{line.id}@to"}


@pytest.mark.parametrize("case", ["fourbus", "ieee14"])
def test_ranking_reads_a_terminal_channel_under_a_fault_elsewhere(request, case):
    # A CT at a terminal reads a current whatever line is faulted; the
    # faulted line's hypothesis takes the channel's law under that fault.
    net = request.getfixturevalue(case)
    study = request.getfixturevalue(f"{case}_study")
    zbus = study.zbus(1)
    for line, end, faulted in (
        (line, end, faulted)
        for line in net.lines for end in ("from", "to") for faulted in net.lines
        if faulted is not line
    ):
        terminal = f"{line.id}@{end}"
        other = next(rec for rec in net.lines if rec not in (line, faulted))
        taps = MeasurementTaps(buses=(faulted.from_bus,), branches=(terminal, other.id))
        ms = study.measurements(FaultScenario(faulted.id, 0.5, FaultType.LG, 1.0), taps)
        for method, placement in (
            (Method.SSCM, CurrentPlacement(terminal, other.id)),
            (Method.HYBRID_DIRECT, HybridPlacement(terminal, faulted.from_bus)),
        ):
            ranked = dict(rank_line_hypotheses(net, ms, placement, method, zbus))
            if feasibility_check(net, faulted.id, placement, zbus)[0]:
                assert abs(ranked[faulted.id].m - 0.5) <= 1e-6, (faulted.id, placement)


def _bits(*values) -> tuple:
    return tuple(float(v).hex() for v in values)


@pytest.mark.parametrize("method", [Method.HYBRID_DIRECT, Method.HYBRID_QUAD])
def test_many_row_solve_has_the_bits_of_pythons_arithmetic(method):
    """Rows gathered from laws over lines, with ratios that fit some m in [0, 1]
    and ratios that fit none, solve at once to what Python's own complex and
    float arithmetic gives row by row (``oracles.python_solve``), bit for bit;
    so does a one-row :func:`locate`.  numpy's complex product, quotient and
    ``abs`` round differently, and Python's ``x**2`` is ``pow``."""
    rng = random.Random(11)

    def z():
        return complex(rng.gauss(0, 1), rng.gauss(0, 1)) * 10.0 ** rng.randint(-3, 3)

    lines = 3000
    numer, denom = (LinearLaw(np.array([z() for _ in range(lines)]), np.array([z() for _ in range(lines)]))
                    for _ in range(2))
    k = [rng.randrange(lines) for _ in range(3000)]
    changes = []
    for line in k:
        law_k, law_l = (LinearLaw(complex(w.b[line]), complex(w.c[line])) for w in (numer, denom))
        m = rng.uniform(-0.5, 1.5)
        changes.append((law_k.at(m) * (1.0 + 1e-3 * rng.gauss(0, 1)), law_l.at(m)) if rng.random() < 0.7
                       else (z(), z()))
    placement = HybridPlacement("T1", 2)
    sets = [measurement_set({placement.channels[0]: (0j, a), placement.channels[1]: (0j, b)}) for a, b in changes]
    laws = (numer, denom, np.zeros(lines, bool))
    m, residual, ambiguous, errors = locator._solve(method, laws, k, sets, placement.channels)
    assert not any(errors)
    quadratic, seen = method is Method.HYBRID_QUAD, set()
    for i, (line, (a, b)) in enumerate(zip(k, changes)):
        law_k, law_l = (LinearLaw(complex(w.b[line]), complex(w.c[line])) for w in (numer, denom))
        want_m, want_residual, want_ambiguous = python_solve(quadratic, law_k, law_l, a / b)
        assert _bits(m[i], residual[i]) == _bits(want_m, want_residual), i
        assert bool(ambiguous[i]) == want_ambiguous
        seen.update({("in" if -1e-9 <= want_m <= 1.0 + 1e-9 else "out"), want_ambiguous and "ambiguous",
                     want_residual > 0.0 and "off-axis"})
        if i % 250 == 0:
            est = locate(method, sets[i], placement, law_k, law_l)
            assert _bits(est.m, est.residual) == _bits(want_m, want_residual)
    want = {"in", "out", False, "off-axis"} | ({"ambiguous"} if quadratic else set())
    assert seen == want
