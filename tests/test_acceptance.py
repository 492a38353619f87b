"""Acceptance gate: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines.
Tolerances are fixed here, not configurable: matrix identities at 1e-9,
noiseless recovery at 1e-6 in normalized position, error-metric digit
reproduction at 1e-6 percentage points, and channel isolation bit-exact.
"""
from __future__ import annotations

import time

import numpy as np

from faultloc import (
    CurrentPlacement,
    Distortion,
    FaultScenario,
    FaultType,
    HybridPlacement,
    MeasurementTaps,
    Method,
    VoltagePlacement,
    apply_distortion,
    build_ybus,
    build_zbus,
    estimate_for_placement,
    fault_point_coefficients,
    feasibility_check,
    percent_error,
    transfer_coefficients,
)

from oracles import assemble_y, dense_z, measurement_set, tap_network

RF_GRID = (0.1, 1.0, 10.0)
M_GRID = tuple(round(0.1 * k, 1) for k in range(1, 10))

FOURBUS_PLACEMENTS = {
    "T2": {
        Method.SSVM: VoltagePlacement(1, 2),
        Method.SSCM: CurrentPlacement("T1", "T3"),
        Method.HYBRID_DIRECT: HybridPlacement("T1", 2),
        Method.HYBRID_QUAD: HybridPlacement("T1", 2),
    }
}

IEEE14_PLACEMENTS = {
    "1-5": {
        Method.SSVM: VoltagePlacement(1, 5),
        Method.SSCM: CurrentPlacement("2-3", "4-5"),
        Method.HYBRID_DIRECT: HybridPlacement("2-3", 1),
        Method.HYBRID_QUAD: HybridPlacement("2-3", 1),
    },
    "12-13": {
        Method.SSVM: VoltagePlacement(12, 13),
        Method.SSCM: CurrentPlacement("13-14", "6-12"),
        Method.HYBRID_DIRECT: HybridPlacement("13-14", 12),
        Method.HYBRID_QUAD: HybridPlacement("13-14", 12),
    },
    "9-14": {
        Method.SSVM: VoltagePlacement(9, 14),
        Method.SSCM: CurrentPlacement("13-14", "9-10"),
        Method.HYBRID_DIRECT: HybridPlacement("13-14", 9),
        Method.HYBRID_QUAD: HybridPlacement("13-14", 9),
    },
}


def _verdict(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _sweep(net, study, placements):
    """Noiseless scenario sweep; yields (scenario, method, estimate)."""
    zbus = study.zbus(1)
    for line_id, by_method in placements.items():
        for ftype in FaultType:
            for rf in RF_GRID:
                for m in M_GRID:
                    scenario = FaultScenario(line_id, m, ftype, rf)
                    ms = study.measurements(scenario)
                    for method, placement in by_method.items():
                        est = estimate_for_placement(
                            net, zbus, line_id, placement, ms, method
                        )
                        yield scenario, method, est


def test_zbus_admittance_identity(fourbus, ieee14):
    """Impedance and admittance matrices must invert each other to 1e-9."""
    started = time.perf_counter()
    worst = 0.0
    for net in (fourbus, ieee14):
        for seq in (0, 1, 2):
            z = dense_z(build_zbus(net, seq))
            y = build_ybus(net, seq)
            worst = max(worst, float(np.max(np.abs(z @ y - np.eye(net.n)))))
    elapsed = time.perf_counter() - started
    _verdict(
        "zbus-admittance identity",
        worst <= 1e-9 and elapsed < 1.0,
        f"max |Z*Y - I| = {worst:.3e} (tol 1e-9), {elapsed:.3f}s (< 1s)",
    )


def test_coefficient_laws_match_tap_rebuild(fourbus):
    """Linear/quadratic position laws vs an explicit node at the fault point."""
    zb = build_zbus(fourbus, 1)
    z, at = dense_z(zb), zb.index
    worst = 0.0
    for line in fourbus.lines:
        coeffs = {b: transfer_coefficients(zb, line, b) for b in fourbus.buses}
        fp = fault_point_coefficients(zb, line)
        for m in (0.0, 0.25, 0.5, 0.75, 1.0):
            if 0.0 < m < 1.0:
                tnet, r = tap_network(fourbus, line.id, m)
                zt = np.linalg.inv(assemble_y(tnet, 1))
                idx = {b: i for i, b in enumerate(tnet.buses)}
                for b in fourbus.buses:
                    worst = max(worst, abs(coeffs[b].at(m) - zt[idx[b], idx[r]]))
                worst = max(worst, abs(fp.z_at(m) - zt[idx[r], idx[r]]))
            else:
                end = line.from_bus if m == 0.0 else line.to_bus
                for b in fourbus.buses:
                    worst = max(worst, abs(coeffs[b].at(m) - z[at(end), at(b)]))
                worst = max(worst, abs(fp.z_at(m) - z[at(end), at(end)]))
    _verdict(
        "coefficient laws vs tap rebuild",
        worst <= 1e-9,
        f"worst deviation {worst:.3e} over every (line, bus) pair and m grid (tol 1e-9)",
    )


def test_exact_recovery_full_sweep(fourbus, fourbus_study, ieee14, ieee14_study):
    """Every feasible method must recover every noiseless fault to 1e-6."""
    started = time.perf_counter()
    worst = 0.0
    count = 0
    for net, study, placements in (
        (fourbus, fourbus_study, FOURBUS_PLACEMENTS),
        (ieee14, ieee14_study, IEEE14_PLACEMENTS),
    ):
        zbus = study.zbus(1)
        for line_id, by_method in placements.items():
            for placement in by_method.values():
                ok, reason = feasibility_check(net, line_id, placement, zbus)
                assert ok, f"{line_id}/{placement}: {reason}"
        for scenario, method, est in _sweep(net, study, placements):
            worst = max(worst, abs(est.m - scenario.m))
            count += 1
    elapsed = time.perf_counter() - started
    _verdict(
        "exact recovery",
        worst <= 1e-6 and elapsed < 10.0,
        f"{count} method runs, worst |m_est - m_true| = {worst:.3e}"
        f" (tol 1e-6), {elapsed:.2f}s (< 10s)",
    )


def test_error_metric_digit_reproduction():
    """The error metric must reproduce frozen reference rows digit-for-digit."""
    rows = [
        (100.0, 102.159215520, 178.6, 1.20896726),
        (100.0, 102.390658723, 178.6, 1.33855472),
        (100.0, 99.8788673479, 178.6, 0.06782342),
        (100.0, 99.5493028403, 178.6, 0.2523499),
        (50.0, 51.2426146317, 178.6, 0.695752875),
    ]
    worst = max(
        abs(percent_error(actual, est, length) - expected)
        for actual, est, length, expected in rows
    )
    _verdict(
        "error-metric digit reproduction",
        worst <= 1e-6,
        f"{len(rows)} spot rows, worst deviation {worst:.3e} pct points (tol 1e-6)",
    )


def test_hybrid_forms_agree_and_roots_contained(fourbus, fourbus_study, ieee14, ieee14_study):
    """Direct and quadratic hybrid solutions must agree; roots stay resolvable."""
    worst = 0.0
    ambiguous = 0
    count = 0
    for net, study, placements in (
        (fourbus, fourbus_study, FOURBUS_PLACEMENTS),
        (ieee14, ieee14_study, IEEE14_PLACEMENTS),
    ):
        zbus = study.zbus(1)
        for line_id, by_method in placements.items():
            placement = by_method[Method.HYBRID_DIRECT]
            for ftype in FaultType:
                for rf in RF_GRID:
                    for m in M_GRID:
                        ms = study.measurements(FaultScenario(line_id, m, ftype, rf))
                        direct = estimate_for_placement(
                            net, zbus, line_id, placement, ms, Method.HYBRID_DIRECT
                        )
                        quad = estimate_for_placement(
                            net, zbus, line_id, placement, ms, Method.HYBRID_QUAD
                        )
                        worst = max(worst, abs(direct.m - quad.m))
                        count += 1
                        assert quad.in_range
                        if quad.ambiguous:
                            ambiguous += 1
                            assert abs(quad.m - direct.m) <= 1e-9
    _verdict(
        "hybrid direct/quadratic agreement",
        worst <= 1e-9,
        f"{count} scenarios, worst |m_direct - m_quad| = {worst:.3e} (tol 1e-9),"
        f" {ambiguous} ambiguous roots all resolved to the direct answer",
    )


def test_current_clamp_immunity(fourbus, fourbus_study):
    """Clamping the faulted line's terminal current must not move methods
    that do not consume it, bit for bit; a current pair consuming it moves."""
    net = fourbus
    zbus = fourbus_study.zbus(1)
    sc = FaultScenario("T2", 0.56, FaultType.LLL, 1.0)
    taps = MeasurementTaps()
    ms = fourbus_study.measurements(sc, taps)
    clamp = 0.5 * abs(ms.fault_branch_i["T2@from"][1])
    saturated = apply_distortion(
        ms, [Distortion(kind="branchI", channel="T2@from", clamp_pu=clamp)]
    )

    untouched = [
        (Method.SSVM, VoltagePlacement(1, 2)),
        (Method.HYBRID_DIRECT, HybridPlacement("T1", 2)),
        (Method.HYBRID_QUAD, HybridPlacement("T1", 2)),
        (Method.SSCM, CurrentPlacement("T1", "T3")),
    ]
    identical = all(
        estimate_for_placement(net, zbus, "T2", p, ms, meth)
        == estimate_for_placement(net, zbus, "T2", p, saturated, meth)
        for meth, p in untouched
    )
    consuming = CurrentPlacement("T2@from", "T1")
    clean = estimate_for_placement(net, zbus, "T2", consuming, ms, Method.SSCM)
    degraded = estimate_for_placement(net, zbus, "T2", consuming, saturated, Method.SSCM)
    moved = clean.m != degraded.m
    _verdict(
        "current-clamp immunity",
        identical and moved,
        "voltage/hybrid/clean-current estimates bit-identical under clamp;"
        f" consuming current pair moved by {abs(clean.m - degraded.m):.3e}",
    )


def test_feasibility_detection(fourbus, ieee14, bridge_five, parallel_pair):
    """Counterexamples must be rejected with the right reason, study
    placements accepted."""
    ok_bridge, reason_bridge = feasibility_check(
        bridge_five, "A", VoltagePlacement(4, 5), build_zbus(bridge_five, 1)
    )
    ok_par, reason_par = feasibility_check(
        parallel_pair, "T", CurrentPlacement("P1", "P2"), build_zbus(parallel_pair, 1)
    )
    accepted = []
    for net, placements in ((fourbus, FOURBUS_PLACEMENTS), (ieee14, IEEE14_PLACEMENTS)):
        zbus = build_zbus(net, 1)
        for line_id, by_method in placements.items():
            for placement in by_method.values():
                accepted.append(feasibility_check(net, line_id, placement, zbus)[0])
    ok = (
        not ok_bridge
        and "simple path" in reason_bridge
        and not ok_par
        and "dependent" in reason_par
        and all(accepted)
    )
    _verdict(
        "feasibility detection",
        ok,
        f"bridge case rejected ({reason_bridge!r}), parallel pair rejected"
        f" ({reason_par!r}), {len(accepted)} study placements accepted",
    )


def test_noise_sensitivity_sanity(fourbus, fourbus_study):
    """0.1% multiplicative channel noise: median error < 0.05 everywhere."""
    from faultloc import branch_coefficients, locate

    started = time.perf_counter()
    rng = np.random.default_rng(20240803)
    zbus = fourbus_study.zbus(1)
    line = fourbus.line("T2")
    ck = transfer_coefficients(zbus, line, 1)
    cl = transfer_coefficients(zbus, line, 2)
    b1 = branch_coefficients(zbus, line, fourbus.channel("T1"))
    b3 = branch_coefficients(zbus, line, fourbus.channel("T3"))
    runs = [
        (Method.SSVM, VoltagePlacement(1, 2), ck, cl),
        (Method.SSCM, CurrentPlacement("T1", "T3"), b1, b3),
        (Method.HYBRID_DIRECT, HybridPlacement("T1", 2), b1, cl),
        (Method.HYBRID_QUAD, HybridPlacement("T1", 2), b1, cl),
    ]

    m_true = 0.56
    worst_median = 0.0
    for ftype in FaultType:
        for rf in (1.0, 10.0):
            ms = fourbus_study.measurements(FaultScenario("T2", m_true, ftype, rf))
            clean = {
                ("busV", 1): (ms.prefault_bus_v[1], ms.fault_bus_v[1][1]),
                ("busV", 2): (ms.prefault_bus_v[2], ms.fault_bus_v[2][1]),
                ("branchI", "T1"): (ms.prefault_branch_i["T1"], ms.fault_branch_i["T1"][1]),
                ("branchI", "T3"): (ms.prefault_branch_i["T3"], ms.fault_branch_i["T3"][1]),
            }
            errs: dict[str, list[float]] = {m.value: [] for m in Method}
            for _ in range(1000):
                # Each channel's pre-fault, then during-fault, gain in turn.
                jittered = measurement_set(
                    {
                        ch: (
                            pre * (1.0 + rng.normal(0.0, 0.001)),
                            fault * (1.0 + rng.normal(0.0, 0.001)),
                        )
                        for ch, (pre, fault) in clean.items()
                    }
                )
                for method, placement, numer_law, denom_law in runs:
                    try:
                        est = locate(method, jittered, placement, numer_law, denom_law)
                        errs[method.value].append(abs(est.m - m_true))
                    except ValueError:
                        errs[method.value].append(float("nan"))
            for method, err_list in errs.items():
                med = float(np.nanmedian(err_list))
                worst_median = max(worst_median, med)
    elapsed = time.perf_counter() - started
    _verdict(
        "noise sensitivity sanity",
        worst_median < 0.05 and elapsed < 60.0,
        f"worst per-scenario median |m_est - m_true| = {worst_median:.4f}"
        f" (< 0.05) over 8 scenarios x 1000 trials x 4 methods, {elapsed:.1f}s (< 60s)",
    )
