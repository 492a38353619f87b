from __future__ import annotations

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from faultloc import (
    Distortion,
    FaultScenario,
    FaultStudy,
    FaultType,
    MeasurementTaps,
    apply_distortion,
    build_zbus,
    measurements_from_csv,
    measurements_to_csv,
    parse_case,
)

from faultloc import seqmatrix
from faultloc.faultsim import fault_sequence_currents, prefault_solve
from faultloc.seqmatrix import fault_point_coefficients, transfer_coefficients
from faultloc.netmodel import LineRecord, Network, SourceRecord

from oracles import DirectFaultSolve, dense_z, inverse_sequence_transform, kept, sequence_transform
from test_ranking import mesh_text


# ---------------------------------------------------------------------------
# Pre-fault state
# ---------------------------------------------------------------------------


def test_prefault_flat_profile(fourbus):
    bus_v, branch_i = prefault_solve(fourbus, build_zbus(fourbus, 1))
    for v in bus_v.values():
        assert abs(v - 1.0) < 1e-12
    for i in branch_i.values():
        assert abs(i) < 1e-12


def test_prefault_two_emf_angles_circulate_and_balance(fourbus):
    text = """
    base 100 230 50
    bus 1
    bus 2
    bus 3
    bus 4
    line T1 3 1 21.4  0.096188 0.279293 0.243156 0.822918
    line T2 2 1 178.6 0.015455 0.116066 0.098871 0.365188
    line T3 2 4 91.4  0.096188 0.279293 0.243156 0.822918
    source 3 0.0006 0.037343 1.0 0
    source 4 0.0009 0.05423  1.0 -10
    """
    net = parse_case(text)
    bus_v, branch_i = prefault_solve(net, build_zbus(net, 1))
    assert all(abs(i) > 1e-6 for i in branch_i.values())
    # Kirchhoff balance at every bus, recomputed from scratch.
    for bus in net.buses:
        out = 0j
        for rec in net.lines:
            if rec.from_bus == bus:
                out += branch_i[rec.id]
            elif rec.to_bus == bus:
                out -= branch_i[rec.id]
        inj = 0j
        for src in net.sources:
            if src.bus == bus:
                inj += (src.emf - bus_v[bus]) / src.z(1)
        assert abs(out - inj) < 1e-10


# ---------------------------------------------------------------------------
# Sequence-network interconnection
# ---------------------------------------------------------------------------


def test_fault_currents_three_phase_ohms_law():
    cur = fault_sequence_currents(FaultType.LLL, (1j, 0.1j, 0.1j), 1.0 + 0j, 0.0)
    assert cur[1] == pytest.approx(-10j)
    assert cur[0] == 0 and cur[2] == 0


def test_fault_currents_single_line_ground_series():
    cur = fault_sequence_currents(FaultType.LG, (0.1j, 0.1j, 0.1j), 1.0 + 0j, 0.0)
    expected = 1.0 / 0.3j
    assert cur[0] == pytest.approx(expected)
    assert cur[1] == pytest.approx(expected)
    assert cur[2] == pytest.approx(expected)


def test_fault_currents_line_line():
    cur = fault_sequence_currents(FaultType.LL, (1j, 0.2j, 0.3j), 1.0 + 0j, 0.0)
    assert cur[1] == pytest.approx(1.0 / 0.5j)
    assert cur[2] == pytest.approx(-cur[1])
    assert cur[0] == 0


def test_fault_currents_llg_open_ground_limit_recovers_ll():
    z = (1e6 + 0j, 0.1j, 0.12j)
    llg = fault_sequence_currents(FaultType.LLG, z, 1.0 + 0j, 0.0)
    ll = fault_sequence_currents(FaultType.LL, z, 1.0 + 0j, 0.0)
    assert abs(llg[1] - ll[1]) < 1e-4
    assert abs(llg[2] - ll[2]) < 1e-4
    assert abs(llg[0]) < 1e-4


def test_fault_currents_infinite_rf_means_no_fault():
    for t in (FaultType.LG, FaultType.LL, FaultType.LLL):
        cur = fault_sequence_currents(t, (0.1j, 0.1j, 0.1j), 1.0 + 0j, math.inf)
        assert cur == (0j, 0j, 0j)


def test_fault_currents_zero_loop_rejected():
    with pytest.raises(ZeroDivisionError):
        fault_sequence_currents(FaultType.LLL, (0j, 0j, 0j), 1.0 + 0j, 0.0)


@pytest.mark.parametrize("ftype", list(FaultType))
def test_phase_domain_boundary_conditions(fourbus_study, ftype):
    """The interconnection must satisfy the fault's phase-domain constraints."""
    net = fourbus_study.net
    sc = FaultScenario("T2", 0.37, ftype, rf_ohm=5.0)
    cur = fourbus_study.fault_currents(sc)
    rf = sc.rf_ohm / net.z_base_ohm
    line = net.line("T2")
    z_rr = [
        fault_point_coefficients(fourbus_study.zbus(s), line).z_at(sc.m)
        for s in (0, 1, 2)
    ]
    e1_r = 1.0 - z_rr[1] * cur[1]  # flat pre-fault profile
    e_r = (-z_rr[0] * cur[0], e1_r, -z_rr[2] * cur[2])
    va, vb, vc = inverse_sequence_transform(*e_r)
    ia, ib, ic = inverse_sequence_transform(*cur)
    if ftype is FaultType.LLL:
        assert abs(e_r[1] - rf * cur[1]) < 1e-12
    elif ftype is FaultType.LG:
        assert abs(va - rf * ia) < 1e-12
        assert abs(ib) < 1e-12 and abs(ic) < 1e-12
    elif ftype is FaultType.LL:
        assert abs(ia) < 1e-12
        assert abs(ib + ic) < 1e-12
        assert abs((vb - vc) - rf * ib) < 1e-12
    else:  # LLG: common ground leg carries rf
        assert abs(ia) < 1e-12
        assert abs(vb - vc) < 1e-12
        assert abs(vb - 3.0 * rf * cur[0]) < 1e-12


# ---------------------------------------------------------------------------
# Measurement synthesis against the tapped-network direct solve
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("ftype", list(FaultType))
def test_measurements_match_direct_solve_fourbus(fourbus, fourbus_study, ftype):
    sc = FaultScenario("T2", 0.56, ftype, rf_ohm=1.0)
    ms = fourbus_study.measurements(sc, MeasurementTaps())
    oracle = DirectFaultSolve(fourbus, "T2", sc.m, ftype, sc.rf_ohm)
    for b in fourbus.buses:
        assert abs(ms.prefault_bus_v[b] - oracle.prefault_v(b)) < 1e-9
        ours, ref = ms.fault_bus_v[b], oracle.fault_v(b)
        for s in (0, 1, 2):
            assert abs(ours[s] - ref[s]) < 1e-9
    for rec in fourbus.lines:
        if rec.id == "T2":
            continue
        ours, ref = ms.fault_branch_i[rec.id], oracle.fault_i(rec)
        for s in (0, 1, 2):
            assert abs(ours[s] - ref[s]) < 1e-9
    for end in ("from", "to"):
        ours = ms.fault_branch_i[f"T2@{end}"]
        ref = oracle.segment_i(end)
        for s in (0, 1, 2):
            assert abs(ours[s] - ref[s]) < 1e-9


def test_measurements_match_direct_solve_ieee14(ieee14, ieee14_study):
    sc = FaultScenario("12-13", 0.3, FaultType.LLG, rf_ohm=0.1)
    ms = ieee14_study.measurements(sc)
    oracle = DirectFaultSolve(ieee14, "12-13", sc.m, sc.fault_type, sc.rf_ohm)
    for b in ieee14.buses:
        for s in (0, 1, 2):
            assert abs(ms.fault_bus_v[b][s] - oracle.fault_v(b)[s]) < 1e-9
    for rec in ieee14.lines:
        if rec.id == "12-13":
            continue
        for s in (0, 1, 2):
            assert abs(ms.fault_branch_i[rec.id][s] - oracle.fault_i(rec)[s]) < 1e-9


def test_measurements_match_direct_solve_with_loaded_prefault():
    text = """
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
    net = parse_case(text)
    sc = FaultScenario("T2", 0.64, FaultType.LLG, rf_ohm=5.0)
    ms = FaultStudy(net).measurements(sc, MeasurementTaps())
    oracle = DirectFaultSolve(net, "T2", sc.m, sc.fault_type, sc.rf_ohm)
    for b in net.buses:
        assert abs(ms.prefault_bus_v[b] - oracle.prefault_v(b)) < 1e-9
        for s in (0, 1, 2):
            assert abs(ms.fault_bus_v[b][s] - oracle.fault_v(b)[s]) < 1e-9
    for rec in net.lines:
        if rec.id == "T2":
            continue
        for s in (0, 1, 2):
            assert abs(ms.fault_branch_i[rec.id][s] - oracle.fault_i(rec)[s]) < 1e-9
    for end in ("from", "to"):
        for s in (0, 1, 2):
            assert abs(ms.fault_branch_i[f"T2@{end}"][s] - oracle.segment_i(end)[s]) < 1e-9


@st.composite
def _meshes(draw):
    """Connected meshes of 2 to 8 buses: a random spanning tree plus up to
    five more lines, parallel ones included, each with its own impedance,
    and one to three sources with their own EMFs, so that current flows
    before the fault."""
    n = draw(st.integers(2, 8))
    edges = [(b, draw(st.integers(1, b - 1))) for b in range(2, n + 1)]
    chord = st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda e: e[0] != e[1])
    edges += draw(st.lists(chord, max_size=5))
    lines = tuple(
        LineRecord(
            f"L{k}", a, b, draw(st.floats(10.0, 100.0)),
            complex(draw(st.floats(1e-4, 1e-3)), draw(st.floats(1e-3, 5e-3))),
            complex(draw(st.floats(3e-4, 3e-3)), draw(st.floats(3e-3, 1.5e-2))),
        )
        for k, (a, b) in enumerate(edges)
    )
    buses = draw(st.lists(st.integers(1, n), min_size=1, max_size=3, unique=True))
    sources = tuple(
        SourceRecord(
            bus, complex(draw(st.floats(1e-3, 1e-2)), draw(st.floats(0.02, 0.1))),
            emf=cmath.rect(draw(st.floats(0.95, 1.05)), math.radians(draw(st.floats(-15.0, 15.0)))),
        )
        for bus in buses
    )
    return Network(tuple(range(1, n + 1)), lines, sources)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(net=_meshes(), data=st.data())
def test_measurements_match_direct_solve_on_random_meshes(net, data):
    line = data.draw(st.sampled_from(net.lines))
    m = data.draw(st.floats(0.01, 0.99))
    ftype = data.draw(st.sampled_from(list(FaultType)))
    sc = FaultScenario(line.id, m, ftype, data.draw(st.sampled_from([0.0, 1.0, 25.0])))
    study = FaultStudy(net)
    ms = study.measurements(sc)
    oracle = DirectFaultSolve(net, line.id, m, ftype, sc.rf_ohm)
    terminals = {f"{line.id}@from": oracle.segment_i("from"), f"{line.id}@to": oracle.segment_i("to")}
    currents = {rec.id: oracle.fault_i(rec) for rec in net.lines if rec is not line}
    assert set(ms.fault_bus_v) == set(net.buses)
    assert set(ms.fault_branch_i) == set(currents) | set(terminals)
    # The terminals of the other lines, which the default set leaves out.
    far = {f"{i}@{end}": v for i, v in currents.items() for end in ("from", "to")}
    far_ms = study.measurements(sc, MeasurementTaps(buses=(), branches=tuple(far)))
    for channel in far:
        sign = -1.0 if channel.endswith("@to") else 1.0
        for s in (0, 1, 2):
            want = sign * currents[channel.partition("@")[0]][s]
            assert abs(far_ms.fault_branch_i[channel][s] - want) < 1e-9, (channel, s)
    for b in net.buses:
        assert abs(ms.prefault_bus_v[b] - oracle.prefault_v(b)) < 1e-9
        for s in (0, 1, 2):
            assert abs(ms.fault_bus_v[b][s] - oracle.fault_v(b)[s]) < 1e-9
    for channel, ref in {**currents, **terminals}.items():
        rec = net.line(channel.partition("@")[0])
        through = (oracle.prefault_v(rec.from_bus) - oracle.prefault_v(rec.to_bus)) / rec.z1
        pre = -through if channel.endswith("@to") else through
        assert abs(ms.prefault_branch_i[channel] - pre) < 1e-9
        for s in (0, 1, 2):
            assert abs(ms.fault_branch_i[channel][s] - ref[s]) < 1e-9, (channel, s)


def test_all_tap_measurements_on_a_multi_block_mesh_match_the_direct_solve():
    """Every channel of a 12x12 mesh, six blocks at the default MIN_BLOCK,
    against the direct solve; the set reads each matrix's two columns at
    the faulted line's ends and caches no other column."""
    net = parse_case(mesh_text(12, seed=11))
    assert len(seqmatrix._level_blocks(net)[1]) == 6
    line = net.line("h5_6")
    sc = FaultScenario(line.id, 0.37, FaultType.LLG, 4.0)
    study = FaultStudy(net)
    ms = study.measurements(sc)
    oracle = DirectFaultSolve(net, line.id, sc.m, sc.fault_type, sc.rf_ohm)
    want = {rec.id: oracle.fault_i(rec) for rec in net.lines if rec is not line}
    want |= {f"{line.id}@{end}": oracle.segment_i(end) for end in ("from", "to")}
    assert set(ms.fault_bus_v) == set(net.buses) and set(ms.fault_branch_i) == set(want)
    for b in net.buses:
        assert abs(ms.prefault_bus_v[b] - oracle.prefault_v(b)) < 1e-9
        for s in (0, 1, 2):
            assert abs(ms.fault_bus_v[b][s] - oracle.fault_v(b)[s]) < 1e-9, (b, s)
    for channel, ref in want.items():
        for s in (0, 1, 2):
            assert abs(ms.fault_branch_i[channel][s] - ref[s]) < 1e-9, (channel, s)
    for seq in (0, 1, 2):
        lines, tables = kept(study.zbus(seq))
        assert lines <= 1 and tables == 0, seq


def test_named_taps_equal_all_taps_bit_for_bit_on_a_fifteen_block_mesh():
    """A few named channels read the same bits as with every channel tapped,
    pre-fault and in every sequence, on a 20x20 mesh of fifteen blocks: the
    CLI taps only the channels it reads and relies on this."""
    net = parse_case(mesh_text(20, seed=1))
    assert len(seqmatrix._level_blocks(net)[1]) == 15
    named_study, every_study = FaultStudy(net), FaultStudy(net)
    for line_id in ("h0_0", "v9_9", "h12_5", "v18_19"):
        taps = MeasurementTaps(
            buses=(1, 210, 400), branches=("h19_18", f"{line_id}@from", f"{line_id}@to")
        )
        for ftype in FaultType:
            sc = FaultScenario(line_id, 0.37, ftype, 2.0)
            named, every = named_study.measurements(sc, taps), every_study.measurements(sc)
            assert set(named.fault_bus_v) == set(taps.buses)
            assert set(named.fault_branch_i) == set(taps.branches)
            for field in ("prefault_bus_v", "fault_bus_v", "prefault_branch_i", "fault_branch_i"):
                got, want = getattr(named, field), getattr(every, field)
                for key, value in got.items():
                    bits = np.asarray(value, dtype=complex).tobytes()
                    assert bits == np.asarray(want[key], dtype=complex).tobytes(), (
                        line_id, ftype, field, key
                    )


def test_infinite_rf_reproduces_prefault(fourbus_study):
    sc = FaultScenario("T2", 0.5, FaultType.LLL, rf_ohm=math.inf)
    ms = fourbus_study.measurements(sc)
    for b, pre in ms.prefault_bus_v.items():
        triple = ms.fault_bus_v[b]
        assert triple[1] == pre
        assert triple[0] == 0 and triple[2] == 0
    for bid, pre in ms.prefault_branch_i.items():
        assert ms.fault_branch_i[bid][1] == pre


def test_scenario_rejects_negative_and_nan_rf():
    for rf in (-1.0, math.nan):
        with pytest.raises(ValueError, match="negative or NaN"):
            FaultScenario("T2", 0.5, FaultType.LG, rf_ohm=rf)
    assert FaultScenario("T2", 0.5, FaultType.LG, rf_ohm=math.inf).rf_ohm == math.inf


def test_scenario_rejects_m_outside_the_line_and_takes_a_type_name():
    with pytest.raises(ValueError, match=r"fault position m=1\.5 outside \[0, 1\]"):
        FaultScenario("T2", 1.5, FaultType.LG)
    assert FaultScenario("T2", 0.5, "LLG").fault_type is FaultType.LLG


def test_lg_wiring_identity(fourbus, fourbus_study):
    """Reported fault voltages are exactly E0 - Z_kr(m) * i1, by construction."""
    sc = FaultScenario("T2", 0.56, FaultType.LG, rf_ohm=1.0)
    ms = fourbus_study.measurements(sc)
    cur = fourbus_study.fault_currents(sc)
    line = fourbus.line("T2")
    for b in fourbus.buses:
        zkr = transfer_coefficients(fourbus_study.zbus(1), line, b).at(sc.m)
        assert ms.fault_bus_v[b][1] == ms.prefault_bus_v[b] - zkr * cur[1]


def _delta_v(ms, bus):
    """Positive-sequence voltage change at a bus."""
    return ms.fault_bus_v[bus][1] - ms.prefault_bus_v[bus]


def test_voltage_change_ratio_identity(fourbus, fourbus_study):
    sc = FaultScenario("T2", 0.73, FaultType.LL, rf_ohm=10.0)
    ms = fourbus_study.measurements(sc)
    line = fourbus.line("T2")
    zb = fourbus_study.zbus(1)
    zk = transfer_coefficients(zb, line, 1).at(sc.m)
    zl = transfer_coefficients(zb, line, 2).at(sc.m)
    assert abs(_delta_v(ms, 1) / _delta_v(ms, 2) - zk / zl) < 1e-12


def test_superposition_changes_scale_with_fault_current(fourbus_study):
    ms_a = fourbus_study.measurements(FaultScenario("T2", 0.4, FaultType.LLL, 1.0))
    ms_b = fourbus_study.measurements(FaultScenario("T2", 0.4, FaultType.LLL, 25.0))
    i_a = fourbus_study.fault_currents(FaultScenario("T2", 0.4, FaultType.LLL, 1.0))[1]
    i_b = fourbus_study.fault_currents(FaultScenario("T2", 0.4, FaultType.LLL, 25.0))[1]
    for b in fourbus_study.net.buses:
        assert abs(_delta_v(ms_a, b) / i_a - _delta_v(ms_b, b) / i_b) < 1e-12


def test_superposition_halved_loop_doubles_every_change():
    # Purely resistive circuit so a real fault resistance can halve the loop:
    # Z_rr(0.5) = 0.1 pu, so rf 0.3 pu -> 0.1 pu takes the loop from 0.4 to 0.2.
    net = parse_case(
        "base 100 230 50\nbus 1\nbus 2\nline L 1 2 1.0 0.1 0 0.1 0\nsource 1 0.05 0\n"
    )
    study = FaultStudy(net)
    z_base = net.z_base_ohm
    taps = MeasurementTaps()
    ms_a = study.measurements(FaultScenario("L", 0.5, FaultType.LLL, 0.3 * z_base), taps)
    ms_b = study.measurements(FaultScenario("L", 0.5, FaultType.LLL, 0.1 * z_base), taps)
    for b in net.buses:
        assert abs(_delta_v(ms_b, b) - 2.0 * _delta_v(ms_a, b)) < 1e-12
    for ch in ("L@from", "L@to"):
        delta_a, delta_b = (
            ms.fault_branch_i[ch][1] - ms.prefault_branch_i[ch] for ms in (ms_a, ms_b)
        )
        assert abs(delta_b - 2.0 * delta_a) < 1e-12


@pytest.mark.parametrize("m", [0.0, 0.35, 1.0])
def test_segment_currents_balance_fault_current(fourbus_study, m):
    sc = FaultScenario("T2", m, FaultType.LG, rf_ohm=1.0)
    ms = fourbus_study.measurements(sc, MeasurementTaps())
    cur = fourbus_study.fault_currents(sc)
    for s in (0, 1, 2):
        total = ms.fault_branch_i["T2@from"][s] + ms.fault_branch_i["T2@to"][s]
        assert abs(total - cur[s]) < 1e-9


@pytest.mark.parametrize("case", ["fourbus", "ieee14"])
def test_terminal_currents_are_continuous_at_both_line_ends(request, case):
    # At m = 0 and m = 1 one segment has no length: the terminal currents
    # there must be the limits of their interior values.
    net = request.getfixturevalue(case)
    study = request.getfixturevalue(f"{case}_study")
    for line, ftype in ((line, ftype) for line in net.lines for ftype in FaultType):
        taps = MeasurementTaps(buses=(), branches=(f"{line.id}@from", f"{line.id}@to"))
        for end, near in ((0.0, 1e-12), (1.0, 1.0 - 1e-12)):
            at, by = (FaultScenario(line.id, m, ftype, 1.0) for m in (end, near))
            ms_at, ms_by = study.measurements(at, taps), study.measurements(by, taps)
            tol = 1e-6 * abs(study.fault_currents(at)[1])
            for channel in (f"{line.id}@from", f"{line.id}@to"):
                for s in (0, 1, 2):
                    diff = ms_at.fault_branch_i[channel][s] - ms_by.fault_branch_i[channel][s]
                    assert abs(diff) <= tol, (channel, ftype, end, s)


def test_taps_select_channels_and_reject_unknown(fourbus_study):
    sc = FaultScenario("T2", 0.5, FaultType.LG, 1.0)
    ms = fourbus_study.measurements(sc, MeasurementTaps(buses=(1, 2), branches=("T1",)))
    assert set(ms.fault_bus_v) == {1, 2}
    assert set(ms.fault_branch_i) == {"T1"}
    with pytest.raises(KeyError):
        fourbus_study.measurements(sc, MeasurementTaps(buses=(99,)))
    with pytest.raises(KeyError, match="faulted line"):
        fourbus_study.measurements(sc, MeasurementTaps(branches=("T2",)))


# ---------------------------------------------------------------------------
# Symmetrical-components transform
# ---------------------------------------------------------------------------


def test_sequence_transform_balanced_set():
    a = cmath.rect(1.0, 0.0)
    b = cmath.rect(1.0, math.radians(-120))
    c = cmath.rect(1.0, math.radians(120))
    s0, s1, s2 = sequence_transform(a, b, c)
    assert abs(s0) < 1e-15
    assert s1 == pytest.approx(1.0 + 0j)
    assert abs(s2) < 1e-15


def test_sequence_transform_common_mode():
    s0, s1, s2 = sequence_transform(1 + 0j, 1 + 0j, 1 + 0j)
    assert s0 == pytest.approx(1.0 + 0j)
    assert abs(s1) < 1e-15 and abs(s2) < 1e-15


def test_sequence_transform_roundtrip():
    phasors = (0.9 + 0.1j, -0.4 + 0.8j, 0.2 - 1.1j)
    seq = sequence_transform(*phasors)
    back = inverse_sequence_transform(*seq)
    for x, y in zip(phasors, back):
        assert abs(x - y) < 1e-12


# ---------------------------------------------------------------------------
# Distortion
# ---------------------------------------------------------------------------


def test_distortion_empty_spec_is_identity(fourbus_study):
    ms = fourbus_study.measurements(FaultScenario("T2", 0.5, FaultType.LG, 1.0))
    out = apply_distortion(ms, [])
    assert out.fault_bus_v == ms.fault_bus_v
    assert out.fault_branch_i == ms.fault_branch_i
    assert out.prefault_bus_v == ms.prefault_bus_v


def test_distortion_clamp_isolates_channel(fourbus_study):
    taps = MeasurementTaps()
    ms = fourbus_study.measurements(FaultScenario("T2", 0.56, FaultType.LLL, 1.0), taps)
    mag = abs(ms.fault_branch_i["T2@from"][1])
    out = apply_distortion(
        ms, [Distortion(kind="branchI", channel="T2@from", clamp_pu=0.8 * mag)]
    )
    assert abs(out.fault_branch_i["T2@from"][1]) == pytest.approx(0.8 * mag)
    for key in ms.fault_branch_i:
        if key != "T2@from":
            assert out.fault_branch_i[key] == ms.fault_branch_i[key]
    assert out.fault_bus_v == ms.fault_bus_v
    assert out.prefault_branch_i == ms.prefault_branch_i


def test_distortion_gain_scales_phasor(fourbus_study):
    ms = fourbus_study.measurements(FaultScenario("T2", 0.5, FaultType.LG, 1.0))
    out = apply_distortion(ms, [Distortion(kind="busV", channel="1", gain=1.01)])
    assert out.fault_bus_v[1][1] == ms.fault_bus_v[1][1] * 1.01
    assert out.prefault_bus_v[1] == ms.prefault_bus_v[1] * 1.01
    assert out.fault_bus_v[2] == ms.fault_bus_v[2]


def test_distortion_unknown_channel(fourbus_study):
    ms = fourbus_study.measurements(FaultScenario("T2", 0.5, FaultType.LG, 1.0))
    with pytest.raises(KeyError):
        apply_distortion(ms, [Distortion(kind="branchI", channel="nope")])
    with pytest.raises(KeyError):
        apply_distortion(ms, [Distortion(kind="busV", channel="42")])
    with pytest.raises(KeyError, match="unknown channel kind 'phaseA'"):
        apply_distortion(ms, [Distortion(kind="phaseA", channel="1")])


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------


def test_measurements_csv_roundtrip(fourbus_study):
    taps = MeasurementTaps()
    ms = fourbus_study.measurements(FaultScenario("T2", 0.56, FaultType.LLG, 10.0), taps)
    text = measurements_to_csv(ms)
    again = measurements_from_csv(text)
    assert again.prefault_bus_v == ms.prefault_bus_v
    assert again.fault_bus_v == ms.fault_bus_v
    assert again.prefault_branch_i == ms.prefault_branch_i
    assert again.fault_branch_i == ms.fault_branch_i


def test_measurements_csv_rejects_garbage():
    with pytest.raises(ValueError):
        measurements_from_csv("not,a,header\n")


@pytest.mark.parametrize(
    "row, problem",
    [
        ("busV,1,pre,1,nan,0", "not finite"),
        ("busV,1,fault,1,inf,0", "not finite"),
        ("branchI,T1,fault,0,0.5,-inf", "not finite"),
        ("busV,1,fault,3,0.1,0", "sequence"),
        ("branchI,T1,fault,-1,0.1,0", "sequence"),
        ("busV,1,pre,0,0.5,0", "pre row must be sequence 1"),
        ("busV,1,during,1,0.1,0", "stage"),
        ("branchI,T1,Fault,1,0.1,0", "stage"),
        ("busV,1,fault,1,0.1", "expected 6 fields, got 5"),
        ("busV,1,fault,1,0.1,0,0", "expected 6 fields, got 7"),
        ("phaseV,1,fault,1,0.1,0", "unknown channel kind"),
        ("busV,one,fault,1,0.1,0", "bad bus label or number"),
        ("busV,1,fault,1,0.1,x", "bad bus label or number"),
    ],
)
def test_measurements_csv_rejects_bad_values(row, problem):
    with pytest.raises(ValueError, match=problem) as err:
        measurements_from_csv(f"kind,id,stage,seq,re,im\n{row}\n")
    assert row in str(err.value)


def test_simulate_one_shot_matches_study(fourbus, fourbus_study):
    sc = FaultScenario("T2", 0.2, FaultType.LL, 1.0)
    a = FaultStudy(fourbus).measurements(sc)
    b = fourbus_study.measurements(sc)
    assert a.fault_bus_v == b.fault_bus_v
    assert a.fault_branch_i == b.fault_branch_i


# ---------------------------------------------------------------------------
# Study set-up
# ---------------------------------------------------------------------------

# The source at bus 1 sets its own negative-sequence impedance.
OWN_Z2 = """
base 100 230 50
bus 1
bus 2
line L 1 2 1.0 0.02 0.2 0.06 0.6
source 1 0.01 0.1 0.005 0.05 0.012 0.11
source 2 0.01 0.1
"""


@pytest.mark.parametrize("name", ["fourbus", "ieee14"])
def test_study_shares_the_positive_sequence_matrix(request, name):
    net = request.getfixturevalue(name)
    study = FaultStudy(net)
    z2 = study.zbus(2)
    assert z2.sequence == 2
    assert z2._blocks is study.zbus(1)._blocks  # stored blocks and factors
    assert dense_z(z2).tobytes() == dense_z(build_zbus(net, 2)).tobytes()
    column = z2.column(net.buses[0])
    column[0] = 0.0  # a copy: the shared matrix keeps its entry
    assert z2.column(net.buses[0])[0] != 0.0 and study.zbus(1).column(net.buses[0])[0] != 0.0


def test_study_builds_its_own_matrix_for_a_source_z2():
    net = parse_case(OWN_Z2)
    study = FaultStudy(net)
    z1, z2 = study.zbus(1), study.zbus(2)
    assert z2._blocks is not z1._blocks
    assert dense_z(z2).tobytes() == dense_z(build_zbus(net, 2)).tobytes()
    assert not np.allclose(dense_z(z2), dense_z(z1))


@pytest.mark.parametrize("ftype", list(FaultType))
def test_measurements_with_a_source_z2_match_the_direct_solve(ftype):
    """A source with its own z2 gives Z2 blocks and laws of its own, which
    the negative-sequence values and the fault currents read."""
    net = parse_case(OWN_Z2)
    sc = FaultScenario("L", 0.3, ftype, 2.0)
    ms = FaultStudy(net).measurements(sc)
    oracle = DirectFaultSolve(net, "L", sc.m, ftype, sc.rf_ohm)
    for s in (0, 1, 2):
        for b in net.buses:
            assert abs(ms.fault_bus_v[b][s] - oracle.fault_v(b)[s]) < 1e-9, (b, s)
        for end in ("from", "to"):
            assert abs(ms.fault_branch_i[f"L@{end}"][s] - oracle.segment_i(end)[s]) < 1e-9


def test_mesh_setup_inverts_twice_and_runs_no_svd(monkeypatch):
    """Sequences 0 and 1 are each inverted once, block by block (sequence 2
    shares sequence 1's matrix); no step factorises Y again."""
    net = parse_case(mesh_text(12, seed=11))
    blocks = [(b - a, b - a) for a, b, _ in seqmatrix._level_blocks(net)[1]]
    assert len(blocks) > 1 and sum(size for size, _ in blocks) == 144
    inverted = []
    inv = np.linalg.inv

    def counted_inv(a):
        inverted.append(a.shape)
        return inv(a)

    def forbidden(*args, **kwargs):
        raise AssertionError("set-up must not factorise Y a second time")

    monkeypatch.setattr(np.linalg, "inv", counted_inv)
    monkeypatch.setattr(np.linalg, "svd", forbidden)
    monkeypatch.setattr(np.linalg, "cond", forbidden)
    study = FaultStudy(net)
    for seq in (0, 1, 2):
        study.zbus(seq)
    study.prefault
    assert inverted == blocks + blocks
