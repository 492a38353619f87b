from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from faultloc import (
    FaultPointCoefficients,
    FaultStudy,
    IllConditionedNetworkError,
    LinearLaw,
    SequenceZbus,
    UngroundedNetworkError,
    branch_coefficients,
    build_ybus,
    build_zbus,
    fault_point_coefficients,
    parse_case,
    transfer_coefficients,
)
from faultloc import seqmatrix
from faultloc.netmodel import LineRecord, Network, SourceRecord

from oracles import assemble_y, invert_y, tap_network
from test_ranking import mesh_text

M_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)


def test_single_bus_single_source():
    net = parse_case("bus 1\nsource 1 0.0006 0.037343\n")
    zb = build_zbus(net, 1)
    assert zb.z.shape == (1, 1)
    assert zb.at(1, 1) == pytest.approx(complex(0.0006, 0.037343))


def test_two_bus_series_circuit(two_bus):
    zb = build_zbus(two_bus, 1)
    zs = complex(0.01, 0.1)
    zl = complex(0.02, 0.2)
    assert zb.at(1, 1) == pytest.approx(zs, abs=1e-12)
    assert zb.at(1, 2) == pytest.approx(zs, abs=1e-12)
    assert zb.at(2, 2) == pytest.approx(zs + zl, abs=1e-12)


@pytest.mark.parametrize("seq", [0, 1, 2])
def test_fourbus_matches_independent_inversion(fourbus, seq):
    zb = build_zbus(fourbus, seq)
    oracle = invert_y(fourbus, seq)
    assert np.max(np.abs(zb.z - oracle)) < 1e-9


@pytest.mark.parametrize("case", ["fourbus", "ieee14"])
@pytest.mark.parametrize("seq", [0, 1, 2])
def test_zbus_symmetry_and_duality(case, seq, fourbus, ieee14):
    net = fourbus if case == "fourbus" else ieee14
    zb = build_zbus(net, seq)
    asym = np.max(np.abs(zb.z - zb.z.T))
    assert asym <= 1e-12 * np.max(np.abs(zb.z))
    y = build_ybus(net, seq)
    eye = np.eye(net.n)
    assert np.max(np.abs(zb.z @ y - eye)) <= 1e-9


def test_sequence_two_equals_sequence_one(fourbus, ieee14):
    for net in (fourbus, ieee14):
        z1 = build_zbus(net, 1)
        z2 = build_zbus(net, 2)
        assert np.array_equal(z1.z, z2.z)


def test_transfer_coefficients_at_endpoint(fourbus):
    zb = build_zbus(fourbus, 1)
    line = fourbus.line("T2")
    tc = transfer_coefficients(zb, line, line.from_bus)
    assert tc.b == zb.at(line.from_bus, line.from_bus)
    assert tc.c == zb.at(line.to_bus, line.from_bus) - zb.at(line.from_bus, line.from_bus)


def test_transfer_coefficients_two_bus_hand_values(two_bus):
    zb = build_zbus(two_bus, 1)
    line = two_bus.line("L")
    tc = transfer_coefficients(zb, line, 2)
    assert tc.b == pytest.approx(complex(0.01, 0.1), abs=1e-12)
    assert tc.c == pytest.approx(complex(0.02, 0.2), abs=1e-12)


@pytest.mark.parametrize("seq", [0, 1])
def test_transfer_law_matches_tap_rebuild_everywhere(fourbus, seq):
    """B + C*m equals the rebuilt matrix column at the fault node, all pairs."""
    zb = build_zbus(fourbus, seq)
    for line in fourbus.lines:
        coeffs = {b: transfer_coefficients(zb, line, b) for b in fourbus.buses}
        for m in M_GRID:
            if 0.0 < m < 1.0:
                tnet, r = tap_network(fourbus, line.id, m)
                zt = np.linalg.inv(assemble_y(tnet, seq))
                idx = {b: i for i, b in enumerate(tnet.buses)}
                for b in fourbus.buses:
                    assert abs(coeffs[b].at(m) - zt[idx[b], idx[r]]) < 1e-9
            else:
                end = line.from_bus if m == 0.0 else line.to_bus
                for b in fourbus.buses:
                    assert abs(coeffs[b].at(m) - zb.at(end, b)) < 1e-9


def test_fault_point_law_endpoints_and_interior(fourbus):
    zb = build_zbus(fourbus, 1)
    for line in fourbus.lines:
        fp = fault_point_coefficients(zb, line)
        assert abs(fp.z_at(0.0) - zb.at(line.from_bus, line.from_bus)) < 1e-12
        assert abs(fp.z_at(1.0) - zb.at(line.to_bus, line.to_bus)) < 1e-12
        for m in (0.25, 0.5, 0.75):
            tnet, r = tap_network(fourbus, line.id, m)
            zt = np.linalg.inv(assemble_y(tnet, 1))
            ri = tnet.bus_index(r)
            assert abs(fp.z_at(m) - zt[ri, ri]) < 1e-9


def test_branch_coefficients_symmetric_placement_vanish(diamond):
    """A branch bridging two electrically mirrored buses never sees the fault."""
    zb = build_zbus(diamond, 1)
    fault_line = diamond.line("F")
    bc = branch_coefficients(zb, fault_line, diamond.line("W"))
    assert abs(bc.b) < 1e-12
    assert abs(bc.c) < 1e-12


def test_branch_law_matches_tap_rebuild_current_change(fourbus):
    """-beta(m) * injected current equals the branch current change."""
    m = 0.5
    zb = build_zbus(fourbus, 1)
    fault_line = fourbus.line("T2")
    tnet, r = tap_network(fourbus, "T2", m)
    zt = np.linalg.inv(assemble_y(tnet, 1))
    idx = {b: i for i, b in enumerate(tnet.buses)}
    # Unit fault current drawn at the tap node changes every bus voltage by
    # -Z[:, r]; healthy-branch current changes follow from Ohm's law.
    for rec in fourbus.lines:
        if rec.id == "T2":
            continue
        bc = branch_coefficients(zb, fault_line, rec)
        dv = -(zt[idx[rec.from_bus], idx[r]] - zt[idx[rec.to_bus], idx[r]])
        di_oracle = dv / rec.z1
        assert abs(-bc.at(m) - di_oracle) < 1e-9


def test_parallel_healthy_branch_beta_varies_with_m(parallel_pair):
    """Fault on one of two parallel lines: the healthy twin's share moves."""
    zb = build_zbus(parallel_pair, 1)
    fault_line = parallel_pair.line("P1")
    bc = branch_coefficients(zb, fault_line, parallel_pair.line("P2"))
    assert abs(bc.at(0.0) - bc.at(1.0)) > 1e-3
    # and the tap oracle agrees at an interior point
    m = 0.4
    tnet, r = tap_network(parallel_pair, "P1", m)
    zt = np.linalg.inv(assemble_y(tnet, 1))
    idx = {b: i for i, b in enumerate(tnet.buses)}
    rec = parallel_pair.line("P2")
    dv = -(zt[idx[rec.from_bus], idx[r]] - zt[idx[rec.to_bus], idx[r]])
    assert abs(-bc.at(m) - dv / rec.z1) < 1e-9


def test_all_lines_laws_equal_one_line_laws_bit_for_bit(ieee14):
    zb = build_zbus(ieee14, 1)
    order = list(reversed(range(ieee14.n)))
    permuted = SequenceZbus(
        sequence=1,
        z=zb.z[np.ix_(order, order)],
        bus_order=tuple(ieee14.buses[i] for i in order),
        condition=zb.condition,
    )
    for z in (zb, permuted):
        ends = tuple(
            np.array([z.index(getattr(rec, end)) for rec in ieee14.lines])
            for end in ("from_bus", "to_bus")
        ) + (np.array([rec.id for rec in ieee14.lines]),)
        for law_of, source in (
            (transfer_coefficients, 14),
            (branch_coefficients, ieee14.line("13-14")),
            (branch_coefficients, ieee14.channel("13-14@from")),
            (branch_coefficients, ieee14.channel("4-5@to")),
        ):
            every = law_of(z, ends, source)
            for i, line in enumerate(ieee14.lines):
                one = law_of(z, line, source)
                assert type(one.b) is complex and type(one.c) is complex
                want = _bits(_reference_law(z, line, source))
                assert _bits(one) == want
                assert _bits(LinearLaw(complex(every.b[i]), complex(every.c[i]))) == want


def test_branch_coefficients_zero_impedance_rejected(fourbus):
    zb = build_zbus(fourbus, 1)
    degenerate = LineRecord("Z", 1, 2, 1.0, 0j, 0j)
    with pytest.raises(ValueError, match="zero impedance"):
        branch_coefficients(zb, fourbus.line("T2"), degenerate)


def test_ungrounded_network_rejected():
    net = Network(buses=(1,), lines=(), sources=())
    with pytest.raises(UngroundedNetworkError):
        build_zbus(net, 1)


def test_ill_conditioned_network_rejected():
    net = Network(
        buses=(1, 2),
        lines=(LineRecord("L", 1, 2, 1.0, complex(1.0, 0.0), complex(1.0, 0.0)),),
        sources=(SourceRecord(bus=1, z1=complex(1e-13, 0.0)),),
    )
    with pytest.raises(IllConditionedNetworkError, match="condition"):
        build_zbus(net, 1)


@pytest.mark.parametrize("name", ["fourbus", "ieee14"])
@pytest.mark.parametrize("seq", [0, 1, 2])
def test_checked_condition_is_the_one_norm_condition_number(request, name, seq):
    net = request.getfixturevalue(name)
    want = np.linalg.cond(build_ybus(net, seq), 1)
    assert build_zbus(net, seq).condition == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("name", ["fourbus", "ieee14"])
@pytest.mark.parametrize("seq", [0, 1, 2])
def test_one_block_is_the_dense_inverse_bit_for_bit(request, name, seq):
    """A network of at most MIN_BLOCK buses is one block: today's inverse."""
    net = request.getfixturevalue(name)
    assert len(seqmatrix._level_blocks(net)[1]) == 1
    z = np.linalg.inv(build_ybus(net, seq))
    assert build_zbus(net, seq).z.tobytes() == (0.5 * (z + z.T)).tobytes()


def _block_net(request, name: str) -> Network:
    if name.startswith("mesh"):
        return parse_case(mesh_text(int(name[4:]), seed=11))
    return request.getfixturevalue(name)


def _check_block_inverse(net: Network, seq: int) -> seqmatrix.SequenceZbus:
    """Z from the block inverse against the dense oracle (within 1e-9, relative
    once entries exceed 1), exactly symmetric, and an inverse of Y."""
    zb = build_zbus(net, seq)
    want = invert_y(net, seq)
    assert np.max(np.abs(zb.z - want)) <= 1e-9 * max(1.0, np.max(np.abs(want)))
    assert np.array_equal(zb.z, zb.z.T)
    assert np.max(np.abs(zb.z @ assemble_y(net, seq) - np.eye(net.n))) <= 1e-9
    return zb


@pytest.mark.parametrize("min_block", [1, 2])
@pytest.mark.parametrize("name", ["fourbus", "ieee14", "mesh8", "mesh12"])
@pytest.mark.parametrize("seq", [0, 1])
def test_block_inverse_matches_the_dense_inverse(monkeypatch, request, min_block, name, seq):
    """Blocks of one or two buses put even small networks through many blocks."""
    monkeypatch.setattr(seqmatrix, "MIN_BLOCK", min_block)
    net = _block_net(request, name)
    order, spans = seqmatrix._level_blocks(net)
    # fourbus's BFS levels hold 1, 2 and 1 buses: one block of at least two.
    assert len(spans) > 1 or (name, min_block) == ("fourbus", 2)
    assert sorted(order) == list(range(net.n)) and all(b - a >= min_block for a, b, _ in spans)
    zb = _check_block_inverse(net, seq)
    assert zb.condition == pytest.approx(np.linalg.cond(assemble_y(net, seq), 1), rel=1e-9)


@st.composite
def _grounded_networks(draw):
    """Networks of 2 to 10 buses: connected, or two islands with a source
    each.  Every line has positive resistance; some have negative reactance
    (series compensation)."""
    n = draw(st.integers(2, 10))
    split = draw(st.integers(2, n)) if draw(st.booleans()) else n + 1  # island 2's first bus
    islands = [range(1, split), range(split, n + 1)]
    edges = []
    for island in filter(None, islands):
        edges += [(b, draw(st.integers(island[0], b - 1))) for b in island[1:]]
        pair = st.tuples(st.sampled_from(island), st.sampled_from(island))
        edges += draw(st.lists(pair.filter(lambda e: e[0] != e[1]), max_size=4))
    reactance = st.one_of(st.floats(0.01, 0.1), st.floats(-0.05, -0.005))
    lines = tuple(
        LineRecord(f"L{k}", a, b, 1.0, complex(draw(st.floats(1e-3, 1e-2)), draw(reactance)),
                   complex(draw(st.floats(3e-3, 3e-2)), draw(reactance)))
        for k, (a, b) in enumerate(edges)
    )
    sources = tuple(
        SourceRecord(draw(st.sampled_from(island)), complex(draw(st.floats(1e-3, 1e-2)), 0.05))
        for island in filter(None, islands)
    )
    return Network(tuple(range(1, n + 1)), lines, sources)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(net=_grounded_networks())
def test_block_inverse_on_random_networks(net):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(seqmatrix, "MIN_BLOCK", 1)
        for seq in (0, 1):
            _check_block_inverse(net, seq)


def test_zbus_matrix_is_read_only(fourbus):
    zb = build_zbus(fourbus, 1)
    with pytest.raises(ValueError, match="read-only"):
        zb.z[0, 0] = 0.0


def test_channel_laws_on_their_own_line_and_elsewhere(fourbus):
    """A channel's law is its line's branch law ``t`` (negated at ``@to``)
    under a fault elsewhere, and ``t - (1 - m)`` at ``@from`` or ``-t - m``
    at ``@to`` under a fault on its own line; a bare line is its current."""
    zb = build_zbus(fourbus, 1)
    t2 = fourbus.line("T2")
    for faulted in fourbus.lines:
        t = branch_coefficients(zb, faulted, t2)
        assert branch_coefficients(zb, faulted, (t2, "")) == t
        own = faulted is t2
        for end, want in (
            ("from", (t.b - 1, t.c + 1) if own else (t.b, t.c)),
            ("to", (-t.b, -t.c - 1) if own else (-t.b, -t.c)),
        ):
            law = branch_coefficients(zb, faulted, fourbus.channel(f"T2@{end}"))
            assert (law.b, law.c) == want, (faulted.id, end)


def _bits(law):
    """Every coefficient of a law as its repr, which keeps every bit of a
    float, the sign of zero too."""
    return tuple(repr(v) for v in vars(law).values())


def _reference_law(zb, line, source):
    """The law of a channel measuring ``source`` (a bus, or a line and
    terminal) under a fault on ``line``, in plain ``complex`` arithmetic:
    the rounding that keeps reports bit-identical, kept apart from the
    engine's arrays."""
    if source == "fault point":
        zpp, zqq, zpq = (
            complex(zb.z[zb.index(a), zb.index(b)])
            for a, b in ((line.from_bus,) * 2, (line.to_bus,) * 2, (line.from_bus, line.to_bus))
        )
        zl = line.z(zb.sequence)
        return FaultPointCoefficients(zpp, 2.0 * (zpq - zpp) + zl, zpp + zqq - 2.0 * zpq - zl)
    if isinstance(source, int):
        k = zb.index(source)
        zp = complex(zb.z[zb.index(line.from_bus), k])
        zq = complex(zb.z[zb.index(line.to_bus), k])
        return LinearLaw(zp, zq - zp)
    rec, end = source if isinstance(source, tuple) else (source, "")
    ck, cl = (_reference_law(zb, line, bus) for bus in (rec.from_bus, rec.to_bus))
    zl = rec.z(zb.sequence)
    b, c = (ck.b - cl.b) / zl, (ck.c - cl.c) / zl
    own = float(line.id == rec.id)
    return {
        "": LinearLaw(b, c),
        "from": LinearLaw(b - own, c + own),
        "to": LinearLaw(-b, -c - own),
    }[end]


def _law(zb, line, source):
    if source == "fault point":
        return fault_point_coefficients(zb, line)
    law_of = transfer_coefficients if isinstance(source, int) else branch_coefficients
    return law_of(zb, line, source)


@pytest.mark.parametrize("name", ["fourbus", "ieee14"])
def test_memoised_laws_equal_reference_laws_bit_for_bit(request, name):
    """Every law of every faulted line, asked for twice, against the plain
    ``complex`` reference: the first ask builds it, the second reads the memo."""
    net = request.getfixturevalue(name)
    study = FaultStudy(net)
    sources = ["fault point", *net.buses] + [
        net.channel(f"{rec.id}{end}") for rec in net.lines for end in ("", "@from", "@to")
    ]
    for seq in (0, 1, 2):
        zb = study.zbus(seq)
        for line in net.lines:
            for source in sources:
                want = _bits(_reference_law(zb, line, source))
                law = _law(zb, line, source)
                assert _bits(law) == want, (seq, line.id, source)
                assert _law(zb, line, source) is law, (seq, line.id, source)


def test_memo_holds_one_faulted_line(ieee14):
    """Asking about another faulted line empties the memo, so a sweep over
    every line keeps one line's laws; a line asked about again is rebuilt
    to the same bits."""
    zb = build_zbus(ieee14, 1)
    first, second = ieee14.lines[:2]
    channels = [(rec, end) for rec in ieee14.lines for end in ("", "from", "to")]
    kept = [branch_coefficients(zb, first, ch) for ch in channels]
    kept += [transfer_coefficients(zb, first, bus) for bus in ieee14.buses]
    size = len(zb._laws)
    assert size <= len(channels) + ieee14.n + 1
    transfer_coefficients(zb, second, 14)
    assert len(zb._laws) <= 2
    again = transfer_coefficients(zb, first, 14)
    assert again is not kept[-1] and _bits(again) == _bits(kept[-1])


def test_sequence_two_copy_keeps_its_own_laws(fourbus):
    study = FaultStudy(fourbus)
    matrices = [study.zbus(1), study.zbus(2), study.zbus(0)]
    assert matrices[1].z is matrices[0].z
    t2, t1_to = fourbus.line("T2"), fourbus.channel("T1@to")

    def laws(z):
        return (
            transfer_coefficients(z, t2, 3),
            branch_coefficients(z, t2, t1_to),
            fault_point_coefficients(z, t2),
        )

    first = [laws(z) for z in matrices]
    for z, own in zip(matrices, first):
        assert all(a is b for a, b in zip(laws(z), own))  # memo hits
        for other in first:
            if other is not own:
                assert all(a is not b for a, b in zip(other, own))
    assert first[2] != first[0]  # Z0 differs from Z1
    # The memo is invisible to equality and repr.
    z1 = matrices[0]
    assert replace(z1) == z1 and repr(replace(z1)) == repr(z1)


def test_records_sharing_an_id_get_their_own_laws(fourbus):
    zb = build_zbus(fourbus, 1)
    t2, t1 = fourbus.line("T2"), fourbus.line("T1")
    swapped = replace(t2, from_bus=t2.to_bus, to_bus=t2.from_bus)
    longer = replace(t2, length_km=2.0 * t2.length_km)
    for law_of, other in (
        (lambda z, line: transfer_coefficients(z, line, 4), swapped),
        (fault_point_coefficients, longer),
        (lambda z, line: branch_coefficients(z, t1, line), longer),
        (lambda z, line: branch_coefficients(z, line, (t2, "from")), swapped),
    ):
        mine = law_of(zb, t2)
        assert law_of(zb, t2) is mine
        theirs = law_of(zb, other)
        assert law_of(zb, other) is theirs
        assert mine != theirs
        assert _bits(theirs) == _bits(law_of(replace(zb), other))
