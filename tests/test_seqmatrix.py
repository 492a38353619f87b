from __future__ import annotations

from collections import deque
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from faultloc import FaultStudy, IllConditionedNetworkError, UngroundedNetworkError, build_zbus, parse_case
from faultloc import seqmatrix
from faultloc.faultsim import prefault_solve
from faultloc.seqmatrix import (
    FaultPointCoefficients,
    LinearLaw,
    branch_coefficients,
    build_ybus,
    fault_point_coefficients,
    transfer_coefficients,
)
from faultloc.netmodel import LineRecord, Network, SourceRecord

from oracles import assemble_y, dense_z, invert_y, kept, tap_network
from test_locator import _network
from test_ranking import mesh_text

M_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)


def _at(zb, bus_j: int, bus_k: int) -> complex:
    """``Z[j, k]``, read from the column of bus k."""
    return complex(zb.column(bus_k)[zb.index(bus_j)])


def test_single_bus_single_source():
    net = parse_case("bus 1\nsource 1 0.0006 0.037343\n")
    zb = build_zbus(net, 1)
    assert dense_z(zb).shape == (1, 1)
    assert _at(zb, 1, 1) == pytest.approx(complex(0.0006, 0.037343))


def test_two_bus_series_circuit(two_bus):
    zb = build_zbus(two_bus, 1)
    zs = complex(0.01, 0.1)
    zl = complex(0.02, 0.2)
    assert _at(zb, 1, 1) == pytest.approx(zs, abs=1e-12)
    assert _at(zb, 1, 2) == pytest.approx(zs, abs=1e-12)
    assert _at(zb, 2, 2) == pytest.approx(zs + zl, abs=1e-12)


@pytest.mark.parametrize("seq", [0, 1, 2])
def test_fourbus_matches_independent_inversion(fourbus, seq):
    zb = build_zbus(fourbus, seq)
    oracle = invert_y(fourbus, seq)
    assert np.max(np.abs(dense_z(zb) - oracle)) < 1e-9


@pytest.mark.parametrize("case", ["fourbus", "ieee14"])
@pytest.mark.parametrize("seq", [0, 1, 2])
def test_zbus_symmetry_and_duality(case, seq, fourbus, ieee14):
    net = fourbus if case == "fourbus" else ieee14
    z = dense_z(build_zbus(net, seq))
    asym = np.max(np.abs(z - z.T))
    assert asym <= 1e-12 * np.max(np.abs(z))
    y = build_ybus(net, seq)
    eye = np.eye(net.n)
    assert np.max(np.abs(z @ y - eye)) <= 1e-9


def test_sequence_two_equals_sequence_one(fourbus, ieee14):
    for net in (fourbus, ieee14):
        z1 = build_zbus(net, 1)
        z2 = build_zbus(net, 2)
        assert np.array_equal(dense_z(z1), dense_z(z2))


def test_transfer_coefficients_at_endpoint(fourbus):
    zb = build_zbus(fourbus, 1)
    line = fourbus.line("T2")
    tc = transfer_coefficients(zb, line, line.from_bus)
    assert tc.b == _at(zb, line.from_bus, line.from_bus)
    assert tc.c == _at(zb, line.to_bus, line.from_bus) - _at(zb, line.from_bus, line.from_bus)


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
                    assert abs(coeffs[b].at(m) - _at(zb, end, b)) < 1e-9


def test_fault_point_law_endpoints_and_interior(fourbus):
    zb = build_zbus(fourbus, 1)
    for line in fourbus.lines:
        fp = fault_point_coefficients(zb, line)
        assert abs(fp.z_at(0.0) - _at(zb, line.from_bus, line.from_bus)) < 1e-12
        assert abs(fp.z_at(1.0) - _at(zb, line.to_bus, line.to_bus)) < 1e-12
        for m in (0.25, 0.5, 0.75):
            tnet, r = tap_network(fourbus, line.id, m)
            zt = np.linalg.inv(assemble_y(tnet, 1))
            ri = tnet.bus_index(r)
            assert abs(fp.z_at(m) - zt[ri, ri]) < 1e-9


def test_branch_coefficients_symmetric_placement_vanish(diamond):
    """A branch bridging two electrically mirrored buses never sees the fault."""
    zb = build_zbus(diamond, 1)
    fault_line = diamond.line("F")
    bc = branch_coefficients(zb, fault_line, diamond.channel("W"))
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
        bc = branch_coefficients(zb, fault_line, (rec, ""))
        dv = -(zt[idx[rec.from_bus], idx[r]] - zt[idx[rec.to_bus], idx[r]])
        di_oracle = dv / rec.z1
        assert abs(-bc.at(m) - di_oracle) < 1e-9


def test_parallel_healthy_branch_beta_varies_with_m(parallel_pair):
    """Fault on one of two parallel lines: the healthy twin's share moves."""
    zb = build_zbus(parallel_pair, 1)
    fault_line = parallel_pair.line("P1")
    bc = branch_coefficients(zb, fault_line, parallel_pair.channel("P2"))
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
    permuted = replace(zb, bus_order=tuple(ieee14.buses[i] for i in order), _pos=zb._pos[order])
    for z in (zb, permuted):
        ends = tuple(
            np.array([z.index(getattr(rec, end)) for rec in ieee14.lines])
            for end in ("from_bus", "to_bus")
        ) + (np.array([rec.id for rec in ieee14.lines]),)
        for law_of, source in (
            (transfer_coefficients, 14),
            (branch_coefficients, ieee14.channel("13-14")),
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
        branch_coefficients(zb, fourbus.line("T2"), (degenerate, ""))


def test_ungrounded_network_rejected():
    net = Network(buses=(1,), lines=(), sources=())
    with pytest.raises(UngroundedNetworkError):
        build_zbus(net, 1)


def test_an_island_without_a_source_is_singular():
    # Lossless, so the island's pivot cancels to an exact zero, not roundoff.
    line = LineRecord("I", 2, 3, 1.0, 0.1j, 0.3j)
    net = Network(buses=(1, 2, 3), lines=(line,), sources=(SourceRecord(bus=1, z1=0.1j),))
    with pytest.raises(UngroundedNetworkError, match="sequence-1 network is singular"):
        build_zbus(net, 1)


def test_sequence_must_be_zero_one_or_two(fourbus):
    with pytest.raises(ValueError, match="sequence must be 0, 1 or 2, got 3"):
        build_zbus(fourbus, 3)


def test_ill_conditioned_network_rejected():
    net = Network(
        buses=(1, 2),
        lines=(LineRecord("L", 1, 2, 1.0, complex(1.0, 0.0), complex(1.0, 0.0)),),
        sources=(SourceRecord(bus=1, z1=complex(1e-13, 0.0)),),
    )
    with pytest.raises(IllConditionedNetworkError, match="condition"):
        build_zbus(net, 1)


@pytest.mark.parametrize("source", [0, 1])
def test_multi_block_ill_conditioned_network_rejected(source):
    """The condition number streamed block by block rejects as the dense one
    did: a 12x12 mesh, six blocks, with a 1e-13 pu source in either one."""
    net = parse_case(mesh_text(12, seed=11))
    sources = list(net.sources)
    sources[source] = replace(sources[source], z1=complex(1e-13, 0.0))
    net = replace(net, sources=tuple(sources))
    assert len(seqmatrix._level_blocks(net)[1]) == 6
    with pytest.raises(IllConditionedNetworkError, match="condition"):
        build_zbus(net, 1)


def test_multi_block_condition_is_computed_when_first_read():
    """The bound accepts a ten-block mesh from the stored blocks alone:
    ``build_zbus`` streams no row of Z, and the exact condition number is
    computed on its first read, once."""
    net = parse_case(mesh_text(16, seed=11))
    for seq in (0, 1):
        zb = build_zbus(net, seq)
        assert len(zb._blocks[0]) == 10 and "condition" not in vars(zb)
        assert zb.condition == pytest.approx(np.linalg.cond(build_ybus(net, seq), 1), rel=1e-9)
        assert vars(zb)["condition"] is zb.condition


@pytest.mark.parametrize("bound", [np.inf, np.nan])
def test_exact_condition_decides_what_the_bound_cannot(monkeypatch, bound):
    """A bound that is infinite or NaN accepts nothing: the exact condition
    number decides, and accepts a well-conditioned mesh with the blocks and
    condition number of a matrix the bound accepted."""
    net = parse_case(mesh_text(16, seed=11))
    accepted = [build_zbus(net, seq) for seq in (0, 1)]
    monkeypatch.setattr(seqmatrix, "_z_norm_bound", lambda blocks: bound)
    for seq, want in zip((0, 1), accepted):
        zb = build_zbus(net, seq)
        assert "condition" in vars(zb) and zb.condition == want.condition
        for got, blocks in zip(zb._blocks[1:], want._blocks[1:]):
            assert [b.tobytes() for b in got] == [b.tobytes() for b in blocks]


@pytest.mark.parametrize("n", [12, 16])
def test_multi_block_columns_match_the_dense_inverse(n):
    """At the default MIN_BLOCK a 12x12 or 16x16 mesh is six or ten blocks:
    each column of Z is within 1e-12 of np.linalg.inv's, relative, and
    solves Y for its unit injection within 1e-9."""
    net = parse_case(mesh_text(n, seed=11))
    for seq in (0, 1):
        zb = build_zbus(net, seq)
        assert len(zb._blocks[0]) == {12: 6, 16: 10}[n]
        want, y, eye = invert_y(net, seq), assemble_y(net, seq), np.eye(net.n)
        for k, bus in enumerate(net.buses):
            column = zb.column(bus)
            assert np.max(np.abs(column - want[:, k])) <= 1e-12 * np.max(np.abs(want))
            assert np.max(np.abs(y @ column - eye[k])) <= 1e-9


def _grid_edges(n: int, first: int) -> list[tuple[int, int]]:
    """The lines of an n x n grid whose buses are numbered row by row from ``first``."""
    rows = [(first + r * n + c, first + r * n + c + 1) for r in range(n) for c in range(n - 1)]
    return rows + [(first + r * n + c, first + (r + 1) * n + c) for r in range(n - 1) for c in range(n)]


def _layout_net(name: str) -> Network:
    if name == "mesh30":
        return parse_case(mesh_text(30, seed=11))
    if name == "chain3000":  # the chain of test_feasibility_on_a_long_chain_does_not_recurse
        return _network(3000, [(k, k + 1) for k in range(1, 3000)], grounded=range(1, 3000, 100))
    return _network(181, _grid_edges(10, 1) + _grid_edges(9, 101), grounded=(1, 101))


def _bfs_levels(net: Network) -> np.ndarray:
    """Each bus index's BFS level, every island's counted from its first bus."""
    p, q, _ = net.line_end_indices()
    adj: list[list[int]] = [[] for _ in net.buses]
    for a, b in zip(p.tolist(), q.tolist()):
        adj[a].append(b)
        adj[b].append(a)
    level = [-1] * net.n
    for root in range(net.n):
        if level[root] < 0:
            level[root], queue = 0, deque([root])
            while queue:
                v = queue.popleft()
                for w in adj[v]:
                    if level[w] < 0:
                        level[w] = level[v] + 1
                        queue.append(w)
    return np.array(level)


@pytest.mark.parametrize("name", ["mesh30", "chain3000", "two_islands"])
def test_level_blocks_are_runs_of_whole_levels_that_lines_join_to_the_next(name):
    """The block layout against a BFS of its own: ``pos`` inverts ``order``; each
    block, in bus order, is the shortest run of whole levels that holds
    MIN_BLOCK buses, and a short last run joins the block before; each line's
    ends lie in one block or in two adjacent ones."""
    net = _layout_net(name)
    order, spans, pos, _ = seqmatrix._level_blocks(net)
    assert np.array_equal(np.sort(order), np.arange(net.n))
    assert np.array_equal(order[pos], np.arange(net.n))
    level = _bfs_levels(net)
    sizes = np.bincount(level)
    assert len(spans) > 1 and spans[0][0] == 0 and spans[-1][1:] == (net.n, net.n)
    first = 0  # the first level of the next block
    for i, (a, b, c) in enumerate(spans):
        if i + 1 < len(spans):  # a block's span reaches to the next block's end
            assert spans[i + 1][0] == b and c == spans[i + 1][1]
        members = order[a:b]
        assert np.all(np.diff(members) > 0)
        levels = np.unique(level[members])
        assert np.array_equal(levels, np.arange(first, levels[-1] + 1))
        run = np.cumsum(sizes[first : levels[-1] + 1])
        assert run[-1] == b - a  # whole levels
        reached = int(np.searchsorted(run, seqmatrix.MIN_BLOCK))  # the level that reaches it
        assert reached < len(run)
        if i + 1 < len(spans):
            assert reached == len(run) - 1
        else:
            assert levels[-1] == len(sizes) - 1 and run[-1] - run[reached] < seqmatrix.MIN_BLOCK
        first = levels[-1] + 1
    block = np.searchsorted([a for a, _, _ in spans], pos, side="right") - 1
    p, q, _ = net.line_end_indices()
    assert np.abs(block[p] - block[q]).max() <= 1


def test_matrices_of_one_network_share_one_bfs(monkeypatch):
    """A set-up runs the BFS of its blocks and Y's gather indices once, for
    Z0 and Z1 both, and gets the matrices a network without that cache gets;
    another MIN_BLOCK cuts its blocks afresh."""
    text = mesh_text(12, seed=11)
    net = parse_case(text)
    levels = []
    bincount = np.bincount

    def counted_bincount(*args, **kwargs):  # the BFS's level sizes
        levels.append(args)
        return bincount(*args, **kwargs)

    monkeypatch.setattr(np, "bincount", counted_bincount)
    study = FaultStudy(net)
    matrices = [study.zbus(seq) for seq in (0, 1, 2)]
    assert len(levels) == 1
    order, spans, pos, gather = seqmatrix._level_blocks(net)
    assert seqmatrix._level_blocks(net)[0] is order and not order.flags.writeable
    assert all(zb._pos is pos for zb in matrices) and not pos.flags.writeable
    assert seqmatrix._level_blocks(net)[3] is gather
    for seq, zb in zip((0, 1), matrices):
        fresh = build_zbus(parse_case(text), seq)
        assert dense_z(zb).tobytes() == dense_z(fresh).tobytes()
    runs = len(levels)
    monkeypatch.setattr(seqmatrix, "MIN_BLOCK", 8)
    assert len(seqmatrix._level_blocks(net)[1]) > len(spans) and len(levels) == runs + 1


@pytest.mark.parametrize("name", ["fourbus", "ieee14"])
@pytest.mark.parametrize("seq", [0, 1, 2])
def test_checked_condition_is_the_one_norm_condition_number(request, name, seq):
    net = request.getfixturevalue(name)
    want = np.linalg.cond(build_ybus(net, seq), 1)
    assert build_zbus(net, seq).condition == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("name", ["fourbus", "ieee14", "mesh11"])
@pytest.mark.parametrize("seq", [0, 1, 2])
def test_one_block_is_the_dense_inverse_bit_for_bit(request, name, seq):
    """A network of fewer than ONE_BLOCK_BELOW buses, 121 for the 11x11 mesh,
    is one block: np.linalg.inv's inverse, symmetrised."""
    net = _block_net(request, name)
    assert len(seqmatrix._level_blocks(net)[1]) == 1
    z = np.linalg.inv(build_ybus(net, seq))
    assert dense_z(build_zbus(net, seq)).tobytes() == (0.5 * (z + z.T)).tobytes()


def _block_net(request, name: str) -> Network:
    if name.startswith("mesh"):
        return parse_case(mesh_text(int(name[4:]), seed=11))
    return request.getfixturevalue(name)


def _check_block_inverse(net: Network, seq: int) -> seqmatrix.SequenceZbus:
    """Z's columns, its stored blocks, each line's fault-point law and its
    solve against the dense oracle (within 1e-9, relative once entries exceed
    1), each column an inverse column of Y, the stored blocks exactly
    symmetric (one block: all of Z), and the checked condition number the one
    of Y."""
    zb = build_zbus(net, seq)
    want, y = invert_y(net, seq), assemble_y(net, seq)
    tol = 1e-9 * max(1.0, np.max(np.abs(want)))
    z = dense_z(zb)
    assert np.max(np.abs(z - want)) <= tol
    assert np.max(np.abs(y @ z - np.eye(net.n))) <= 1e-9
    order = np.argsort(zb._pos)  # indices in block order
    starts, diag, off, _ = zb._blocks
    assert len(off) == len(diag) - 1
    ends = starts[1:] + [net.n]
    for i, (a, b, d) in enumerate(zip(starts, ends, diag)):
        assert np.array_equal(d, d.T)
        assert np.max(np.abs(d - want[np.ix_(order[a:b], order[a:b])])) <= tol
        if i < len(off):
            c = ends[i + 1]
            assert np.max(np.abs(off[i] - want[np.ix_(order[a:b], order[b:c])])) <= tol
    if len(diag) == 1:
        assert np.array_equal(z, z.T)
    for line in net.lines:  # Z[p, p], Z[q, q] and Z[p, q], read from the stored blocks
        fp, zl = fault_point_coefficients(zb, line), line.z(seq)
        p, q = net.bus_index(line.from_bus), net.bus_index(line.to_bus)
        got = (fp.a0, fp.a0 + fp.a1 + fp.a2, fp.a0 + (fp.a1 - zl) / 2)
        assert max(abs(g - w) for g, w in zip(got, (want[p, p], want[q, q], want[p, q]))) <= tol
    j = np.arange(1, net.n + 1) * (1.0 - 0.5j)
    e = want @ j
    assert np.max(np.abs(zb.solve(j) - e)) <= 1e-9 * max(1.0, np.max(np.abs(e)))
    assert zb.condition == pytest.approx(np.linalg.cond(y, 1), rel=1e-9)
    assert zb._y_norm * seqmatrix._z_norm_bound(zb._blocks) >= zb.condition * (1 - 1e-12)
    return zb


@pytest.mark.parametrize("min_block", [1, 2])
@pytest.mark.parametrize("name", ["fourbus", "ieee14", "mesh8", "mesh12"])
@pytest.mark.parametrize("seq", [0, 1])
def test_block_inverse_matches_the_dense_inverse(monkeypatch, request, min_block, name, seq):
    """Blocks of one or two buses put even small networks through many blocks."""
    monkeypatch.setattr(seqmatrix, "MIN_BLOCK", min_block)
    monkeypatch.setattr(seqmatrix, "ONE_BLOCK_BELOW", 2 * min_block)
    net = _block_net(request, name)
    order, spans = seqmatrix._level_blocks(net)[:2]
    # fourbus's BFS levels hold 1, 2 and 1 buses: one block of at least two.
    assert len(spans) > 1 or (name, min_block) == ("fourbus", 2)
    assert sorted(order) == list(range(net.n)) and all(b - a >= min_block for a, b, _ in spans)
    _check_block_inverse(net, seq)


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
        patch.setattr(seqmatrix, "ONE_BLOCK_BELOW", 2)
        for seq in (0, 1):
            _check_block_inverse(net, seq)


def test_zbus_matrix_is_read_only(fourbus):
    """A column is the caller's copy: writing to it leaves Z as it was."""
    zb = build_zbus(fourbus, 1)
    column = zb.column(1)
    column[:] = 0.0
    assert np.array_equal(dense_z(zb), dense_z(build_zbus(fourbus, 1)))


def test_channel_laws_on_their_own_line_and_elsewhere(fourbus):
    """A channel's law is its line's branch law ``t`` (negated at ``@to``)
    under a fault elsewhere, and ``t - (1 - m)`` at ``@from`` or ``-t - m``
    at ``@to`` under a fault on its own line."""
    zb = build_zbus(fourbus, 1)
    t2 = fourbus.line("T2")
    for faulted in fourbus.lines:
        t = branch_coefficients(zb, faulted, (t2, ""))
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
    return tuple(repr(getattr(law, f.name)) for f in fields(law))


def _reference_law(zb, line, source):
    """The law of a channel measuring ``source`` (a bus, or a line and
    terminal) under a fault on ``line``, in plain ``complex`` arithmetic:
    the rounding that keeps reports bit-identical, kept apart from the
    engine's arrays."""
    if source == "fault point":
        zpp, zqq, zpq = (
            _at(zb, a, b)
            for a, b in ((line.from_bus,) * 2, (line.to_bus,) * 2, (line.from_bus, line.to_bus))
        )
        zl = line.z(zb.sequence)
        return FaultPointCoefficients(zpp, 2.0 * (zpq - zpp) + zl, zpp + zqq - 2.0 * zpq - zl)
    if isinstance(source, int):
        zp, zq = _at(zb, line.from_bus, source), _at(zb, line.to_bus, source)
        return LinearLaw(zp, zq - zp)
    rec, end = source
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
    ``complex`` reference: the first ask builds the line's table, Z's two
    columns at its ends, and every later ask of that line reads it."""
    net = request.getfixturevalue(name)
    study = FaultStudy(net)
    sources = ["fault point", *net.buses] + [
        net.channel(f"{rec.id}{end}") for rec in net.lines for end in ("", "@from", "@to")
    ]
    for seq in (0, 1, 2):
        zb = study.zbus(seq)
        for line in net.lines:
            columns = None
            for source in sources:
                want = _bits(_reference_law(zb, line, source))
                for _ in range(2):
                    assert _bits(_law(zb, line, source)) == want, (seq, line.id, source)
                columns = columns or zb.faulted_line(line)[1:3]
                assert all(a is b for a, b in zip(zb.faulted_line(line)[1:3], columns))


def test_memo_holds_one_faulted_line(ieee14):
    """A matrix keeps the table of one faulted line, Z's columns at its two
    ends, and caches no column: asking about another line replaces it, and a
    line asked about again is rebuilt to the same bits."""
    zb = build_zbus(ieee14, 1)
    first, second = ieee14.lines[:2]
    channels = [(rec, end) for rec in ieee14.lines for end in ("", "from", "to")]
    first_laws = [branch_coefficients(zb, first, ch) for ch in channels]
    first_laws += [transfer_coefficients(zb, first, bus) for bus in ieee14.buses]
    line, zp, zq = zb.faulted_line(first)
    assert line is first and len(zp) == len(zq) == ieee14.n
    assert kept(zb) == (1, 0)
    transfer_coefficients(zb, second, 14)
    assert zb.faulted_line(second)[0] is second
    again = [branch_coefficients(zb, first, ch) for ch in channels]
    again += [transfer_coefficients(zb, first, bus) for bus in ieee14.buses]
    assert zb.faulted_line(first)[1] is not zp and zb.faulted_line(first)[1] == zp
    assert [_bits(law) for law in again] == [_bits(law) for law in first_laws]
    assert kept(zb) == (1, 0)


def test_sequence_two_copy_keeps_its_own_laws(fourbus):
    study = FaultStudy(fourbus)
    matrices = [study.zbus(1), study.zbus(2), study.zbus(0)]
    assert matrices[1]._blocks is matrices[0]._blocks
    t2, t1_to = fourbus.line("T2"), fourbus.channel("T1@to")

    def laws(z):
        return (
            transfer_coefficients(z, t2, 3),
            branch_coefficients(z, t2, t1_to),
            fault_point_coefficients(z, t2),
        )

    first = [laws(z) for z in matrices]
    tables = [z.faulted_line(t2) for z in matrices]
    assert len({id(table) for table in tables}) == 3  # each matrix its own table
    assert len({id(table[1]) for table in tables}) == 3
    for z, own in zip(matrices, first):
        assert laws(z) == own
    assert first[1] == first[0]  # Z2 shares Z1's blocks, and lines carry z2 = z1
    assert first[2] != first[0]  # Z0 differs from Z1
    # The table is invisible to equality and repr, and a copy starts without one.
    z1 = matrices[0]
    assert replace(z1) == z1 and repr(replace(z1)) == repr(z1)
    assert replace(z1)._line == []


def test_records_sharing_an_id_get_their_own_laws(fourbus):
    """The table is kept by record, not by line id: a record sharing T2's id
    with swapped ends or twice the length gets its own laws, and T2's are
    not confused with them when asked about again."""
    zb = build_zbus(fourbus, 1)
    t2, t1 = fourbus.line("T2"), fourbus.line("T1")
    swapped = replace(t2, from_bus=t2.to_bus, to_bus=t2.from_bus)
    longer = replace(t2, length_km=2.0 * t2.length_km)
    for law_of, other in (
        (lambda z, line: transfer_coefficients(z, line, 4), swapped),
        (fault_point_coefficients, longer),
        (lambda z, line: branch_coefficients(z, t1, (line, "")), longer),
        (lambda z, line: branch_coefficients(z, line, (t2, "from")), swapped),
    ):
        mine = law_of(zb, t2)
        theirs = law_of(zb, other)
        assert _bits(law_of(zb, t2)) == _bits(mine)
        assert _bits(law_of(zb, other)) == _bits(theirs)
        assert mine != theirs
        assert _bits(theirs) == _bits(law_of(replace(zb), other))


# ---------------------------------------------------------------------------
# Y and the pre-fault state from the network's per-line cache
# ---------------------------------------------------------------------------


def _reference_block_rows(net: Network, sequence: int, spans, index, keep, start) -> list:
    """``seqmatrix._block_rows`` with each record's own ``1.0 / rec.z(sequence)``."""
    ys = np.array([1.0 / rec.z(sequence) for rec in net.lines], dtype=complex)
    zs = [1.0 / s.z(sequence) for s in net.sources]
    vals = np.concatenate((np.array([ys, ys, -ys, -ys]).T.ravel(), zs))
    y = np.zeros(start[-1], dtype=complex)
    np.add.at(y, index, vals[keep])
    return [y[o : o + (e - d) * (f - d)].reshape(e - d, f - d) for o, (d, e, f) in zip(start, spans)]


def _reference_prefault(net: Network, zbus) -> tuple[dict, dict]:
    """``prefault_solve`` with a bus lookup per bus and each record's own ``rec.z1``."""
    j = np.zeros(len(zbus.bus_order), dtype=complex)
    for src in net.sources:
        j[zbus.index(src.bus)] += src.emf / src.z(1)
    e = zbus.solve(j).tolist()
    bus_v = {b: e[zbus.index(b)] for b in net.buses}
    return bus_v, {rec.id: (bus_v[rec.from_bus] - bus_v[rec.to_bus]) / rec.z1 for rec in net.lines}


def _dict_bits(d: dict) -> list:
    return [(k, complex(v).real.hex(), complex(v).imag.hex()) for k, v in d.items()]


@pytest.mark.parametrize("name", ["fourbus", "ieee14", "mesh12", "mesh20", "mesh30"])
def test_cached_line_totals_keep_the_per_record_bits(request, name):
    """Y's block rows and the pre-fault dicts, read from the per-line cache,
    equal the per-record expressions bit for bit, on a parsed network (cache
    filled by the parse) and on its ``replace`` copy (cache built on first use)."""
    if name.startswith("mesh"):
        net = parse_case(mesh_text(int(name[4:]), seed=int(name[4:])))
    else:
        net = request.getfixturevalue(name)
    blocks = []
    for copy in (net, replace(net, lines=net.lines)):
        _, spans, _, gather = seqmatrix._level_blocks(copy)
        for seq in (0, 1, 2):
            got, want = (
                rows(copy, seq, spans, *gather) for rows in (seqmatrix._block_rows, _reference_block_rows)
            )
            assert [g.tobytes() for g in got] == [w.tobytes() for w in want], (copy is net, seq)
        zbus = build_zbus(copy, 1)
        assert zbus._index is copy._index
        got, want = prefault_solve(copy, zbus), _reference_prefault(copy, zbus)
        assert [_dict_bits(d) for d in got] == [_dict_bits(d) for d in want], copy is net
        blocks.append([a.tobytes() for part in zbus._blocks[1:] for a in part])
    assert blocks[0] == blocks[1]


def test_a_replaced_network_reads_its_own_line_totals(ieee14):
    """A ``replace`` copy with one line's impedance changed builds its own
    per-line cache: its Y and pre-fault currents show the change."""
    ieee14._lines_bundle()  # the original's cache is filled
    k = 3
    rec = ieee14.lines[k]
    lines = tuple(replace(r, z1_per_km=2.0 * r.z1_per_km) if r is rec else r for r in ieee14.lines)
    changed = replace(ieee14, lines=lines)
    assert changed._lines_bundle()[3][k] == lines[k].z1 != rec.z1
    p, q = ieee14.bus_index(rec.from_bus), ieee14.bus_index(rec.to_bus)
    y, y_changed = build_ybus(ieee14, 1), build_ybus(changed, 1)
    assert y_changed[p, q] != y[p, q]
    assert np.abs(y_changed - assemble_y(changed, 1)).max() <= 1e-12 * np.abs(y_changed).max()
    zbus = build_zbus(changed, 1)
    got, want = prefault_solve(changed, zbus), _reference_prefault(changed, zbus)
    assert [_dict_bits(d) for d in got] == [_dict_bits(d) for d in want]


def test_a_matrix_shares_its_networks_bus_index(ieee14):
    z1 = build_zbus(ieee14, 1)
    z2 = replace(z1, sequence=2)
    assert z1._index is z2._index is ieee14._index
    with pytest.raises(ValueError, match="^bus 99 is not in the sequence-2 matrix$"):
        z2.index(99)
