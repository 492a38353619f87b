"""Line ranking against a per-line loop over the scalar estimator.

``rank_line_hypotheses`` solves every hypothesis in one array pass; the
reference here runs :func:`estimate_for_placement` line by line, skipping
what the ranking documents as skipped.  Both use the same laws, but the
final complex division for m rounds differently in numpy and CPython, so
the estimates agree to a relative 1e-12, not bit for bit.
"""
from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import random
import sys

import numpy as np
import pytest

from faultloc import (
    CaseError,
    CurrentPlacement,
    DegenerateChannelError,
    FaultScenario,
    FaultStudy,
    FaultType,
    HybridPlacement,
    LinearDependenceError,
    MeasurementTaps,
    Method,
    VoltagePlacement,
    estimate_for_placement,
    build_zbus,
    parse_case,
    rank_line_hypotheses,
)
from faultloc.faultsim import Distortion, apply_distortion
from faultloc.seqmatrix import TABLES

from oracles import kept

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from meshgen import checked_mesh_case  # noqa: E402
from workloads import identify_queries  # noqa: E402


def mesh_text(n: int, seed: int) -> str:
    """An n x n mesh with seeded line data; bus r*n + c + 1 sits at (r, c).

    Every line gets its own X/R ratio: with one common ratio all transfer
    impedances share a phase angle and wrong hypotheses solve as cleanly as
    the true line.
    """
    rng = random.Random(seed)
    out = ["base 100 230 50"]
    out += [f"bus {k}" for k in range(1, n * n + 1)]
    for r in range(n):
        for c in range(n):
            here = r * n + c + 1
            for lid, there, ok in (
                (f"h{r}_{c}", here + 1, c + 1 < n),
                (f"v{r}_{c}", here + n, r + 1 < n),
            ):
                if ok:
                    x1 = rng.uniform(5e-4, 9e-4)
                    r1 = x1 * rng.uniform(0.03, 0.3)
                    out.append(
                        f"line {lid} {here} {there} {rng.uniform(20, 120):.6f}"
                        f" {r1:.6e} {x1:.6e} {3 * r1:.6e} {3 * x1:.6e}"
                    )
    out.append("source 1 0.002 0.04")
    out.append(f"source {n * n} 0.003 0.05 1.02 {rng.uniform(-15, -5):.4f}")
    return "\n".join(out) + "\n"


MESH = mesh_text(4, seed=7)

#: case -> (buses, branches, faults); the hybrid methods pair the first
#: branch with the last bus, as the CLI does.  No fault sits on a measured
#: branch, whose channel a default tap set does not report.
CASES = {
    "fourbus": (
        (1, 2),
        ("T1", "T3"),
        [("T2", 0.56, FaultType.LG, 1.0), ("T2", 0.1, FaultType.LLL, 0.0)],
    ),
    "ieee14": (
        (1, 14),
        ("2-3", "13-14"),
        [
            ("4-5", 0.3, FaultType.LG, 5.0),
            ("9-14", 0.85, FaultType.LL, 0.0),
            ("6-12", 0.02, FaultType.LLG, 10.0),
        ],
    ),
    "mesh": (
        (6, 11),
        ("h1_2", "v2_1"),
        [
            ("h0_0", 0.4, FaultType.LG, 2.0),
            ("v1_1", 0.7, FaultType.LLL, 0.0),
            ("h3_2", 0.95, FaultType.LL, 20.0),
        ],
    ),
}


@pytest.fixture(scope="module", params=sorted(CASES))
def case(request, fourbus, ieee14):
    net = {"fourbus": fourbus, "ieee14": ieee14}.get(request.param) or parse_case(MESH)
    return net, FaultStudy(net), CASES[request.param]


#: Every method but hybrid-quad, which ranking refuses.
RANKING_METHODS = [Method.SSVM, Method.SSCM, Method.HYBRID_DIRECT]


def placement_for(method: Method, buses, branches):
    if method is Method.SSVM:
        return VoltagePlacement(*buses)
    if method is Method.SSCM:
        return CurrentPlacement(*branches)
    return HybridPlacement(branches[0], buses[-1])


def measured_lines(placement) -> set[str]:
    if isinstance(placement, CurrentPlacement):
        return {placement.channel_1, placement.channel_2}
    if isinstance(placement, HybridPlacement):
        return {placement.current_channel}
    return set()


def per_line_ranking(net, zbus, ms, placement, method):
    skip = measured_lines(placement)
    results = []
    for rec in net.lines:
        if rec.id in skip:
            continue
        try:
            est = estimate_for_placement(net, zbus, rec.id, placement, ms, method)
        except (DegenerateChannelError, LinearDependenceError):
            continue
        results.append((rec.id, est))
    results.sort(key=lambda item: (not item[1].in_range, item[1].residual))
    return results


def assert_same_ranking(got, want):
    assert [line_id for line_id, _ in got] == [line_id for line_id, _ in want]
    for (line_id, g), (_, w) in zip(got, want):
        tol = 1e-12 * max(1.0, abs(w.m))
        assert abs(g.m - w.m) <= tol, line_id
        assert abs(g.residual - w.residual) <= tol, line_id
        assert (g.method, g.ambiguous, g.notes) == (w.method, w.ambiguous, w.notes)


@pytest.mark.parametrize("method", RANKING_METHODS)
def test_ranking_matches_per_line_estimates(case, method):
    net, study, (buses, branches, faults) = case
    placement = placement_for(method, buses, branches)
    zbus = study.zbus(1)
    for line_id, m, ftype, rf in faults:
        ms = study.measurements(FaultScenario(line_id, m, ftype, rf))
        got = rank_line_hypotheses(net, ms, placement, method, zbus)
        assert got, line_id
        assert_same_ranking(got, per_line_ranking(net, zbus, ms, placement, method))
        assert not measured_lines(placement) & {lid for lid, _ in got}
        top_line, top = got[0]
        assert top_line == line_id
        assert abs(top.m - m) < 1e-6


@pytest.mark.parametrize("method", RANKING_METHODS)
def test_degenerate_denominator_ranks_nothing(case, method):
    net, study, (buses, branches, faults) = case
    placement = placement_for(method, buses, branches)
    ms = study.measurements(FaultScenario(*faults[0]))
    # The denominator is the second channel of a pair; freeze its change.
    if method is Method.SSVM:
        bus = placement.bus_l
        fault_v = dict(ms.fault_bus_v)
        fault_v[bus] = (0j, ms.prefault_bus_v[bus], 0j)
        frozen = replace(ms, fault_bus_v=fault_v)
    elif method is Method.SSCM:
        bid = placement.channel_2
        fault_i = dict(ms.fault_branch_i)
        fault_i[bid] = (0j, ms.prefault_branch_i[bid], 0j)
        frozen = replace(ms, fault_branch_i=fault_i)
    else:
        bus = placement.bus
        fault_v = dict(ms.fault_bus_v)
        fault_v[bus] = (0j, ms.prefault_bus_v[bus], 0j)
        frozen = replace(ms, fault_bus_v=fault_v)
    zbus = study.zbus(1)
    ranked = rank_line_hypotheses(net, frozen, placement, method, zbus)
    assert ranked == [] and [] == ranked
    assert not ranked and len(ranked) == 0 and list(ranked) == []
    assert per_line_ranking(net, zbus, frozen, placement, method) == []


@pytest.mark.parametrize("method", [Method.HYBRID_DIRECT])
def test_ranking_skips_measured_branch_fourbus(fourbus, fourbus_study, method):
    ms = fourbus_study.measurements(FaultScenario("T2", 0.1, FaultType.LG, 0.0))
    ranked = rank_line_hypotheses(
        fourbus, ms, HybridPlacement("T1", 2), method, fourbus_study.zbus(1)
    )
    assert "T1" not in [line_id for line_id, _ in ranked]
    assert ranked[0][0] == "T2"


def test_ranking_skips_measured_branches_ieee14(ieee14, ieee14_study):
    ms = ieee14_study.measurements(FaultScenario("4-5", 0.3, FaultType.LG, 0.0))
    ranked = rank_line_hypotheses(
        ieee14, ms, CurrentPlacement("2-3", "13-14"), Method.SSCM, ieee14_study.zbus(1)
    )
    ids = [line_id for line_id, _ in ranked]
    assert "2-3" not in ids and "13-14" not in ids
    assert ids[0] == "4-5"


def test_ranking_placement_and_zero_impedance_errors(fourbus, fourbus_study):
    ms = fourbus_study.measurements(FaultScenario("T2", 0.5, FaultType.LG, 0.0))
    zbus = fourbus_study.zbus(1)
    with pytest.raises(TypeError):
        rank_line_hypotheses(fourbus, ms, VoltagePlacement(1, 2), Method.SSCM, zbus)
    # The matrix stays that of the intact case; only the branch law sees T1.
    lines = tuple(
        replace(rec, z1_per_km=0j) if rec.id == "T1" else rec for rec in fourbus.lines
    )
    shorted = replace(fourbus, lines=lines)
    placement = CurrentPlacement("T1", "T3")
    with pytest.raises(ValueError, match="zero impedance"):
        rank_line_hypotheses(shorted, ms, placement, Method.SSCM, zbus)
    with pytest.raises(ValueError, match="zero impedance"):
        estimate_for_placement(shorted, zbus, "T2", placement, ms, Method.SSCM)


def test_ranking_follows_the_matrix_bus_order(ieee14, ieee14_study):
    zbus = ieee14_study.zbus(1)
    order = list(reversed(range(ieee14.n)))
    bus_order = tuple(ieee14.buses[i] for i in order)
    index = {bus: i for i, bus in enumerate(bus_order)}  # a network's dict takes its order
    permuted = replace(zbus, bus_order=bus_order, _pos=zbus._pos[order], _index=index)
    ms = ieee14_study.measurements(FaultScenario("9-14", 0.85, FaultType.LL, 0.0))
    for method in RANKING_METHODS:
        placement = placement_for(method, (1, 14), ("2-3", "13-14"))
        assert rank_line_hypotheses(ieee14, ms, placement, method, permuted) == (
            rank_line_hypotheses(ieee14, ms, placement, method, zbus)
        )


def test_ranking_skips_dependent_lines_for_voltage_pairs(ieee14, ieee14_study):
    # Bus 8 hangs off bus 7 alone, so for a fault on 7-8 buses 1 and 5 see
    # the fault through bus 7 only: their transfer laws are proportional.
    zbus = ieee14_study.zbus(1)
    ms = ieee14_study.measurements(FaultScenario("1-5", 0.43, FaultType.LLG, 10.0))
    placement = VoltagePlacement(1, 5)
    ranked = rank_line_hypotheses(ieee14, ms, placement, Method.SSVM, zbus)
    assert ranked[0][0] == "1-5"
    assert "7-8" not in [line_id for line_id, _ in ranked]
    with pytest.raises(LinearDependenceError):
        estimate_for_placement(ieee14, zbus, "7-8", placement, ms, Method.SSVM)


def test_ranking_refuses_hybrid_quad(case):
    # Refused before any other work: a placement of the wrong channel kinds
    # would otherwise raise TypeError.
    net, study, (buses, branches, faults) = case
    ms = study.measurements(FaultScenario(*faults[0]))
    for placement in (placement_for(Method.HYBRID_QUAD, buses, branches), VoltagePlacement(*buses)):
        with pytest.raises(ValueError, match="residual 0 on most wrong lines"):
            rank_line_hypotheses(net, ms, placement, Method.HYBRID_QUAD, study.zbus(1))
    # A known line keeps hybrid-quad.
    placement = placement_for(Method.HYBRID_QUAD, buses, branches)
    est = estimate_for_placement(net, study.zbus(1), faults[0][0], placement, ms, Method.HYBRID_QUAD)
    assert abs(est.m - faults[0][1]) < 1e-6


def test_ranking_is_a_read_only_sequence(ieee14, ieee14_study):
    zbus = ieee14_study.zbus(1)
    ms = ieee14_study.measurements(FaultScenario("9-14", 0.85, FaultType.LL, 0.0))
    placement = VoltagePlacement(1, 14)
    ranked = rank_line_hypotheses(ieee14, ms, placement, Method.SSVM, zbus)
    entries = list(ranked)
    assert len(ranked) == len(entries) > 5 and ranked
    assert ranked[0] == entries[0] and ranked[0][0] == "9-14"
    assert ranked[-1] == entries[-1] and ranked[-len(entries)] == entries[0]
    assert ranked[1:5] == entries[1:5] and list(ranked[::-2]) == entries[::-2]
    for i in (len(entries), -len(entries) - 1):
        with pytest.raises(IndexError):
            ranked[i]
    with pytest.raises(TypeError):
        ranked[0] = entries[0]
    assert [entry for entry in ranked] == entries
    assert dict(ranked) == dict(entries) and len(dict(ranked)) == len(entries)
    assert ranked == entries and entries == ranked
    assert ranked != entries[:-1] and entries[:-1] != ranked
    assert ranked == rank_line_hypotheses(ieee14, ms, placement, Method.SSVM, zbus)
    assert repr(ranked) == repr(entries) and repr(ranked[1:3]) == repr(entries[1:3])


def in_line_order_then_by_key(net, ranked):
    """The entries of ``ranked`` in ``net.lines`` order, then stably sorted
    in range first and by residual: the order the ranking documents."""
    position = {rec.id: i for i, rec in enumerate(net.lines)}
    entries = sorted(ranked, key=lambda item: position[item[0]])
    return sorted(entries, key=lambda item: (not item[1].in_range, item[1].residual))


def test_ranking_ties_keep_line_order(fourbus):
    # A twin of T2 beside it has the same laws, so both hypotheses solve to
    # the same m and residual bit for bit; declaration order breaks the tie.
    twin = replace(fourbus.line("T2"), id="T2b")
    for lines in (fourbus.lines + (twin,), (twin,) + fourbus.lines):
        net = replace(fourbus, lines=lines)
        study = FaultStudy(net)
        ms = study.measurements(FaultScenario("T2", 0.56, FaultType.LG, 1.0))
        for method in RANKING_METHODS:
            placement = placement_for(method, (3, 4), ("T1", "T3"))
            ranked = rank_line_hypotheses(net, ms, placement, method, study.zbus(1))
            assert dict(ranked)["T2"] == dict(ranked)["T2b"]
            assert list(ranked) == in_line_order_then_by_key(net, ranked)
            first, second = ("T2b", "T2") if lines[0] is twin else ("T2", "T2b")
            ids = [line_id for line_id, _ in ranked]
            assert ids.index(first) + 1 == ids.index(second)


# ---------------------------------------------------------------------------
# Per-placement tables
# ---------------------------------------------------------------------------


def frozen(ms, placement):
    """``ms`` with the placement's denominator channel showing no change."""
    kind, ident = placement.channels[1]
    if kind == "busV":
        fault_v = dict(ms.fault_bus_v)
        fault_v[ident] = (0j, ms.prefault_bus_v[ident], 0j)
        return replace(ms, fault_bus_v=fault_v)
    fault_i = dict(ms.fault_branch_i)
    fault_i[ident] = (0j, ms.prefault_branch_i[ident], 0j)
    return replace(ms, fault_branch_i=fault_i)


def bits(ranked):
    return [str(i) for i in ranked._ids], np.asarray(ranked._m_complex).tobytes()


#: case -> (buses, branches, faulted lines); the 12x12 mesh has six blocks.
TABLE_CASES = {
    "ieee14": ((1, 14), ("2-3", "13-14"), ["4-5", "9-14", "6-12"]),
    "mesh12": ((27, 118), ("h2_5", "v8_3"), ["h5_6", "v3_9", "h10_1"]),
}


@pytest.mark.parametrize("name", sorted(TABLE_CASES))
def test_warm_tables_rank_as_a_fresh_matrix(request, name):
    """Each query, asked of a matrix that keeps its placements' tables, ranks
    bit for bit as on a fresh matrix: live queries, a degenerate one, and a
    live one right after it, under every ranking method."""
    net = request.getfixturevalue(name) if name == "ieee14" else parse_case(mesh_text(12, 11))
    buses, branches, faulted = TABLE_CASES[name]
    study = FaultStudy(net)
    warm = study.zbus(1)
    assert name == "ieee14" or len(warm._blocks[0]) == 6
    for line_id, m in zip(faulted, (0.3, 0.85, 0.02)):
        ms = study.measurements(FaultScenario(line_id, m, FaultType.LG, 2.0))
        for method in RANKING_METHODS:
            placement = placement_for(method, buses, branches)
            for query in (ms, frozen(ms, placement), ms):
                got = rank_line_hypotheses(net, query, placement, method, warm)
                want = rank_line_hypotheses(net, query, placement, method, build_zbus(net, 1))
                assert bits(got) == bits(want), (line_id, method)
                assert bool(got) is (query is ms)
            assert got[0][0] == line_id
    assert kept(warm) == (1, len(RANKING_METHODS))


@pytest.mark.parametrize("name", sorted(TABLE_CASES))
def test_estimates_read_the_tables_ranking_warmed(request, name):
    """Estimates on a matrix whose placement tables ranking built are bit-identical
    to those on a cold matrix, build no table of their own, and agree with
    ranking's entry for the true line up to numpy's complex division, which
    rounds differently from CPython's.  A dependent placement and a channel on
    the faulted line's own current raise what they raised before the
    tables were shared, on both matrices."""
    net = request.getfixturevalue(name) if name == "ieee14" else parse_case(mesh_text(12, 11))
    buses, branches, faulted = TABLE_CASES[name]
    study = FaultStudy(net)
    warm = study.zbus(1)
    assert name == "ieee14" or len(warm._blocks[0]) == 6
    own = f"current channel {faulted[0]!r} measures faulted line {faulted[0]!r}"
    refused = [
        (CurrentPlacement(faulted[0], branches[0]), Method.SSCM, ValueError, own),
        (HybridPlacement(faulted[0], buses[0]), Method.HYBRID_DIRECT, ValueError, own),
        (VoltagePlacement(buses[0], buses[0]), Method.SSVM, LinearDependenceError,
         "channel fault responses are linearly dependent"),
        (CurrentPlacement(branches[1], branches[1]), Method.SSCM, LinearDependenceError,
         "channel fault responses are linearly dependent"),
    ]
    for line_id, m in zip(faulted, (0.3, 0.85, 0.02)):
        ms = study.measurements(FaultScenario(line_id, m, FaultType.LG, 2.0))
        for method in RANKING_METHODS:
            placement = placement_for(method, buses, branches)
            entry = dict(rank_line_hypotheses(net, ms, placement, method, warm))[line_id]
            got = estimate_for_placement(net, warm, line_id, placement, ms, method)
            cold = estimate_for_placement(net, build_zbus(net, 1), line_id, placement, ms, method)
            assert (got.m.hex(), got.residual.hex()) == (cold.m.hex(), cold.residual.hex())
            assert abs(got.m - entry.m) <= 1e-12 and abs(got.residual - entry.residual) <= 1e-12
            assert abs(got.m - m) <= 1e-6, (line_id, method)
        assert kept(warm) == (1, len(RANKING_METHODS))
    # The set holds a reading under the faulted line's own id, so no lookup refuses it.
    ms = study.measurements(FaultScenario(faulted[0], 0.4, FaultType.LG, 2.0), MeasurementTaps())
    terminal = f"{faulted[0]}@from"
    ms = replace(
        ms,
        prefault_branch_i={**ms.prefault_branch_i, faulted[0]: ms.prefault_branch_i[terminal]},
        fault_branch_i={**ms.fault_branch_i, faulted[0]: ms.fault_branch_i[terminal]},
    )
    for placement, method, error, message in refused:
        for zbus in (warm, warm, build_zbus(net, 1)):
            with pytest.raises(error) as raised:
                estimate_for_placement(net, zbus, faulted[0], placement, ms, method)
            assert type(raised.value) is error and str(raised.value) == message


def test_failing_placements_raise_every_time_and_keep_no_table(fourbus, fourbus_study):
    ms = fourbus_study.measurements(FaultScenario("T2", 0.5, FaultType.LG, 0.0))
    shorted = replace(fourbus, lines=tuple(
        replace(rec, z1_per_km=0j) if rec.id == "T1" else rec for rec in fourbus.lines
    ))
    zbus = build_zbus(fourbus, 1)
    cases = [
        (shorted, CurrentPlacement("T1", "T3"), Method.SSCM, ValueError, "zero impedance"),
        (fourbus, CurrentPlacement("T9", "T3"), Method.SSCM, CaseError, "unknown line"),
        (fourbus, HybridPlacement("T1", 9), Method.HYBRID_DIRECT, ValueError, "bus 9"),
        (fourbus, VoltagePlacement(1, 2), Method.SSCM, TypeError, "channel kinds"),
    ]
    for net, placement, method, error, match in cases:
        for _ in range(2):
            with pytest.raises(error, match=match):
                rank_line_hypotheses(net, ms, placement, method, zbus)
            assert kept(zbus) == (0, 0)
    assert rank_line_hypotheses(fourbus, ms, CurrentPlacement("T1", "T3"), Method.SSCM, zbus)
    assert kept(zbus) == (0, 1)


def test_networks_sharing_a_matrix_get_their_own_line_ids(ieee14, ieee14_study):
    """Two networks with the same buses and lines in other orders, ranked on
    one matrix: each ranking names its own network's lines, ties in that
    network's order, and equals the ranking on a matrix of its own."""
    flipped = replace(ieee14, lines=tuple(reversed(ieee14.lines)))
    zbus = build_zbus(ieee14, 1)
    ms = ieee14_study.measurements(FaultScenario("9-14", 0.85, FaultType.LL, 0.0))
    for method in RANKING_METHODS:
        placement = placement_for(method, (1, 14), ("2-3", "13-14"))
        for _ in range(2):
            ranked = [
                rank_line_hypotheses(net, ms, placement, method, zbus) for net in (ieee14, flipped)
            ]
            assert dict(ranked[0]) == dict(ranked[1])
            for net, got in zip((ieee14, flipped), ranked):
                assert list(got) == in_line_order_then_by_key(net, got)
                want = rank_line_hypotheses(net, ms, placement, method, build_zbus(ieee14, 1))
                assert bits(got) == bits(want)
    assert kept(zbus) == (0, 2 * len(RANKING_METHODS))


def test_tables_are_bounded(ieee14, ieee14_study):
    """Ranking more placements than :data:`TABLES` keeps the last ones only;
    a dropped placement is built again to the same bits."""
    zbus = build_zbus(ieee14, 1)
    ms = ieee14_study.measurements(FaultScenario("4-5", 0.3, FaultType.LG, 5.0))
    placements = [VoltagePlacement(1, bus) for bus in range(2, 3 + TABLES)]
    first = [bits(rank_line_hypotheses(ieee14, ms, p, Method.SSVM, zbus)) for p in placements]
    assert kept(zbus) == (0, TABLES)
    assert (id(ieee14), placements[0]) not in zbus._tables
    assert (id(ieee14), placements[-1]) in zbus._tables
    again = [bits(rank_line_hypotheses(ieee14, ms, p, Method.SSVM, zbus)) for p in placements]
    assert again == first and kept(zbus) == (0, TABLES)


# ---------------------------------------------------------------------------
# Lazy order: in-range rows on the call, the rest on the first read past them
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module", params=[12, 20], ids=lambda n: f"mesh{n}")
def bench_queries(request):
    """The benchmark's concealed-fault queries on a seeded n x n mesh, two per
    ranking method, each with its consumed taps' measurement set."""
    n = request.param
    study = FaultStudy(parse_case(checked_mesh_case(n, 2)))
    queries = identify_queries(study.net, n, 2, 2 * len(RANKING_METHODS))
    assert [q.method for q in queries] == 2 * RANKING_METHODS
    return study, [(q, study.measurements(q.scenario, q.taps)) for q in queries]


def unsorted_tail(ranked) -> bool:
    return ranked._in_range is not None


def check_lazy_reads(net, zbus, ms, placement, method):
    """Every way of reading a fresh ranking gives the entries of ``list`` of
    another fresh one, which is the per-line reference's order.  Returns them."""
    def rank():
        return rank_line_hypotheses(net, ms, placement, method, zbus)

    want = list(rank())
    assert_same_ranking(want, per_line_ranking(net, zbus, ms, placement, method))
    head = sum(est.in_range for _, est in want)
    ranked = rank()
    assert len(ranked) == len(want) and bool(ranked) is bool(want) and unsorted_tail(ranked)
    if head:
        assert ranked[0] == want[0] and ranked[head - 1] == want[head - 1]
        assert unsorted_tail(ranked)
    if want:
        assert ranked[-1] == want[-1] and ranked[0] == want[0] and not unsorted_tail(ranked)
    for i in (len(want), -len(want) - 1):
        with pytest.raises(IndexError):
            rank()[i]
    assert list(ranked) == want and ranked == want and bits(ranked) == bits(rank())
    for s in (slice(head - 1, head + 2), slice(max(head - 2, 0), None), slice(None, head + 1),
              slice(head + 3, max(head - 3, 0), -1), slice(None, None, -5), slice(head, head)):
        got = rank()[s]
        assert list(got) == want[s] and len(got) == len(want[s]), s
    return want


def test_lazy_reads_give_the_full_order(bench_queries):
    study, queries = bench_queries
    net, zbus = study.net, study.zbus(1)
    for q, ms in queries:
        want = check_lazy_reads(net, zbus, ms, q.placement, q.method)
        assert want[0][0] == q.scenario.line_id and abs(want[0][1].m - q.scenario.m) <= 1e-6
        assert 0 < sum(est.in_range for _, est in want) < len(want)


def test_distorted_sets_keep_the_order(bench_queries):
    """A 1 % / 1 degree gain on the denominator, as the benchmark's planted
    wrong query, and a sign flip of it, which on the voltage pairs leaves no
    hypothesis in range, so that every read is past the in-range rows."""
    study, queries = bench_queries
    net, zbus = study.net, study.zbus(1)
    heads = []
    for q, ms in queries:
        kind, ident = q.placement.channels[1]
        for gain, phase in ((1.01, 1.0), (1.0, 180.0)):
            bad = apply_distortion(ms, [Distortion(kind, ident, gain=gain, phase_deg=phase)])
            want = check_lazy_reads(net, zbus, bad, q.placement, q.method)
            heads.append(sum(est.in_range for _, est in want))
    assert 0 in heads and max(heads) > 0


def test_degenerate_denominator_still_ranks_nothing(bench_queries):
    study, queries = bench_queries
    for q, ms in queries:
        query = frozen(ms, q.placement)
        ranked = rank_line_hypotheses(study.net, query, q.placement, q.method, study.zbus(1))
        assert len(ranked) == 0 and not ranked and ranked == [] and list(ranked[0:3]) == []
        for i in (0, -1):
            with pytest.raises(IndexError):
                ranked[i]
        assert bits(ranked) == ([], b"")
