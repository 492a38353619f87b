"""Smallest-size self-test of the benchmark.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_perfbench.py

It runs each workload on the 4x4 mesh or a few ieee14 sweep rows, plants
one wrong answer to see that the checks count it, and holds the metric
names to ``BENCHMARK.json``.
"""
from __future__ import annotations

from pathlib import Path

import json
import shutil
import subprocess
import sys

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_program()

import meshgen  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from faultloc import locator, netmodel  # noqa: E402
from faultloc.faultsim import Distortion, apply_distortion  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _ctx(tmp_path, min_ops, tracer=None, seed=3):
    return workloads.Context(seed, 0.0, tmp_path, tracer, min_ops)


def test_mesh_case_is_seeded_valid_and_sized():
    text = meshgen.checked_mesh_case(4, 7)
    assert text == meshgen.mesh_case(4, 7)
    assert text != meshgen.mesh_case(4, 8)
    net = netmodel.parse_case(text)
    assert (net.n, len(net.lines)) == (16, 24)
    assert netmodel.validate(net) == []


def test_sweep_rows_checked_and_hashed(tmp_path):
    res = workloads.sweep_ieee14(_ctx(tmp_path, 2), n_m=1, n_rf=1, lines=("1-5", "9-14"))
    rows = 2 * 4 * 4  # lines x fault types x methods
    assert (res.attempted, res.units, res.failed) == (2 * rows, 2 * rows, 0)
    assert len(res.op_s) == 2 and len(res.setup_s) == 6


def test_sweep_report_check_counts_bad_rows():
    spec = workloads.sweep_spec(1, 1, 1, lines=("1-5",))
    expected = workloads.expected_rows(spec)
    m, rf = spec["m_values"][0], spec["rf_ohm"][0]
    good = f"1-5,LG,{m!r},{rf!r},ssvm,{m!r},0.0,0.0,true"
    bad = f"1-5,LL,{m!r},{rf!r},ssvm,0.5,0.0,3.0,true"
    text = "\n".join([workloads.cli.CSV_COLUMNS, good, bad, good]) + "\n"
    found, failed, reasons = workloads.check_report(text, expected)
    # one bad pct_error, one repeated row, and the rest of the 16 rows missing
    assert found == 3
    assert failed == 1 + 1 + (len(expected) - 2)
    assert any("pct_error" in r for r in reasons)


def test_identify_and_setup_on_smallest_mesh(tmp_path):
    res = workloads.identify_grid(_ctx(tmp_path, 6), n=4, pool=6)
    assert (res.attempted, res.failed) == (6, 0), res.failures
    assert sorted(res.by_label) == ["hybrid", "sscm", "ssvm"]
    res = workloads.setup_grid(_ctx(tmp_path, 2), n=4)
    assert (res.attempted, res.failed) == (2, 0), res.failures
    assert len(res.setup_s) == 2


def test_planted_wrong_answer_is_counted(tmp_path):
    study = workloads.set_up(meshgen.checked_mesh_case(4, 3))
    queries = workloads.identify_queries(study.net, 4, 3, 3)
    for q in queries:
        q.ms = study.measurements(q.scenario, q.taps)
    wrong = queries[1]
    channel = next(iter(wrong.ms.fault_branch_i))
    wrong.ms = apply_distortion(
        wrong.ms, [Distortion("branchI", channel, gain=1.01, phase_deg=1.0)]
    )
    res = workloads.Result()
    workloads.run_queries(_ctx(tmp_path, 3), study, queries, res)
    assert (res.attempted, res.failed) == (3, 1)
    assert wrong.scenario.line_id in res.failures[0]


def test_trace_accounts_for_time_and_restores_sites(tmp_path):
    original = locator.rank_line_hypotheses
    tracer = spans.Tracer()
    with spans.installed(tracer):
        res = workloads.sweep_ieee14(_ctx(tmp_path, 1, tracer), n_m=1, n_rf=1, lines=("1-5",))
    assert locator.rank_line_hypotheses is original
    assert not hasattr(workloads.cli.feasibility_check, "__wrapped__")

    stats, timed_total = tracer.layers()
    assert abs(sum(s.timed_self_s for s in stats.values()) - timed_total) < 1e-9
    assert stats["locator.feasibility_check"].timed_calls == res.units
    # The CLI's study builds Z lazily inside its first measurements call.
    names, parents = tracer.names, tracer.parents
    lazy = [
        names[parents[i]] for i, name in enumerate(names)
        if name == "seqmatrix.build_zbus" and names[parents[i]] != "bench.setup"
    ]
    assert lazy and set(lazy) == {"faultsim.measurements"}
    assert 0.0 < tracer.law_calls


def test_metric_names_match_benchmark_json(tmp_path):
    plain = workloads.setup_grid(_ctx(tmp_path, 1), n=4)
    tracer = spans.Tracer()
    with spans.installed(tracer):
        traced = workloads.setup_grid(_ctx(tmp_path, 1, tracer), n=4)
    layer = run.per_layer(tracer, traced, plain, 1.0)
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {name: m["unit"] for name, m in layer.items()} == declared
    units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {name: m["unit"] for name, m in run.end_to_end(plain).items()} == units


def test_without_sources_exits_without_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    argv = [sys.executable, "perfbench/run.py", "--workload", "sweep-ieee14",
            "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert "correct" not in done.stdout
