from __future__ import annotations

import json

import pytest

from faultloc import (
    CurrentPlacement,
    FaultScenario,
    FaultType,
    MeasurementTaps,
    Method,
    apply_distortion,
    bundled_case,
    estimate_for_placement,
    feasibility_check,
    percent_error,
)
from faultloc import cli, seqmatrix
from faultloc.cli import main
from faultloc import FaultStudy

from importlib import resources
from itertools import product
from pathlib import Path

CASE_PATH = str(resources.files("faultloc").joinpath("cases", "fourbus.case"))
CASE14_PATH = str(resources.files("faultloc").joinpath("cases", "ieee14.case"))


def run_cli(args):
    return main(args)


def parse_csv(text):
    rows = []
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    for ln in lines[1:]:
        rows.append(dict(zip(header, ln.split(","))))
    return rows


def test_single_run_hybrid_row(capsys):
    rc = run_cli(
        [
            "--case", CASE_PATH, "--line", "T2", "--type", "LG", "--m", "0.56",
            "--rf-ohm", "1", "--method", "hybrid", "--branches", "T1", "--buses", "2",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    rows = parse_csv(out)
    assert len(rows) == 1
    assert rows[0]["method"] == "hybrid"
    assert abs(float(rows[0]["m_est"]) - 0.56) < 1e-9
    assert float(rows[0]["pct_error"]) < 1e-9
    assert rows[0]["feasible"] == "true"


def test_single_run_method_dispatch(capsys):
    rc = run_cli(
        [
            "--case", CASE_PATH, "--line", "T2", "--type", "LG", "--m", "0.56",
            "--rf-ohm", "1", "--method", "ssvm", "--buses", "1,2",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    rows = parse_csv(out)
    assert [r["method"] for r in rows] == ["ssvm"]


def test_all_methods_with_endpoint_branch_tokens(capsys):
    rc = run_cli(
        [
            "--case", CASE_PATH, "--line", "T2", "--type", "LLL", "--m", "0.28",
            "--rf-ohm", "10", "--method", "all", "--buses", "1,2",
            "--branches", "3-1,2-4",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    rows = parse_csv(out)
    assert sorted(r["method"] for r in rows) == ["hybrid", "hybrid-quad", "sscm", "ssvm"]
    for r in rows:
        assert abs(float(r["m_est"]) - 0.28) < 1e-6


def test_invalid_case_path_exits_one(capsys):
    rc = run_cli(["--case", "/nonexistent.case", "--line", "T2", "--type", "LG", "--m", "0.5"])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_missing_scenario_flags_exit_one(capsys):
    rc = run_cli(["--case", CASE_PATH])
    assert rc == 1


def test_infeasible_placement_exits_two(capsys):
    rc = run_cli(
        [
            "--case", CASE_PATH, "--line", "T2", "--type", "LG", "--m", "0.5",
            "--method", "ssvm", "--buses", "3,1",
        ]
    )
    assert rc == 2
    assert "infeasible" in capsys.readouterr().err


def _write_sweep(tmp_path, name="sweep.json", **overrides):
    spec = {
        "case": CASE_PATH,
        "lines": ["T2"],
        "types": ["LG", "LL", "LLG", "LLL"],
        "m_values": [0.28, 0.56],
        "rf_ohm": [1.0, 10.0],
        "methods": ["ssvm", "sscm", "hybrid"],
        "buses": [1, 2],
        "branches": ["T1", "T3"],
    }
    spec.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(spec))
    return str(path)


def test_sweep_full_fourbus_grid(tmp_path, capsys):
    out = tmp_path / "report.csv"
    rc = run_cli(["--case", CASE_PATH, "--sweep", _write_sweep(tmp_path), "--out", str(out)])
    assert rc == 0
    text = out.read_text()
    rows = parse_csv(text)
    assert len(rows) == 48  # 4 types x 2 positions x 2 resistances x 3 methods
    for r in rows:
        assert float(r["pct_error"]) <= 1e-4
    assert sum(1 for ln in text.splitlines() if ln.startswith("# aggregate")) == 3


def test_sweep_report_is_deterministic(tmp_path):
    spec = _write_sweep(tmp_path)
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(["--case", CASE_PATH, "--sweep", spec, "--out", str(out_a)]) == 0
    assert run_cli(["--case", CASE_PATH, "--sweep", spec, "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_sweep_json_schema(tmp_path, capsys):
    out = tmp_path / "report.json"
    spec = _write_sweep(tmp_path, format="json")
    rc = run_cli(["--case", CASE_PATH, "--sweep", spec, "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == 1
    assert len(doc["rows"]) == 48
    assert set(doc["aggregates"]) == {"ssvm", "sscm", "hybrid"}
    for agg in doc["aggregates"].values():
        assert agg["max_pct_error"] <= 1e-4


def test_sweep_empty_type_list_rejected(tmp_path, capsys):
    out = tmp_path / "never.csv"
    spec = _write_sweep(tmp_path, types=[])
    rc = run_cli(["--case", CASE_PATH, "--sweep", spec, "--out", str(out)])
    assert rc == 1
    assert not out.exists()  # failure must not leave a partial file


def test_nan_fault_resistance_exits_one(tmp_path, capsys):
    rc = run_cli(
        [
            "--case", CASE_PATH, "--line", "T2", "--type", "LG", "--m", "0.5",
            "--rf-ohm", "nan", "--method", "ssvm", "--buses", "1,2",
        ]
    )
    assert rc == 1
    assert capsys.readouterr().out == ""
    out = tmp_path / "never.csv"
    spec = _write_sweep(tmp_path, rf_ohm=[1.0, float("nan")])
    assert run_cli(["--case", CASE_PATH, "--sweep", spec, "--out", str(out)]) == 1
    assert not out.exists()


def test_infinite_fault_resistance_exits_one(tmp_path, capsys):
    """An infinite rf would simulate no fault at all: the flag and a sweep
    spec's ``Infinity`` are refused with exit 1, naming the value."""
    rc = run_cli(
        [
            "--case", CASE_PATH, "--line", "T2", "--type", "LG", "--m", "0.5",
            "--rf-ohm", "inf", "--method", "ssvm", "--buses", "1,2",
        ]
    )
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "faultloc: error: fault resistance inf ohm must be finite\n"
    out = tmp_path / "never.csv"
    spec = _write_sweep(tmp_path, rf_ohm=[1.0, float("inf")])
    assert "Infinity" in Path(spec).read_text()
    assert run_cli(["--case", CASE_PATH, "--sweep", spec, "--out", str(out)]) == 1
    assert capsys.readouterr().err == "faultloc: error: fault resistance inf ohm must be finite\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "old,new",
    [
        ("base 100 230 50", "base nan 230 50"),
        ("source 3 0.0006 0.037343", "source 3 0.0006 0.037343 nan 0"),
    ],
)
def test_non_finite_case_number_exits_one(tmp_path, capsys, old, new):
    text = Path(CASE_PATH).read_text(encoding="utf-8")
    assert old in text
    case = tmp_path / "bad.case"
    case.write_text(text.replace(old, new), encoding="utf-8")
    rc = run_cli(
        [
            "--case", str(case), "--line", "T2", "--type", "LG", "--m", "0.5",
            "--method", "ssvm", "--buses", "1,2",
        ]
    )
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "nan" in captured.err


@pytest.mark.parametrize("base", ["base 0 230 50", "base 100 0 50", "base -100 230 50"])
def test_non_positive_case_base_exits_one(tmp_path, capsys, base):
    """A zero MVA or kV base would divide by zero in the ohm-to-pu conversion,
    and a negative one would flip the fault resistance's sign."""
    text = Path(CASE_PATH).read_text(encoding="utf-8")
    lineno = text.splitlines().index("base 100 230 50") + 1
    case = tmp_path / "bad.case"
    case.write_text(text.replace("base 100 230 50", base), encoding="utf-8")
    argv = ["--case", str(case), "--line", "T2", "--type", "LG", "--m", "0.56", "--rf-ohm", "1"]
    assert run_cli(argv) == 1
    captured = capsys.readouterr()
    bad = next(tok for tok in base.split()[1:] if float(tok) <= 0)
    assert captured.out == ""
    assert captured.err == f"faultloc: error: line {lineno}: bad base value {bad!r}\n"


@pytest.mark.parametrize(
    "old,new,error",
    [
        ("0.015455  0.116066", "0 0", "line 'T2' has zero sequence-1 impedance"),
        ("0.098871  0.365188", "0.0 -0.0", "line 'T2' has zero sequence-0 impedance"),
        ("source 3 0.0006 0.037343", "source 3 0.0006 0.037343 0 0 0.0006 0.037343",
         "source at bus 3 has zero impedance"),
    ],
)
def test_zero_impedance_case_record_exits_one(tmp_path, capsys, old, new, error):
    """A zero line or source impedance is an infinite admittance: the case is
    refused with the record's line, not left to a division by zero."""
    text = Path(CASE_PATH).read_text(encoding="utf-8")
    lineno = next(k for k, row in enumerate(text.splitlines(), 1) if old in row)
    case = tmp_path / "bad.case"
    case.write_text(text.replace(old, new), encoding="utf-8")
    argv = ["--case", str(case), "--line", "T1", "--type", "LG", "--m", "0.5", "--method", "all",
            "--buses", "1,2", "--branches", "T1,T3"]
    assert run_cli(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"faultloc: error: line {lineno}: {error}\n"


@pytest.mark.parametrize(
    "distort",
    [
        "busV:2:gain:nan",
        "busV:2:gain:1.0:inf",
        "branchI:T1:clamp:nan",
        "branchI:T1:clamp:inf",
        "branchI:T1:clamp:0",
        "branchI:T1:clamp:-1",
    ],
)
def test_non_finite_or_non_positive_distortion_exits_one(tmp_path, capsys, distort):
    rc = run_cli(
        [
            "--case", CASE_PATH, "--line", "T2", "--type", "LG", "--m", "0.5",
            "--method", "hybrid", "--buses", "2", "--branches", "T1",
            "--distort", distort,
        ]
    )
    assert rc == 1
    assert capsys.readouterr().out == ""
    out = tmp_path / "never.csv"
    spec = _write_sweep(tmp_path, distort=[distort])
    assert run_cli(["--case", CASE_PATH, "--sweep", spec, "--out", str(out)]) == 1
    assert not out.exists()


def _segment_clamp(fraction=0.5):
    net = bundled_case("fourbus")
    ms = FaultStudy(net).measurements(
        FaultScenario("T2", 0.56, FaultType.LLL, 1.0),
        MeasurementTaps(),
    )
    return fraction * abs(ms.fault_branch_i["T2@from"][1])


def test_ct_saturation_leaves_voltage_and_hybrid_rows_unchanged(tmp_path):
    clamp = _segment_clamp()
    spec_clean = _write_sweep(tmp_path, "clean.json", types=["LLL"], m_values=[0.56], rf_ohm=[1.0])
    spec_sat = _write_sweep(
        tmp_path, "sat.json", types=["LLL"], m_values=[0.56], rf_ohm=[1.0],
        distort=[f"branchI:T2@from:clamp:{clamp!r}"],
    )
    out_clean, out_sat = tmp_path / "clean.csv", tmp_path / "sat.csv"
    assert run_cli(["--case", CASE_PATH, "--sweep", spec_clean, "--out", str(out_clean)]) == 0
    assert run_cli(["--case", CASE_PATH, "--sweep", spec_sat, "--out", str(out_sat)]) == 0
    # None of these methods consume the clamped channel: reports identical.
    assert out_clean.read_bytes() == out_sat.read_bytes()


def test_ct_saturation_degrades_consuming_sscm(tmp_path):
    clamp = _segment_clamp()
    base = dict(
        types=["LLL"], m_values=[0.56], rf_ohm=[1.0],
        methods=["sscm"], branches=["T2@from", "T1"],
    )
    spec_clean = _write_sweep(tmp_path, "clean.json", **base)
    spec_sat = _write_sweep(
        tmp_path, "sat.json", **base, distort=[f"branchI:T2@from:clamp:{clamp!r}"]
    )
    out_clean, out_sat = tmp_path / "c.csv", tmp_path / "s.csv"
    assert run_cli(["--case", CASE_PATH, "--sweep", spec_clean, "--out", str(out_clean)]) == 0
    assert run_cli(["--case", CASE_PATH, "--sweep", spec_sat, "--out", str(out_sat)]) == 0
    clean = parse_csv(out_clean.read_text())[0]
    sat = parse_csv(out_sat.read_text())[0]
    assert clean["m_est"] != sat["m_est"]


def test_unknown_distortion_channel_exits_one(capsys):
    rc = run_cli(
        [
            "--case", CASE_PATH, "--line", "T2", "--type", "LG", "--m", "0.5",
            "--method", "ssvm", "--buses", "1,2", "--distort", "busV:77:gain:1.01",
        ]
    )
    assert rc == 1
    assert "unknown voltage channel" in capsys.readouterr().err


def test_bad_distortion_spec_exits_one(capsys):
    rc = run_cli(
        [
            "--case", CASE_PATH, "--line", "T2", "--type", "LG", "--m", "0.5",
            "--method", "ssvm", "--buses", "1,2", "--distort", "busV:1:wobble:2",
        ]
    )
    assert rc == 1


def test_bad_sweep_distortion_exits_before_any_scenario(tmp_path, capsys, monkeypatch):
    evaluated = []
    monkeypatch.setattr(cli, "_evaluate", lambda *args: evaluated.append(args) or [])
    spec = _write_sweep(tmp_path, distort=["busV:1:gain:1.01", "busV:1:wobble:2"])
    assert run_cli(["--case", CASE_PATH, "--sweep", spec]) == 1
    assert evaluated == []
    assert "wobble" in capsys.readouterr().err


def test_current_channel_on_faulted_line_exits_before_any_scenario(
    tmp_path, capsys, monkeypatch
):
    evaluated = []
    monkeypatch.setattr(cli, "_evaluate", lambda *args: evaluated.append(args) or [])
    spec = _ieee14_sweep(tmp_path, "faulted.json", lines=["2-3"], methods=["sscm"])
    assert run_cli(["--case", CASE14_PATH, "--sweep", spec]) == 1
    single = ["--case", CASE14_PATH, "--line", "2-3", "--type", "LG", "--m", "0.5",
              "--method", "sscm", "--branches", "3-2,13-14"]
    assert run_cli(single) == 1
    assert evaluated == []
    message = "faultloc: error: current channel '2-3' measures faulted line '2-3'\n"
    assert capsys.readouterr().err == 2 * message


def test_terminal_of_unfaulted_line_runs_and_recovers(tmp_path, capsys):
    # A CT at 2-3@from reads a current whatever line is faulted.
    single = ["--case", CASE14_PATH, "--line", "4-5", "--type", "LG", "--m", "0.5",
              "--method", "sscm", "--branches", "2-3@from,13-14"]
    assert run_cli(single) == 0
    rows = parse_csv(capsys.readouterr().out)
    assert len(rows) == 1 and float(rows[0]["pct_error"]) <= 1e-6
    spec = _ieee14_sweep(tmp_path, "terminal.json", methods=["sscm", "hybrid"],
                         branches=["2-3@to", "13-14"])
    out = tmp_path / "terminal.csv"
    assert run_cli(["--case", CASE14_PATH, "--sweep", spec, "--out", str(out)]) == 0
    rows = parse_csv(out.read_text())
    assert len(rows) == 4 * 3 * 3 * 2 * 2
    assert {r["line"] for r in rows} == {"1-2", "4-5", "6-11", "9-14"}
    assert max(float(r["pct_error"]) for r in rows) <= 1e-6
    # Distorting such a channel, which ssvm does not read, changes nothing.
    fourbus = _SINGLE + ["--method", "ssvm", "--buses", "1,2"]
    capsys.readouterr()
    assert run_cli(fourbus) == 0
    clean = capsys.readouterr().out
    assert run_cli(fourbus + ["--distort", "branchI:T1@to:gain:1.01"]) == 0
    assert capsys.readouterr().out == clean


def test_terminal_pair_dependent_under_its_own_line_exits_two(fourbus, fourbus_study, capsys):
    # On the chain 3-T1-1-T2-2-T3-4 the current bus 2 feeds into T2 is the
    # current T3 brings to bus 2: the pair cannot pin m, while the terminal
    # over T1, on the other side of the fault, recovers it.
    zbus = fourbus_study.zbus(1)
    ok, reason = feasibility_check(fourbus, "T2", CurrentPlacement("T2@from", "T3"), zbus)
    assert not ok and reason.endswith("dependent")
    assert feasibility_check(fourbus, "T2", CurrentPlacement("T2@from", "T1"), zbus) == (True, "ok")
    assert run_cli(_SINGLE + ["--method", "sscm", "--branches", "T2@from,T3"]) == 2
    assert capsys.readouterr().err == (
        "faultloc: infeasible placement: sscm placement infeasible for line T2:"
        " channel fault responses are linearly dependent\n"
    )


def test_unknown_branch_token_exits_one(capsys):
    rc = run_cli(
        [
            "--case", CASE_PATH, "--line", "T2", "--type", "LG", "--m", "0.5",
            "--method", "sscm", "--branches", "T1,T9",
        ]
    )
    assert rc == 1


@pytest.mark.parametrize(
    "overrides",
    [
        {"lines": "T2"},
        {"lines": [2]},
        {"types": "LG"},
        {"m_values": "1"},
        {"rf_ohm": "5"},
        {"methods": "ssvm"},
        {"buses": "12"},
        {"branches": "T1"},
        {"branches": ["T1", 3]},
        {"distort": "busV:1:gain:1.01"},
        {"distort": [1]},
        {"case": 5},
        {"out": ["report.csv"]},
        {"buses": [1.9, 2.2]},
        {"buses": [True, 2]},
        {"m_values": [True, "0.3"]},
        {"m_values": [True]},
        {"m_values": ["0.3"]},
        {"rf_ohm": [False]},
        {"rf_ohm": ["5"]},
    ],
)
def test_sweep_spec_with_wrong_json_types_exits_one(tmp_path, capsys, overrides):
    out = tmp_path / "never.csv"
    spec = _write_sweep(tmp_path, **overrides)
    assert run_cli(["--case", CASE_PATH, "--sweep", spec, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"faultloc: error: bad sweep spec {spec!r}")
    assert not out.exists()


def test_sweep_spec_that_is_not_an_object_exits_one(tmp_path, capsys):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps([{"lines": ["T2"]}]))
    assert run_cli(["--case", CASE_PATH, "--sweep", str(path)]) == 1
    assert "bad sweep spec" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# A run taps only the channels it reads
# ---------------------------------------------------------------------------


def _all_taps(net, line_id, placements, distortions):
    """Every channel: every bus, every line but the faulted one, and both
    terminals of every line."""
    terminals = tuple(f"{rec.id}@{end}" for rec in net.lines for end in ("from", "to"))
    return MeasurementTaps(
        branches=tuple(rec.id for rec in net.lines if rec.id != line_id) + terminals
    )


def _ieee14_sweep(tmp_path, name, **overrides):
    spec = {
        "case": CASE14_PATH,
        "lines": ["1-2", "4-5", "6-11", "9-14"],
        "types": ["LG", "LLG", "LLL"],
        "m_values": [0.0, 0.37, 1.0],
        "rf_ohm": [0.0, 4.0],
        "methods": ["ssvm", "sscm", "hybrid", "hybrid-quad"],
        "buses": [1, 14],
        "branches": ["2-3", "13-14"],
    }
    spec.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(spec))
    return str(path)


def _sweep_specs(tmp_path):
    """Sweeps with distortions on consumed channels, on channels no method
    reads, and on a terminal of the faulted line."""
    return [
        _write_sweep(tmp_path, "plain.json", m_values=[0.0, 0.28, 1.0]),
        _write_sweep(
            tmp_path, "distorted.json", methods=["ssvm", "sscm", "hybrid", "hybrid-quad"],
            distort=["busV:1:gain:1.01:0.3", "branchI:T3:clamp:0.5", "busV:4:gain:0.9",
                     "branchI:T2@from:clamp:0.2", "branchI:T2@to:gain:1.2"],
        ),
        _write_sweep(
            tmp_path, "segment.json", methods=["sscm", "hybrid"], buses=[2, 1],
            branches=["T2@from", "T1"], distort=["branchI:T2@from:clamp:0.2"],
        ),
        _ieee14_sweep(
            tmp_path, "ieee14.json",
            distort=["busV:14:gain:1.02:-1", "branchI:2-3:clamp:0.4",
                     "busV:7:gain:1.5", "branchI:7-8:gain:0.5"],
        ),
        _ieee14_sweep(
            tmp_path, "ieee14-segment.json", lines=["4-5"], branches=["4-5@to", "2-3"],
            distort=["branchI:4-5@from:clamp:0.3", "branchI:4-5@to:gain:1.5:3"],
        ),
    ]


#: Runs the all-tap set rejects, each with the error that rejects it.
_SINGLE = ["--case", CASE_PATH, "--line", "T2", "--type", "LG", "--m", "0.5"]
_REJECTED = [
    (_SINGLE + ["--method", "ssvm", "--buses", "1,2", "--distort", "busV:77:gain:1.01"],
     "unknown voltage channel '77'"),
    (_SINGLE + ["--method", "ssvm", "--buses", "1,2", "--distort", "branchI:T2:gain:1.01"],
     "unknown current channel 'T2'"),
    (_SINGLE + ["--method", "all", "--buses", "1,2", "--branches", "T2,T3"], "'T2'"),
    (_SINGLE + ["--method", "ssvm", "--buses", "1,9"], "unknown bus 9"),
]


def test_consumed_taps_match_all_taps(tmp_path, capsys, monkeypatch):
    def runs():
        reports = []
        for k, spec in enumerate(_sweep_specs(tmp_path)):
            out = tmp_path / f"report-{k}.csv"
            assert run_cli(["--case", CASE_PATH, "--sweep", spec, "--out", str(out)]) == 0
            reports.append(out.read_bytes())
        capsys.readouterr()
        errors = [(run_cli(argv), capsys.readouterr().err) for argv, _ in _REJECTED]
        return reports, errors

    consumed = runs()
    monkeypatch.setattr(cli, "_taps", _all_taps)
    assert runs() == consumed
    for (rc, err), (_, message) in zip(consumed[1], _REJECTED):
        assert rc == 1
        assert err.startswith("faultloc: error: ") and message in err
        assert err.count("\n") == 1


def test_measurements_hold_exactly_the_read_channels(tmp_path, monkeypatch):
    taken = []
    measure = FaultStudy.measurements

    def spy(self, scenario, taps=None):
        ms = measure(self, scenario, taps)
        taken.append((scenario.line_id, set(ms.fault_bus_v), set(ms.fault_branch_i)))
        return ms

    monkeypatch.setattr(FaultStudy, "measurements", spy)
    spec = _write_sweep(
        tmp_path, methods=["ssvm", "sscm", "hybrid"], buses=[1, 4, 2],
        branches=["T1", "T3"],
        distort=["busV:3:gain:1.1", "branchI:T2@to:clamp:0.5", "busV:1:gain:0.99"],
    )
    assert run_cli(["--case", CASE_PATH, "--sweep", spec]) == 0
    assert len(taken) == 16
    # ssvm reads buses 1 and 4, hybrid bus 2; sscm reads T1 and T3.
    assert {(line, frozenset(v), frozenset(i)) for line, v, i in taken} == {
        ("T2", frozenset({1, 2, 3, 4}), frozenset({"T1", "T3", "T2@to"}))
    }

    taken.clear()
    spec = _ieee14_sweep(
        tmp_path, "ieee14.json", methods=["sscm", "hybrid"], distort=["busV:7:gain:1.5"]
    )
    assert run_cli(["--case", CASE14_PATH, "--sweep", spec]) == 0
    assert len(taken) == 72
    for _, buses, branches in taken:
        assert buses == {7, 14}
        assert branches == {"2-3", "13-14"}


def test_law_builds_do_not_grow_with_the_scenario_count(tmp_path, monkeypatch):
    """Laws depend on (matrix, faulted line, channel) only, so nine m values
    build no more of them than one."""
    built = []
    law = seqmatrix.LinearLaw

    def counted_law(b, c):
        built.append(None)
        return law(b, c)

    monkeypatch.setattr(seqmatrix, "LinearLaw", counted_law)
    counts = []
    for m_values in ([0.37], [0.1 * k for k in range(1, 10)]):
        built.clear()
        spec = cli.SweepSpec(
            case=CASE14_PATH, lines=("1-2", "4-5", "9-14"), types=(FaultType.LG, FaultType.LLL),
            m_values=tuple(m_values), rf_ohm=(2.0,), methods=tuple(Method),
            buses=(1, 14), branches=("2-3", "13-14"),
        )
        assert len(cli.run_sweep(spec)) == 3 * 2 * len(m_values) * 4
        counts.append(len(built))
    assert counts[0] > 0
    assert counts[1] == counts[0]


def test_csv_writes_each_rows_own_numbers():
    """Rows share their m and rf objects, which the CSV writes once each: every
    row still reads its own, ``-0.0`` apart from ``0.0``, as ``repr`` writes it."""
    spec = cli.SweepSpec(
        case=CASE_PATH, lines=("T2",), types=(FaultType.LG,), m_values=(0.0, -0.0, 0.5),
        rf_ohm=(0.0, -0.0, 1.0), methods=(Method.SSVM, Method.HYBRID_DIRECT), buses=(1, 2),
        branches=("T1",),
    )
    rows = cli.run_sweep(spec)
    body = [ln.split(",") for ln in cli.render_csv(rows).splitlines()[1:] if ln[0] != "#"]
    assert len(body) == len(rows) == 18
    assert {(repr(r.m_true), repr(r.rf_ohm)) for r in rows} == {
        (m, rf) for m in ("0.0", "-0.0", "0.5") for rf in ("0.0", "-0.0", "1.0")
    }
    for r, cols in zip(rows, body):
        assert cols[2:4] == [repr(r.m_true), repr(r.rf_ohm)]
        assert cols[5:8] == [repr(r.m_est), repr(r.residual), repr(r.pct_error)]


def _bits(*values):
    return tuple(float(v).hex() for v in values)


def test_sweep_rows_match_a_fresh_study_per_scenario(tmp_path):
    """A sweep shares one study, verdict and pair of laws over each faulted
    line; every row matches, bit for bit, an estimate on a study of its own."""
    for path in _sweep_specs(tmp_path):
        spec = cli.load_sweep_spec(path, default_case=CASE_PATH)
        rows = cli.run_sweep(spec)
        net = cli.load_case(spec.case)
        distortions = tuple(cli.parse_distortion(t) for t in spec.distort)
        branches = tuple(f"{r.id}@{e}" if e else r.id for r, e in map(net.channel, spec.branches))
        want = []
        for line_id, ftype, m, rf in product(spec.lines, spec.types, spec.m_values, spec.rf_ohm):
            study = FaultStudy(net)
            ms = apply_distortion(study.measurements(FaultScenario(line_id, m, ftype, rf)), distortions)
            length = net.line(line_id).length_km
            for method in spec.methods:
                placement = cli._placement_for(method, spec.buses, branches)
                est = estimate_for_placement(net, study.zbus(1), line_id, placement, ms, method)
                pct = percent_error(m * length, est.m * length, length)
                want.append((line_id, ftype.value, m, rf, method.value, _bits(est.m, est.residual, pct)))
        got = [(r.line, r.type, r.m_true, r.rf_ohm, r.method, _bits(r.m_est, r.residual, r.pct_error))
               for r in rows]
        assert sorted(got) == sorted(want), path
