"""Command-line front end: scenario sweeps, of which a single run is one.

A run simulates the requested fault(s) on a case, feeds the synthetic
measurements to the selected estimators, and emits one report row per
(scenario, method).  Current channels are line ids, ``a-b`` pairs or
terminals of any line (``T2@from``); only a faulted line's own current is
refused.  Inputs are checked before the first scenario runs, bar unknown
lines, buses and channels and infeasible placements.  Scenarios run one
faulted line at a time on one shared study, whose matrix keeps each
placement's laws and verdicts for every line.  Only the channels the methods
read, plus the distorted ones, are simulated, each as with every channel
tapped, so reports and errors do not depend on it.  Reports are
deterministic: rows are sorted by (line, type, m, rf, method), identical
inputs give byte-identical files, and timing goes to stderr only.

Exit codes: 0 success, 1 parse/validation failure, 2 infeasible placement.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass
from itertools import product

import argparse
import contextlib
import json
import os
import sys
import tempfile
import time

from .faultsim import Distortion, FaultScenario, FaultStudy, FaultType, MeasurementTaps, apply_distortion
from .locator import (
    CurrentPlacement,
    DegenerateChannelError,
    HybridPlacement,
    LinearDependenceError,
    Method,
    Placement,
    VoltagePlacement,
    estimate_for_placement,
    feasibility_check,
    percent_error,
)
from .netmodel import CaseError, Network, load_case

__all__ = ["main", "SweepSpec", "run_sweep"]

CSV_COLUMNS = "line,type,m_true,rf_ohm,method,m_est,residual,pct_error,feasible"


class PlacementError(Exception):
    """Raised when a placement cannot observe the requested fault."""


@dataclass(frozen=True)
class SweepSpec:
    """Cross-product scenario sweep: lines x types x m values x rf values.

    ``buses``/``branches`` feed the placements: the voltage method uses the
    first two buses, the current method the first two branches, and the
    hybrid methods pair the first branch with the last bus.  Each m and rf
    value is checked by the :class:`FaultScenario` it builds, which takes an
    infinite rf for "no fault": :meth:`validate` refuses it.
    """

    case: str
    lines: tuple[str, ...]
    types: tuple[FaultType, ...]
    m_values: tuple[float, ...]
    rf_ohm: tuple[float, ...]
    methods: tuple[Method, ...]
    buses: tuple[int, ...] = ()
    branches: tuple[str, ...] = ()
    distort: tuple[str, ...] = ()
    out: str | None = None
    format: str = "csv"

    def validate(self) -> None:
        for name in ("lines", "types", "m_values", "rf_ohm", "methods"):
            if not getattr(self, name):
                raise ValueError(f"sweep spec field {name!r} must be a non-empty list")
        for rf in self.rf_ohm:
            if abs(rf) == float("inf"):
                raise ValueError(f"fault resistance {rf} ohm must be finite")
        if self.format not in ("csv", "json"):
            raise ValueError(f"unknown report format {self.format!r}")


#: Sweep spec fields that hold JSON lists, and those whose entries are text.
_LIST_FIELDS = ("lines", "types", "m_values", "rf_ohm", "methods", "buses", "branches", "distort")
_TEXT_LIST_FIELDS = ("lines", "branches", "distort")


def _check_spec_types(raw) -> None:
    """Raise ``TypeError`` unless ``raw`` has the JSON shape of a sweep spec."""
    if not isinstance(raw, dict):
        raise TypeError("a sweep spec must be a JSON object")
    for name in ("case", "out"):
        if not isinstance(raw.get(name, ""), (str, type(None))):
            raise TypeError(f"field {name!r} must be a string")
    for name in _LIST_FIELDS:
        value = raw.get(name, [])
        if not isinstance(value, list):
            raise TypeError(f"field {name!r} must be a list")
        if name in _TEXT_LIST_FIELDS and not all(isinstance(v, str) for v in value):
            raise TypeError(f"field {name!r} must list strings")
    if not all(type(v) is int for v in raw.get("buses", [])):  # not 1.9, not true
        raise TypeError("field 'buses' must list integer bus labels")
    for name in ("m_values", "rf_ohm"):
        if not all(type(v) in (int, float) for v in raw.get(name, [])):  # not "0.3", not true
            raise TypeError(f"field {name!r} must list numbers")


def load_sweep_spec(path: str, default_case: str | None = None) -> SweepSpec:
    """Read a sweep spec; ``case`` may be omitted when a default is given."""
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    try:
        _check_spec_types(raw)
        spec = SweepSpec(
            case=raw.get("case", default_case) or "",
            lines=tuple(raw["lines"]),
            types=tuple(FaultType(t) for t in raw["types"]),
            m_values=tuple(float(m) for m in raw["m_values"]),
            rf_ohm=tuple(float(r) for r in raw["rf_ohm"]),
            methods=tuple(Method(m) for m in raw["methods"]),
            buses=tuple(int(b) for b in raw.get("buses", [])),
            branches=tuple(str(b) for b in raw.get("branches", [])),
            distort=tuple(raw.get("distort", [])),
            out=raw.get("out"),
            format=raw.get("format", "csv"),
        )
    except (KeyError, ValueError, TypeError) as exc:
        raise ValueError(f"bad sweep spec {path!r}: {exc}") from None
    if not spec.case:
        raise ValueError(f"sweep spec {path!r} names no case file")
    return spec


def parse_distortion(token: str) -> Distortion:
    """Parse ``kind:channel:gain:MAG[:PHASE_DEG]`` or ``kind:channel:clamp:PU``."""
    parts = token.split(":")
    if len(parts) < 4:
        raise ValueError(f"bad distortion spec {token!r}")
    kind, channel, op = parts[0], parts[1], parts[2]
    if kind not in ("busV", "branchI"):
        raise ValueError(f"bad distortion channel kind {kind!r}")
    if op == "gain":
        gain = float(parts[3])
        phase = float(parts[4]) if len(parts) > 4 else 0.0
        return Distortion(kind=kind, channel=channel, gain=gain, phase_deg=phase)
    if op == "clamp":
        return Distortion(kind=kind, channel=channel, clamp_pu=float(parts[3]))
    raise ValueError(f"bad distortion op {op!r} (expected gain or clamp)")


def _placement_for(
    method: Method, buses: tuple[int, ...], branches: tuple[str, ...]
) -> Placement:
    if method is Method.SSVM:
        if len(buses) < 2:
            raise ValueError("voltage method needs two buses (--buses a,b)")
        return VoltagePlacement(buses[0], buses[1])
    if method is Method.SSCM:
        if len(branches) < 2:
            raise ValueError("current method needs two branches (--branches a,b)")
        return CurrentPlacement(branches[0], branches[1])
    if not branches or not buses:
        raise ValueError("hybrid methods need a branch and a bus")
    return HybridPlacement(branches[0], buses[-1])


@dataclass
class ReportRow:
    line: str
    type: str
    m_true: float
    rf_ohm: float
    method: str
    m_est: float
    residual: float
    pct_error: float
    feasible: bool

    def sort_key(self):
        return (self.line, self.type, self.m_true, self.rf_ohm, self.method)


def _taps(
    net: Network,
    line_id: str,
    placements: dict[Method, Placement],
    distortions: tuple[Distortion, ...],
) -> MeasurementTaps:
    """The channels a scenario on ``line_id`` reads: the placements' own
    and the distorted ones, under their canonical ids.

    A channel that no tap set holds (an unknown bus or line, the faulted
    line's own id) is left out, so that the check that rejects it raises
    just as it would with every channel tapped.  An ``a-b`` pair taps its
    line, which the check on the pair's own id does not read.
    """
    channels = [ch for p in placements.values() for ch in p.channels]
    channels.extend((d.kind, d.channel) for d in distortions)
    buses: dict[int, None] = {}
    branches: dict[str, None] = {}
    for kind, ident in channels:
        try:
            if kind == "busV":
                net.bus_index(int(ident))
                buses[int(ident)] = None
                continue
            line, end = net.channel(ident)
        except ValueError:  # CaseError included: the check that rejects it runs later
            continue
        if end or line.id != line_id:
            branches[f"{line.id}@{end}" if end else line.id] = None
    return MeasurementTaps(tuple(buses), tuple(branches))


def _evaluate(
    study: FaultStudy,
    scenarios: list[FaultScenario],
    taps: MeasurementTaps,
    plan: list[tuple[Method, Placement]],
    distortions: tuple[Distortion, ...],
) -> list[ReportRow]:
    """The rows of one faulted line's scenarios, every row's feasibility checked."""
    net, line_id = study.net, scenarios[0].line_id
    length = net.line(line_id).length_km
    rows = []
    for scenario in scenarios:
        ms = study.measurements(scenario, taps)
        if distortions:
            ms = apply_distortion(ms, distortions)
        zbus, m, ftype, rf = study.zbus(1), scenario.m, scenario.fault_type.value, scenario.rf_ohm
        for method, placement in plan:
            ok, reason = feasibility_check(net, line_id, placement, zbus)
            if not ok:
                raise PlacementError(
                    f"{method.value} placement infeasible for line {line_id}: {reason}"
                )
            try:
                est = estimate_for_placement(net, zbus, line_id, placement, ms, method)
            except (DegenerateChannelError, LinearDependenceError) as exc:
                raise PlacementError(f"{method.value}: {exc}") from None
            pct = percent_error(m * length, est.m * length, length)
            rows.append(ReportRow(line_id, ftype, m, rf, method.value, est.m, est.residual, pct, ok))
    return rows


def run_sweep(spec: SweepSpec) -> list[ReportRow]:
    """Evaluate the sweep's full scenario cross-product, deterministically.

    Every scenario is built, and so checked, before the first is evaluated,
    and so is every current channel against every faulted line: a line's
    own current may not be read while it is faulted, only its terminals.
    Scenarios are evaluated one faulted line at a time.
    """
    spec.validate()
    distortions = tuple(parse_distortion(t) for t in spec.distort)
    net = load_case(spec.case)
    # Measurement sets name a line by its id, never by an a-b pair.
    branches = tuple(
        f"{line.id}@{end}" if end else line.id for line, end in map(net.channel, spec.branches)
    )
    placements = {m: _placement_for(m, spec.buses, branches) for m in spec.methods}
    grid = list(product(spec.types, spec.m_values, spec.rf_ohm))
    scenarios = [[FaultScenario(line_id, m, t, rf) for t, m, rf in grid] for line_id in spec.lines]
    currents = {i for p in placements.values() for kind, i in p.channels if kind == "branchI"}
    for line_id in spec.lines:
        if line_id in currents:
            raise ValueError(f"current channel {line_id!r} measures faulted line {line_id!r}")
    plan = [(method, placements[method]) for method in spec.methods]
    study = FaultStudy(net)
    rows: list[ReportRow] = []
    for line_id, group in zip(spec.lines, scenarios):
        taps = _taps(net, line_id, placements, distortions)
        rows.extend(_evaluate(study, group, taps, plan, distortions))
    rows.sort(key=ReportRow.sort_key)
    return rows


def aggregates_by_method(rows: list[ReportRow]) -> dict[str, dict[str, float]]:
    out: dict[str, dict[str, float]] = {}
    for method in sorted({r.method for r in rows}):
        errs = [r.pct_error for r in rows if r.method == method]
        out[method] = {"max_pct_error": max(errs), "mean_pct_error": sum(errs) / len(errs)}
    return out


def _num(x: float) -> str:
    return repr(float(x))  # "nan", "inf" and "-inf" included


def render_csv(rows: list[ReportRow]) -> str:
    lines, shared = [CSV_COLUMNS], {}  # "m,rf" text by the ids of the floats rows share
    for r in rows:
        key = (id(r.m_true), id(r.rf_ohm))
        m_rf = shared.get(key) or shared.setdefault(key, f"{_num(r.m_true)},{_num(r.rf_ohm)}")
        lines.append(
            f"{r.line},{r.type},{m_rf},{r.method},"
            f"{float(r.m_est)!r},{float(r.residual)!r},{float(r.pct_error)!r},"
            f"{'true' if r.feasible else 'false'}"
        )
    for method, agg in aggregates_by_method(rows).items():
        lines.append(
            f"# aggregate,{method},max_pct_error={_num(agg['max_pct_error'])},"
            f"mean_pct_error={_num(agg['mean_pct_error'])}"
        )
    return "\n".join(lines) + "\n"


def render_json(rows: list[ReportRow]) -> str:
    doc = {"schema": 1, "rows": [asdict(r) for r in rows], "aggregates": aggregates_by_method(rows)}
    return json.dumps(doc, indent=2) + "\n"


def write_report(text: str, out: str | None) -> None:
    """Write atomically: a failed run must not leave a partial file."""
    if out is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(out))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".faultloc-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, out)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    p = _Parser(
        prog="faultloc",
        description=(
            "Locate faults on a meshed network from sparse synchronized"
            " phasor measurements (simulated analytically from the case)."
        ),
        epilog=(
            "Fault resistance is given in ohms and converted internally on the"
            " case impedance base (kV^2/MVA).  Placements: --buses a,b feeds"
            " the voltage method, --branches a,b the current method, and the"
            " hybrid methods pair the first branch with the last bus."
            "  Branches may be line ids, from-to pairs (1-5), or terminal"
            " channels of any line (T2@from)."
        ),
    )
    p.add_argument("--case", required=True, help="case file path")
    p.add_argument("--sweep", help="JSON sweep spec file (overrides scenario flags)")
    p.add_argument("--line", help="faulted line id")
    p.add_argument("--type", choices=[t.value for t in FaultType], help="fault type")
    p.add_argument("--m", type=float, help="normalized fault position in [0,1]")
    p.add_argument("--rf-ohm", type=float, default=0.0, help="fault resistance in ohms")
    p.add_argument(
        "--method", default="all", choices=[m.value for m in Method] + ["all"],
        help="estimator to run (default: all)",
    )
    p.add_argument("--buses", default="", help="comma-separated bus labels")
    p.add_argument("--branches", default="", help="comma-separated branch channels")
    p.add_argument(
        "--distort", action="append", default=[], metavar="SPEC",
        help="channel distortion kind:channel:gain:MAG[:PHASE_DEG] or"
        " kind:channel:clamp:PU (repeatable)",
    )
    p.add_argument("--out", help="report path (default: stdout)")
    p.add_argument("--format", default="csv", choices=["csv", "json"])
    return p


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        if args.sweep:
            spec = load_sweep_spec(args.sweep, default_case=args.case)
        elif not args.line or not args.type or args.m is None:
            raise ValueError("single runs need --line, --type and --m")
        else:
            spec = SweepSpec(
                case=args.case,
                lines=(args.line,),
                types=(FaultType(args.type),),
                m_values=(args.m,),
                rf_ohm=(args.rf_ohm,),
                methods=tuple(Method) if args.method == "all" else (Method(args.method),),
                buses=tuple(int(b) for b in args.buses.split(",") if b),
                branches=tuple(b for b in args.branches.split(",") if b),
                distort=tuple(args.distort),
                format=args.format,
            )
        rows = run_sweep(spec)
        text = render_csv(rows) if spec.format == "csv" else render_json(rows)
        write_report(text, args.out if args.out is not None else spec.out)
    except PlacementError as exc:
        print(f"faultloc: infeasible placement: {exc}", file=sys.stderr)
        return 2
    except (CaseError, ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"faultloc: error: {exc}", file=sys.stderr)
        return 1
    print(f"faultloc: {len(rows)} rows in {time.perf_counter() - started:.3f}s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
