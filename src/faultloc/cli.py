"""Command-line front end: scenario sweeps, of which a single run is one.

A run simulates the requested fault(s) on a case, feeds the synthetic
measurements to the selected estimators, and emits one report row per
(scenario, method).  Current channels are line ids, ``a-b`` pairs or
terminals of any line (``T2@from``); only a faulted line's own current is
refused.  Every input is checked, and every name resolved against the case,
before the first scenario runs.  Every scenario is then simulated, a line at
a time on one study whose matrix keeps each placement's laws and verdicts,
on only the channels read or distorted, each as with every channel tapped.
Each method then checks and solves all rows at once, with the bits of a
one-row estimate; the first failing row in spec order exits 2.  Reports are
deterministic: rows sorted by (line, type, m, rf, method), byte-identical
for identical inputs, timing on stderr only.

Exit codes: 0 success, 1 parse/validation failure, 2 infeasible placement.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from functools import cache, partial
from itertools import product
from operator import attrgetter

import argparse
import contextlib
import json
import os
import sys
import tempfile
import time

import numpy as np

from .faultsim import Distortion, FaultScenario, FaultStudy, FaultType, MeasurementTaps, apply_distortion
from .locator import CurrentPlacement, HybridPlacement, Method, Placement, VoltagePlacement, _estimates
from .locator import estimate_for_placement  # not called here; perfbench traces this import site
from .locator import feasibility_check, percent_error
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
            texts = [repr(getattr(v, "value", v)) for v in getattr(self, name)]  # -0.0 is not 0.0
            if len(set(texts)) < len(texts):
                twice = max(texts, key=texts.count)
                raise ValueError(f"sweep spec field {name!r} lists {twice} twice")
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
    if len(parts) not in ((4, 5) if parts[2:3] == ["gain"] else (4,)):
        raise ValueError(f"bad distortion spec {token!r}")
    kind, channel, op, value, phase = (parts + ["0"])[:5]  # PHASE_DEG defaults to 0
    if kind not in ("busV", "branchI"):
        raise ValueError(f"bad distortion channel kind {kind!r}")
    if op == "gain":
        return Distortion(kind, channel, gain=float(value), phase_deg=float(phase))
    if op == "clamp":
        return Distortion(kind, channel, clamp_pu=float(value))
    raise ValueError(f"bad distortion op {op!r} (expected gain or clamp)")


def _channel_id(net: Network, faulted: tuple[str, ...], kind: str, token: int | str) -> int | str:
    """A channel's canonical id in the case: a bus label, given as text or not, or a
    current channel under its line's id, as measurement sets key it (``1-3@from`` is
    ``T1@from``).  A faulted line's own current is refused: only its terminals measure it."""
    if kind == "branchI":
        line, end = net.channel(token)
        if not end and line.id in faulted:
            raise ValueError(f"current channel {line.id!r} measures faulted line {line.id!r}")
        return f"{line.id}@{end}" if end else line.id
    try:
        return net.buses[net.bus_index(int(token))]
    except ValueError:  # not an integer, or no bus of the case
        raise CaseError(f"unknown bus {token!r}") from None


def _placement_for(method: Method, buses: tuple[int, ...], branches: tuple[str, ...]) -> Placement:
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


def _taps(plan: list[tuple[Method, Placement]], distortions: tuple[Distortion, ...]) -> MeasurementTaps:
    """The channels a sweep reads, under their canonical ids: the
    placements' own and the distorted ones."""
    channels = [ch for _, placement in plan for ch in placement.channels]
    channels.extend((d.kind, int(d.channel) if d.kind == "busV" else d.channel) for d in distortions)
    return MeasurementTaps(
        tuple(dict.fromkeys(i for kind, i in channels if kind == "busV")),
        tuple(dict.fromkeys(i for kind, i in channels if kind == "branchI")),
    )


def _evaluate(
    study: FaultStudy, scenarios: list[FaultScenario], taps: MeasurementTaps,
    plan: list[tuple[Method, Placement]], distortions: tuple[Distortion, ...],
) -> list[ReportRow]:
    """Every row of the sweep, every row's feasibility checked: each scenario is
    simulated in turn, then each method solved over all of them at once.  The
    first failing row in spec order, scenario then method, raises."""
    sets = [study.measurements(scenario, taps) for scenario in scenarios]  # builds Z on the first
    if distortions:
        sets = [apply_distortion(ms, distortions) for ms in sets]
    net, zbus, line_ids = study.net, study.zbus(1), [scenario.line_id for scenario in scenarios]
    length = np.array([net.line(line_id).length_km for line_id in line_ids])
    m_true, failures, columns = np.array([scenario.m for scenario in scenarios]), [], []
    for j, (method, placement) in enumerate(plan):
        verdicts = [feasibility_check(net, line_id, placement, zbus) for line_id in line_ids]
        m, residual, _, errors = _estimates(net, zbus, line_ids, placement, sets, method)
        for i, (line_id, (ok, why), error) in enumerate(zip(line_ids, verdicts, errors)):
            if not ok:
                failures.append((i, j, f"{method.value} placement infeasible for line {line_id}: {why}"))
            elif error is not None:
                failures.append((i, j, f"{method.value}: {error}"))
        pct = percent_error(m_true * length, m * length, length)
        columns.append((method.value, m.tolist(), residual.tolist(), pct.tolist()))
    if failures:
        raise PlacementError(min(failures)[2])
    heads = [(s.line_id, s.fault_type.value, s.m, s.rf_ohm) for s in scenarios]
    return [
        ReportRow(line, ftype, at, rf, method, m[i], residual[i], pct[i], True)
        for i, (line, ftype, at, rf) in enumerate(heads) for method, m, residual, pct in columns
    ]


def run_sweep(spec: SweepSpec) -> list[ReportRow]:
    """Evaluate the sweep's full scenario cross-product, deterministically.

    Every faulted line, placement bus and branch and distorted channel is
    resolved against the case once, and every scenario built, before the
    first is evaluated.  Scenarios are simulated one faulted line at a time.
    """
    spec.validate()
    distortions = tuple(parse_distortion(t) for t in spec.distort)
    net = load_case(spec.case)
    for line_id in spec.lines:
        net.line(line_id)  # an unknown line raises
    resolve = partial(_channel_id, net, spec.lines)
    buses = tuple(resolve("busV", b) for b in spec.buses)
    branches = tuple(resolve("branchI", b) for b in spec.branches)
    distortions = tuple(replace(d, channel=str(resolve(d.kind, d.channel))) for d in distortions)
    plan = [(method, _placement_for(method, buses, branches)) for method in spec.methods]
    grid = list(product(spec.types, spec.m_values, spec.rf_ohm))
    scenarios = [FaultScenario(line_id, m, t, rf) for line_id in spec.lines for t, m, rf in grid]
    rows = _evaluate(FaultStudy(net), scenarios, _taps(plan, distortions), plan, distortions)
    rows.sort(key=attrgetter("line", "type", "m_true", "rf_ohm", "method"))
    return rows


def aggregates_by_method(rows: list[ReportRow]) -> dict[str, dict[str, float]]:
    out: dict[str, dict[str, float]] = {}
    for method in sorted({r.method for r in rows}):
        errs = [r.pct_error for r in rows if r.method == method]
        out[method] = {"max_pct_error": max(errs), "mean_pct_error": sum(errs) / len(errs)}
    return out


def _num(x: float) -> str:
    return repr(float(x))  # "nan", "inf" and "-inf" included


def _reprs(values: list[float]) -> list[str]:
    """Each value's :func:`_num` text, made once per bit pattern (``-0.0`` is not ``0.0``):
    the ratio cancels the fault current, so rows of a (line, m, method) repeat values."""
    bits, where = np.unique(np.array(values, dtype=float).view(np.int64), return_inverse=True)
    texts = [repr(x) for x in bits.view(float).tolist()]
    return [texts[i] for i in where.tolist()]


def render_csv(rows: list[ReportRow]) -> str:
    names = ("m_true", "rf_ohm", "m_est", "residual", "pct_error")
    columns = [_reprs([getattr(r, name) for r in rows]) for name in names]
    lines = [CSV_COLUMNS] + [
        f"{r.line},{r.type},{m},{rf},{r.method},{m_est},{res},{pct},{'true' if r.feasible else 'false'}"
        for r, m, rf, m_est, res, pct in zip(rows, *columns)
    ]
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
    """Write atomically: a failed run must not leave a partial file, and a
    failed write names the report, not the temporary file."""
    if out is None:
        sys.stdout.write(text)
        return
    tmp = None
    try:
        directory = os.path.dirname(os.path.abspath(out))
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".faultloc-", suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, out)
        tmp = None
    except OSError as exc:
        raise OSError(f"cannot write report {out!r}: {exc.strerror}") from None
    finally:
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp)


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@cache  # the parser does not depend on the arguments
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
        " kind:channel:clamp:PU, on a bus label or a --branches channel (repeatable)",
    )
    p.add_argument("--out", help="report path (default: stdout)")
    p.add_argument("--format", choices=["csv", "json"], help="report format (default: csv)")
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
                buses=tuple(int(b) if b.isdecimal() else b for b in args.buses.split(",") if b),
                branches=tuple(b for b in args.branches.split(",") if b),
                distort=tuple(args.distort),
            )
        out = args.out if args.out is not None else spec.out
        if out is not None and not os.path.isdir(os.path.dirname(os.path.abspath(out))):
            raise ValueError(f"cannot write report {out!r}: no such directory")
        rows = run_sweep(spec)
        text = render_csv(rows) if (args.format or spec.format) == "csv" else render_json(rows)
        write_report(text, out)
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
