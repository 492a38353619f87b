"""The benchmark's workloads and the checks that their outputs are correct.

Every workload is one process and one caller in a closed loop: the next
operation starts when the previous one has returned.  Inputs come from the
seed; faultloc receives only case text, sweep specs and measurement sets.

* ``sweep-ieee14``: the CLI study sweep on the bundled IEEE 14-bus case, the
  batch job users run.  Simulating every tap and the per-row feasibility
  check carry the work; set-up is negligible.
* ``identify-grid20``: rank every line hypothesis for concealed faults on a
  seeded 20x20 mesh (760 lines).  The locator carries the work.
* ``setup-grid30``: cold set-ups of a seeded 30x30 mesh, each followed by a
  known-line ``ssvm`` locate as a check.  The dense inverse and condition
  number carry the work; beside identify-grid20 it is a second mesh size
  for any choice that depends on network size.

``hybrid-quad`` is left out of identification: its magnitude-only quadratic
solves to residual 0 on most wrong hypotheses, so it ranks a wrong line
first.  Mesh feasibility checks are left out too: the all-simple-paths
search is exponential on meshes (a 6x6 grid took seconds).
"""
from __future__ import annotations

from contextlib import contextmanager, redirect_stderr
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import hashlib
import io
import json
import random

from faultloc import cli, faultsim, locator, netmodel
from faultloc.faultsim import FaultScenario, FaultType, MeasurementTaps
from faultloc.locator import CurrentPlacement, HybridPlacement, Method, VoltagePlacement

from meshgen import checked_mesh_case

#: Recovery tolerance of the acceptance gate, and the same as a CSV
#: ``pct_error`` (percent of line length).
M_TOL = 1e-6
PCT_TOL = 100.0 * M_TOL

M_RANGE = (0.02, 0.98)
RF_RANGE_OHM = (0.0, 20.0)

IEEE14_CASE = Path(netmodel.__file__).parent / "cases" / "ieee14.case"

#: With buses 1,14 and branches 2-3,13-14, every method observes these 17
#: lines; 2-3 and 13-14 carry the current channels and 7-8 is radial.
SWEEP_LINES = (
    "1-2", "1-5", "2-4", "2-5", "3-4", "4-5", "4-7", "4-9", "5-6",
    "6-11", "6-12", "6-13", "7-9", "9-10", "9-14", "10-11", "12-13",
)
SWEEP_BUSES = (1, 14)
SWEEP_BRANCHES = ("2-3", "13-14")

IDENTIFY_METHODS = (Method.SSVM, Method.SSCM, Method.HYBRID_DIRECT)


@dataclass
class Stopwatch:
    s: float = 0.0


@dataclass
class Context:
    """What a workload run needs from the harness."""

    seed: int
    seconds: float
    workdir: Path
    tracer: object | None = None
    min_ops: int = 1

    @contextmanager
    def root(self, name: str):
        if self.tracer is None:
            yield
        else:
            with self.tracer.root(name):
                yield

    @contextmanager
    def timed(self, kind: str):
        """Time the block under a ``bench.<kind>`` root.

        Only ``setup`` and ``op`` blocks are timed work; a ``warmup`` block is
        timed for the record but counts towards nothing.
        """
        watch = Stopwatch()
        with self.root(f"bench.{kind}"):
            start = perf_counter()
            try:
                yield watch
            finally:
                watch.s = perf_counter() - start

    def loop(self, op, between=None, every: int = 1) -> None:
        """Call ``op(i)`` until the time is up and at least ``min_ops`` ran.

        ``between()`` runs before every ``every``-th operation.  Set-up
        samples taken that way spread over the whole run, so their median
        sees the same machine as the operations do.
        """
        deadline = perf_counter() + self.seconds
        i = 0
        while i < self.min_ops or perf_counter() < deadline:
            if between is not None and i % every == 0:
                between()
            op(i)
            i += 1


@dataclass
class Result:
    setup_s: list = field(default_factory=list)
    op_s: list = field(default_factory=list)
    #: Work the timed operations completed: report rows, queries or set-ups.
    units: int = 0
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    #: Operation latencies by label, for example by estimator.
    by_label: dict = field(default_factory=dict)

    def done(self, seconds: float, units: int, label: str = "") -> None:
        self.op_s.append(seconds)
        self.units += units
        if label:
            self.by_label.setdefault(label, []).append(seconds)

    @property
    def rate(self) -> float:
        """Units completed per second of timed operation."""
        return self.units / sum(self.op_s)

    def fail(self, count: int, why: str) -> None:
        self.failed += count
        if len(self.failures) < 5:
            self.failures.append(why)


def set_up(text: str) -> faultsim.FaultStudy:
    """Case text to a ready study: parse, Z for sequences 0/1/2, pre-fault."""
    study = faultsim.FaultStudy(netmodel.parse_case(text))
    for sequence in (0, 1, 2):
        study.zbus(sequence)
    study.prefault
    return study


def time_setups(ctx: Context, text: str, reps: int, res: Result) -> faultsim.FaultStudy:
    for _ in range(reps):
        with ctx.timed("setup") as watch:
            study = set_up(text)
        res.setup_s.append(watch.s)
    return study


def _fault(rng: random.Random, lines) -> FaultScenario:
    return FaultScenario(
        rng.choice(lines),
        rng.uniform(*M_RANGE),
        rng.choice(list(FaultType)),
        rng.uniform(*RF_RANGE_OHM),
    )


# ---------------------------------------------------------------------------
# sweep-ieee14
# ---------------------------------------------------------------------------


def sweep_spec(seed: int, n_m: int, n_rf: int, lines=SWEEP_LINES) -> dict:
    rng = random.Random(f"perfbench-sweep-{seed}")
    return {
        "lines": list(lines),
        "types": [t.value for t in FaultType],
        "m_values": sorted(rng.uniform(*M_RANGE) for _ in range(n_m)),
        "rf_ohm": sorted(rng.uniform(*RF_RANGE_OHM) for _ in range(n_rf)),
        "methods": [m.value for m in Method],
        "buses": list(SWEEP_BUSES),
        "branches": list(SWEEP_BRANCHES),
        "format": "csv",
    }


def expected_rows(spec: dict) -> set:
    return {
        (line, ftype, m, rf, method)
        for line in spec["lines"]
        for ftype in spec["types"]
        for m in spec["m_values"]
        for rf in spec["rf_ohm"]
        for method in spec["methods"]
    }


def check_report(text: str, expected: set) -> tuple[int, int, list]:
    """(rows found, rows failed, reasons) for one CSV sweep report.

    A row fails when its ``pct_error`` exceeds :data:`PCT_TOL` or is not a
    number, when it is not one of the expected scenario rows, or when it
    repeats one; an expected row that is missing fails too.
    """
    lines = text.splitlines()
    if not lines or lines[0] != cli.CSV_COLUMNS:
        return 0, len(expected), ["report has no CSV header"]
    seen: set = set()
    found = failed = 0
    reasons = []
    for row in lines[1:]:
        if row.startswith("#"):
            continue
        found += 1
        cols = row.split(",")
        try:
            key = (cols[0], cols[1], float(cols[2]), float(cols[3]), cols[4])
            pct = float(cols[7])
        except (IndexError, ValueError):
            failed += 1
            reasons.append(f"unreadable row {row!r}")
            continue
        if key not in expected or key in seen:
            failed += 1
            reasons.append(f"unexpected or repeated row {row!r}")
        elif not pct <= PCT_TOL:
            failed += 1
            reasons.append(f"pct_error {pct!r} > {PCT_TOL:g}: {row!r}")
        seen.add(key)
    missing = len(expected - seen)
    if missing:
        reasons.append(f"{missing} expected rows missing")
    return found, failed + missing, reasons


def sweep_ieee14(ctx: Context, n_m: int = 9, n_rf: int = 3, lines=SWEEP_LINES) -> Result:
    """The CLI sweep; 9 m x 3 rf on the 17 lines gives 7344 rows.

    The sweep runs as one CLI call per m value (816 rows each), so that a
    run holds many calls and reports their median, not one long timing.
    """
    res = Result()
    case_text = IEEE14_CASE.read_text(encoding="utf-8")
    spec = sweep_spec(ctx.seed, n_m, n_rf, lines)
    out = ctx.workdir / "report.csv"
    calls = []
    for k, m in enumerate(spec["m_values"]):
        part = dict(spec, m_values=[m])
        path = ctx.workdir / f"sweep-{k}.json"
        path.write_text(json.dumps(part), encoding="utf-8")
        argv = ["--case", str(IEEE14_CASE), "--sweep", str(path), "--out", str(out)]
        calls.append((argv, expected_rows(part)))

    def run_cli(argv, kind: str) -> tuple[int, float, str]:
        out.unlink(missing_ok=True)
        err = io.StringIO()
        with redirect_stderr(err), ctx.timed(kind) as watch:
            code = cli.main(argv)
        return code, watch.s, err.getvalue().strip()

    # The first report of each call is checked row by row; the timed
    # repeats must match its hash.
    refs = []
    for argv, expected in calls:
        code, _, err = run_cli(argv, "warmup")
        if code != 0:
            raise RuntimeError(f"sweep exited {code}: {err}")
        text = out.read_text(encoding="utf-8")
        refs.append((hashlib.sha256(text.encode()).hexdigest(), *check_report(text, expected)))

    def op(i: int) -> None:
        argv, expected = calls[i % len(calls)]
        digest, rows, failed, reasons = refs[i % len(calls)]
        code, elapsed, err = run_cli(argv, "op")
        res.attempted += len(expected)
        if code != 0 or not out.exists():
            res.fail(len(expected), f"sweep exited {code}: {err}")
        elif hashlib.sha256(out.read_bytes()).hexdigest() != digest:
            res.fail(len(expected), "report differs from the first one of this run")
        else:
            res.done(elapsed, rows)
            if failed:
                res.fail(failed, "; ".join(reasons[:3]))

    ctx.loop(op, lambda: time_setups(ctx, case_text, 3, res))
    return res


# ---------------------------------------------------------------------------
# Mesh placements
# ---------------------------------------------------------------------------


def mesh_pmus(n: int) -> tuple[tuple[int, int], tuple[str, str]]:
    """Two buses and two branches spread over an n x n mesh."""
    lo, hi = n // 4, (3 * n - 1) // 4
    buses = (lo * n + lo + 1, hi * n + hi + 1)
    branches = (f"h{lo}_{hi}", f"v{hi}_{lo}")
    return buses, branches


def mesh_placement(n: int, method: Method):
    """Placement of one estimator, and the taps it consumes."""
    (b1, b2), (br1, br2) = mesh_pmus(n)
    if method is Method.SSVM:
        return VoltagePlacement(b1, b2), MeasurementTaps(buses=(b1, b2), branches=())
    if method is Method.SSCM:
        return CurrentPlacement(br1, br2), MeasurementTaps(buses=(), branches=(br1, br2))
    return HybridPlacement(br1, b2), MeasurementTaps(buses=(b2,), branches=(br1,))


# ---------------------------------------------------------------------------
# identify-grid20
# ---------------------------------------------------------------------------


@dataclass
class Query:
    """A concealed fault; its measurement set is simulated on first use."""

    scenario: FaultScenario
    method: Method
    placement: object
    taps: MeasurementTaps
    ms: faultsim.PhasorMeasurementSet | None = None


def identify_queries(net, n: int, seed: int, count: int) -> list:
    """Concealed faults, one estimator each in rotation, consumed taps only."""
    rng = random.Random(f"perfbench-identify-{seed}")
    measured = set(mesh_pmus(n)[1])
    candidates = [rec.id for rec in net.lines if rec.id not in measured]
    queries = []
    for i in range(count):
        method = IDENTIFY_METHODS[i % len(IDENTIFY_METHODS)]
        placement, taps = mesh_placement(n, method)
        queries.append(Query(_fault(rng, candidates), method, placement, taps))
    return queries


def check_ranking(ranked: list, scenario: FaultScenario) -> str:
    """Empty when the top hypothesis is the true line at the true position."""
    if not ranked:
        return f"{scenario.line_id}: no hypothesis ranked"
    line_id, est = ranked[0]
    if line_id != scenario.line_id:
        return f"{scenario.line_id}: ranked {line_id} first"
    if not abs(est.m - scenario.m) <= M_TOL:
        return f"{scenario.line_id}: m {est.m!r} vs {scenario.m!r}"
    return ""


def run_queries(
    ctx: Context, study: faultsim.FaultStudy, queries: list, res: Result, between=None
) -> None:
    net, zbus = study.net, study.zbus(1)

    def op(i: int) -> None:
        q = queries[i % len(queries)]
        if q.ms is None:
            with ctx.root("bench.inputs"):
                q.ms = study.measurements(q.scenario, q.taps)
        res.attempted += 1
        try:
            with ctx.timed("op") as watch:
                ranked = locator.rank_line_hypotheses(net, q.ms, q.placement, q.method, zbus)
        except Exception as exc:  # a failed query is counted, not fatal
            res.fail(1, f"{q.scenario.line_id}: {exc!r}")
            return
        res.done(watch.s, 1, q.method.value)
        problem = check_ranking(ranked, q.scenario)
        if problem:
            res.fail(1, problem)

    ctx.loop(op, between, every=60)


def identify_grid(ctx: Context, n: int = 20, pool: int = 150) -> Result:
    res = Result()
    text = checked_mesh_case(n, ctx.seed)
    study = time_setups(ctx, text, 1, res)
    queries = identify_queries(study.net, n, ctx.seed, pool)
    first = queries[0]
    with ctx.root("bench.warmup"):
        first.ms = study.measurements(first.scenario, first.taps)
        locator.rank_line_hypotheses(study.net, first.ms, first.placement, first.method, study.zbus(1))
    run_queries(ctx, study, queries, res, lambda: time_setups(ctx, text, 1, res))
    return res


# ---------------------------------------------------------------------------
# setup-grid30
# ---------------------------------------------------------------------------


def setup_grid(ctx: Context, n: int = 30) -> Result:
    res = Result()
    text = checked_mesh_case(n, ctx.seed)
    placement, taps = mesh_placement(n, Method.SSVM)
    rng = random.Random(f"perfbench-setup-{ctx.seed}")
    with ctx.root("bench.warmup"):
        line_ids = [rec.id for rec in set_up(text).net.lines]

    def op(i: int) -> None:
        scenario = _fault(rng, line_ids)
        res.attempted += 1
        with ctx.timed("setup") as setup_watch:
            study = set_up(text)
        with ctx.root("bench.inputs"):
            ms = study.measurements(scenario, taps)
        try:
            with ctx.timed("op") as locate_watch:
                est = locator.estimate_for_placement(
                    study.net, study.zbus(1), scenario.line_id, placement, ms, Method.SSVM
                )
        except Exception as exc:  # a failed check is counted, not fatal
            res.fail(1, f"{scenario.line_id}: {exc!r}")
            return
        res.setup_s.append(setup_watch.s)
        res.done(setup_watch.s + locate_watch.s, 1)
        if not abs(est.m - scenario.m) <= M_TOL:
            res.fail(1, f"{scenario.line_id}: m {est.m!r} vs {scenario.m!r}")

    ctx.loop(op)
    return res


#: name -> (workload, least operations per run).  identify-grid20 needs 100
#: queries for a p90 with 10 samples beyond it.
WORKLOADS = {
    "sweep-ieee14": (sweep_ieee14, 9),
    "identify-grid20": (identify_grid, 100),
    "setup-grid30": (setup_grid, 3),
}
