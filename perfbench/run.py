"""faultloc benchmark: one workload, one seed, one JSON result line.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload sweep-ieee14 --seed 1 --seconds 15 --trace 0

Workloads are described in ``workloads.py``.  With ``--trace 0`` the run
reports the end-to-end metrics:

* ``setup_s``: median time from case text to a ready ``FaultStudy`` (parse,
  Z for sequences 0/1/2, pre-fault solve), set up many times per run;
* ``ops_per_s``: work completed per second of timed operation: report rows
  per second of CLI wall time (sweep-ieee14, its ``sweep_rows_per_s``),
  ranked queries (identify-grid20) or cold set-ups with their check
  (setup-grid30);
* ``op_p50_ms``: median latency of one operation: one CLI sweep, one
  ``rank_line_hypotheses`` call, one set-up plus check locate;
* ``peak_rss_mb``: peak resident memory of the process.

Lines before the last one give the environment, the sample counts, the
failed share and, for identify-grid20, the p90 latency over at least 100
queries.  With ``--trace 1`` the run first repeats the untraced measurement
for half the time, then wraps faultloc's public functions at their import
sites (``spans.py``) for the other half and reports per-layer metrics.

BLAS is pinned to one thread.  The program is imported from ``src/`` next
to this directory; without it the run exits 2 and prints no result.
"""
from __future__ import annotations

from pathlib import Path
from statistics import median, quantiles
from time import perf_counter

import argparse
import json
import os
import platform
import resource
import shutil
import sys

import spans

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program():
    """Import faultloc from this checkout's ``src/``, and nowhere else."""
    package = SRC / "faultloc"
    if not (package / "__init__.py").is_file():
        raise ImportError(f"no faultloc sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import faultloc

    if Path(faultloc.__file__).resolve().parent != package.resolve():
        raise ImportError(f"faultloc imported from {faultloc.__file__}, not {package}")
    return faultloc


def calibrate_ms(reps: int = 15) -> float:
    """Median time of a fixed pure-Python loop, to compare machines and runs."""
    times = []
    for _ in range(reps):
        start = perf_counter()
        acc = 0
        for i in range(100_000):
            acc += i * i
        times.append(perf_counter() - start)
    return 1000.0 * median(times)


def environment(args, calib_ms: float) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine.calib_ms": calib_ms,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(res) -> dict:
    return {
        "setup_s": {"value": median(res.setup_s), "unit": "s"},
        "ops_per_s": {"value": res.rate, "unit": "1/s"},
        "op_p50_ms": {"value": 1000.0 * median(res.op_s), "unit": "ms"},
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
    }


#: Layers whose share of the traced end-to-end time is reported on every
#: workload, including the ones a workload never calls (share 0).
SHARED_LAYERS = (
    "netmodel.parse_case",
    "seqmatrix.build_ybus",
    "seqmatrix.build_zbus",
    "faultsim.prefault_solve",
    "faultsim.measurements",
    "locator.feasibility_check",
    "locator.estimate_for_placement",
    "locator.rank_line_hypotheses",
    "cli.main",
    "cli.run_sweep",
    "cli.render_csv",
    "cli.write_report",
)


def per_layer(tracer, res, plain_res, calib_ms: float) -> dict:
    """Per-layer metrics of the traced half, against the untraced half."""
    stats, timed_total = tracer.layers()

    def st(name):
        return stats.get(name, spans.LayerStats())

    def share(name):
        return {"value": 100.0 * st(name).timed_self_s / timed_total, "unit": "%"}

    units = max(res.units, 1)
    feas = st("locator.feasibility_check")
    bench_self = sum(s.timed_self_s for n, s in stats.items() if n.startswith("bench."))
    out = {
        "machine.calib_ms": {"value": calib_ms, "unit": "ms"},
        "trace.overhead_share": {
            "value": median(res.op_s) / median(plain_res.op_s) - 1.0,
            "unit": "ratio",
        },
        "bench.self_share": {"value": 100.0 * bench_self / timed_total, "unit": "%"},
        "netmodel.parse_case.ms": {"value": 1e3 * st("netmodel.parse_case").per_call_s, "unit": "ms"},
        "seqmatrix.build_ybus.ms": {"value": 1e3 * st("seqmatrix.build_ybus").per_call_s, "unit": "ms"},
        "seqmatrix.build_zbus.ms": {"value": 1e3 * st("seqmatrix.build_zbus").per_call_s, "unit": "ms"},
        "seqmatrix.build_zbus.self_ms": {
            "value": 1e3 * st("seqmatrix.build_zbus").self_per_call_s, "unit": "ms",
        },
        "faultsim.prefault_solve.ms": {"value": 1e3 * st("faultsim.prefault_solve").per_call_s, "unit": "ms"},
        "faultsim.measurements.us": {"value": 1e6 * st("faultsim.measurements").per_call_s, "unit": "us"},
        "faultsim.channels_per_call": {
            "value": tracer.channels_simulated / max(st("faultsim.measurements").calls, 1),
            "unit": "count/call",
        },
        "faultsim.channel_use_ratio": {
            "value": len(tracer.consumed_keys & tracer.simulated_keys)
            / max(len(tracer.simulated_keys), 1),
            "unit": "ratio",
        },
        "locator.feasibility_check.calls": {"value": feas.timed_calls / units, "unit": "count/unit"},
        "locator.feasibility_check.distinct_ratio": {
            "value": tracer.feasibility_distinct / feas.timed_calls if feas.timed_calls else 0.0,
            "unit": "ratio",
        },
        "locator.estimate_for_placement.us": {
            "value": 1e6 * st("locator.estimate_for_placement").per_call_s, "unit": "us",
        },
        "locator.estimate_for_placement.calls": {
            "value": st("locator.estimate_for_placement").timed_calls / units,
            "unit": "count/unit",
        },
        "seqmatrix.law_calls": {"value": tracer.law_calls / units, "unit": "count/unit"},
    }
    for name in SHARED_LAYERS:
        out[f"{name}.self_share"] = share(name)
    return out


def layer_table(tracer) -> list[str]:
    """Every traced name: calls, inclusive and self ms per call, share."""
    stats, timed_total = tracer.layers()
    rows = [f"  traced e2e {timed_total:.4f} s over timed roots"]
    for name in sorted(stats):
        s = stats[name]
        rows.append(
            f"  {name:32s} calls {s.calls:<7d} ms {1e3 * s.total_s / s.calls:10.4f}"
            f"  self_ms {1e3 * s.self_per_call_s:10.4f}"
            f"  self_share {100.0 * s.timed_self_s / timed_total:6.2f} %"
        )
    return rows


def summary(args, res) -> list[str]:
    share = res.failed / res.attempted if res.attempted else 1.0
    rows = [
        f"  samples: {len(res.setup_s)} set-ups, {len(res.op_s)} operations, {res.units} units",
        f"  failed_share {share!r} ratio ({res.failed} of {res.attempted})",
    ]
    rows += [f"  failure: {why}" for why in res.failures]
    if args.workload == "sweep-ieee14" and res.op_s:
        rows.append(f"  sweep_rows_per_s {res.rate!r} rows/s")
    if args.workload == "identify-grid20" and len(res.op_s) >= 2:
        ms = [1000.0 * s for s in res.op_s]
        rows.append(f"  identify_p50_ms {median(ms)!r} ms (n={len(ms)})")
        if len(ms) >= 100:
            rows.append(f"  identify_p90_ms {quantiles(ms, n=10)[-1]!r} ms (n={len(ms)})")
        for label, samples in sorted(res.by_label.items()):
            rows.append(f"  identify_p50_ms[{label}] {1000.0 * median(samples)!r} ms (n={len(samples)})")
    return rows


def main(argv=None) -> int:
    args = _parse_args(argv)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"  # before numpy loads its BLAS
    try:
        import_program()
    except ImportError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if not args.seconds > 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    run, min_ops = workloads.WORKLOADS[args.workload]
    calib_ms = calibrate_ms()
    print("perfbench env " + json.dumps(environment(args, calib_ms)))

    workdir = ROOT / ".bench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        def ctx(seconds, tracer=None):
            return workloads.Context(args.seed, seconds, workdir, tracer, min_ops)

        if args.trace == 0:
            res = run(ctx(args.seconds))
            metrics = end_to_end(res)
            results = [res]
        else:
            plain = run(ctx(args.seconds / 2))
            tracer = spans.Tracer()
            with spans.installed(tracer):
                res = run(ctx(args.seconds / 2, tracer))
            metrics = per_layer(tracer, res, plain, calib_ms)
            results = [plain, res]
            print(f"perfbench {args.workload} traced layers:")
            print("\n".join(layer_table(tracer)))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}:")
    for r in results:
        print("\n".join(summary(args, r)))
    for name, metric in metrics.items():
        print(f"  {name} {metric['value']!r} {metric['unit']}")
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
