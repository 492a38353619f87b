"""In-process tracing of faultloc's layers, recorded from the benchmark's side.

The tracer replaces public functions at the sites that import them (for
example ``faultloc.cli.feasibility_check``, which is what the sweep calls)
with wrappers that record a span: name, start, end and parent.  Nothing in
the package itself changes, and :func:`installed` puts every original back.

Spans stay in memory.  When the run ends, :meth:`Tracer.layers` folds them
into per-name call counts, total times and self times (a span's duration
minus the durations of its direct children).  Every span hangs below a root
opened by the benchmark: ``bench.setup`` and ``bench.op`` roots are timed
work, anything else (input generation, warm-up, checks) is not, and only
timed roots count towards the shares of the traced end-to-end time.
"""
from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

import importlib

#: (module or class path, attribute, span name).  Several sites can feed one
#: span name: build_zbus reaches build_ybus through seqmatrix's own global,
#: prefault_solve through faultsim's import of it.
SPAN_SITES = (
    ("faultloc.netmodel", "parse_case", "netmodel.parse_case"),
    ("faultloc.seqmatrix", "build_ybus", "seqmatrix.build_ybus"),
    ("faultloc.faultsim", "build_ybus", "seqmatrix.build_ybus"),
    ("faultloc.faultsim", "build_zbus", "seqmatrix.build_zbus"),
    ("faultloc.locator", "build_zbus", "seqmatrix.build_zbus"),
    ("faultloc.faultsim", "prefault_solve", "faultsim.prefault_solve"),
    ("faultloc.faultsim.FaultStudy", "measurements", "faultsim.measurements"),
    ("faultloc.cli", "feasibility_check", "locator.feasibility_check"),
    ("faultloc.cli", "estimate_for_placement", "locator.estimate_for_placement"),
    ("faultloc.locator", "estimate_for_placement", "locator.estimate_for_placement"),
    ("faultloc.locator", "rank_line_hypotheses", "locator.rank_line_hypotheses"),
    ("faultloc.cli", "main", "cli.main"),
    ("faultloc.cli", "run_sweep", "cli.run_sweep"),
    ("faultloc.cli", "render_csv", "cli.render_csv"),
    ("faultloc.cli", "write_report", "cli.write_report"),
)

#: Coefficient-law evaluations are too many and too short for spans; they
#: are only counted, and their time stays in the caller's self time.
LAW_SITES = (
    ("faultloc.faultsim", "transfer_coefficients"),
    ("faultloc.faultsim", "branch_coefficients"),
    ("faultloc.faultsim", "fault_point_coefficients"),
    ("faultloc.locator", "transfer_coefficients"),
    ("faultloc.locator", "branch_coefficients"),
)

#: Channel accessors: what an estimator actually consumes from a set.
CHANNEL_SITES = (
    ("faultloc.locator", "voltage_channel", "busV"),
    ("faultloc.locator", "current_channel", "branchI"),
)

#: Spans that build a study's matrices or pre-fault state.  A study builds
#: them lazily inside its first ``measurements`` call, so per-call times of
#: other spans leave these children out.
SETUP_SPANS = frozenset(
    ("seqmatrix.build_ybus", "seqmatrix.build_zbus", "faultsim.prefault_solve")
)

TIMED_ROOTS = frozenset(("bench.setup", "bench.op"))


@dataclass
class LayerStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    lazy_setup_s: float = 0.0
    timed_calls: int = 0
    timed_self_s: float = 0.0

    @property
    def per_call_s(self) -> float:
        """Mean inclusive time per call, lazily built set-up excluded."""
        return (self.total_s - self.lazy_setup_s) / self.calls if self.calls else 0.0

    @property
    def self_per_call_s(self) -> float:
        return self.self_s / self.calls if self.calls else 0.0


@dataclass
class Tracer:
    names: list = field(default_factory=list)
    parents: list = field(default_factory=list)
    starts: list = field(default_factory=list)
    ends: list = field(default_factory=list)
    _stack: list = field(default_factory=lambda: [-1])
    #: Law evaluations inside timed roots.
    law_calls: int = 0
    _in_timed: bool = False
    #: Channels simulated, and (token, kind, id) keys simulated and consumed.
    channels_simulated: int = 0
    simulated_keys: set = field(default_factory=set)
    consumed_keys: set = field(default_factory=set)
    #: Distinct (line, placement) feasibility questions, summed over timed
    #: roots: a question repeated by a later CLI call counts again.
    feasibility_distinct: int = 0
    _feasibility_keys: set = field(default_factory=set)

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = perf_counter()
        self._stack.pop()

    @contextmanager
    def root(self, name: str):
        """A benchmark-side span; ``bench.setup``/``bench.op`` are timed work."""
        timed = name in TIMED_ROOTS
        outer = self._in_timed
        self._in_timed = timed
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)
            self._in_timed = outer
            if timed:
                self.feasibility_distinct += len(self._feasibility_keys)
            self._feasibility_keys.clear()

    def span(self, name: str, fn, observe=None):
        """Wrap ``fn`` so each call records a span; ``observe`` sees the call."""

        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if observe is not None:
                observe(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def counted(self, fn):
        def law(*args, **kwargs):
            if self._in_timed:
                self.law_calls += 1
            return fn(*args, **kwargs)

        law.__wrapped__ = fn
        return law

    def channel(self, fn, kind: str):
        def accessor(ms, ident):
            self.consumed_keys.add((ms.token, kind, str(ident)))
            return fn(ms, ident)

        accessor.__wrapped__ = fn
        return accessor

    def _saw_measurements(self, args, ms) -> None:
        token = ms.token
        keys = self.simulated_keys
        for bus in ms.fault_bus_v:
            keys.add((token, "busV", str(bus)))
        for bid in ms.fault_branch_i:
            keys.add((token, "branchI", bid))
        self.channels_simulated += len(ms.fault_bus_v) + len(ms.fault_branch_i)

    def _saw_feasibility(self, args, result) -> None:
        # feasibility_check(net, faulted_line_id, placement, zbus)
        self._feasibility_keys.add((args[1], args[2]))

    # -- derivation ----------------------------------------------------------

    def layers(self) -> tuple[dict[str, LayerStats], float]:
        """Per-name statistics and the summed duration of the timed roots."""
        n = len(self.names)
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        dur = [ends[i] - starts[i] for i in range(n)]
        child = [0.0] * n
        lazy = [0.0] * n
        root = list(range(n))
        for i in range(n):
            p = parents[i]
            if p < 0:
                continue
            root[i] = root[p]
            child[p] += dur[i]
            if names[i] in SETUP_SPANS and names[p] not in SETUP_SPANS:
                lazy[p] += dur[i]
        stats: dict[str, LayerStats] = {}
        timed_total = 0.0
        for i in range(n):
            st = stats.setdefault(names[i], LayerStats())
            st.calls += 1
            st.total_s += dur[i]
            st.self_s += dur[i] - child[i]
            st.lazy_setup_s += lazy[i]
            if names[root[i]] in TIMED_ROOTS:
                st.timed_calls += 1
                st.timed_self_s += dur[i] - child[i]
                if parents[i] < 0:
                    timed_total += dur[i]
        return stats, timed_total


def _resolve(path: str):
    """A module, or a class given as ``module.Class``."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, name = path.rpartition(".")
        return getattr(importlib.import_module(module), name)


@contextmanager
def installed(tracer: Tracer):
    """Wrap every traced site for the duration of the block."""
    saved = []

    def patch(owner, attr, wrapper):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    try:
        for path, attr, name in SPAN_SITES:
            owner = _resolve(path)
            observe = None
            if name == "faultsim.measurements":
                observe = tracer._saw_measurements
            elif name == "locator.feasibility_check":
                observe = tracer._saw_feasibility
            patch(owner, attr, tracer.span(name, owner.__dict__[attr], observe))
        for path, attr in LAW_SITES:
            owner = _resolve(path)
            patch(owner, attr, tracer.counted(owner.__dict__[attr]))
        for path, attr, kind in CHANNEL_SITES:
            owner = _resolve(path)
            patch(owner, attr, tracer.channel(owner.__dict__[attr], kind))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
