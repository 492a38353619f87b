"""Analytic short-circuit simulator producing synthetic phasor measurements.

Given a fault scenario the simulator returns exact pre-fault and during-fault
sequence voltages and branch currents, the same quantities a set of
synchronized phasor measurement units would report.  The fault is resolved by
interconnecting the three sequence networks at the fault point according to
the fault type; every bus voltage and branch current, the faulted line's
terminals included, then follows from a fault-position coefficient law.

Sign conventions: a line's current flows from-bus -> to-bus, a terminal's
from its bus into the line; fault current flows out of the network at the
fault point.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property

import cmath
import math

import numpy as np

from .netmodel import Network
from .seqmatrix import (
    SequenceZbus,
    branch_coefficients,
    build_ybus,  # not called here; perfbench traces this import site
    build_zbus,
    fault_point_coefficients,
    transfer_coefficients,
)

__all__ = [
    "FaultType", "FaultScenario", "MeasurementTaps", "PhasorMeasurementSet", "Distortion",
    "FaultStudy", "apply_distortion", "measurements_to_csv", "measurements_from_csv",
]

SequenceTriple = tuple[complex, complex, complex]


class FaultType(str, Enum):
    LG = "LG"
    LL = "LL"
    LLG = "LLG"
    LLL = "LLL"


@dataclass(frozen=True)
class FaultScenario:
    """A shunt fault on a line at normalized distance m from its from-bus."""

    line_id: str
    m: float
    fault_type: FaultType
    rf_ohm: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.m <= 1.0:
            raise ValueError(f"fault position m={self.m} outside [0, 1]")
        if not self.rf_ohm >= 0.0:  # rejects NaN too
            raise ValueError(f"fault resistance {self.rf_ohm} is negative or NaN")
        if not isinstance(self.fault_type, FaultType):
            object.__setattr__(self, "fault_type", FaultType(self.fault_type))


@dataclass(frozen=True)
class MeasurementTaps:
    """Which channels a measurement set should report.

    ``branches`` names current channels as :meth:`Network.channel` reads
    them: a line's current (``T1``) or the current one of its terminals
    feeds into it (``T1@from``, ``T1@to``), which is what a current
    transformer at that terminal reads.  The faulted line's own current is
    no channel: only its terminals measure it.  ``None`` means "all": every
    bus, and every line but the faulted one plus the faulted line's two
    terminals.

    Each tapped channel is computed the same way whatever else is tapped,
    so a caller that needs only a few channels (the CLI taps the ones its
    methods read plus the distorted ones) gets the same values for them as
    from any other tap set.
    """

    buses: tuple[int, ...] | None = None
    branches: tuple[str, ...] | None = None


@dataclass(frozen=True)
class PhasorMeasurementSet:
    """Synchronized pre-fault and during-fault phasors at selected channels.

    Pre-fault values are positive-sequence; during-fault values are
    (zero, positive, negative) triples.  All phasors share one reference
    angle, recorded by ``token``.
    """

    prefault_bus_v: dict[int, complex]
    fault_bus_v: dict[int, SequenceTriple]
    prefault_branch_i: dict[str, complex]
    fault_branch_i: dict[str, SequenceTriple]
    token: str = ""


def prefault_solve(net: Network, zbus: SequenceZbus) -> tuple[dict[int, complex], dict[str, complex]]:
    """Positive-sequence steady state before the fault: bus voltages ``Z1 @ J``,
    one block solve.

    Sources are EMFs behind their internal impedance (Norton injections ``J``);
    branch currents follow from terminal voltage differences.  With all EMFs
    equal the profile is flat and every branch current is zero.
    """
    j = np.zeros(len(zbus.bus_order), dtype=complex)
    for src in net.sources:
        j[zbus.index(src.bus)] += src.emf / src.z(1)
    e = zbus.solve(j).tolist()  # in bus order, which is Z's
    p, q, _, z1, _ = net._lines_bundle()
    lines = zip(net.lines, p.tolist(), q.tolist(), z1)
    return dict(zip(net.buses, e)), {rec.id: (e[a] - e[b]) / z for rec, a, b, z in lines}


def fault_sequence_currents(
    fault_type: FaultType, z_rr: SequenceTriple, e_prefault_r: complex, rf_pu: float
) -> SequenceTriple:
    """Interconnect the sequence networks at the fault point.

    ``z_rr`` holds the (zero, positive, negative) driving-point impedances at
    the fault point and ``rf_pu`` the fault resistance already converted to
    per-unit.  Connections used:

    * LLL: positive network through rf alone.
    * LG:  all three networks in series with 3*rf.
    * LL:  positive and negative networks in series through rf.
    * LLG: positive network in series with the negative network paralleled
      by (zero network + 3*rf); rf sits in the grounded leg only.

    An infinite rf means no fault: all currents are zero.  A zero loop
    impedance raises ``ZeroDivisionError``, as complex division does.
    """
    z0, z1, z2 = z_rr
    zero = 0.0 + 0.0j
    if math.isinf(rf_pu):
        return (zero, zero, zero)
    rf = complex(rf_pu)

    if fault_type is FaultType.LLL:
        return (zero, e_prefault_r / (z1 + rf), zero)

    if fault_type is FaultType.LG:
        i = e_prefault_r / (z0 + z1 + z2 + 3.0 * rf)
        return (i, i, i)

    if fault_type is FaultType.LL:
        i1 = e_prefault_r / (z1 + z2 + rf)
        return (zero, i1, -i1)

    # LLG
    zg = z0 + 3.0 * rf
    denom = z2 + zg
    loop = z1 + z2 * zg / denom
    i1 = e_prefault_r / loop
    i2 = -i1 * zg / denom
    i0 = -i1 * z2 / denom
    return (i0, i1, i2)


class FaultStudy:
    """Caches the per-sequence matrices and pre-fault state of one network.

    The matrices are built once per study; the laws of the faulted line last
    asked about are kept, so sweeps should go line by line.  Lines carry z2 =
    z1, so unless a source sets its own z2 the negative sequence shares Z1.
    """

    def __init__(self, net: Network):
        self.net = net
        self._zbus: dict[int, SequenceZbus] = {}
        self._table: tuple = (None, None, None)

    def zbus(self, sequence: int) -> SequenceZbus:
        if sequence not in self._zbus:
            if sequence == 2 and all(s.z(2) == s.z(1) for s in self.net.sources):
                self._zbus[2] = replace(self.zbus(1), sequence=2)
            else:
                self._zbus[sequence] = build_zbus(self.net, sequence)
        return self._zbus[sequence]

    @cached_property
    def prefault(self) -> tuple[dict[int, complex], dict[str, complex]]:
        return prefault_solve(self.net, self.zbus(1))

    def fault_currents(self, scenario: FaultScenario) -> SequenceTriple:
        """Sequence currents at the fault point."""
        line = self.net.line(scenario.line_id)
        if self._table[0] is not line:  # its fault-point laws, and tap rows per tap set
            self._table = (line, self._laws(fault_point_coefficients, line), {})
        m, bus_v, (z0, z1, z2) = scenario.m, self.prefault[0], self._table[1]
        e_r = (1.0 - m) * bus_v[line.from_bus] + m * bus_v[line.to_bus]
        rf_pu = scenario.rf_ohm / self.net.z_base_ohm
        z_rr = (z0.z_at(m), z1.z_at(m), z2.z_at(m))
        return fault_sequence_currents(scenario.fault_type, z_rr, e_r, rf_pu)

    def measurements(
        self, scenario: FaultScenario, taps: MeasurementTaps | None = None
    ) -> PhasorMeasurementSet:
        taps = taps or MeasurementTaps()
        i0, i1, i2 = self.fault_currents(scenario)
        line, _, tables = self._table
        m, sets = scenario.m, []
        for pre, rows in tables.get(taps) or tables.setdefault(taps, self._tap_rows(line, taps)):
            sets.append(pre.copy())
            sets.append({
                key: (-(z0.b + z0.c * m) * i0, pre - (z1.b + z1.c * m) * i1, -(z2.b + z2.c * m) * i2)
                for key, pre, (z0, z1, z2) in rows
            })
        token = f"{scenario.line_id}:{scenario.fault_type.value}:m={m:g}:rf={scenario.rf_ohm:g}"
        return PhasorMeasurementSet(*sets, token)

    def _laws(self, law_of, *args) -> list:
        laws = [law_of(self.zbus(s), *args) for s in (0, 1)]  # per sequence; Z2 has Z1's laws
        shared = self.zbus(2)._blocks is self.zbus(1)._blocks  # when it has Z1's blocks
        return laws + [laws[1] if shared else law_of(self.zbus(2), *args)]

    def _tap_rows(self, line, taps: MeasurementTaps) -> tuple:
        """Buses, then channels: pre-fault values by key, and rows ``(key, pre, laws per sequence)``."""
        bus_v0, branch_i0 = self.prefault
        buses = taps.buses if taps.buses is not None else self.net.buses
        branch_ids = taps.branches
        if branch_ids is None:
            branch_ids = tuple(r.id for r in self.net.lines if r.id != line.id)
            branch_ids += (f"{line.id}@from", f"{line.id}@to")
        rows: tuple[list, list] = ([], [])
        for b in buses:
            if b not in bus_v0:
                raise KeyError(f"tap references unknown bus {b}")
            rows[0].append((b, bus_v0[b], self._laws(transfer_coefficients, line, b)))
        for bid in branch_ids:
            rec, end = self.net.channel(bid)
            if rec.id == line.id and not end:
                raise KeyError(
                    f"branch {bid!r} is the faulted line; tap its terminals"
                    f" {line.id}@from and {line.id}@to instead"
                )
            pre = -branch_i0[rec.id] if end == "to" else branch_i0[rec.id]
            rows[1].append((bid, pre, self._laws(branch_coefficients, line, (rec, end))))
        return tuple(({key: pre for key, pre, _ in kind}, kind) for kind in rows)


@dataclass(frozen=True)
class Distortion:
    """Alteration of a single measurement channel.

    ``gain``/``phase_deg`` model an instrument scale and angle error and
    apply to both the pre-fault and fault values.  ``clamp_pu`` models
    current-transformer saturation: if the fault-stage positive-sequence
    magnitude exceeds the clamp, the whole fault-stage triple is scaled down
    to it (pre-fault values untouched).
    """

    kind: str  # "busV" | "branchI"
    channel: str  # bus label (as text) or branch channel id
    gain: float = 1.0
    phase_deg: float = 0.0
    clamp_pu: float | None = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.gain) and math.isfinite(self.phase_deg)):
            raise ValueError(
                f"distortion of {self.channel!r}: gain {self.gain} and phase"
                f" {self.phase_deg} must be finite"
            )
        if self.clamp_pu is not None and not 0.0 < self.clamp_pu < math.inf:
            raise ValueError(
                f"distortion of {self.channel!r}: clamp {self.clamp_pu} pu must be"
                " a positive finite number"
            )


def apply_distortion(
    ms: PhasorMeasurementSet, spec: list[Distortion] | tuple[Distortion, ...]
) -> PhasorMeasurementSet:
    """Return a copy with only the named channels altered.

    Channels not named by any distortion are carried over bit-identical.
    Raises ``KeyError`` for unknown channels.
    """
    pre_v, fault_v = dict(ms.prefault_bus_v), dict(ms.fault_bus_v)
    pre_i, fault_i = dict(ms.prefault_branch_i), dict(ms.fault_branch_i)
    for d in spec:
        if d.kind == "busV":
            pre, fault, key, name = pre_v, fault_v, int(d.channel), "voltage"
        elif d.kind == "branchI":
            pre, fault, key, name = pre_i, fault_i, d.channel, "current"
        else:
            raise KeyError(f"unknown channel kind {d.kind!r}")
        if key not in fault:
            raise KeyError(f"unknown {name} channel {d.channel!r}")
        pre[key], fault[key] = _distort(d, pre[key], fault[key])

    return replace(ms, prefault_bus_v=pre_v, fault_bus_v=fault_v, prefault_branch_i=pre_i,
                   fault_branch_i=fault_i)


def _distort(
    d: Distortion, pre: complex, fault: SequenceTriple
) -> tuple[complex, SequenceTriple]:
    g = cmath.rect(d.gain, math.radians(d.phase_deg))
    out = tuple(v * g for v in fault)
    if d.clamp_pu is not None and abs(out[1]) > d.clamp_pu:
        scale = d.clamp_pu / abs(out[1])
        out = tuple(v * scale for v in out)
    return pre * g, out


_CSV_HEADER = "kind,id,stage,seq,re,im"


def measurements_to_csv(ms: PhasorMeasurementSet) -> str:
    """Export as ``kind,id,stage,seq,re,im`` rows (pre-fault rows are seq 1)."""
    rows = [_CSV_HEADER]
    for kind, pre, fault in (
        ("busV", ms.prefault_bus_v, ms.fault_bus_v),
        ("branchI", ms.prefault_branch_i, ms.fault_branch_i),
    ):
        for key in sorted(pre):
            rows.append(f"{kind},{key},pre,1,{pre[key].real!r},{pre[key].imag!r}")
        for key in sorted(fault):
            for seq, v in enumerate(fault[key]):
                rows.append(f"{kind},{key},fault,{seq},{v.real!r},{v.imag!r}")
    return "\n".join(rows) + "\n"


def measurements_from_csv(text: str) -> PhasorMeasurementSet:
    """Import a set written by :func:`measurements_to_csv`.

    Raises ``ValueError`` naming the row for a row without six fields, an
    unknown kind, a stage other than ``pre`` or ``fault``, a bus label or
    number that does not parse, a value that is not finite, a sequence
    other than 0, 1 or 2, or other than 1 on a ``pre`` row.
    """
    pre_v: dict[int, complex] = {}
    fault_v: dict[int, list[complex]] = {}
    pre_i: dict[str, complex] = {}
    fault_i: dict[str, list[complex]] = {}

    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].strip() != _CSV_HEADER:
        raise ValueError("measurement CSV must start with the standard header")
    for ln in lines[1:]:
        fields = [tok.strip() for tok in ln.split(",")]
        if len(fields) != 6:
            raise ValueError(f"measurement CSV row {ln!r}: expected 6 fields, got {len(fields)}")
        kind, ident, stage, seq_s, re_s, im_s = fields
        if kind not in ("busV", "branchI"):
            raise ValueError(f"measurement CSV row {ln!r}: unknown channel kind {kind!r}")
        pre, fault = (pre_v, fault_v) if kind == "busV" else (pre_i, fault_i)
        if stage not in ("pre", "fault"):
            raise ValueError(f"measurement CSV row {ln!r}: stage must be pre or fault")
        try:
            key = int(ident) if kind == "busV" else ident
            v = complex(float(re_s), float(im_s))
            seq = int(seq_s)
        except ValueError:
            raise ValueError(f"measurement CSV row {ln!r}: bad bus label or number") from None
        if not cmath.isfinite(v):
            raise ValueError(f"measurement CSV row {ln!r}: value is not finite")
        if seq not in (0, 1, 2):
            raise ValueError(f"measurement CSV row {ln!r}: sequence must be 0, 1 or 2")
        if stage == "pre" and seq != 1:
            raise ValueError(f"measurement CSV row {ln!r}: a pre row must be sequence 1")
        if stage == "pre":
            pre[key] = v
        else:
            fault.setdefault(key, [0j, 0j, 0j])[seq] = v

    return PhasorMeasurementSet(pre_v, {b: tuple(t) for b, t in fault_v.items()},
                                pre_i, {k: tuple(t) for k, t in fault_i.items()})
