"""Fault-position estimators from sparse synchronized phasor pairs.

Every estimator is one idea: the fault-driven change of any measured
quantity is a :class:`~faultloc.seqmatrix.LinearLaw` ``b + c*m`` in the
normalized fault position m times the (unknown) fault current, so the ratio
of two measured changes cancels the fault current and pins m in closed form.
The methods differ only in which two channels feed that ratio:

* ``ssvm``: two bus-voltage changes,
* ``sscm``: two branch-current changes,
* ``hybrid``: one branch-current change over one bus-voltage change,
* ``hybrid-quad``: the same pair, solved through the real quadratic
  satisfied by the ratio magnitude instead of in the complex plane.

:func:`locate` solves one ratio; placements name the two channels they
measure, and :func:`estimate_for_placement` and
:func:`rank_line_hypotheses` read those channels and take their laws,
for one line or for all, from :mod:`faultloc.seqmatrix`.
All estimators consume positive-sequence phasors only and need no
fault-type or phase-selection information.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import math

import numpy as np

from .faultsim import PhasorMeasurementSet
from .netmodel import LineRecord, Network
from .seqmatrix import (
    LinearLaw,
    Lines,
    SequenceZbus,
    branch_coefficients,
    build_zbus,
    transfer_coefficients,
)

__all__ = [
    "DegenerateChannelError",
    "LinearDependenceError",
    "Method",
    "Channel",
    "LocationEstimate",
    "VoltagePlacement",
    "CurrentPlacement",
    "HybridPlacement",
    "voltage_channel",
    "current_channel",
    "locate",
    "estimate_for_placement",
    "feasibility_check",
    "percent_error",
    "rank_line_hypotheses",
]

#: Channels whose during-fault change is smaller than this (pu) carry no
#: observable fault signature and are rejected.
DEGENERACY_THRESHOLD = 1e-9

#: Relative tolerance of the coefficient rank test (channel independence).
DEPENDENCE_TOLERANCE = 1e-8

#: Slack applied when testing whether an estimate lies in [0, 1].
RANGE_SLACK = 1e-9

#: Relative size below which the leading coefficient of a ratio solve or of
#: the hybrid quadratic counts as zero.
SOLVE_TOLERANCE = 1e-12

_DEPENDENT = "channel fault responses are linearly dependent"


class DegenerateChannelError(ValueError):
    """A consumed channel shows no usable fault signature."""


class LinearDependenceError(ValueError):
    """The two channels respond proportionally; the ratio cannot pin m."""


class Method(str, Enum):
    SSVM = "ssvm"
    SSCM = "sscm"
    HYBRID_DIRECT = "hybrid"
    HYBRID_QUAD = "hybrid-quad"


#: Channel kinds each method divides: (numerator, denominator).
_KINDS = {
    Method.SSVM: ("busV", "busV"),
    Method.SSCM: ("branchI", "branchI"),
    Method.HYBRID_DIRECT: ("branchI", "busV"),
    Method.HYBRID_QUAD: ("branchI", "busV"),
}


@dataclass(frozen=True)
class Channel:
    """One synchronized phasor channel: pre-fault and during-fault values."""

    kind: str  # "busV" | "branchI"
    ident: str
    pre: complex
    fault: complex
    token: str = ""

    @property
    def delta(self) -> complex:
        return self.fault - self.pre


def voltage_channel(ms: PhasorMeasurementSet, bus: int) -> Channel:
    """Positive-sequence voltage channel of one bus from a measurement set."""
    return Channel(
        kind="busV",
        ident=str(bus),
        pre=ms.prefault_bus_v[bus],
        fault=ms.fault_bus_v[bus][1],
        token=ms.token,
    )


def current_channel(ms: PhasorMeasurementSet, channel_id: str) -> Channel:
    """Positive-sequence current channel of one branch (or terminal segment)."""
    return Channel(
        kind="branchI",
        ident=channel_id,
        pre=ms.prefault_branch_i[channel_id],
        fault=ms.fault_branch_i[channel_id][1],
        token=ms.token,
    )


@dataclass(frozen=True)
class LocationEstimate:
    """Result of one estimator run.

    ``m`` is the normalized position along the hypothesized faulted line;
    ``residual`` is the imaginary part of the raw complex solution (direct
    forms) or the distance of the quadratic's roots from the real axis.  An
    out-of-range ``m`` is reported as-is and signals a wrong faulted-line
    hypothesis rather than being clamped.
    """

    m: float
    method: Method
    residual: float
    ambiguous: bool = False
    notes: str = ""

    @property
    def in_range(self) -> bool:
        return -RANGE_SLACK <= self.m <= 1.0 + RANGE_SLACK


def locate(
    method: Method,
    numer: Channel,
    denom: Channel,
    numer_law: LinearLaw,
    denom_law: LinearLaw,
) -> LocationEstimate:
    """Fault position from the ratio of two measured changes.

    ``numer_law``/``denom_law`` give each channel's change per unit fault
    current for a fault on the hypothesized line, so that
    ``numer.delta / denom.delta == numer_law.at(m) / denom_law.at(m)``.
    The channels' kinds must be those the method divides (two voltages for
    ssvm, two currents for sscm, current over voltage for the hybrids) and
    their tokens must match.  A current channel must measure a line other
    than the faulted one; the branch law does not hold on the faulted line.

    Raises :class:`LinearDependenceError` when the two laws are
    proportional and :class:`DegenerateChannelError` when the denominator
    shows no fault signature.
    """
    method = Method(method)
    kinds = (numer.kind, denom.kind)
    if kinds != _KINDS[method]:
        raise ValueError(
            f"{method.value} expects channel kinds {_KINDS[method]}, got {kinds}"
        )
    if numer.token and denom.token and numer.token != denom.token:
        raise ValueError(
            f"channels are not synchronized: tokens {numer.token!r} != {denom.token!r}"
        )
    if _dependent(numer_law, denom_law):
        raise LinearDependenceError(_DEPENDENT)
    ratio = _ratio(numer, denom)
    if method is Method.HYBRID_QUAD:
        return _quadratic_solve(numer_law, denom_law, ratio)
    return _estimate(_ratio_solve(numer_law, denom_law, ratio), method)


def _ratio(numer: Channel, denom: Channel) -> complex:
    if abs(denom.delta) < DEGENERACY_THRESHOLD:
        raise DegenerateChannelError(
            f"channel {denom.ident!r} change {abs(denom.delta):.3e} pu is below"
            f" the observability threshold {DEGENERACY_THRESHOLD:g}"
        )
    return numer.delta / denom.delta


def _ratio_solve(numer: LinearLaw, denom: LinearLaw, ratio: complex) -> complex:
    """Solve ratio = numer.at(m) / denom.at(m) for m."""
    num, den, singular = _ratio_terms(numer, denom, ratio)
    if singular:
        raise LinearDependenceError(
            "channel responses are proportional; the ratio does not depend on"
            " the fault position"
        )
    return num / den


def _ratio_terms(numer: LinearLaw, denom: LinearLaw, ratio):
    """Numerator and denominator of m, and whether the solve is singular.

    Works on scalar laws and elementwise on laws of arrays alike.
    """
    den = ratio * denom.c - numer.c
    scale = abs(ratio * denom.c) + abs(numer.c)
    singular = (scale == 0.0) | (abs(den) <= SOLVE_TOLERANCE * scale)
    return numer.b - ratio * denom.b, den, singular


def _dependent(a: LinearLaw, b: LinearLaw):
    """Whether laws ``a`` and ``b`` are proportional.

    Works on scalar laws and elementwise on laws of arrays alike.
    """
    det = a.b * b.c - a.c * b.b
    scale = (abs(a.b) + abs(a.c)) * (abs(b.b) + abs(b.c))
    return (scale == 0.0) | (abs(det) <= DEPENDENCE_TOLERANCE * scale)


def _estimate(m_complex: complex, method: Method) -> LocationEstimate:
    m = m_complex.real
    out = not (-RANGE_SLACK <= m <= 1.0 + RANGE_SLACK)
    return LocationEstimate(
        m=m,
        method=method,
        residual=abs(m_complex.imag),
        notes="solution outside [0, 1]; wrong faulted-line hypothesis?" if out else "",
    )


def _quadratic_solve(
    numer: LinearLaw, denom: LinearLaw, ratio: complex
) -> LocationEstimate:
    """Hybrid estimate through the real quadratic in m.

    Equating the squared magnitudes of both sides of the ratio relation
    gives ``c2*m**2 + c1*m + c0 = 0`` with real coefficients built from the
    real/imaginary parts of the two laws and the squared ratio magnitude.
    The root inside [0, 1] is the estimate; if both roots land inside, the
    result is flagged ambiguous and the root nearest the direct-form
    solution is returned.
    """
    bk, ck, bl, cl = numer.b, numer.c, denom.b, denom.c
    d2 = abs(ratio) ** 2
    c2 = ck.real**2 + ck.imag**2 - d2 * (cl.real**2 + cl.imag**2)
    c1 = 2.0 * (
        bk.real * ck.real + bk.imag * ck.imag
        - d2 * (bl.real * cl.real + bl.imag * cl.imag)
    )
    c0 = bk.real**2 + bk.imag**2 - d2 * (bl.real**2 + bl.imag**2)

    roots, off_axis = _real_roots(c2, c1, c0)
    in_range = [r for r in roots if -RANGE_SLACK <= r <= 1.0 + RANGE_SLACK]

    ambiguous = False
    notes = ""
    if len(in_range) == 1:
        m = in_range[0]
    elif len(in_range) == 2:
        ambiguous = True
        try:
            direct = _ratio_solve(numer, denom, ratio).real
        except LinearDependenceError:
            direct = 0.5
        m = min(in_range, key=lambda r: abs(r - direct))
        notes = "both roots in [0, 1]; tie broken toward the direct solution"
    else:
        m = min(roots, key=lambda r: max(0.0 - r, r - 1.0, 0.0))
        notes = "no root in [0, 1]; wrong faulted-line hypothesis?"

    return LocationEstimate(
        m=m,
        method=Method.HYBRID_QUAD,
        residual=off_axis,
        ambiguous=ambiguous,
        notes=notes,
    )


def _real_roots(c2: float, c1: float, c0: float) -> tuple[tuple[float, ...], float]:
    """Roots of c2*m**2 + c1*m + c0, with their distance off the real axis."""
    scale = max(abs(c2), abs(c1), abs(c0))
    if scale == 0.0:
        raise LinearDependenceError("all quadratic coefficients vanish")
    if abs(c2) <= SOLVE_TOLERANCE * scale:
        if abs(c1) <= SOLVE_TOLERANCE * scale:
            raise LinearDependenceError("quadratic degenerates to a constant")
        return ((-c0 / c1,), 0.0)
    disc = c1 * c1 - 4.0 * c2 * c0
    if disc >= 0.0:
        s = math.sqrt(disc)
        r1 = (-c1 + s) / (2.0 * c2)
        r2 = (-c1 - s) / (2.0 * c2)
        return ((r1,) if r1 == r2 else (r1, r2), 0.0)
    return ((-c1 / (2.0 * c2),), math.sqrt(-disc) / (2.0 * abs(c2)))


# ---------------------------------------------------------------------------
# Placements and feasibility
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VoltagePlacement:
    bus_k: int
    bus_l: int

    @property
    def channels(self) -> tuple[tuple[str, int], tuple[str, int]]:
        return (("busV", self.bus_k), ("busV", self.bus_l))


@dataclass(frozen=True)
class CurrentPlacement:
    channel_1: str
    channel_2: str

    @property
    def channels(self) -> tuple[tuple[str, str], tuple[str, str]]:
        return (("branchI", self.channel_1), ("branchI", self.channel_2))


@dataclass(frozen=True)
class HybridPlacement:
    current_channel: str
    bus: int

    @property
    def channels(self) -> tuple[tuple[str, str], tuple[str, int]]:
        return (("branchI", self.current_channel), ("busV", self.bus))


Placement = VoltagePlacement | CurrentPlacement | HybridPlacement


def _source(net: Network, kind: str, ident: int | str) -> int | LineRecord:
    """What a channel measures: its bus, or the line its current flows on.

    A current channel id may name a terminal of a line (``T2@from``); a
    malformed one raises :class:`~faultloc.netmodel.CaseError`.
    """
    return net.channel(ident)[0] if kind == "branchI" else ident


def _law(zbus: SequenceZbus, line: Lines, source: int | LineRecord) -> LinearLaw:
    """The law of a channel measuring ``source`` under a fault on ``line``."""
    if isinstance(source, LineRecord):
        return branch_coefficients(zbus, line, source)
    return transfer_coefficients(zbus, line, source)


def feasibility_check(
    net: Network,
    faulted_line_id: str,
    placement: Placement,
    zbus: SequenceZbus | None = None,
) -> tuple[bool, str]:
    """Decide whether a placement can observe faults on the given line.

    Two conditions: a simple path must join the two measurement locations
    through the faulted line (a branch channel counts as sitting at either
    of its endpoints), and for placements with a current channel the two
    channels' coefficient laws must not be proportional (numerical rank
    test).  Returns (feasible, reason).
    """
    line = net.line(faulted_line_id)
    sources = [_source(net, kind, ident) for kind, ident in placement.channels]
    locs_a, locs_b = (
        [s.from_bus, s.to_bus] if isinstance(s, LineRecord) else [s] for s in sources
    )

    # The rank test is the decisive physical condition for placements with a
    # current channel, so its verdict names the reason when both tests fail.
    if any(isinstance(s, LineRecord) for s in sources):
        zbus = zbus if zbus is not None else build_zbus(net, 1)
        if _dependent(*(_law(zbus, line, s) for s in sources)):
            return False, _DEPENDENT

    if not _path_through_line(net, line, locs_a, locs_b):
        return (
            False,
            f"no simple path through line {faulted_line_id!r} joins the"
            " measurement locations",
        )
    return True, "ok"


def _path_through_line(
    net: Network, line: LineRecord, starts: list[int], goals: list[int]
) -> bool:
    """Is there a simple path from some start to some goal crossing ``line``?

    The faulted line is split by a synthetic node so that "crossing" means
    visiting the fault point itself; paths may not repeat buses.
    """
    for b in (*starts, *goals):
        net.bus_index(b)  # raises CaseError on unknown measurement buses

    via = object()  # synthetic fault node, distinct from every label
    adj: dict[object, list[object]] = {
        b: [via if lid == line.id else nb for nb, lid in nbrs]
        for b, nbrs in net.adjacency().items()
    }
    adj[via] = [line.from_bus, line.to_bus]

    goal_set = set(goals)

    def dfs(node: object, visited: set[object], seen_via: bool) -> bool:
        if node in goal_set and seen_via:
            return True
        for nb in adj[node]:
            if nb in visited:
                continue
            if dfs(nb, visited | {nb}, seen_via or nb is via):
                return True
        return False

    for start in starts:
        if start in goal_set and len(goal_set) == 1:
            continue  # identical locations cannot bracket the fault
        if dfs(start, {start}, False):
            return True
    return False


def percent_error(actual_km: float, estimated_km: float, line_length_km: float) -> float:
    """Location error as a percentage of the faulted line's total length."""
    if line_length_km <= 0:
        raise ValueError(f"line length must be positive, got {line_length_km}")
    return 100.0 * abs(actual_km - estimated_km) / line_length_km


# ---------------------------------------------------------------------------
# Placement-driven estimates
# ---------------------------------------------------------------------------


def _consumed(
    net: Network, ms: PhasorMeasurementSet, placement: Placement, method: Method
) -> list[tuple[int | LineRecord, Channel]]:
    """The placement's two sources, each with its channel read from ``ms``.

    Both come from one measurement set, so their tokens match.  Sources come
    first, so a malformed channel id is not reported as one ``ms`` lacks.
    """
    kinds = tuple(kind for kind, _ in placement.channels)
    if kinds != _KINDS[method]:
        raise TypeError(
            f"{method.value} needs channel kinds {_KINDS[method]}, the placement"
            f" has {kinds}"
        )
    sources = [_source(net, kind, ident) for kind, ident in placement.channels]
    return [
        (src, voltage_channel(ms, ident) if kind == "busV" else current_channel(ms, ident))
        for (kind, ident), src in zip(placement.channels, sources)
    ]


def estimate_for_placement(
    net: Network,
    zbus: SequenceZbus,
    faulted_line_id: str,
    placement: Placement,
    ms: PhasorMeasurementSet,
    method: Method,
) -> LocationEstimate:
    """Read the placement's channels, derive their laws and :func:`locate`.

    The faulted line here is a hypothesis: coefficients are derived for it,
    and an out-of-range result indicates the hypothesis is wrong.  Raises
    ``TypeError`` when the placement does not measure the channel kinds the
    method divides.
    """
    line = net.line(faulted_line_id)
    (numer_src, numer), (denom_src, denom) = _consumed(net, ms, placement, method)
    return locate(
        method, numer, denom, _law(zbus, line, numer_src), _law(zbus, line, denom_src)
    )


def rank_line_hypotheses(
    net: Network,
    ms: PhasorMeasurementSet,
    placement: Placement,
    method: Method,
    zbus: SequenceZbus | None = None,
) -> list[tuple[str, LocationEstimate]]:
    """Run the estimator against every line hypothesis, best first.

    Every hypothesis is solved in one pass: the two channel laws of all
    lines come as laws of arrays and the ratio is solved as array
    expressions, with the checks of :func:`locate`.
    Hypotheses that those checks reject are skipped: all of them when the
    denominator channel is degenerate, one line when its two laws are
    dependent or its ratio does not depend on m.  So are the lines a
    current channel measures, whose branch law does not hold while they
    are faulted.

    Hypotheses yielding an in-range estimate sort ahead of out-of-range
    ones, then by residual.  A convenience for identifying the faulted line
    when it is not known a priori.
    """
    zbus = zbus if zbus is not None else build_zbus(net, 1)
    (numer_src, numer), (denom_src, denom) = _consumed(net, ms, placement, method)
    ends = _line_ends(net, zbus)
    numer_law, denom_law = _law(zbus, ends, numer_src), _law(zbus, ends, denom_src)
    measured = {src.id for src in (numer_src, denom_src) if isinstance(src, LineRecord)}
    try:
        ratio = _ratio(numer, denom)
    except DegenerateChannelError:
        return []

    skip = _dependent(numer_law, denom_law) | [rec.id in measured for rec in net.lines]
    results: list[tuple[str, LocationEstimate]] = []
    if method is Method.HYBRID_QUAD:
        for i in np.flatnonzero(~skip).tolist():
            laws = (LinearLaw(complex(w.b[i]), complex(w.c[i])) for w in (numer_law, denom_law))
            try:
                results.append((net.lines[i].id, _quadratic_solve(*laws, ratio)))
            except LinearDependenceError:
                continue
    else:
        num, den, singular = _ratio_terms(numer_law, denom_law, ratio)
        keep = np.flatnonzero(~(skip | singular))
        m = num[keep] / den[keep]
        for i, m_complex in zip(keep.tolist(), m.tolist()):
            results.append((net.lines[i].id, _estimate(m_complex, method)))
    results.sort(key=lambda item: (not item[1].in_range, item[1].residual))
    return results


def _line_ends(net: Network, zbus: SequenceZbus) -> tuple[np.ndarray, np.ndarray]:
    """Z indices of every line's from- and to-bus, in ``net.lines`` order."""
    p, q = net.line_end_indices()
    if zbus.bus_order != net.buses:
        order = np.array([zbus.index(b) for b in net.buses], dtype=np.intp)
        p, q = order[p], order[q]
    return p, q

