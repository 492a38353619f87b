"""Fault-position estimators from sparse synchronized phasor pairs.

Three estimators share one idea: the fault-driven change of any measured
quantity is a coefficient law in the normalized fault position m times the
(unknown) fault current, so the ratio of two measured changes cancels the
fault current and pins m in closed form.

* voltage method: ratio of two bus-voltage changes,
* current method: ratio of two branch-current changes,
* hybrid method: one branch-current change over one bus-voltage change,
  solved either directly in the complex plane or through the real quadratic
  satisfied by the ratio magnitude.

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
    BranchCoefficients,
    SequenceZbus,
    TransferCoefficients,
    branch_coefficients,
    build_zbus,
    transfer_coefficients,
)

__all__ = [
    "DegenerateChannelError",
    "LinearDependenceError",
    "Method",
    "Channel",
    "VoltagePair",
    "CurrentPair",
    "HybridPair",
    "LocationEstimate",
    "VoltagePlacement",
    "CurrentPlacement",
    "HybridPlacement",
    "voltage_channel",
    "current_channel",
    "locate_ssvm",
    "locate_sscm",
    "locate_hybrid_direct",
    "locate_hybrid_quadratic",
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


class DegenerateChannelError(ValueError):
    """A consumed channel shows no usable fault signature."""


class LinearDependenceError(ValueError):
    """The two channels respond proportionally; the ratio cannot pin m."""


class Method(str, Enum):
    SSVM = "ssvm"
    SSCM = "sscm"
    HYBRID_DIRECT = "hybrid"
    HYBRID_QUAD = "hybrid-quad"


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

    @property
    def base_id(self) -> str:
        """Line id for branch channels, with any terminal suffix removed."""
        return self.ident.split("@", 1)[0]


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


def _check_pair(a: Channel, b: Channel, kinds: tuple[str, str]) -> None:
    if (a.kind, b.kind) != kinds:
        raise ValueError(f"expected channel kinds {kinds}, got ({a.kind}, {b.kind})")
    if a.token and b.token and a.token != b.token:
        raise ValueError(
            f"channels are not synchronized: tokens {a.token!r} != {b.token!r}"
        )


@dataclass(frozen=True)
class VoltagePair:
    k: Channel
    l: Channel

    def __post_init__(self) -> None:
        _check_pair(self.k, self.l, ("busV", "busV"))


@dataclass(frozen=True)
class CurrentPair:
    first: Channel
    second: Channel

    def __post_init__(self) -> None:
        _check_pair(self.first, self.second, ("branchI", "branchI"))


@dataclass(frozen=True)
class HybridPair:
    current: Channel
    voltage: Channel

    def __post_init__(self) -> None:
        _check_pair(self.current, self.voltage, ("branchI", "busV"))


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
    m_complex: complex | None
    residual: float
    feasible: bool = True
    ambiguous: bool = False
    notes: str = ""

    @property
    def in_range(self) -> bool:
        return -RANGE_SLACK <= self.m <= 1.0 + RANGE_SLACK


def _ratio(numer: Channel, denom: Channel) -> complex:
    if abs(denom.delta) < DEGENERACY_THRESHOLD:
        raise DegenerateChannelError(
            f"channel {denom.ident!r} change {abs(denom.delta):.3e} pu is below"
            f" the observability threshold {DEGENERACY_THRESHOLD:g}"
        )
    return numer.delta / denom.delta


def _ratio_solve(
    numer_b: complex, numer_c: complex, denom_b: complex, denom_c: complex, ratio: complex
) -> complex:
    """Solve ratio = (numer_b + numer_c*m)/(denom_b + denom_c*m) for m."""
    num, den, singular = _ratio_terms(numer_b, numer_c, denom_b, denom_c, ratio)
    if singular:
        raise LinearDependenceError(
            "channel responses are proportional; the ratio does not depend on"
            " the fault position"
        )
    return num / den


def _ratio_terms(numer_b, numer_c, denom_b, denom_c, ratio):
    """Numerator and denominator of m, and whether the solve is singular.

    Works on scalars and elementwise on arrays of laws alike.
    """
    den = ratio * denom_c - numer_c
    scale = abs(ratio * denom_c) + abs(numer_c)
    singular = (scale == 0.0) | (abs(den) <= SOLVE_TOLERANCE * scale)
    return numer_b - ratio * denom_b, den, singular


def _estimate(m_complex: complex, method: Method) -> LocationEstimate:
    m = m_complex.real
    out = not (-RANGE_SLACK <= m <= 1.0 + RANGE_SLACK)
    return LocationEstimate(
        m=m,
        method=method,
        m_complex=m_complex,
        residual=abs(m_complex.imag),
        notes="solution outside [0, 1]; wrong faulted-line hypothesis?" if out else "",
    )


def locate_ssvm(
    pair: VoltagePair,
    coeffs_k: TransferCoefficients,
    coeffs_l: TransferCoefficients,
) -> LocationEstimate:
    """Fault position from the ratio of two bus-voltage changes."""
    _require_match(pair.k, str(coeffs_k.bus))
    _require_match(pair.l, str(coeffs_l.bus))
    ratio = _ratio(pair.k, pair.l)
    m = _ratio_solve(coeffs_k.b, coeffs_k.c, coeffs_l.b, coeffs_l.c, ratio)
    return _estimate(m, Method.SSVM)


def locate_sscm(
    pair: CurrentPair,
    coeffs_1: BranchCoefficients,
    coeffs_2: BranchCoefficients,
) -> LocationEstimate:
    """Fault position from the ratio of two branch-current changes.

    Both measured branches must be lines other than the faulted one; the
    branch-current law does not hold on the faulted line itself.
    """
    _require_match(pair.first, coeffs_1.line_id)
    _require_match(pair.second, coeffs_2.line_id)
    _require_independent(
        (coeffs_1.b, coeffs_1.c), (coeffs_2.b, coeffs_2.c), "branch current changes"
    )
    ratio = _ratio(pair.first, pair.second)
    m = _ratio_solve(coeffs_1.b, coeffs_1.c, coeffs_2.b, coeffs_2.c, ratio)
    return _estimate(m, Method.SSCM)


def locate_hybrid_direct(
    pair: HybridPair,
    branch_coeffs: BranchCoefficients,
    voltage_coeffs: TransferCoefficients,
) -> LocationEstimate:
    """Fault position from one branch-current change over one voltage change."""
    _require_match(pair.current, branch_coeffs.line_id)
    _require_match(pair.voltage, str(voltage_coeffs.bus))
    ratio = _ratio(pair.current, pair.voltage)
    m = _ratio_solve(
        branch_coeffs.b, branch_coeffs.c, voltage_coeffs.b, voltage_coeffs.c, ratio
    )
    return _estimate(m, Method.HYBRID_DIRECT)


def locate_hybrid_quadratic(
    pair: HybridPair,
    branch_coeffs: BranchCoefficients,
    voltage_coeffs: TransferCoefficients,
) -> LocationEstimate:
    """Hybrid estimate through the real quadratic in m.

    Equating the squared magnitudes of both sides of the ratio relation
    gives ``c2*m**2 + c1*m + c0 = 0`` with real coefficients built from the
    real/imaginary parts of the channel coefficient laws and the squared
    ratio magnitude.  The root inside [0, 1] is the estimate; if both roots
    land inside, the result is flagged ambiguous and the root nearest the
    direct-form solution is returned.
    """
    _require_match(pair.current, branch_coeffs.line_id)
    _require_match(pair.voltage, str(voltage_coeffs.bus))
    ratio = _ratio(pair.current, pair.voltage)
    return _quadratic_solve(
        branch_coeffs.b, branch_coeffs.c, voltage_coeffs.b, voltage_coeffs.c, ratio
    )


def _quadratic_solve(
    bk: complex, ck: complex, bl: complex, cl: complex, ratio: complex
) -> LocationEstimate:
    """The hybrid quadratic for a branch law ``bk + ck*m`` over a voltage law."""
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
            direct = _ratio_solve(bk, ck, bl, cl, ratio).real
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
        m_complex=None,
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


def _require_match(channel: Channel, expected: str) -> None:
    if channel.base_id != expected:
        raise ValueError(
            f"channel {channel.ident!r} does not match coefficients for {expected!r}"
        )


def _require_independent(
    v1: tuple[complex, complex], v2: tuple[complex, complex], what: str
) -> None:
    if _dependent(*v1, *v2):
        raise LinearDependenceError(f"{what} are linearly dependent")


def _dependent(b1, c1, b2, c2):
    """Whether laws ``b1 + c1*m`` and ``b2 + c2*m`` are proportional.

    Works on scalars and elementwise on arrays of laws alike.
    """
    det = b1 * c2 - c1 * b2
    scale = (abs(b1) + abs(c1)) * (abs(b2) + abs(c2))
    return (scale == 0.0) | (abs(det) <= DEPENDENCE_TOLERANCE * scale)


# ---------------------------------------------------------------------------
# Placements and feasibility
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VoltagePlacement:
    bus_k: int
    bus_l: int


@dataclass(frozen=True)
class CurrentPlacement:
    channel_1: str
    channel_2: str


@dataclass(frozen=True)
class HybridPlacement:
    current_channel: str
    bus: int


Placement = VoltagePlacement | CurrentPlacement | HybridPlacement


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

    if isinstance(placement, VoltagePlacement):
        locs_a: list[int] = [placement.bus_k]
        locs_b: list[int] = [placement.bus_l]
    elif isinstance(placement, CurrentPlacement):
        la = net.line(_base(placement.channel_1))
        lb = net.line(_base(placement.channel_2))
        locs_a = [la.from_bus, la.to_bus]
        locs_b = [lb.from_bus, lb.to_bus]
    else:
        la = net.line(_base(placement.current_channel))
        locs_a = [la.from_bus, la.to_bus]
        locs_b = [placement.bus]

    # The rank test is the decisive physical condition for placements with a
    # current channel, so its verdict names the reason when both tests fail.
    if not isinstance(placement, VoltagePlacement):
        zbus = zbus if zbus is not None else build_zbus(net, 1)
        if isinstance(placement, CurrentPlacement):
            c1 = branch_coefficients(zbus, line, net.line(_base(placement.channel_1)))
            c2 = branch_coefficients(zbus, line, net.line(_base(placement.channel_2)))
            pair = ((c1.b, c1.c), (c2.b, c2.c))
        else:
            cb = branch_coefficients(
                zbus, line, net.line(_base(placement.current_channel))
            )
            cv = transfer_coefficients(zbus, line, placement.bus)
            pair = ((cb.b, cb.c), (cv.b, cv.c))
        try:
            _require_independent(pair[0], pair[1], "channel fault responses")
        except LinearDependenceError as exc:
            return False, str(exc)

    if not _path_through_line(net, line, locs_a, locs_b):
        return (
            False,
            f"no simple path through line {faulted_line_id!r} joins the"
            " measurement locations",
        )
    return True, "ok"


def _base(channel_id: str) -> str:
    return channel_id.split("@", 1)[0]


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
    adj: dict[object, list[object]] = {b: [] for b in net.buses}
    adj[via] = []
    for rec in net.lines:
        if rec.id == line.id:
            for a, b in ((rec.from_bus, via), (via, rec.to_bus)):
                adj[a].append(b)
                adj[b].append(a)
        else:
            adj[rec.from_bus].append(rec.to_bus)
            adj[rec.to_bus].append(rec.from_bus)

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
# Placement-driven dispatch
# ---------------------------------------------------------------------------


def estimate_for_placement(
    net: Network,
    zbus: SequenceZbus,
    faulted_line_id: str,
    placement: Placement,
    ms: PhasorMeasurementSet,
    method: Method,
) -> LocationEstimate:
    """Build the measurement pair and coefficients for a placement and locate.

    The faulted line here is a hypothesis: coefficients are derived for it,
    and an out-of-range result indicates the hypothesis is wrong.
    """
    line = net.line(faulted_line_id)
    if method is Method.SSVM:
        if not isinstance(placement, VoltagePlacement):
            raise TypeError("voltage method needs a VoltagePlacement")
        pair = VoltagePair(
            voltage_channel(ms, placement.bus_k), voltage_channel(ms, placement.bus_l)
        )
        return locate_ssvm(
            pair,
            transfer_coefficients(zbus, line, placement.bus_k),
            transfer_coefficients(zbus, line, placement.bus_l),
        )
    if method is Method.SSCM:
        if not isinstance(placement, CurrentPlacement):
            raise TypeError("current method needs a CurrentPlacement")
        pair = CurrentPair(
            current_channel(ms, placement.channel_1),
            current_channel(ms, placement.channel_2),
        )
        return locate_sscm(
            pair,
            branch_coefficients(zbus, line, net.line(_base(placement.channel_1))),
            branch_coefficients(zbus, line, net.line(_base(placement.channel_2))),
        )
    if not isinstance(placement, HybridPlacement):
        raise TypeError("hybrid methods need a HybridPlacement")
    pair = HybridPair(
        current_channel(ms, placement.current_channel),
        voltage_channel(ms, placement.bus),
    )
    bcoeffs = branch_coefficients(
        zbus, line, net.line(_base(placement.current_channel))
    )
    vcoeffs = transfer_coefficients(zbus, line, placement.bus)
    if method is Method.HYBRID_DIRECT:
        return locate_hybrid_direct(pair, bcoeffs, vcoeffs)
    return locate_hybrid_quadratic(pair, bcoeffs, vcoeffs)


def rank_line_hypotheses(
    net: Network,
    ms: PhasorMeasurementSet,
    placement: Placement,
    method: Method,
    zbus: SequenceZbus | None = None,
) -> list[tuple[str, LocationEstimate]]:
    """Run the estimator against every line hypothesis, best first.

    Every hypothesis is solved in one pass: the two channel laws of all
    lines are gathered from Z at the lines' end buses and the ratio is
    solved as array expressions, with the checks of
    :func:`estimate_for_placement`.  Hypotheses that those checks reject
    are skipped: all of them when the denominator channel is degenerate,
    one line when its two laws are proportional or its current channels
    dependent.  So are the lines a current channel measures, whose branch
    law does not hold while they are faulted.

    Hypotheses yielding an in-range estimate sort ahead of out-of-range
    ones, then by residual.  A convenience for identifying the faulted line
    when it is not known a priori.
    """
    zbus = zbus if zbus is not None else build_zbus(net, 1)
    if method is Method.SSVM:
        if not isinstance(placement, VoltagePlacement):
            raise TypeError("voltage method needs a VoltagePlacement")
        pair = VoltagePair(
            voltage_channel(ms, placement.bus_k), voltage_channel(ms, placement.bus_l)
        )
        channels = (pair.k, pair.l)
        sources = (placement.bus_k, placement.bus_l)
    elif method is Method.SSCM:
        if not isinstance(placement, CurrentPlacement):
            raise TypeError("current method needs a CurrentPlacement")
        pair = CurrentPair(
            current_channel(ms, placement.channel_1),
            current_channel(ms, placement.channel_2),
        )
        channels = (pair.first, pair.second)
        sources = (
            net.line(_base(placement.channel_1)),
            net.line(_base(placement.channel_2)),
        )
    else:
        if not isinstance(placement, HybridPlacement):
            raise TypeError("hybrid methods need a HybridPlacement")
        pair = HybridPair(
            current_channel(ms, placement.current_channel),
            voltage_channel(ms, placement.bus),
        )
        channels = (pair.current, pair.voltage)
        sources = (net.line(_base(placement.current_channel)), placement.bus)
    ends = _line_ends(net, zbus)
    (nb, nc), (db, dc) = (_laws(zbus, ends, src) for src in sources)
    measured = {src.id for src in sources if isinstance(src, LineRecord)}
    try:
        ratio = _ratio(*channels)
    except DegenerateChannelError:
        return []

    results: list[tuple[str, LocationEstimate]] = []
    if method is Method.HYBRID_QUAD:
        laws = zip(nb.tolist(), nc.tolist(), db.tolist(), dc.tolist())
        for rec, law in zip(net.lines, laws):
            if rec.id in measured:
                continue
            try:
                est = _quadratic_solve(*law, ratio)
            except LinearDependenceError:
                continue
            results.append((rec.id, est))
    else:
        num, den, singular = _ratio_terms(nb, nc, db, dc, ratio)
        if method is Method.SSCM:
            singular |= _dependent(nb, nc, db, dc)
        keep = np.flatnonzero(~singular)
        m = num[keep] / den[keep]
        for i, m_complex in zip(keep.tolist(), m.tolist()):
            line_id = net.lines[i].id
            if line_id not in measured:
                results.append((line_id, _estimate(m_complex, method)))
    results.sort(key=lambda item: (not item[1].in_range, item[1].residual))
    return results


def _line_ends(net: Network, zbus: SequenceZbus) -> tuple[np.ndarray, np.ndarray]:
    """Z indices of every line's from- and to-bus, in ``net.lines`` order."""
    p, q = net.line_end_indices()
    if zbus.bus_order != net.buses:
        order = np.array([zbus.index(b) for b in net.buses], dtype=np.intp)
        p, q = order[p], order[q]
    return p, q


def _laws(
    zbus: SequenceZbus, ends: tuple[np.ndarray, np.ndarray], source: int | LineRecord
) -> tuple[np.ndarray, np.ndarray]:
    """A channel's law ``b + c*m`` for a fault on every line, as (b, c) arrays.

    ``source`` is the measured bus (transfer law, as
    :func:`transfer_coefficients`) or branch (branch law, as
    :func:`branch_coefficients`).
    """
    if isinstance(source, LineRecord):
        zb = source.z(zbus.sequence)
        if abs(zb) == 0.0:
            raise ValueError(f"branch {source.id!r} has zero impedance")
        bf, cf = _laws(zbus, ends, source.from_bus)
        bt, ct = _laws(zbus, ends, source.to_bus)
        return _divide(bf - bt, zb), _divide(cf - ct, zb)
    k = zbus.index(source)
    zp = zbus.z[ends[0], k]
    return zp, zbus.z[ends[1], k] - zp


def _divide(a: np.ndarray, b: complex) -> np.ndarray:
    """``a / b`` rounded as CPython rounds a complex quotient (Smith's method).

    numpy multiplies by a reciprocal instead, which moves the last bit.  The
    branch laws then differ from :func:`branch_coefficients`', and the
    hybrid quadratic's off-axis residual, a square root of a discriminant
    near zero, turns that last bit into a difference near 1e-8.
    """
    if abs(b.real) >= abs(b.imag):
        ratio = b.imag / b.real
        denom = b.real + b.imag * ratio
        real, imag = a.real + a.imag * ratio, a.imag - a.real * ratio
    else:
        ratio = b.real / b.imag
        denom = b.real * ratio + b.imag
        real, imag = a.real * ratio + a.imag, a.imag * ratio - a.real
    out = np.empty_like(a)
    out.real = real / denom
    out.imag = imag / denom
    return out
