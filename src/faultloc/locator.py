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
measure, and the other estimators take those channels' laws, for one line
or for all, from one builder and keep them per matrix.  Ranking solves and
orders as arrays, builds an entry only when it is read, and refuses
``hybrid-quad``.
All estimators consume positive-sequence phasors only and need no
fault-type or phase-selection information.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, replace
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

#: No instrument reads a faulted line's own current, only its terminals'.
_OWN_CURRENT = "current channel {0!r} measures faulted line {0!r}"


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
    return Channel("busV", str(bus), ms.prefault_bus_v[bus], ms.fault_bus_v[bus][1], ms.token)


def current_channel(ms: PhasorMeasurementSet, channel_id: str) -> Channel:
    """Positive-sequence current channel of one line or line terminal."""
    pre, fault = ms.prefault_branch_i[channel_id], ms.fault_branch_i[channel_id][1]
    return Channel("branchI", channel_id, pre, fault, ms.token)


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
    their tokens must match.  A current channel on the faulted line must be
    one of its terminals: the line's own current is no channel there.

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
    laws = (numer_law, denom_law, _dependent(numer_law, denom_law))
    return _solve(method, laws, numer.delta, denom.delta, denom.ident)


def _solve(method: Method, laws, numer: complex, denom: complex, ident) -> LocationEstimate:
    """:func:`locate` from ``(numer_law, denom_law, dependent)`` and the changes."""
    numer_law, denom_law, dependent = laws
    if dependent:
        raise LinearDependenceError(_DEPENDENT)
    ratio = _ratio(numer, denom, ident)
    if method is Method.HYBRID_QUAD:
        return _quadratic_solve(numer_law, denom_law, ratio)
    return _estimate(_ratio_solve(numer_law, denom_law, ratio), method)


def _ratio(numer: complex, denom: complex, ident) -> complex:
    if abs(denom) < DEGENERACY_THRESHOLD:
        raise DegenerateChannelError(
            f"channel {str(ident)!r} change {abs(denom):.3e} pu is below"
            f" the observability threshold {DEGENERACY_THRESHOLD:g}"
        )
    return numer / denom


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
    est = LocationEstimate(m=m_complex.real, method=method, residual=abs(m_complex.imag))
    if est.in_range:
        return est
    return replace(est, notes="solution outside [0, 1]; wrong faulted-line hypothesis?")


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

    return LocationEstimate(m, Method.HYBRID_QUAD, off_axis, ambiguous, notes)


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


def feasibility_check(
    net: Network,
    faulted_line_id: str,
    placement: Placement,
    zbus: SequenceZbus | None = None,
) -> tuple[bool, str]:
    """Decide whether a placement can observe faults on the given line.

    Three conditions: no current channel is the faulted line's own current,
    which no instrument reads; a simple path must join the two measurement
    locations through the faulted line (a branch channel counts as sitting
    at either of its endpoints); and for placements with a current channel
    the two channels' coefficient laws must not be proportional (numerical
    rank test).  Returns (feasible, reason), kept with the line's table on
    ``zbus`` when given.

    Such a path exists exactly when the faulted line's block lies between
    two distinct locations in :meth:`Network.block_forest`, which is built
    once per network: a check takes linear time.
    """
    return _kept(_feasibility, zbus, net.line(faulted_line_id), net, placement)


def _kept(derive, zbus, line: LineRecord, net: Network, placement: Placement):
    """``derive(zbus, line, net, placement)``, kept with the line's table on ``zbus`` if any."""
    kept, key = {} if zbus is None else zbus.faulted_line(line)[3], (derive, id(net), placement)
    entry = kept.get(key)
    if entry is None:
        entry = kept[key] = (derive(zbus, line, net, placement), net)  # net keeps its id taken
    return entry[0]


def _feasibility(zbus, line: LineRecord, net: Network, placement: Placement) -> tuple[bool, str]:
    sources = _sources(net, placement)
    if (line, "") in sources:
        return False, _OWN_CURRENT.format(line.id)
    # The rank test is the decisive physical condition for placements with a
    # current channel, so its verdict names the reason when both tests fail.
    if any(isinstance(s, tuple) for s in sources):
        if _kept(_placement_laws, zbus or build_zbus(net, 1), line, net, placement)[2]:
            return False, _DEPENDENT

    index = net.bus_index  # raises CaseError on unknown measurement buses
    starts, goals = (
        [index(s[0].from_bus), index(s[0].to_bus)] if isinstance(s, tuple) else [index(s)]
        for s in sources
    )
    parent, depth, line_block = net.block_forest()
    block = line_block[line.id]
    if not any(_on_tree_path(parent, depth, block, a, b) for a in starts for b in goals):
        return False, f"no simple path through line {line.id!r} joins the measurement locations"
    return True, "ok"


def _on_tree_path(parent: list[int], depth: list[int], node: int, a: int, b: int) -> bool:
    """Whether block ``node`` lies on the path between buses ``a`` and ``b``
    in the block-cut forest (never, when a == b): walk up from the deeper
    end until both ends meet."""
    crossed = False
    while a != b:
        a, b = (a, b) if depth[a] >= depth[b] else (b, a)
        crossed = crossed or a == node
        a = parent[a]
        if a < 0:
            return False  # a and b lie in different trees
    return crossed or a == node


def percent_error(actual_km: float, estimated_km: float, line_length_km: float) -> float:
    """Location error as a percentage of the faulted line's total length."""
    if line_length_km <= 0:
        raise ValueError(f"line length must be positive, got {line_length_km}")
    return 100.0 * abs(actual_km - estimated_km) / line_length_km


# ---------------------------------------------------------------------------
# Placement-driven estimates
# ---------------------------------------------------------------------------


def _sources(net: Network, placement: Placement) -> list:
    """What the placement's channels measure: a bus, or a line and terminal parsed by
    :meth:`Network.channel` before any set is read, so that a malformed current id
    is not reported as one a set lacks."""
    return [net.channel(i) if kind == "branchI" else i for kind, i in placement.channels]


def _channels(placement: Placement, method: Method):
    """The placement's two channels, of the kinds ``method`` divides."""
    channels = placement.channels
    if (kinds := (channels[0][0], channels[1][0])) != _KINDS[method]:
        raise TypeError(
            f"{method.value} needs channel kinds {_KINDS[method]}, the placement has {kinds}"
        )
    return channels


def _placement_laws(zbus: SequenceZbus, line: Lines, net: Network, placement: Placement):
    """``(numer_law, denom_law, never)`` under a fault on ``line``, ``never`` where
    the laws cannot judge: they are dependent, or a channel reads the line's own
    current, which no instrument reads (``ValueError`` for one such line)."""
    sources = _sources(net, placement)
    own = [s[0].id for s in sources if isinstance(s, tuple) and not s[1]]
    if isinstance(line, LineRecord) and line.id in own:
        raise ValueError(_OWN_CURRENT.format(line.id))
    numer, denom = (
        branch_coefficients(zbus, line, s) if isinstance(s, tuple)
        else transfer_coefficients(zbus, line, s)
        for s in sources
    )
    never = _dependent(numer, denom)
    if not isinstance(line, LineRecord):
        never |= np.isin(line[2], own)
    return numer, denom, never


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
    method divides, and ``ValueError`` when it reads the faulted line's own
    current.  The two laws are kept with the line's table on ``zbus``; each
    call reads the two changes and solves, and raises, as :func:`locate` does.
    """
    line, (numer, denom) = net.line(faulted_line_id), _channels(placement, method)
    laws = _kept(_placement_laws, zbus, line, net, placement)
    return _solve(method, laws, _change(ms, *numer), _change(ms, *denom), denom[1])


def _change(ms: PhasorMeasurementSet, kind: str, ident) -> complex:
    """A channel's positive-sequence change in ``ms``, as :attr:`Channel.delta`."""
    if kind == "busV":
        return ms.fault_bus_v[ident][1] - ms.prefault_bus_v[ident]
    return ms.fault_branch_i[ident][1] - ms.prefault_branch_i[ident]


def rank_line_hypotheses(
    net: Network,
    ms: PhasorMeasurementSet,
    placement: Placement,
    method: Method,
    zbus: SequenceZbus | None = None,
) -> Sequence[tuple[str, LocationEstimate]]:
    """Run the estimator against every line hypothesis, best first.

    Every hypothesis is solved in one pass: the two channel laws of all
    lines, kept per placement in :meth:`SequenceZbus.table`, are laws of
    arrays and the ratio is solved as array expressions, with the checks of
    :func:`locate`.
    Hypotheses that those checks reject are skipped: all of them when the
    denominator channel is degenerate, one line when its two laws are
    dependent or its ratio does not depend on m.  So is the line whose own
    current a channel reads, which is no channel while that line is
    faulted; a terminal channel takes its terminal law there instead.

    Hypotheses yielding an in-range estimate sort ahead of out-of-range
    ones, then by residual, ties in ``net.lines`` order.  Returns a read-only
    sequence of ``(line_id, LocationEstimate)``, each built when it is read,
    equal to the list of its entries.  ``hybrid-quad`` raises ``ValueError``:
    its magnitude-only quadratic solves to residual 0 on most wrong lines.
    """
    if method == Method.HYBRID_QUAD:
        raise ValueError(
            "hybrid-quad cannot rank lines: its magnitude-only quadratic solves"
            " to residual 0 on most wrong lines, so it ranks a wrong line first"
        )
    zbus = zbus if zbus is not None else build_zbus(net, 1)
    channels = _channels(placement, method)
    _, ids, numer, denom = zbus.table((id(net), placement), _rank_table, net, placement)
    try:
        ratio = _ratio(*(_change(ms, *channel) for channel in channels), channels[1][1])
    except DegenerateChannelError:
        return _Ranking(method, (), ())

    num, den, singular = _ratio_terms(numer, denom, ratio)
    keep = np.flatnonzero(~singular)
    m_complex = num[keep] / den[keep]
    m = m_complex.real
    out = ~((-RANGE_SLACK <= m) & (m <= 1.0 + RANGE_SLACK))
    order = np.lexsort((np.abs(m_complex.imag), out))
    return _Ranking(method, ids[keep[order]], m_complex[order])


def _rank_table(zbus: SequenceZbus, net: Network, placement: Placement) -> tuple:
    """``(net, ids, numer_law, denom_law)``: the ids of the lines whose two laws
    can judge, in ``net.lines`` order, and those laws of arrays."""
    p, q, ids = net.line_end_indices()
    order = np.array([zbus.index(b) for b in net.buses], dtype=np.intp)
    numer, denom, never = _placement_laws(zbus, (order[p], order[q], ids), net, placement)
    live = np.flatnonzero(~never)
    return net, ids[live], *(LinearLaw(law.b[live], law.c[live]) for law in (numer, denom))


class _Ranking(Sequence):
    """Ranked hypotheses held as arrays, best first: their line ids and
    complex solutions for m.  An entry is built when it is read."""

    def __init__(self, method: Method, ids: np.ndarray, m_complex: np.ndarray):
        self._method, self._ids, self._m_complex = method, ids, m_complex

    def __len__(self) -> int:
        return len(self._ids)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return _Ranking(self._method, self._ids[i], self._m_complex[i])
        return str(self._ids[i]), _estimate(complex(self._m_complex[i]), self._method)

    def __eq__(self, other):
        if isinstance(other, (list, _Ranking)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return repr(list(self))
