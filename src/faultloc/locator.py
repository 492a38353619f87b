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
measure, and the other entries take the caller's positive-sequence matrix
and read those channels' laws under a fault on each line, and every verdict,
from one table per (matrix, network, placement).  Ranking solves and orders
as arrays, builds an entry only when it is read, and refuses ``hybrid-quad``.
All estimators consume positive-sequence phasors only and need no
fault-type or phase-selection information.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, replace
from enum import Enum
from itertools import product

import math

import numpy as np

from .faultsim import PhasorMeasurementSet
from .netmodel import Network
from .seqmatrix import (
    LinearLaw,
    SequenceZbus,
    branch_coefficients,
    build_zbus,  # not called here; perfbench traces this import site
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
        raise ValueError(f"{method.value} expects channel kinds {_KINDS[method]}, got {kinds}")
    if numer.token and denom.token and numer.token != denom.token:
        raise ValueError(f"channels are not synchronized: tokens {numer.token!r} != {denom.token!r}")
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

    ambiguous, notes = False, ""
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
    net: Network, faulted_line_id: str, placement: Placement, zbus: SequenceZbus
) -> tuple[bool, str]:
    """Decide whether a placement can observe faults on the given line.

    Three conditions: no current channel is the faulted line's own current,
    which no instrument reads; for placements with a current channel the
    two channels' coefficient laws must not be proportional (numerical rank
    test); and a simple path must join the two measurement locations
    through the faulted line (a branch channel counts as sitting at either
    of its endpoints), which holds exactly when the line's block lies on a
    path between them in :meth:`Network.block_forest`.  Returns (feasible,
    reason), read from the placement's table on ``zbus``, the network's
    positive-sequence matrix, which decides every line at once on its first
    check.
    """
    k = net.line_index(faulted_line_id)
    return _laws(zbus, net, placement).verdict(k)


def _verdict(line_id: str, own: bool, dependent: bool, on_path: bool) -> tuple[bool, str]:
    if own:
        return False, _OWN_CURRENT.format(line_id)
    if dependent:  # the decisive physical condition, so it names the reason first
        return False, _DEPENDENT
    if not on_path:
        return False, f"no simple path through line {line_id!r} joins the measurement locations"
    return True, "ok"


def _path_nodes(net: Network, sources: list) -> set[int]:
    """The block-cut forest nodes on the paths between the two channels'
    locations: each walks up from its deeper end until both ends meet, and
    counts for nothing if they never do (they lie in different trees)."""
    parent, depth, _ = net.block_forest()
    index = net.bus_index
    starts, goals = (
        [index(s[0].from_bus), index(s[0].to_bus)] if isinstance(s, tuple) else [index(s)]
        for s in sources
    )
    nodes: set[int] = set()
    for a, b in product(starts, goals):
        path = []
        while a != b and a >= 0:
            a, b = (a, b) if depth[a] >= depth[b] else (b, a)
            path.append(a)
            a = parent[a]
        if a >= 0:
            nodes.update(path, (a,))
    return nodes


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
    is not reported as one a set lacks, nor an unknown bus as one a matrix lacks."""
    return [
        net.channel(i) if kind == "branchI" else net.buses[net.bus_index(i)]
        for kind, i in placement.channels
    ]


def _channels(placement: Placement, method: Method):
    """The placement's two channels, of the kinds ``method`` divides."""
    channels = placement.channels
    if (kinds := (channels[0][0], channels[1][0])) != _KINDS[method]:
        raise TypeError(
            f"{method.value} needs channel kinds {_KINDS[method]}, the placement has {kinds}"
        )
    return channels


def _laws(zbus: SequenceZbus, net: Network, placement: Placement) -> _PlacementLaws:
    """The placement's table on ``zbus``, built on first use."""
    return zbus.table((id(net), placement), _PlacementLaws, net, placement)


class _PlacementLaws:
    """A placement's two channel laws, as laws of arrays over ``net.lines``, with
    masks of the lines where they cannot judge: ``own`` where a channel reads
    the faulted line's own current, ``dependent`` where the laws are
    proportional, and ``never`` where either holds.  One line's laws, and
    every line's verdict, are built when first read."""

    def __init__(self, zbus: SequenceZbus, net: Network, placement: Placement):
        self.net, self.sources = net, _sources(net, placement)  # net keeps its id taken
        p, q, ids = net.line_end_indices()
        order = np.array([zbus.index(b) for b in net.buses], dtype=np.intp)
        lines = (order[p], order[q], ids)
        self.numer, self.denom = (
            (branch_coefficients if isinstance(s, tuple) else transfer_coefficients)(zbus, lines, s)
            for s in self.sources
        )
        own = [s[0].id for s in self.sources if isinstance(s, tuple) and not s[1]]
        self.own = np.isin(ids, own)
        self.dependent = _dependent(self.numer, self.denom)
        self.never = self.own | self.dependent
        self._rows, self._verdicts = [None] * len(ids), None

    def laws(self, k: int) -> tuple[LinearLaw, LinearLaw, bool]:
        """Line k's ``(numer_law, denom_law, dependent)`` in ``complex``; raises
        ``ValueError`` when a channel reads line k's own current."""
        row = self._rows[k]
        if row is None:
            if self.own[k]:
                raise ValueError(_OWN_CURRENT.format(self.net.lines[k].id))
            laws = [LinearLaw(complex(w.b[k]), complex(w.c[k])) for w in (self.numer, self.denom)]
            row = self._rows[k] = (*laws, bool(self.dependent[k]))
        return row

    def verdict(self, k: int) -> tuple[bool, str]:
        """Line k's :func:`feasibility_check` verdict."""
        if self._verdicts is None:
            nodes = _path_nodes(self.net, self.sources)
            currents = any(isinstance(s, tuple) for s in self.sources)
            masks = (self.own.tolist(), self.dependent.tolist(), self.net.block_forest()[2])
            self._verdicts = [
                _verdict(rec.id, own, currents and dependent, block in nodes)
                for rec, own, dependent, block in zip(self.net.lines, *masks)
            ]
        return self._verdicts[k]


def estimate_for_placement(
    net: Network,
    zbus: SequenceZbus,
    faulted_line_id: str,
    placement: Placement,
    ms: PhasorMeasurementSet,
    method: Method,
) -> LocationEstimate:
    """Read the placement's channels and their laws, and :func:`locate`.

    The faulted line here is a hypothesis; an out-of-range result indicates
    it is wrong.  Raises ``TypeError`` when the placement does not measure
    the channel kinds the method divides, and ``ValueError`` when it reads
    the faulted line's own current.  The laws come from the placement's
    table on ``zbus``; each call reads the two changes and solves, and
    raises, as :func:`locate` does.
    """
    k, (numer, denom) = net.line_index(faulted_line_id), _channels(placement, method)
    laws = _laws(zbus, net, placement).laws(k)
    return _solve(method, laws, _change(ms, *numer), _change(ms, *denom), denom[1])


def _change(ms: PhasorMeasurementSet, kind: str, ident) -> complex:
    """A channel's positive-sequence change in ``ms``, as :attr:`Channel.delta`."""
    if kind == "busV":
        return ms.fault_bus_v[ident][1] - ms.prefault_bus_v[ident]
    return ms.fault_branch_i[ident][1] - ms.prefault_branch_i[ident]


def rank_line_hypotheses(
    net: Network, ms: PhasorMeasurementSet, placement: Placement, method: Method, zbus: SequenceZbus
) -> Sequence[tuple[str, LocationEstimate]]:
    """Run the estimator against every line hypothesis, best first.

    Every hypothesis is solved in one pass, as array expressions over the
    placement's table of laws on ``zbus``, the network's positive-sequence
    matrix, with the checks of :func:`locate`.
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
    channels = _channels(placement, method)
    laws = _laws(zbus, net, placement)
    try:
        ratio = _ratio(*(_change(ms, *channel) for channel in channels), channels[1][1])
    except DegenerateChannelError:
        return _Ranking(method, (), ())

    num, den, singular = _ratio_terms(laws.numer, laws.denom, ratio)
    keep = np.flatnonzero(~(singular | laws.never))
    m_complex = num[keep] / den[keep]
    m = m_complex.real
    out = ~((-RANGE_SLACK <= m) & (m <= 1.0 + RANGE_SLACK))
    order = np.lexsort((np.abs(m_complex.imag), out))
    return _Ranking(method, net.line_end_indices()[2][keep[order]], m_complex[order])


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
