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

Placements name the two channels they measure as ``(kind, id)`` pairs, each
read from one measurement set by :func:`voltage_channel` or
:func:`current_channel`.  The public entries take the caller's
positive-sequence matrix and read those channels' laws under a fault on
each line, and every verdict, from one table per (matrix, network,
placement); a method may be given by name.  One solve serves every
estimate: it reads each row's ratio in Python and solves the rows as arrays
rounded as Python's complex arithmetic rounds, so a sweep's rows and a lone
estimate agree bit for bit; :func:`locate` is that solve on laws the caller
gives.  Ranking solves as arrays, orders in-range hypotheses on the call and
the rest on the first read past them, builds an entry when it is read, and
refuses ``hybrid-quad``.  All estimators consume positive-sequence phasors
only and need no fault-type or phase-selection information.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import product

import numpy as np

from .faultsim import PhasorMeasurementSet
from .netmodel import Network
from .seqmatrix import (
    LinearLaw,
    SequenceZbus,
    branch_coefficients,
    _divide,
    build_zbus,  # not called here; perfbench traces this import site
    transfer_coefficients,
)

__all__ = [
    "DegenerateChannelError", "LinearDependenceError", "Method", "LocationEstimate", "VoltagePlacement",
    "CurrentPlacement", "HybridPlacement", "estimate_for_placement", "feasibility_check",
    "percent_error", "rank_line_hypotheses",
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
_KINDS = {Method.SSVM: ("busV", "busV"), Method.SSCM: ("branchI", "branchI"),
          Method.HYBRID_DIRECT: ("branchI", "busV"), Method.HYBRID_QUAD: ("branchI", "busV")}


def voltage_channel(ms: PhasorMeasurementSet, bus: int) -> complex:
    """A bus voltage's positive-sequence change in a measurement set."""
    return ms.fault_bus_v[bus][1] - ms.prefault_bus_v[bus]


def current_channel(ms: PhasorMeasurementSet, channel_id: str) -> complex:
    """A line or line-terminal current's positive-sequence change in a measurement set."""
    return ms.fault_branch_i[channel_id][1] - ms.prefault_branch_i[channel_id]


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
        return _in_range(self.m)


def _in_range(m):
    """Whether ``m`` lies in [0, 1] up to :data:`RANGE_SLACK`; elementwise over arrays."""
    return (-RANGE_SLACK <= m) & (m <= 1.0 + RANGE_SLACK)


def locate(
    method: Method, ms: PhasorMeasurementSet, placement: Placement,
    numer_law: LinearLaw, denom_law: LinearLaw,
) -> LocationEstimate:
    """:func:`estimate_for_placement` on laws the caller gives: ``numer_law`` and
    ``denom_law`` give each channel's change per unit fault current for a fault
    on the hypothesized line, so that the changes' ratio equals
    ``numer_law.at(m) / denom_law.at(m)``.  A current channel on the faulted
    line must be one of its terminals: the line's own current is no channel there.
    """
    method = Method(method)
    laws = [LinearLaw(np.array([w.b], complex), np.array([w.c], complex)) for w in (numer_law, denom_law)]
    laws.append(np.array([_dependent(numer_law, denom_law)]))
    return _first(method, _solve(method, laws, [0], [ms], _channels(placement, method)))


def _first(method: Method, solved) -> LocationEstimate:
    """The first row of :func:`_solve`'s result: its estimate, or its error raised."""
    m, residual, ambiguous, errors = solved
    if errors[0] is not None:
        raise errors[0]
    return _estimate(float(m[0]), method, float(residual[0]), bool(ambiguous[0]))


def _solve(method: Method, laws, k, sets, channels):
    """Arrays of m, residual and ambiguity, and each row's error or ``None``:
    row i reads its ratio r from ``sets[i]`` in Python and solves it against
    line ``k[i]`` of ``laws``, ``(numer, denom, dependent)`` over lines, as
    ``m = (b_k - r*b_l) / (r*c_l - c_k)`` or by the quadratic, rounding as
    Python's complex arithmetic does (:func:`_times`, ``_divide``)."""
    numer, denom, dependent = laws
    k, ratios, errors = np.asarray(k, dtype=np.intp), [], []
    for ms, dep in zip(sets, dependent[k].tolist()):
        try:
            if dep:
                raise LinearDependenceError(_DEPENDENT)
            ratios.append(_ratio(ms, channels))
            errors.append(None)
        except (DegenerateChannelError, LinearDependenceError) as exc:
            ratios.append(1.0)
            errors.append(exc)
    r, nc = np.array(ratios, dtype=complex), numer.c[k]
    rc = _times(r, denom.c[k])
    den, scale = rc - nc, np.hypot(rc.real, rc.imag) + np.hypot(nc.real, nc.imag)
    singular = (scale == 0.0) | (np.hypot(den.real, den.imag) <= SOLVE_TOLERANCE * scale)
    direct = _divide(numer.b[k] - _times(r, denom.b[k]), den)
    if method is Method.HYBRID_QUAD:
        d2, near = [abs(x) ** 2 for x in ratios], np.where(singular, 0.5, direct.real)
        m, residual, ambiguous, failed = _quadratic(numer, denom, k, d2, near)
    else:
        m, residual, ambiguous = direct.real, np.abs(direct.imag), np.zeros(len(k), bool)
        failed = [(singular, "channel responses are proportional; the ratio does not depend on"
                             " the fault position")]
    for mask, message in failed:
        for i in np.flatnonzero(mask).tolist():
            errors[i] = errors[i] or LinearDependenceError(message)
    return m, residual, ambiguous, errors


def _times(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a * b`` elementwise, rounded as Python's complex product, not numpy's."""
    out = (a.real * b.real - a.imag * b.imag).astype(complex)
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _ratio(ms: PhasorMeasurementSet, channels) -> complex:
    """The ratio of the two channels' changes in ``ms``: the locator's only
    channel reads, each by :func:`voltage_channel` or :func:`current_channel`."""
    (numer_kind, numer_id), (denom_kind, denom_id) = channels
    numer = (voltage_channel if numer_kind == "busV" else current_channel)(ms, numer_id)
    denom = (voltage_channel if denom_kind == "busV" else current_channel)(ms, denom_id)
    if abs(denom) < DEGENERACY_THRESHOLD:
        raise DegenerateChannelError(
            f"channel {str(denom_id)!r} change {abs(denom):.3e} pu is below"
            f" the observability threshold {DEGENERACY_THRESHOLD:g}"
        )
    return numer / denom


def _dependent(a: LinearLaw, b: LinearLaw):
    """Whether laws ``a`` and ``b`` are proportional, elementwise over laws of arrays."""
    det = a.b * b.c - a.c * b.b
    scale = (abs(a.b) + abs(a.c)) * (abs(b.b) + abs(b.c))
    return (scale == 0.0) | (abs(det) <= DEPENDENCE_TOLERANCE * scale)


def _estimate(m: float, method: Method, residual: float, ambiguous: bool = False) -> LocationEstimate:
    notes = ""
    if ambiguous:
        notes = "both roots in [0, 1]; tie broken toward the direct solution"
    elif not _in_range(m):
        what = "no root in [0, 1]" if method is Method.HYBRID_QUAD else "solution outside [0, 1]"
        notes = f"{what}; wrong faulted-line hypothesis?"
    return LocationEstimate(m, method, residual, ambiguous, notes)


def _quadratic(numer: LinearLaw, denom: LinearLaw, k: np.ndarray, d2: list, direct: np.ndarray):
    """Hybrid estimates from ``c2*m**2 + c1*m + c0 = 0``, the squared magnitudes
    of the ratio relation's sides equated, ``d2`` the squared ratio magnitude:
    the root in [0, 1]; of two, the one nearest ``direct`` (ambiguous); of
    none, the one nearest [0, 1].  The residual is the roots' distance off the
    real axis.  Law terms are summed in Python, whose ``x**2`` is ``pow``."""
    lines, rows = np.unique(k, return_inverse=True)

    def terms(law):  # per line read: |b|**2, Re(b*conj(c)) and |c|**2, then by row
        b, c = law.b[lines].tolist(), law.c[lines].tolist()
        bb, cc = [x.real**2 + x.imag**2 for x in b], [y.real**2 + y.imag**2 for y in c]
        bc = [x.real * y.real + x.imag * y.imag for x, y in zip(b, c)]
        return np.array([bb, bc, cc]).reshape(3, -1)[:, rows]
    (kbb, kbc, kcc), (lbb, lbc, lcc), d2 = terms(numer), terms(denom), np.array(d2)
    c2, c1, c0 = kcc - d2 * lcc, 2.0 * (kbc - d2 * lbc), kbb - d2 * lbb
    scale = np.maximum(np.maximum(np.abs(c2), np.abs(c1)), np.abs(c0))
    linear = np.abs(c2) <= SOLVE_TOLERANCE * scale
    disc = c1 * c1 - 4.0 * c2 * c0
    s, real = np.sqrt(np.abs(disc)), disc >= 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        r1 = np.where(linear, -c0 / c1, np.where(real, (-c1 + s) / (2.0 * c2), -c1 / (2.0 * c2)))
        r2 = np.where(linear | ~real, r1, (-c1 - s) / (2.0 * c2))
        off_axis = np.where(linear | real, 0.0, s / (2.0 * np.abs(c2)))
    in1, in2 = _in_range(r1), _in_range(r2)
    in2 &= r2 != r1  # a double root is one root
    outside = [np.maximum(np.maximum(0.0 - r, r - 1.0), 0.0) for r in (r1, r2)]
    near = np.abs(r1 - direct) <= np.abs(r2 - direct)
    pick = np.where(in1 & in2, near, in1 | ~in2 & (outside[0] <= outside[1]))
    failed = [(scale == 0.0, "all quadratic coefficients vanish"),
              (linear & (np.abs(c1) <= SOLVE_TOLERANCE * scale), "quadratic degenerates to a constant")]
    return np.where(pick, r1, r2), off_axis, in1 & in2, failed


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
    which no instrument reads; the two channels' coefficient laws must not
    be proportional (numerical rank test; an off-path voltage pair is refused
    as off the path); and a simple path must join the two measurement
    locations through the faulted line (a branch channel counts as sitting
    at either of its endpoints), which holds exactly when the line's block
    lies on a path between them in :meth:`Network.block_forest`.  Returns (feasible,
    reason), read from the placement's table on ``zbus``, the network's
    positive-sequence matrix, which decides every line at once on its first
    check.
    """
    k = net.line_index(faulted_line_id)
    return _laws(zbus, net, placement).verdicts[k]


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
    if np.any(np.asarray(line_length_km) <= 0):  # a float, or arrays elementwise
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
    the faulted line's own current, and ``dependent`` where the laws are
    proportional.  Its verdicts and ranking arrays are built on first read."""

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

    @cached_property
    def judged(self) -> tuple:
        """For ranking: the lines that can judge, in ``net.lines`` order, the
        numerator's ``b``, ``c`` and ``|c|`` there, and the denominator's ``(b, c)``."""
        k = np.flatnonzero(~(self.own | self.dependent))
        c = self.numer.c[k]
        return k, self.numer.b[k], c, np.abs(c), np.stack((self.denom.b[k], self.denom.c[k]))

    @cached_property
    def verdicts(self) -> list[tuple[bool, str]]:
        """Every line's :func:`feasibility_check` verdict, in ``net.lines`` order."""
        nodes = _path_nodes(self.net, self.sources)
        currents = any(isinstance(s, tuple) for s in self.sources)
        masks = (self.own.tolist(), self.dependent.tolist(), self.net.block_forest()[2])
        return [
            _verdict(rec.id, own, dependent and (currents or block in nodes), block in nodes)
            for rec, own, dependent, block in zip(self.net.lines, *masks)
        ]


def estimate_for_placement(
    net: Network, zbus: SequenceZbus, faulted_line_id: str, placement: Placement,
    ms: PhasorMeasurementSet, method: Method | str,
) -> LocationEstimate:
    """Fault position from the ratio of the placement's two changes in ``ms``,
    read against their laws in the placement's table on ``zbus``.

    The faulted line here is a hypothesis; an out-of-range result indicates
    it is wrong.  ``method`` is a :class:`Method` or its name.  Raises
    ``TypeError`` when the placement does not measure the channel kinds the
    method divides (two voltages for ssvm, two currents for sscm, current over
    voltage for the hybrids), ``ValueError`` for an unknown method or a channel
    reading the faulted line's own current, :class:`LinearDependenceError` when
    the two laws are proportional and :class:`DegenerateChannelError` when the
    denominator shows no fault signature.
    """
    method = method if type(method) is Method else Method(method)
    return _first(method, _estimates(net, zbus, [faulted_line_id], placement, [ms], method))


def _estimates(net: Network, zbus: SequenceZbus, line_ids, placement: Placement, sets, method: Method):
    """:func:`estimate_for_placement` for many rows at once, row i faulting
    ``line_ids[i]`` and reading ``sets[i]``: :func:`_solve`'s result."""
    k, channels = [net.line_index(i) for i in line_ids], _channels(placement, method)
    laws = _laws(zbus, net, placement)
    own = np.flatnonzero(laws.own[k])
    if own.size:
        raise ValueError(_OWN_CURRENT.format(line_ids[own[0]]))
    return _solve(method, (laws.numer, laws.denom, laws.dependent), k, sets, channels)


def rank_line_hypotheses(
    net: Network, ms: PhasorMeasurementSet, placement: Placement, method: Method | str,
    zbus: SequenceZbus,
) -> Sequence[tuple[str, LocationEstimate]]:
    """Run the estimator against every line hypothesis, best first.

    Every hypothesis is solved as arrays over the placement's table of laws
    on ``zbus``, the network's positive-sequence matrix, with the checks of
    :func:`locate`.  Those checks skip all hypotheses when the denominator
    channel is degenerate, and a line when its two laws are dependent or
    its ratio does not depend on m.  So is skipped the line whose own
    current a channel reads; a terminal channel takes its terminal law.

    In-range estimates sort ahead of out-of-range ones, then by residual,
    ties in ``net.lines`` order: the in-range ones are ordered on the call,
    the rest on the first read past them.  Returns a read-only sequence of
    ``(line_id, LocationEstimate)``, each built when it is read, equal to
    the list of its entries.  ``hybrid-quad`` raises ``ValueError``: its
    magnitude-only quadratic solves to residual 0 on most wrong lines.
    """
    method = method if type(method) is Method else Method(method)
    if method is Method.HYBRID_QUAD:
        raise ValueError(
            "hybrid-quad cannot rank lines: its magnitude-only quadratic solves"
            " to residual 0 on most wrong lines, so it ranks a wrong line first"
        )
    channels = _channels(placement, method)
    k, nb, nc, anc, denom = _laws(zbus, net, placement).judged
    try:
        ratio = _ratio(ms, channels)
    except DegenerateChannelError:
        return _Ranking(method, net, k[:0], nb[:0])
    rb, rc = ratio * denom
    den = rc - nc
    singular = abs(den) <= SOLVE_TOLERANCE * (abs(rc) + anc)  # so is a zero scale
    num = nb - rb
    if singular.any():
        k, num, den = k[~singular], num[~singular], den[~singular]
    return _Ranking(method, net, k, num / den)


class _Ranking(Sequence):
    """Ranked hypotheses as arrays: each row's position in ``net.lines`` and
    solution for m.  The in-range rows are ordered now, the rest on the first
    read past them; an entry, or a slice's list of them, is built when read."""

    def __init__(self, method: Method, net: Network, lines, m_complex):
        self._method, self._net, self._lines, self._m = method, net, lines, m_complex
        self._in_range = _in_range(m_complex.real)
        self._order = self._by_residual(self._in_range)

    def _by_residual(self, mask) -> np.ndarray:
        rows = np.flatnonzero(mask)
        return rows[np.argsort(np.abs(self._m.imag[rows]), kind="stable")]

    def _full(self) -> np.ndarray:
        if self._in_range is not None:  # order the out-of-range rows after the rest
            self._order = np.concatenate((self._order, self._by_residual(~self._in_range)))
            self._in_range = None
        return self._order

    @property
    def _ids(self) -> np.ndarray:
        return self._net.line_end_indices()[2][self._lines[self._full()]]

    @property
    def _m_complex(self) -> np.ndarray:
        return self._m[self._full()]

    def __len__(self) -> int:
        return len(self._m)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        row = (self._order if 0 <= i < len(self._order) else self._full())[i]
        m = complex(self._m[row])
        return self._net.lines[self._lines[row]].id, _estimate(m.real, self._method, abs(m.imag))

    def __eq__(self, other):
        return list(self) == list(other) if isinstance(other, (list, _Ranking)) else NotImplemented

    def __repr__(self) -> str:
        return repr(list(self))
