"""Per-sequence bus impedance matrices and fault-position coefficient laws.

The bus impedance matrix is the inverse of the nodal admittance matrix built
from the series lines plus each source's internal impedance as a shunt to the
reference node.  For a prospective fault at normalized position ``m`` on a
line p-q, two law types describe how the network responds without ever
rebuilding the matrix:

* :class:`LinearLaw` ``b + c*m``: the transfer impedance from any bus k to
  the fault point, and the current-division sensitivity of any current
  channel, a line's current or the current one of its terminals feeds into
  it (the difference of its end buses' transfer laws over its impedance,
  shifted by the fault's share at a terminal of the faulted line).  Every
  estimator solves a ratio of two of these, and only
  :func:`transfer_coefficients` and :func:`branch_coefficients` build them,
  for one line or many (:data:`Lines`).
* :class:`FaultPointCoefficients` ``a0 + a1*m + a2*m**2``: the
  driving-point impedance at the fault point, which sets the fault current.

A one-line law is the many-lines law of that line alone, memoised on its
:class:`SequenceZbus` for one faulted line at a time.  Only the pre-fault
solve (``Z1 @ J``) reads :attr:`SequenceZbus.z` outside this module.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .netmodel import LineRecord, Network

__all__ = [
    "UngroundedNetworkError",
    "IllConditionedNetworkError",
    "SequenceZbus",
    "LinearLaw",
    "FaultPointCoefficients",
    "build_ybus",
    "build_zbus",
    "transfer_coefficients",
    "branch_coefficients",
    "fault_point_coefficients",
]

#: Networks whose admittance matrix condition number exceeds this are rejected.
CONDITION_LIMIT = 1e12

#: The fewest buses in a block of :func:`build_zbus`'s inverse.
MIN_BLOCK = 64

#: A law's faulted line: one :class:`LineRecord`, for a law of two ``complex``,
#: or many lines, as the Z indices ``(p, q)`` of their ends and their ids,
#: for a law of arrays.
Lines = LineRecord | tuple[np.ndarray, np.ndarray, np.ndarray]


class UngroundedNetworkError(ValueError):
    """The network has no finite impedance path to the reference node."""


class IllConditionedNetworkError(ValueError):
    """The admittance matrix is too ill-conditioned to invert reliably."""


@dataclass(frozen=True)
class SequenceZbus:
    """Dense bus impedance matrix for one sequence network.

    ``z[j, k]`` is the voltage at bus ``bus_order[j]`` per unit current
    injected at bus ``bus_order[k]``, reference node implicit.  ``z`` is
    exactly symmetric, Y inverted by blocks with no pivoting between them,
    which is stable as Re Y is positive definite when resistances are positive
    (Higham 1998).  It is read-only, because studies share one array between
    sequences whose admittance matrices are equal.  ``condition`` is Y's
    1-norm condition number, the one :func:`build_zbus` checks.  One-line
    laws are memoised in a field that equality and ``repr`` ignore; every
    instance, a ``dataclasses.replace`` copy too, starts with its own.
    """

    sequence: int
    z: np.ndarray
    bus_order: tuple[int, ...]
    condition: float
    _index: dict[int, int] = field(init=False, repr=False, compare=False)
    _laws: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.z.setflags(write=False)
        object.__setattr__(
            self, "_index", {label: i for i, label in enumerate(self.bus_order)}
        )

    def index(self, bus: int) -> int:
        try:
            return self._index[bus]
        except KeyError:
            raise ValueError(
                f"bus {bus} is not in the sequence-{self.sequence} matrix"
            ) from None

    def at(self, bus_j: int, bus_k: int) -> complex:
        return complex(self.z[self.index(bus_j), self.index(bus_k)])


@dataclass(frozen=True)
class LinearLaw:
    """A law ``at(m) = b + c*m`` in the normalized fault position m.

    m is measured along the faulted line from its from-bus.  ``b`` and ``c``
    are complex numbers, or equal-shape arrays of them holding one law per
    hypothesised faulted line.
    """

    b: complex
    c: complex

    def at(self, m: float) -> complex:
        return self.b + self.c * m


@dataclass(frozen=True)
class FaultPointCoefficients:
    """Quadratic law for the driving-point impedance at the fault point.

    ``z_at(m) = a0 + a1*m + a2*m**2``; at m=0 and m=1 it reduces to the
    diagonal entries of the two line terminals.
    """

    a0: complex
    a1: complex
    a2: complex

    def z_at(self, m: float) -> complex:
        return self.a0 + (self.a1 + self.a2 * m) * m


def build_ybus(net: Network, sequence: int) -> np.ndarray:
    """Assemble the nodal admittance matrix for one sequence network."""
    if sequence not in (0, 1, 2):
        raise ValueError(f"sequence must be 0, 1 or 2, got {sequence}")
    n = net.n
    y = np.zeros((n, n), dtype=complex)
    p, q, _ = net.line_end_indices()
    ys = np.array([1.0 / rec.z(sequence) for rec in net.lines], dtype=complex)
    # Line by line, +ys at (p, p), (q, q) and -ys at (p, q), (q, p): a loop's rounding.
    rows, cols = np.stack([p, q, p, q], axis=1), np.stack([p, q, q, p], axis=1)
    np.add.at(y, (rows, cols), np.stack([ys, ys, -ys, -ys], axis=1))
    for src in net.sources:
        j = net.bus_index(src.bus)
        y[j, j] += 1.0 / src.z(sequence)
    return y


def build_zbus(net: Network, sequence: int) -> SequenceZbus:
    """Invert the sequence admittance matrix into a bus impedance matrix.

    Y is block tridiagonal over :func:`_level_blocks`: a forward pass inverts
    one Schur complement per block, a backward pass fills Z by row blocks,
    ``Z[i, j>i] = -inv_i Y[i, i+1] Z[i+1, j]``, mirrored so that Z is exactly
    symmetric.  Nothing is pivoted between blocks, which is stable because Re Y
    is positive definite with positive resistances (Higham 1998, complex
    symmetric matrices).  Fewer than ``2 * MIN_BLOCK`` buses make one block,
    found without a BFS: ``np.linalg.inv(y)``, symmetrised.

    Raises :class:`UngroundedNetworkError` when Y is singular (some bus has
    no path to the reference) and :class:`IllConditionedNetworkError` when its
    1-norm condition number ``||Y||_1 * ||Z||_1``, from the Z in hand rather
    than a second factorisation, exceeds :data:`CONDITION_LIMIT`.
    """
    if not net.sources:
        raise UngroundedNetworkError("network has no sources")
    y = build_ybus(net, sequence)
    norm_y, n = np.linalg.norm(y, 1), net.n
    order, spans = _level_blocks(net) if n >= 2 * MIN_BLOCK else (None, [(0, n, n)])
    inv, right = [], []  # per block: its Schur complement's inverse, that times Y[i, i+1]
    try:
        for i, (a, b, c) in enumerate(spans):  # block row i holds Y[i, i] and Y[i, i+1]
            rows = y if len(spans) == 1 else y[np.ix_(order[a:b], order[a:c])]
            s = rows[:, : b - a]
            inv.append(np.linalg.inv(s - link.T @ right[-1] if i else s))
            link = rows[:, b - a :]
            right.append(inv[i] @ link)
    except np.linalg.LinAlgError as exc:
        raise UngroundedNetworkError(
            f"sequence-{sequence} network is singular: {exc}"
        ) from None
    del y, rows, s  # Z takes their place
    z = np.empty((n, n), dtype=complex)
    for (a, b, c), g, w in reversed(list(zip(spans, inv, right))):
        row = -(w @ z[b:c, b:])
        z[a:b, b:], z[b:, a:b] = row, row.T
        g = g - w @ z[b:c, a:b]
        z[a:b, a:b] = 0.5 * (g + g.T)
    if len(spans) > 1:
        back = np.argsort(order)
        z = z[np.ix_(back, back)]
    cond = norm_y * np.linalg.norm(z, 1)
    if not np.isfinite(cond) or cond > CONDITION_LIMIT:
        raise IllConditionedNetworkError(
            f"sequence-{sequence} admittance matrix condition {cond:.3e}"
            f" exceeds {CONDITION_LIMIT:.0e}"
        )
    return SequenceZbus(sequence=sequence, z=z, bus_order=net.buses, condition=float(cond))


def _level_blocks(net: Network) -> tuple[np.ndarray, list[tuple[int, int, int]]]:
    """Bus indices in block order and each block's (start, end, next block's end).
    A block is a run of whole BFS levels (each island's from its first bus) of at
    least :data:`MIN_BLOCK` buses, ascending; a line joins it to itself or the next."""
    adj: list[list[int]] = [[] for _ in net.buses]
    for a, b in zip(*(ends.tolist() for ends in net.line_end_indices()[:2])):
        adj[a].append(b)
        adj[b].append(a)
    level = np.full(net.n, -1)
    for root in (r for r in range(net.n) if level[r] < 0):
        depth, frontier = 0, [root]
        while frontier:
            level[frontier], depth = depth, depth + 1
            frontier = list(dict.fromkeys(w for v in frontier for w in adj[v] if level[w] < 0))
    ends = np.cumsum(np.bincount(level))  # where each level ends, in level order
    cut = [0]
    for end in ends.tolist():
        if end - cut[-1] >= MIN_BLOCK:
            cut.append(end)
    cut[max(len(cut) - 1, 1):] = [net.n]  # a short last run joins the block before
    block = (np.searchsorted(cut, ends) - 1)[level]
    return np.argsort(block, kind="stable"), list(zip(cut, cut[1:], cut[2:] + [net.n]))


def _memo(zbus: SequenceZbus, line: LineRecord, key: tuple, build, *args):
    """``build(zbus, line, *args)``, built once per matrix, ``line`` and ``key``
    while ``line`` is the last faulted line asked about (a build that raises
    is not kept).  The key names what else it reads, records and networks by
    ``id``; those stay taken, as the memo keeps ``line`` and the ``args``."""
    laws = zbus._laws
    if laws.get(None) is not line:
        laws.clear()
        laws[None] = line
    hit = laws.get(key)
    if hit is None:
        hit = laws[key] = (build(zbus, line, *args), args)
    return hit[0]


def _one_line(zbus: SequenceZbus, line: LineRecord, law_of, source) -> LinearLaw:
    """The many-lines law of ``line`` alone, as a law of two ``complex``."""
    p, q = zbus.index(line.from_bus), zbus.index(line.to_bus)
    law = law_of(zbus, (np.array([p]), np.array([q]), np.array([line.id])), source)
    return LinearLaw(complex(law.b[0]), complex(law.c[0]))


def transfer_coefficients(zbus: SequenceZbus, line: Lines, bus: int) -> LinearLaw:
    """Transfer impedance law from ``bus`` to a fault anywhere on ``line``."""
    if isinstance(line, LineRecord):
        key = (transfer_coefficients, bus)
        return _memo(zbus, line, key, _one_line, transfer_coefficients, bus)
    k = zbus.index(bus)
    zp, zq = zbus.z[line[0], k], zbus.z[line[1], k]
    return LinearLaw(zp, zq - zp)


def branch_coefficients(
    zbus: SequenceZbus, faulted_line: Lines, branch: LineRecord | tuple[LineRecord, str]
) -> LinearLaw:
    """Current-change law for a current channel under a fault on ``faulted_line``.

    ``branch`` is a channel as :meth:`Network.channel` returns it: a line
    and a terminal, ``""`` for the line's current or ``"from"``/``"to"``
    for the current that end's terminal feeds into the line.  A bare line
    stands for its current.  ``at(m)`` gives the share of the fault current
    that the channel sheds: its during-fault current is the pre-fault
    current minus ``at(m)`` times the fault current.  A line's current
    flows from-bus -> to-bus, and its law ``t`` is the voltage difference
    of its ends over its impedance; a ``@to`` terminal feeds ``-t``.

    On the faulted line itself ``t`` is the through current, which neither
    terminal feeds while the fault draws current: the ``@from`` terminal
    feeds ``t - (1 - m)`` and the ``@to`` terminal ``-t - m``, neither of
    which divides by a segment's vanishing length.  For many lines that
    shift goes to the channel's own line only.  The line's current keeps
    ``t``, which no instrument reads; callers refuse it or skip that line.
    """
    rec, end = (branch, "") if isinstance(branch, LineRecord) else branch
    if isinstance(faulted_line, LineRecord):
        key = (branch_coefficients, id(rec), end)
        return _memo(zbus, faulted_line, key, _one_line, branch_coefficients, (rec, end))
    zb = rec.z(zbus.sequence)
    if abs(zb) == 0.0:
        raise ValueError(f"branch {rec.id!r} has zero impedance")
    ck = transfer_coefficients(zbus, faulted_line, rec.from_bus)
    cl = transfer_coefficients(zbus, faulted_line, rec.to_bus)
    b, c = _divide(ck.b - cl.b, zb), _divide(ck.c - cl.c, zb)
    if not end:
        return LinearLaw(b, c)
    own = (faulted_line[2] == rec.id).astype(float)
    if end == "from":
        return LinearLaw(b - own, c + own)
    return LinearLaw(-b, -c - own)


def _divide(a: np.ndarray, b: complex) -> np.ndarray:
    """``a / b`` rounded as Python's complex division (Smith's method), not as
    numpy's reciprocal product, so that laws keep the bits of ``complex``
    arithmetic: the hybrid quadratic's off-axis residual would turn one bit
    into a change near 1e-8.
    """
    if abs(b.real) >= abs(b.imag):
        ratio = b.imag / b.real
        denom = b.real + b.imag * ratio
        real, imag = a.real + a.imag * ratio, a.imag - a.real * ratio
    else:
        ratio = b.real / b.imag
        denom = b.real * ratio + b.imag
        real, imag = a.real * ratio + a.imag, a.imag * ratio - a.real
    out = (real / denom).astype(complex)
    out.imag = imag / denom
    return out


def fault_point_coefficients(zbus: SequenceZbus, line: LineRecord) -> FaultPointCoefficients:
    """Driving-point impedance law at a fault anywhere on ``line``.

    This is the unique quadratic that matches an explicit tap-bus rebuild of
    the matrix at every m: the two segments carry the fault current in a
    loop, so the m=0/m=1 diagonal entries pin the ends and the line's own
    impedance fixes the curvature.
    """
    return _memo(zbus, line, (fault_point_coefficients,), _fault_point)


def _fault_point(zbus: SequenceZbus, line: LineRecord) -> FaultPointCoefficients:
    zpp = zbus.at(line.from_bus, line.from_bus)
    zqq = zbus.at(line.to_bus, line.to_bus)
    zpq = zbus.at(line.from_bus, line.to_bus)
    zl = line.z(zbus.sequence)
    return FaultPointCoefficients(
        a0=zpp,
        a1=2.0 * (zpq - zpp) + zl,
        a2=zpp + zqq - 2.0 * zpq - zl,
    )
