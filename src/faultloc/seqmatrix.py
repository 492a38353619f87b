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

Z is never held whole, only its factors and its diagonal and next blocks, from
which a bound on its 1-norm certifies Y's condition.  Z is symmetric, so the
simulator's laws of one faulted line read Z's two columns at the line's ends
(:meth:`SequenceZbus.faulted_line`), and the locator's laws of every line the
tapped bus's column (:meth:`SequenceZbus.column`), kept per placement in
:meth:`SequenceZbus.table`.  The pre-fault state is one block solve.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

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

#: The most tables :meth:`SequenceZbus.table` keeps, the oldest dropped first.
TABLES = 8

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
    """Bus impedance matrix Z of one sequence network, kept by blocks.

    ``Z[j, k]`` is the voltage at bus ``bus_order[j]`` per unit current
    injected at bus ``bus_order[k]``, reference node implicit.  ``_blocks``
    holds :func:`build_zbus`'s block starts, Z[i, i], Z[i, i+1] and factors,
    shared by sequences with equal Y; ``_pos`` gives each index's block
    position; ``_y_norm`` is ||Y||_1.  The last faulted line's table and the
    tables of :meth:`table` are fields that equality and ``repr`` ignore;
    each instance, a ``replace`` copy too, starts with its own.
    """

    sequence: int
    bus_order: tuple[int, ...]
    _pos: np.ndarray = field(repr=False, compare=False)
    _blocks: tuple = field(repr=False, compare=False)
    _y_norm: float = field(repr=False, compare=False)
    _index: dict[int, int] = field(init=False, repr=False, compare=False)
    _line: list = field(default_factory=list, init=False, repr=False, compare=False)
    _tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_index", {b: i for i, b in enumerate(self.bus_order)})

    @cached_property
    def condition(self) -> float:
        """Y's exact 1-norm condition number ``||Y||_1 * ||Z||_1``, on first read:
        Z's row blocks ``Z[i, i:] = [Z[i, i], -right_i Z[i+1, i+1:]]``, bottom up, add
        their |entries| to their rows' sums and, Z being symmetric, the rows' below."""
        starts, diag, _, right = self._blocks
        z_sum = np.zeros(len(self._pos))
        for i in reversed(range(len(diag))):
            a, b = starts[i], starts[i] + len(diag[i])
            row = diag[i] if i == len(right) else np.hstack((diag[i], -(right[i] @ row)))
            mag = np.abs(row)
            z_sum[a:b] += mag[:, b - a :].sum(axis=1) + mag[:, : b - a].sum(axis=0)
            z_sum[b:] += mag[:, b - a :].sum(axis=0)
        return self._y_norm * float(z_sum.max())

    def index(self, bus: int) -> int:
        try:
            return self._index[bus]
        except KeyError:
            raise ValueError(f"bus {bus} is not in the sequence-{self.sequence} matrix") from None

    def column(self, bus: int) -> np.ndarray:
        """Z's column of ``bus``: one block's stored column, else a unit injection's solve."""
        t, diag = int(self._pos[self.index(bus)]), self._blocks[1]
        if len(diag) == 1:
            return diag[0][:, t][self._pos]
        return self._substitute(np.eye(1, len(self._pos), t, dtype=complex)[0])[self._pos]

    def faulted_line(self, line: LineRecord) -> list:
        """``[line, zp, zq]``: Z's columns at ``line``'s ends as lists in Z order,
        kept for the last line asked about only."""
        if not self._line or self._line[0] is not line:
            ends = (line.from_bus, line.to_bus)
            self._line[:] = [line, *(self.column(b).tolist() for b in ends)]
        return self._line

    def table(self, key, build, *args):
        """``build(self, *args)``, kept while ``key`` is one of the last :data:`TABLES` built."""
        tables = self._tables
        table = tables.get(key)
        if table is None:
            table = tables[key] = build(self, *args)  # one that raises keeps nothing
            if len(tables) > TABLES:
                del tables[next(iter(tables))]
        return table

    def solve(self, injections: np.ndarray) -> np.ndarray:
        """``Z @ injections``, by block substitution with the stored blocks."""
        r = np.empty_like(injections)
        r[self._pos] = injections
        return self._substitute(r)[self._pos]

    def _substitute(self, r: np.ndarray) -> np.ndarray:
        """Z @ r in block order: block i is ``Z[i, i] s_i - right_i u_{i+1}``, with
        ``s_i = r_i - right_{i-1}^T s_{i-1}`` and ``u_i = Z[i, i] r_i - right_i u_{i+1}``."""
        starts, diag, _, right = self._blocks
        r = [r[a:b] for a, b in zip(starts, starts[1:] + [len(r)])]
        s = r[:1]
        for part, w in zip(r[1:], right):
            s.append(part - s[-1] @ w)
        x, u = [], 0.0
        for i in reversed(range(len(r))):
            x.append(diag[i] @ s[i] - u)
            u = right[i - 1] @ (diag[i] @ r[i] - u) if i else u
        return np.concatenate(x[::-1])


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
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
    """Assemble the dense nodal admittance matrix for one sequence network."""
    order, spans, _, gather = _level_blocks(net)
    y = np.zeros((net.n, net.n), dtype=complex)
    for (a, b, c), rows in zip(spans, _block_rows(net, sequence, spans, *gather)):
        y[np.ix_(order[a:b], order[a:c])] = rows  # each block row to its buses' places
        y[np.ix_(order[b:c], order[a:b])] = rows[:, b - a :].T
    return y


def _block_rows(net: Network, sequence: int, spans, index, keep, start) -> list[np.ndarray]:
    """Y's block rows ``[Y[i, i] Y[i, i+1]]``, as :func:`_level_blocks` gathers them."""
    if sequence not in (0, 1, 2):
        raise ValueError(f"sequence must be 0, 1 or 2, got {sequence}")
    ys = np.array([1.0 / rec.z(sequence) for rec in net.lines], dtype=complex)
    zs = [1.0 / s.z(sequence) for s in net.sources]
    vals = np.concatenate((np.array([ys, ys, -ys, -ys]).T.ravel(), zs))
    y = np.zeros(start[-1], dtype=complex)
    np.add.at(y, index, vals[keep])
    return [y[o : o + (e - d) * (f - d)].reshape(e - d, f - d) for o, (d, e, f) in zip(start, spans)]


def build_zbus(net: Network, sequence: int) -> SequenceZbus:
    """Invert the sequence admittance matrix into a bus impedance matrix.

    Y is block tridiagonal over :func:`_level_blocks`.  A forward pass inverts
    each Schur complement S_i; a backward pass builds, in O(n b^2), only the
    blocks kept: ``Z[i, i+1] = -right_i Z[i+1, i+1]`` with ``right_i = S_i^-1
    Y[i, i+1]`` and ``Z[i, i] = S_i^-1 - right_i Z[i+1, i]`` symmetrised
    (Takahashi, Fagan and Chin 1973).  No pivoting: Re Y is positive definite
    with positive resistances (Higham 1998).  Below ``2 * MIN_BLOCK`` buses
    one block is all of Z: ``np.linalg.inv(y)`` symmetrised.  Raises
    :class:`UngroundedNetworkError` when Y is singular and
    :class:`IllConditionedNetworkError` when ``condition``, exact but only
    read here when :func:`_z_norm_bound` is too big, exceeds :data:`CONDITION_LIMIT`.
    """
    if not net.sources:
        raise UngroundedNetworkError("network has no sources")
    _, spans, pos, gather = _level_blocks(net)
    inv, right, y_sum = [], [], np.zeros(net.n)
    try:
        for i, ((a, b, c), rows) in enumerate(zip(spans, _block_rows(net, sequence, spans, *gather))):
            s, link = rows[:, : b - a], rows[:, b - a :]
            y_sum[a:b] += np.abs(s).sum(axis=0)
            inv.append(np.linalg.inv(s - prev.T @ right[-1] if i else s))
            if c > b:  # Y[i, i+1], and Y[i+1, i] as its transpose
                mag = np.abs(link)
                y_sum[a:b] += mag.sum(axis=1)
                y_sum[b:c] += mag.sum(axis=0)
                right.append(inv[i] @ link)
            prev = link
    except np.linalg.LinAlgError as exc:
        raise UngroundedNetworkError(f"sequence-{sequence} network is singular: {exc}") from None
    del rows, s, link, prev  # views of Y's block rows: free them for Z's
    diag, off = [], []
    for i in reversed(range(len(spans))):
        g = inv.pop()
        if diag:  # Z[i, i+1], and Z[i+1, i] as its transpose
            off.append(-(right[i] @ diag[-1]))
            g = g - right[i] @ off[-1].T
        diag.append(0.5 * (g + g.T))
    blocks = ([a for a, _, _ in spans], diag[::-1], off[::-1], right)
    zbus = SequenceZbus(sequence, net.buses, pos, blocks, float(y_sum.max()))
    # The slack covers the bound's rounding: it accepts nothing the exact test refuses.
    bounded = zbus._y_norm * _z_norm_bound(blocks) <= CONDITION_LIMIT / (1 + 1e-9)
    if not bounded and not zbus.condition <= CONDITION_LIMIT:  # NaN included
        raise IllConditionedNetworkError(
            f"sequence-{sequence} admittance matrix condition {zbus.condition:.3e}"
            f" exceeds {CONDITION_LIMIT:.0e}"
        )
    return zbus


def _z_norm_bound(blocks: tuple) -> float:
    """An O(n b) upper bound on ||Z||_1 from the stored blocks.  By ``|AB| <= |A||B|``
    on ``Z[i, j] = -right_i Z[i+1, j]`` (j > i; Higham 2002), a row's sum right of its
    block is at most ``far_i = |Z[i, i+1]| 1 + |right_i| far_{i+1}``, and left of it, its
    column's above, ``(u_{i-1} + 1)^T |Z[i-1, i]|`` with ``u_i^T = (u_{i-1} + 1)^T
    |right_{i-1}|``.  Z[i, i]'s sums are exact, as is one block's bound."""
    _, diag, off, right = blocks
    mo, mr = [np.abs(o) for o in off], [np.abs(r) for r in right]
    sums, far, u = [np.abs(d).sum(0) for d in diag], np.zeros(len(diag[-1])), np.zeros(len(diag[0]))
    for i in reversed(range(len(off))):
        sums[i] += (far := mo[i].sum(axis=1) + mr[i] @ far)
    for i in range(len(off)):
        sums[i + 1] += (u + 1.0) @ mo[i]
        u = (u + 1.0) @ mr[i]
    return max(s.max() for s in sums)


def _level_blocks(net: Network) -> tuple:
    """``(order, spans, pos, gather)``: bus indices in block order, each block's (start,
    end, next block's end), each index's block position, and where Y's entries go in the
    block rows.  A block is a run of whole BFS levels (each island's from its first bus)
    of at least :data:`MIN_BLOCK` buses, ascending; a line joins it to itself or the next.
    Below ``2 * MIN_BLOCK`` buses: one block in bus order, no BFS.  Cached on ``net``."""
    if net._levels is not None and net._levels[0] == MIN_BLOCK:
        return net._levels[1:]
    cut, order = [0, net.n], np.arange(net.n)
    if net.n >= 2 * MIN_BLOCK:
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
        order = np.argsort((np.searchsorted(cut, ends) - 1)[level], kind="stable")
    spans, pos = tuple(zip(cut, cut[1:], cut[2:] + [net.n])), np.argsort(order)
    # Y's entries in a loop's order: (p, p), (q, q), (p, q), (q, p) line by line, then sources.
    p, q, _ = net.line_end_indices()
    src = [net.bus_index(s.bus) for s in net.sources]
    rows, cols = (pos[np.concatenate((np.array(e).T.ravel(), src))] for e in ([p, q, p, q], [p, q, q, p]))
    if len(spans) == 1:  # the one block row is all of Y
        gather = (rows * net.n + cols, slice(None), [0, net.n * net.n])
    else:
        a, b, c = np.array(spans, dtype=np.intp).T
        start = np.concatenate(([0], np.cumsum((b - a) * (c - a))))
        i = np.searchsorted(b, rows, side="right")  # each entry's block row
        keep = cols >= a[i]  # Y[i, i-1] is Y[i-1, i] transposed
        gather = ((start[i] + (rows - a[i]) * (c - a)[i] + cols - a[i])[keep], keep, start)
    for x in (order, pos):
        x.setflags(write=False)
    object.__setattr__(net, "_levels", (MIN_BLOCK, order, spans, pos, gather))
    return net._levels[1:]


def transfer_coefficients(zbus: SequenceZbus, line: Lines, bus: int) -> LinearLaw:
    """Transfer impedance law from ``bus`` to a fault anywhere on ``line``."""
    if isinstance(line, LineRecord):
        _, zp, zq = zbus.faulted_line(line)
        k = zbus.index(bus)
        return LinearLaw(zp[k], zq[k] - zp[k])
    col = zbus.column(bus)
    zp, zq = col[line[0]], col[line[1]]
    return LinearLaw(zp, zq - zp)


def branch_coefficients(
    zbus: SequenceZbus, faulted_line: Lines, branch: tuple[LineRecord, str]
) -> LinearLaw:
    """Current-change law for a current channel under a fault on ``faulted_line``.

    ``branch`` is a channel as :meth:`Network.channel` returns it: a line
    and a terminal, ``""`` for the line's current or ``"from"``/``"to"``
    for the current that end's terminal feeds into the line.  ``at(m)``
    gives the share of the fault current that the channel sheds: its
    during-fault current is the pre-fault current minus ``at(m)`` times the
    fault current.  A line's current flows from-bus -> to-bus, and its law
    ``t`` is the voltage difference of its ends over its impedance; a
    ``@to`` terminal feeds ``-t``.

    On the faulted line itself ``t`` is the through current, which neither
    terminal feeds while the fault draws current: the ``@from`` terminal
    feeds ``t - (1 - m)`` and the ``@to`` terminal ``-t - m``, neither of
    which divides by a segment's vanishing length.  For many lines that
    shift goes to the channel's own line only.  The line's current keeps
    ``t``, which no instrument reads; callers refuse it or skip that line.
    """
    rec, end = branch
    zb = rec.z(zbus.sequence)
    if abs(zb) == 0.0:
        raise ValueError(f"branch {rec.id!r} has zero impedance")
    ck = transfer_coefficients(zbus, faulted_line, rec.from_bus)
    cl = transfer_coefficients(zbus, faulted_line, rec.to_bus)
    if isinstance(faulted_line, LineRecord):
        b, c, own = (ck.b - cl.b) / zb, (ck.c - cl.c) / zb, float(faulted_line.id == rec.id)
    else:
        b, c = _divide(ck.b - cl.b, zb), _divide(ck.c - cl.c, zb)
        own = (faulted_line[2] == rec.id).astype(float) if end else 0.0
    if not end:
        return LinearLaw(b, c)
    if end == "from":
        return LinearLaw(b - own, c + own)
    return LinearLaw(-b, -c - own)


def _divide(a: np.ndarray, b: complex) -> np.ndarray:
    """``a / b`` rounded as Python's complex division (Smith's method), not as
    numpy's reciprocal product, so that the laws of every line keep the bits
    of a one-line law: the hybrid quadratic's off-axis residual would turn
    one bit into a change near 1e-8.
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
    impedance fixes the curvature.  It reads Z[p, p], Z[q, q] and Z[p, q]
    from Z's columns at the line's ends.
    """
    _, zp, zq = zbus.faulted_line(line)
    p, q = zbus.index(line.from_bus), zbus.index(line.to_bus)
    zpp, zqq, zpq, zl = zp[p], zq[q], zq[p], line.z(zbus.sequence)
    return FaultPointCoefficients(zpp, 2.0 * (zpq - zpp) + zl, zpp + zqq - 2.0 * zpq - zl)
