"""Per-sequence bus impedance matrices and fault-position coefficient laws.

The bus impedance matrix is the inverse of the nodal admittance matrix built
from the series lines plus each source's internal impedance as a shunt to the
reference node.  For a prospective fault at normalized position ``m`` on a
line p-q, two law types describe how the network responds without ever
rebuilding the matrix:

* :class:`LinearLaw` ``b + c*m``: the transfer impedance from any bus k to
  the fault point, and the current-division sensitivity of any branch (the
  difference of its end buses' transfer laws over its impedance; on the
  faulted line, of its through current).  Every estimator solves a ratio of
  two of these, and only :func:`transfer_coefficients` and
  :func:`branch_coefficients` build them, for one line or many (:data:`Lines`).
* :class:`FaultPointCoefficients` ``a0 + a1*m + a2*m**2``: the
  driving-point impedance at the fault point, which sets the fault current.

No other module reads :attr:`SequenceZbus.z`.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import io

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
    "zbus_to_csv",
]

#: Networks whose admittance matrix condition number exceeds this are rejected.
CONDITION_LIMIT = 1e12

#: A law's faulted line: one :class:`LineRecord`, for a law of two ``complex``,
#: or the Z indices ``(p, q)`` of many lines' ends, for a law of arrays.
Lines = LineRecord | tuple[np.ndarray, np.ndarray]


class UngroundedNetworkError(ValueError):
    """The network has no finite impedance path to the reference node."""


class IllConditionedNetworkError(ValueError):
    """The admittance matrix is too ill-conditioned to invert reliably."""


@dataclass(frozen=True)
class SequenceZbus:
    """Dense bus impedance matrix for one sequence network.

    ``z[j, k]`` is the voltage at bus ``bus_order[j]`` per unit current
    injected at bus ``bus_order[k]``, reference node implicit.  ``z`` is
    made read-only, because studies share one array between sequences whose
    admittance matrices are equal.  ``condition`` is the admittance matrix's
    1-norm condition number, the one :func:`build_zbus` checks.
    """

    sequence: int
    z: np.ndarray
    bus_order: tuple[int, ...]
    condition: float
    _index: dict[int, int] = field(init=False, repr=False, compare=False)

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
    for rec in net.lines:
        j = net.bus_index(rec.from_bus)
        k = net.bus_index(rec.to_bus)
        ys = 1.0 / rec.z(sequence)
        y[j, j] += ys
        y[k, k] += ys
        y[j, k] -= ys
        y[k, j] -= ys
    for src in net.sources:
        j = net.bus_index(src.bus)
        y[j, j] += 1.0 / src.z(sequence)
    return y


def build_zbus(net: Network, sequence: int) -> SequenceZbus:
    """Invert the sequence admittance matrix into a bus impedance matrix.

    Raises :class:`UngroundedNetworkError` when the matrix is singular (some
    bus has no path to the reference) and :class:`IllConditionedNetworkError`
    when its 1-norm condition number ``||Y||_1 * ||Z||_1``, taken from the
    inverse in hand rather than from a second factorisation, exceeds
    :data:`CONDITION_LIMIT`.
    """
    if not net.sources:
        raise UngroundedNetworkError("network has no sources")
    y = build_ybus(net, sequence)
    try:
        z = np.linalg.inv(y)
    except np.linalg.LinAlgError as exc:
        raise UngroundedNetworkError(
            f"sequence-{sequence} network is singular: {exc}"
        ) from None
    cond = np.linalg.norm(y, 1) * np.linalg.norm(z, 1)
    if not np.isfinite(cond) or cond > CONDITION_LIMIT:
        raise IllConditionedNetworkError(
            f"sequence-{sequence} admittance matrix condition {cond:.3e}"
            f" exceeds {CONDITION_LIMIT:.0e}"
        )
    # Enforce exact reciprocity; the inverse of a symmetric matrix can pick
    # up asymmetry at roundoff level.
    z = 0.5 * (z + z.T)
    return SequenceZbus(sequence=sequence, z=z, bus_order=net.buses, condition=float(cond))


def transfer_coefficients(zbus: SequenceZbus, line: Lines, bus: int) -> LinearLaw:
    """Transfer impedance law from ``bus`` to a fault anywhere on ``line``."""
    k = zbus.index(bus)
    if isinstance(line, LineRecord):
        zp = complex(zbus.z[zbus.index(line.from_bus), k])
        zq = complex(zbus.z[zbus.index(line.to_bus), k])
    else:
        zp, zq = zbus.z[line[0], k], zbus.z[line[1], k]
    return LinearLaw(zp, zq - zp)


def branch_coefficients(
    zbus: SequenceZbus, faulted_line: Lines, branch: LineRecord
) -> LinearLaw:
    """Current-change law for ``branch`` under a fault on ``faulted_line``.

    ``at(m)`` gives the share of the fault current that the branch (oriented
    from-bus -> to-bus) sheds: the during-fault branch current is the
    pre-fault current minus ``at(m)`` times the fault current.

    The law models a branch's current as the voltage difference of its
    terminals over its impedance.  On the faulted line itself that is the
    through current, which neither terminal feeds while the fault draws
    current, so location must not use it as a terminal's law.
    """
    zb = branch.z(zbus.sequence)
    if abs(zb) == 0.0:
        raise ValueError(f"branch {branch.id!r} has zero impedance")
    ck = transfer_coefficients(zbus, faulted_line, branch.from_bus)
    cl = transfer_coefficients(zbus, faulted_line, branch.to_bus)
    return LinearLaw(_divide(ck.b - cl.b, zb), _divide(ck.c - cl.c, zb))


def _divide(a, b: complex):
    """``a / b`` for a ``complex`` or an array ``a``, rounded alike.

    Arrays take CPython's Smith's method, not numpy's reciprocal product, so
    that a law of arrays equals the one-line laws bit for bit: the hybrid
    quadratic's off-axis residual would turn one bit into a change near 1e-8.
    """
    if isinstance(a, complex):
        return a / b
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


def fault_point_coefficients(
    zbus: SequenceZbus, line: LineRecord
) -> FaultPointCoefficients:
    """Driving-point impedance law at a fault anywhere on ``line``.

    This is the unique quadratic that matches an explicit tap-bus rebuild of
    the matrix at every m: the two segments carry the fault current in a
    loop, so the m=0/m=1 diagonal entries pin the ends and the line's own
    impedance fixes the curvature.
    """
    zpp = zbus.at(line.from_bus, line.from_bus)
    zqq = zbus.at(line.to_bus, line.to_bus)
    zpq = zbus.at(line.from_bus, line.to_bus)
    zl = line.z(zbus.sequence)
    return FaultPointCoefficients(
        a0=zpp,
        a1=2.0 * (zpq - zpp) + zl,
        a2=zpp + zqq - 2.0 * zpq - zl,
    )


def zbus_to_csv(zbus: SequenceZbus) -> str:
    """Row-major CSV dump with ``re+imj`` cells, for external inspection."""
    buf = io.StringIO()
    buf.write("bus," + ",".join(str(b) for b in zbus.bus_order) + "\n")
    for j, label in enumerate(zbus.bus_order):
        cells = (
            format(zbus.z[j, k], ".15g") for k in range(len(zbus.bus_order))
        )
        buf.write(f"{label}," + ",".join(cells) + "\n")
    return buf.getvalue()
