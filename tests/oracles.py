"""Independent reference computations for the test suite.

Everything here is deliberately written from scratch against the textbook
definitions: its own admittance assembly, its own tapped-network records,
full nodal solves instead of coefficient laws, and explicit enumeration for
graph questions.  Production code paths are only touched for the raw data
model, never for the quantities being checked; :func:`dense_z` is no
reference, only a dense view of a matrix the library keeps by blocks.
"""
from __future__ import annotations

from dataclasses import replace

import cmath
import math

import numpy as np

from faultloc.faultsim import PhasorMeasurementSet
from faultloc.netmodel import CaseError, LineRecord, Network, SourceRecord


def assemble_y(net: Network, seq: int) -> np.ndarray:
    """Nodal admittance matrix, assembled independently of the library."""
    n = net.n
    y = np.zeros((n, n), dtype=complex)
    idx = {b: i for i, b in enumerate(net.buses)}
    for rec in net.lines:
        z = rec.z0 if seq == 0 else rec.z1
        a, b = idx[rec.from_bus], idx[rec.to_bus]
        y[a, a] += 1 / z
        y[b, b] += 1 / z
        y[a, b] -= 1 / z
        y[b, a] -= 1 / z
    for src in net.sources:
        i = idx[src.bus]
        y[i, i] += 1 / src.z(seq)
    return y


def invert_y(net: Network, seq: int) -> np.ndarray:
    return np.linalg.inv(assemble_y(net, seq))


def dense_z(zbus) -> np.ndarray:
    """A :class:`~faultloc.seqmatrix.SequenceZbus` as a dense matrix, its
    columns stacked in ``bus_order``."""
    return np.column_stack([zbus.column(bus) for bus in zbus.bus_order])


def kept(zbus) -> tuple[int, int]:
    """What a matrix keeps beside its blocks: the faulted lines whose columns
    the simulator's laws read (at most one) and the locator's placement
    tables.  The blocks are the block starts, Z's stored blocks and the
    factors, with no cached column among them."""
    starts, diag, off, right = zbus._blocks
    assert len(starts) == len(diag) == len(off) + 1 == len(right) + 1
    return len(zbus._line[:1]), len(zbus._tables)


def measurement_set(values: dict) -> PhasorMeasurementSet:
    """A set of hand-picked channels: ``values`` maps a placement's
    ``(kind, id)`` channel to its positive-sequence (pre-fault, during-fault)
    pair.  The during-fault zero and negative sequences read zero."""
    buses: tuple[dict, dict] = ({}, {})
    branches: tuple[dict, dict] = ({}, {})
    for (kind, ident), (pre, fault) in values.items():
        prefault, during = buses if kind == "busV" else branches
        prefault[ident], during[ident] = pre, (0j, fault, 0j)
    return PhasorMeasurementSet(*buses, *branches)


_ALPHA = cmath.exp(2j * math.pi / 3.0)


def sequence_transform(a: complex, b: complex, c: complex) -> tuple[complex, complex, complex]:
    """Phase phasors (a, b, c) -> symmetrical components (zero, pos, neg)."""
    s0 = (a + b + c) / 3.0
    s1 = (a + _ALPHA * b + _ALPHA**2 * c) / 3.0
    s2 = (a + _ALPHA**2 * b + _ALPHA * c) / 3.0
    return (s0, s1, s2)


def inverse_sequence_transform(
    s0: complex, s1: complex, s2: complex
) -> tuple[complex, complex, complex]:
    """Symmetrical components (zero, pos, neg) -> phase phasors (a, b, c)."""
    a = s0 + s1 + s2
    b = s0 + _ALPHA**2 * s1 + _ALPHA * s2
    c = s0 + _ALPHA * s1 + _ALPHA**2 * s2
    return (a, b, c)


def tap_network(net: Network, line_id: str, m: float) -> tuple[Network, int]:
    """Explicitly rebuild the network with a node at the fault point."""
    assert 0.0 < m < 1.0
    target = net.line(line_id)
    r = max(net.buses) + 1
    seg_a = replace(target, id="__a", to_bus=r, length_km=m * target.length_km)
    seg_b = replace(target, id="__b", from_bus=r, length_km=(1 - m) * target.length_km)
    lines = tuple(rec for rec in net.lines if rec.id != line_id) + (seg_a, seg_b)
    return (
        Network(
            buses=net.buses + (r,),
            lines=lines,
            sources=net.sources,
            base_mva=net.base_mva,
            base_kv=net.base_kv,
            frequency_hz=net.frequency_hz,
        ),
        r,
    )


def nodal_prefault(net: Network) -> dict[int, complex]:
    """Pre-fault bus voltages from a plain linear solve."""
    y = assemble_y(net, 1)
    j = np.zeros(net.n, dtype=complex)
    idx = {b: i for i, b in enumerate(net.buses)}
    for src in net.sources:
        j[idx[src.bus]] += src.emf / src.z(1)
    e = np.linalg.solve(y, j)
    return {b: complex(e[idx[b]]) for b in net.buses}


def interconnection_currents(
    fault_type: str, zrr: tuple[complex, complex, complex], e_r: complex, rf: float
) -> tuple[complex, complex, complex]:
    """Textbook sequence-network interconnection, written independently."""
    z0, z1, z2 = zrr
    if fault_type == "LLL":
        return (0j, e_r / (z1 + rf), 0j)
    if fault_type == "LG":
        i = e_r / (z0 + z1 + z2 + 3 * rf)
        return (i, i, i)
    if fault_type == "LL":
        i1 = e_r / (z1 + z2 + rf)
        return (0j, i1, -i1)
    if fault_type == "LLG":
        zg = z0 + 3 * rf
        i1 = e_r / (z1 + z2 * zg / (z2 + zg))
        return (-i1 * z2 / (z2 + zg), i1, -i1 * zg / (z2 + zg))
    raise ValueError(fault_type)


class DirectFaultSolve:
    """Fault quantities from full nodal solves of the tapped network.

    Shares no computation with the coefficient-based simulator: driving
    point values come from the inverted tapped matrices and during-fault
    voltages from linear solves with the fault current as a nodal injection.
    """

    def __init__(self, net: Network, line_id: str, m: float, fault_type, rf_ohm: float):
        self.base_net = net
        self.tnet, self.r = tap_network(net, line_id, m)
        idx = {b: i for i, b in enumerate(self.tnet.buses)}
        self.idx = idx
        self.line = net.line(line_id)
        self.m = m

        ys = {s: assemble_y(self.tnet, s) for s in (0, 1, 2)}
        zs = {s: np.linalg.inv(ys[s]) for s in (0, 1, 2)}
        ri = idx[self.r]
        zrr = tuple(zs[s][ri, ri] for s in (0, 1, 2))

        j1 = np.zeros(self.tnet.n, dtype=complex)
        for src in self.tnet.sources:
            j1[idx[src.bus]] += src.emf / src.z(1)
        self.e0 = np.linalg.solve(ys[1], j1)

        rf = rf_ohm / net.z_base_ohm
        ftype = fault_type.value if hasattr(fault_type, "value") else str(fault_type)
        self.currents = interconnection_currents(ftype, zrr, self.e0[ri], rf)

        self.ev: dict[int, np.ndarray] = {}
        for s in (0, 1, 2):
            rhs = j1.copy() if s == 1 else np.zeros(self.tnet.n, dtype=complex)
            rhs[ri] -= self.currents[s]
            self.ev[s] = np.linalg.solve(ys[s], rhs)

    def prefault_v(self, bus: int) -> complex:
        return complex(self.e0[self.idx[bus]])

    def fault_v(self, bus: int) -> tuple[complex, complex, complex]:
        i = self.idx[bus]
        return tuple(complex(self.ev[s][i]) for s in (0, 1, 2))

    def fault_i(self, rec: LineRecord) -> tuple[complex, complex, complex]:
        a, b = self.idx[rec.from_bus], self.idx[rec.to_bus]
        return tuple(
            complex((self.ev[s][a] - self.ev[s][b]) / (rec.z0 if s == 0 else rec.z1))
            for s in (0, 1, 2)
        )

    def segment_i(self, end: str) -> tuple[complex, complex, complex]:
        """Terminal current of the faulted line feeding the fault point."""
        ri = self.idx[self.r]
        if end == "from":
            t = self.idx[self.line.from_bus]
            frac = self.m
        else:
            t = self.idx[self.line.to_bus]
            frac = 1.0 - self.m
        return tuple(
            complex(
                (self.ev[s][t] - self.ev[s][ri])
                / (frac * (self.line.z0 if s == 0 else self.line.z1))
            )
            for s in (0, 1, 2)
        )


def all_simple_paths(
    adjacency: dict[object, list[object]], start: object, goal: object
) -> list[list[object]]:
    """Every simple path from start to goal, by exhaustive backtracking."""
    paths: list[list[object]] = []

    def walk(node, visited, trail):
        if node == goal:
            paths.append(list(trail))
            return
        for nb in adjacency[node]:
            if nb not in visited:
                visited.add(nb)
                trail.append(nb)
                walk(nb, visited, trail)
                trail.pop()
                visited.remove(nb)

    walk(start, {start}, [start])
    return paths


def path_crosses_line(
    net: Network, line_id: str, starts: list[int], goals: list[int]
) -> bool:
    """Whether a simple path from some start to a different goal crosses
    line ``line_id``, by enumerating every simple path of the graph in which
    a synthetic node splits that line: crossing it means visiting the node.
    """
    via = ("via", line_id)
    adj: dict[object, list[object]] = {b: [] for b in net.buses}
    adj[via] = []
    for rec in net.lines:
        ends = [rec.from_bus, rec.to_bus]
        if rec.id == line_id:
            ends.insert(1, via)
        for a, b in zip(ends, ends[1:]):
            adj[a].append(b)
            adj[b].append(a)
    return any(
        via in path
        for a in starts
        for b in goals
        if a != b
        for path in all_simple_paths(adj, a, b)
    )


def bus_adjacency(net: Network) -> dict[int, list[int]]:
    adj: dict[int, list[int]] = {b: [] for b in net.buses}
    for rec in net.lines:
        adj[rec.from_bus].append(rec.to_bus)
        adj[rec.to_bus].append(rec.from_bus)
    return adj


def feasibility_reason(net: Network, line_id: str, placement) -> str:
    """Why ``placement`` can or cannot observe faults on line ``line_id``:

    * ``"own"`` when a current channel is that line's own current, its id
      with no terminal suffix;
    * ``"dependent"`` when the placement reads a current and its two
      channels' laws under a fault on the line, from a dense inverse of Y,
      form a 2x2 matrix of numerical rank one;
    * ``"path"`` when no simple path through the line joins the channels'
      locations, a current channel sitting at either end of its line;
    * ``"ok"`` otherwise.
    """
    parsed = [
        ident.partition("@")[::2] if kind == "branchI" else ident for kind, ident in placement.channels
    ]
    currents = [c for c in parsed if isinstance(c, tuple)]
    if any(branch == (line_id, "") for branch in currents):
        return "own"
    if currents:
        z, idx = invert_y(net, 1), {b: i for i, b in enumerate(net.buses)}
        faulted = net.line(line_id)
        p, q = idx[faulted.from_bus], idx[faulted.to_bus]

        def transfer(bus):  # Z's column at the fault point is linear in m
            k = idx[bus]
            return np.array([z[k, p], z[k, q] - z[k, p]])

        def law(channel):  # (b, c) of the change b + c*m per unit fault current
            if not isinstance(channel, tuple):
                return transfer(channel)
            rec, end = net.line(channel[0]), channel[1]
            t = (transfer(rec.from_bus) - transfer(rec.to_bus)) / rec.z1
            if rec.id != line_id:
                return -t if end == "to" else t
            # A terminal of the faulted line feeds the through current less the
            # share of the fault current it carries, 1 - m at the from-end and
            # m at the to-end: the two shares sum to the fault current.
            return t - [1.0, -1.0] if end == "from" else -t - [0.0, 1.0]

        s = np.linalg.svd(np.array([law(c) for c in parsed]), compute_uv=False)
        if s[1] <= 1e-8 * s[0]:
            return "dependent"
    locations = [
        [net.line(c[0]).from_bus, net.line(c[0]).to_bus] if isinstance(c, tuple) else [c]
        for c in parsed
    ]
    return "ok" if path_crosses_line(net, line_id, *locations) else "path"


def python_solve(quadratic: bool, numer, denom, ratio: complex) -> tuple[float, float, bool]:
    """``(m, residual, ambiguous)`` of one ratio solve in Python's own complex
    and float arithmetic, whose rounding every array solve must reproduce:
    the direct form ``(b_k - r*b_l) / (r*c_l - c_k)`` or the hybrid quadratic
    in ``|ratio|**2``.  Raises ``ZeroDivisionError`` where the solve is singular."""
    def direct() -> complex:
        den = ratio * denom.c - numer.c
        scale = abs(ratio * denom.c) + abs(numer.c)
        if scale == 0.0 or abs(den) <= 1e-12 * scale:
            raise ZeroDivisionError("singular ratio solve")
        return (numer.b - ratio * denom.b) / den

    if not quadratic:
        m = direct()
        return m.real, abs(m.imag), False
    bk, ck, bl, cl, d2 = numer.b, numer.c, denom.b, denom.c, abs(ratio) ** 2
    c2 = ck.real**2 + ck.imag**2 - d2 * (cl.real**2 + cl.imag**2)
    c1 = 2.0 * (bk.real * ck.real + bk.imag * ck.imag - d2 * (bl.real * cl.real + bl.imag * cl.imag))
    c0 = bk.real**2 + bk.imag**2 - d2 * (bl.real**2 + bl.imag**2)
    scale = max(abs(c2), abs(c1), abs(c0))
    if scale == 0.0 or max(abs(c2), abs(c1)) <= 1e-12 * scale:
        raise ZeroDivisionError("degenerate quadratic")
    off = 0.0
    if abs(c2) <= 1e-12 * scale:
        roots = (-c0 / c1,)
    elif (disc := c1 * c1 - 4.0 * c2 * c0) >= 0.0:
        r1, r2 = ((-c1 + sign * math.sqrt(disc)) / (2.0 * c2) for sign in (1.0, -1.0))
        roots = (r1,) if r1 == r2 else (r1, r2)
    else:
        roots, off = (-c1 / (2.0 * c2),), math.sqrt(-disc) / (2.0 * abs(c2))
    inside = [r for r in roots if -1e-9 <= r <= 1.0 + 1e-9]
    if len(inside) == 2:
        try:
            near = direct().real
        except ZeroDivisionError:
            near = 0.5
        return min(inside, key=lambda r: abs(r - near)), off, True
    if inside:
        return inside[0], off, False
    return min(roots, key=lambda r: max(0.0 - r, r - 1.0, 0.0)), off, False


# ---------------------------------------------------------------------------
# Case parsing: the record-by-record parser the one-pass parse replaced,
# kept verbatim as the reference for the differential parse test.
# ---------------------------------------------------------------------------


def _parse_float(token: str, lineno: int, what: str) -> float:
    try:
        value = float(token)
    except ValueError:
        value = math.nan  # reported below, as "nan" and "inf" are
    if not math.isfinite(value):
        raise CaseError(f"line {lineno}: bad {what} {token!r}")
    return value


def _parse_label(token: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise CaseError(f"line {lineno}: bus label must be an integer, got {token!r}") from None


def reference_parse_case(text: str) -> Network:
    """Parse case text into a validated :class:`Network`.

    One pass over the records, linear in their number.  Raises
    :class:`CaseError` naming the offending source line on syntax errors,
    unknown bus references, duplicate bus labels, non-positive base values or
    line lengths, zero line or source impedances, or an empty source list.
    """
    base = (100.0, 230.0, 50.0)
    buses: dict[int, None] = {}  # in declaration order, with O(1) lookups
    lines: dict[str, LineRecord] = {}  # by id, likewise
    sources: list[SourceRecord] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if not body:
            continue
        tokens = body.split()
        kind, args = tokens[0], tokens[1:]

        if kind == "base":
            if len(args) != 3:
                raise CaseError(f"line {lineno}: base expects <mva> <kv> <hz>")
            base = tuple(_parse_float(a, lineno, "base value") for a in args)
            bad = [a for a, value in zip(args, base) if value <= 0]  # the base is a divisor
            if bad:
                raise CaseError(f"line {lineno}: bad base value {bad[0]!r}")

        elif kind == "bus":
            if len(args) != 1:
                raise CaseError(f"line {lineno}: bus expects one label")
            label = _parse_label(args[0], lineno)
            if label in buses:
                raise CaseError(f"line {lineno}: duplicate bus label {label}")
            buses[label] = None

        elif kind == "line":
            if len(args) != 8:
                raise CaseError(
                    f"line {lineno}: line expects <id> <from> <to> <length_km>"
                    " <r1/km> <x1/km> <r0/km> <x0/km>"
                )
            lid = args[0]
            if lid in lines:
                raise CaseError(f"line {lineno}: duplicate line id {lid!r}")
            from_bus, to_bus = _parse_label(args[1], lineno), _parse_label(args[2], lineno)
            for b in (from_bus, to_bus):
                if b not in buses:
                    raise CaseError(f"line {lineno}: unknown bus {b}")
            if from_bus == to_bus:
                raise CaseError(f"line {lineno}: line {lid!r} joins a bus to itself")
            length = _parse_float(args[3], lineno, "length")
            if length <= 0:
                raise CaseError(f"line {lineno}: non-positive length {length}")
            nums = [_parse_float(a, lineno, "impedance") for a in args[4:8]]
            z1, z0 = complex(nums[0], nums[1]), complex(nums[2], nums[3])
            rec = LineRecord(lid, from_bus, to_bus, length, z1_per_km=z1, z0_per_km=z0)
            if rec.z1_per_km.real < 0 or rec.z0_per_km.real < 0:
                raise CaseError(f"line {lineno}: negative resistance on {lid!r}")
            if 0 in (z1, z0):  # an infinite admittance
                raise CaseError(f"line {lineno}: line {lid!r} has zero sequence-{int(z1 == 0)} impedance")
            lines[lid] = rec

        elif kind == "source":
            if len(args) not in (3, 5, 7, 9):
                raise CaseError(
                    f"line {lineno}: source expects <bus> <r1> <x1>"
                    " [r0 x0 r2 x2] [emf_mag emf_deg]"
                )
            bus = _parse_label(args[0], lineno)
            if bus not in buses:
                raise CaseError(f"line {lineno}: unknown bus {bus}")
            nums = [_parse_float(a, lineno, "source value") for a in args[1:]]
            z1 = complex(nums[0], nums[1])
            z0, z2 = (complex(*nums[2:4]), complex(*nums[4:6])) if len(nums) >= 6 else (None, None)
            if 0 in (z1, z0, z2):  # None when z0 and z2 default to z1
                raise CaseError(f"line {lineno}: source at bus {bus} has zero impedance")
            emf = cmath.rect(nums[-2], math.radians(nums[-1])) if len(nums) in (4, 8) else 1.0 + 0.0j
            sources.append(SourceRecord(bus=bus, z1=z1, z2=z2, z0=z0, emf=emf))

        else:
            raise CaseError(f"line {lineno}: unknown record kind {kind!r}")

    if not sources:
        raise CaseError("case has no sources; the network would be ungrounded")
    return Network(tuple(buses), tuple(lines.values()), tuple(sources), *base)  # mva, kv, hz
