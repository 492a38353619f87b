"""Network data model and case-file parser.

A network is a set of buses (positive integer labels), series lines with
per-kilometre sequence impedances, and sources modelled as an EMF behind an
internal impedance to the reference node.  Everything is in per-unit on the
case's own MVA/kV base; shunt elements (line charging, loads) are not
representable.

Case file format (UTF-8, one record per line, ``#`` starts a comment):

    base <mva> <kv> <hz>
    bus <label>
    line <id> <from> <to> <length_km> <r1_per_km> <x1_per_km> <r0_per_km> <x0_per_km>
    source <bus> <r1> <x1> [r0 x0 r2 x2] [emf_mag emf_deg]

A ``bus`` record must come before any record that names it.  Numbers are finite
decimals with optional exponent; base values are positive, impedances in pu.  The
parse reads a ``line`` record once and keeps each line's end indices and total z1
and z0 on the network, which Y assembly and the pre-fault state read.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import cmath
import math

import numpy as np

__all__ = [
    "CaseError", "LineRecord", "SourceRecord", "Network", "parse_case", "load_case", "bundled_case",
    "validate",
]


class CaseError(ValueError):
    """Raised on malformed case text or invalid record references."""


@dataclass(frozen=True)
class LineRecord:
    """A series transmission line between two buses.

    Total sequence impedances are the per-km values scaled by length; the
    negative-sequence impedance equals the positive-sequence one (transposed
    line assumption).
    """

    id: str
    from_bus: int
    to_bus: int
    length_km: float
    z1_per_km: complex
    z0_per_km: complex

    @property
    def z1(self) -> complex:
        return self.z1_per_km * self.length_km

    @property
    def z0(self) -> complex:
        return self.z0_per_km * self.length_km

    def z(self, sequence: int) -> complex:
        """Total impedance for sequence 0, 1 or 2."""
        return self.z0 if sequence == 0 else self.z1


@dataclass(frozen=True)
class SourceRecord:
    """An EMF behind an internal impedance, grounding the network.

    Negative- and zero-sequence impedances default to the positive-sequence
    value when the case file omits them.
    """

    bus: int
    z1: complex
    z2: complex | None = None
    z0: complex | None = None
    emf: complex = 1.0 + 0.0j

    def z(self, sequence: int) -> complex:
        if sequence == 0:
            return self.z0 if self.z0 is not None else self.z1
        if sequence == 2:
            return self.z2 if self.z2 is not None else self.z1
        return self.z1


@dataclass(frozen=True)
class Network:
    """Immutable parsed case: buses, lines, sources and the pu base.

    Bus labels are external identifiers; matrix work uses the internal
    0-based index given by position in ``buses`` (declaration order).
    """

    buses: tuple[int, ...]
    lines: tuple[LineRecord, ...]
    sources: tuple[SourceRecord, ...]
    base_mva: float = 100.0
    base_kv: float = 230.0
    frequency_hz: float = 50.0
    _index: dict[int, int] = field(init=False, repr=False, compare=False)
    _line_index: dict[str, int] = field(init=False, repr=False, compare=False)
    #: Caches of _lines_bundle, block_forest and seqmatrix._level_blocks (by block rule).
    _line_ends: tuple | None = field(init=False, repr=False, compare=False, default=None)
    _forest: tuple | None = field(init=False, repr=False, compare=False, default=None)
    _levels: tuple | None = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_index", {label: i for i, label in enumerate(self.buses)})
        ids = dict(zip([r.id for r in reversed(self.lines)], range(len(self.lines) - 1, -1, -1)))
        object.__setattr__(self, "_line_index", ids)  # the first id wins

    @property
    def n(self) -> int:
        return len(self.buses)

    @property
    def z_base_ohm(self) -> float:
        """Impedance base used to convert ohmic fault resistance to pu."""
        return self.base_kv**2 / self.base_mva

    def bus_index(self, label: int) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise CaseError(f"unknown bus {label}") from None

    def line(self, line_id: str) -> LineRecord:
        return self.lines[self.line_index(line_id)]

    def line_index(self, line_id: str) -> int:
        """The position in ``lines`` of the first line with id ``line_id``."""
        try:
            return self._line_index[line_id]
        except KeyError:
            raise CaseError(f"unknown line {line_id!r}") from None

    def channel(self, token: str) -> tuple[LineRecord, str]:
        """Parse a current channel id into its line and terminal.

        ``token`` is ``<line>``, the line's current, or ``<line>@from`` or
        ``<line>@to``, the current that end's terminal feeds into the line
        (terminal ``""``, ``"from"`` or ``"to"``).  ``<line>`` is a line id
        or, when no id matches, the ``a-b`` pair of the line's end buses.
        Raises :class:`CaseError` when ``token`` fits none of these.
        """
        name, sep, end = token.partition("@")
        if sep and end not in ("from", "to"):
            raise CaseError(f"bad terminal suffix in current channel {token!r}")
        if name in self._line_index:
            return self.lines[self._line_index[name]], end
        try:
            a, b = (int(label) for label in name.split("-"))
        except ValueError:
            raise CaseError(f"unknown line in current channel {token!r}") from None
        return self.line_between(a, b), end

    def line_end_indices(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every line's from- and to-bus index and its id, in ``lines`` order, as
        read-only arrays: the first three of :meth:`_lines_bundle`."""
        return self._lines_bundle()[:3]

    def _lines_bundle(self, *read) -> tuple:
        """``(p, q, ids, z1, z0)``: :meth:`line_end_indices`, then every line's total z1
        and z0 as lists of ``complex``, equal to its ``z1`` and ``z0``.  Cached on first
        use, from ``read``, the from- then to-bus indices and totals :func:`parse_case`
        has read, or from the records."""
        if self._line_ends is None:
            index, lines = self.bus_index, self.lines
            ends, z1, z0 = read or (
                [index(r.from_bus) for r in lines] + [index(r.to_bus) for r in lines],
                [r.z1 for r in lines], [r.z0 for r in lines],
            )
            ends = np.fromiter(ends, np.intp, len(ends)).reshape(2, -1)
            ids = np.array([r.id for r in lines], dtype=str)
            for a in (ends, ids):
                a.setflags(write=False)
            object.__setattr__(self, "_line_ends", (*ends, ids, z1, z0))
        return self._line_ends

    def line_between(self, a: int, b: int) -> LineRecord:
        """The unique line joining buses a and b, in either orientation."""
        hits = [rec for rec in self.lines if {rec.from_bus, rec.to_bus} == {a, b}]
        if not hits:
            raise CaseError(f"no line between buses {a} and {b}")
        if len(hits) > 1:
            raise CaseError(
                f"buses {a} and {b} are joined by {len(hits)} parallel lines;"
                " refer to the line by id"
            )
        return hits[0]

    def block_forest(self) -> tuple[list[int], list[int], list[int]]:
        """Block-cut forest ``(parent, depth, line_block)``, cached on first use.

        Nodes are the buses, by index, then the blocks (biconnected
        components; a bridge is a block of one line).  A bus's parent is the
        block of the DFS tree line that reached it, a block's the bus it hangs
        from, a root's ``-1``.  ``line_block`` gives each line's block in
        ``lines`` order, ``-1`` for a line joining a bus to itself.  An
        iterative Hopcroft-Tarjan pass.
        """
        if self._forest is None:
            p, q = (ends.tolist() for ends in self.line_end_indices()[:2])
            adj: list[list[int]] = [[] for _ in self.buses]
            for a, b in zip(p + q, q + p):  # each line from both ends
                adj[a].append(b)
            disc, low, up, order = [-1] * self.n, [0] * self.n, [-1] * self.n, []
            for root in range(self.n):
                stack = [(root, -1)]  # (bus, its DFS parent)
                while stack:  # a DFS: every line joins a bus and its ancestor
                    v, u = stack.pop()
                    if disc[v] < 0:
                        disc[v], up[v] = len(order), u
                        order.append(v)
                        back = [disc[w] for w in adj[v] if disc[w] >= 0]  # ancestors
                        low[v] = min(back, default=disc[v])
                        stack.extend((w, v) for w in adj[v] if disc[w] < 0)
            for v in reversed(order):  # every bus after its DFS subtree
                if up[v] >= 0:
                    low[up[v]] = min(low[up[v]], low[v])
            parent, depth = [-1] * self.n, [0] * self.n
            for v, u in ((v, up[v]) for v in order if up[v] >= 0):  # after its DFS parent
                if low[v] >= disc[u]:  # u cuts v's block off
                    parent.append(u)
                    depth.append(depth[u] + 1)
                parent[v] = len(parent) - 1 if low[v] >= disc[u] else parent[u]
                depth[v] = depth[parent[v]] + 1
            line_block = [  # the block of the tree line into its deeper end
                parent[max(a, b, key=disc.__getitem__)] if a != b else -1 for a, b in zip(p, q)
            ]
            object.__setattr__(self, "_forest", (parent, depth, line_block))
        return self._forest


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


def _line_error(args: list[str], lineno: int, buses: dict, lines: dict) -> None:
    """Raise the first failing check of a ``line`` record, in file order."""
    if len(args) != 8:
        raise CaseError(f"line {lineno}: line expects <id> <from> <to> <length_km>"
                        " <r1/km> <x1/km> <r0/km> <x0/km>")
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
    if nums[0] < 0 or nums[2] < 0:
        raise CaseError(f"line {lineno}: negative resistance on {lid!r}")
    z1 = complex(nums[0], nums[1])  # only a zero impedance is left, an infinite admittance
    raise CaseError(f"line {lineno}: line {lid!r} has zero sequence-{int(z1 == 0)} impedance")


def parse_case(text: str) -> Network:
    """Parse case text into a validated :class:`Network`.

    One pass over the records, linear in their number, that reads a ``line``
    record once: its numbers, its :class:`LineRecord`, and its end indices
    and total z1 and z0 for the network's per-line cache.  Raises
    :class:`CaseError` naming the offending source line on syntax errors,
    unknown bus references, duplicate bus labels, non-positive base values
    or line lengths, zero line or source impedances, or an empty source list.
    """
    base = (100.0, 230.0, 50.0)
    buses: dict[int, int] = {}  # label: index, in declaration order, with O(1) lookups
    lines: dict[str, LineRecord] = {}  # by id, likewise
    sources: list[SourceRecord] = []
    p, q, z1s, z0s, inf = [], [], [], [], math.inf  # the per-line bundle

    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = (raw[: raw.index("#")] if "#" in raw else raw).split()
        if not tokens:
            continue
        if tokens[0] == "line":
            try:
                _, lid, a, b, length, r1, x1, r0, x0 = tokens
                length, r1, x1, r0, x0 = float(length), float(r1), float(x1), float(r0), float(x0)
                from_bus, to_bus = int(a), int(b)
                i, j = buses[from_bus], buses[to_bus]
            except (ValueError, KeyError):
                i = j = None
            if i == j or lid in lines or not (
                0.0 < length < inf and 0.0 <= r1 < inf and 0.0 <= r0 < inf
                and -inf < x1 < inf and -inf < x0 < inf and (r1 or x1) and (r0 or x0)
            ):
                _line_error(tokens[1:], lineno, buses, lines)  # raises
            z1, z0 = complex(r1, x1), complex(r0, x0)
            lines[lid] = LineRecord(lid, from_bus, to_bus, length, z1, z0)
            p.append(i)
            q.append(j)
            z1s.append(z1 * length)  # as LineRecord.z1 and .z0 compute them
            z0s.append(z0 * length)
            continue

        kind, args = tokens[0], tokens[1:]
        if kind == "bus":
            if len(args) != 1:
                raise CaseError(f"line {lineno}: bus expects one label")
            label = _parse_label(args[0], lineno)
            if label in buses:
                raise CaseError(f"line {lineno}: duplicate bus label {label}")
            buses[label] = len(buses)

        elif kind == "base":
            if len(args) != 3:
                raise CaseError(f"line {lineno}: base expects <mva> <kv> <hz>")
            base = tuple(_parse_float(a, lineno, "base value") for a in args)
            bad = [a for a, value in zip(args, base) if value <= 0]  # the base is a divisor
            if bad:
                raise CaseError(f"line {lineno}: bad base value {bad[0]!r}")

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
    net = Network(tuple(buses), tuple(lines.values()), tuple(sources), *base)  # mva, kv, hz
    net._lines_bundle(p + q, z1s, z0s)
    return net


def load_case(path: str | Path) -> Network:
    return parse_case(Path(path).read_text(encoding="utf-8"))


def bundled_case(name: str) -> Network:
    """Load one of the cases shipped with the package ("fourbus", "ieee14")."""
    ref = resources.files("faultloc").joinpath("cases", f"{name}.case")
    return parse_case(ref.read_text(encoding="utf-8"))


def validate(net: Network) -> list[str]:
    """Semantic diagnostics; empty list iff all network invariants hold.

    Each entry names the offending record.  Useful for networks built
    programmatically rather than parsed.
    """
    diags: list[str] = []
    base = (net.base_mva, net.base_kv, net.frequency_hz)
    if not all(0 < value < math.inf for value in base):  # the base is a divisor
        diags.append(f"non-positive or non-finite base value in {base}")
    seen: set[int] = set()
    for b in net.buses:
        if b in seen:
            diags.append(f"duplicate bus label {b}")
        seen.add(b)

    for rec in net.lines:
        if rec.from_bus == rec.to_bus:
            diags.append(f"line {rec.id}: endpoints coincide (bus {rec.from_bus})")
        if rec.length_km <= 0:
            diags.append(f"line {rec.id}: non-positive length {rec.length_km}")
        if rec.z1_per_km.real < 0 or rec.z0_per_km.real < 0:
            diags.append(f"line {rec.id}: negative per-km resistance")
        if 0 in (rec.z1_per_km, rec.z0_per_km):  # an infinite admittance
            diags.append(f"line {rec.id}: zero sequence-{int(rec.z1_per_km == 0)} impedance")
        if not all(map(cmath.isfinite, (rec.length_km, rec.z1_per_km, rec.z0_per_km))):
            diags.append(f"line {rec.id}: non-finite length or impedance")
        for b in (rec.from_bus, rec.to_bus):
            if b not in seen:
                diags.append(f"line {rec.id}: unknown bus {b}")

    if not net.sources:
        diags.append("ungrounded network: no sources")
    for src in net.sources:
        if src.bus not in seen:
            diags.append(f"source at unknown bus {src.bus}")
        if 0 in (src.z1, src.z0, src.z2):  # None when z0 and z2 default to z1
            diags.append(f"source at bus {src.bus}: zero internal impedance")
        if not all(cmath.isfinite(v) for v in (src.z1, src.z0, src.z2, src.emf) if v is not None):
            diags.append(f"source at bus {src.bus}: non-finite impedance or EMF")

    # Every bus must reach a source bus through lines, otherwise its
    # driving-point impedance is infinite.
    source_buses = {s.bus for s in net.sources if s.bus in seen}
    if source_buses:
        reach, frontier = set(source_buses), list(source_buses)
        adj: dict[int, list[int]] = {b: [] for b in seen}
        for rec in net.lines:
            if rec.from_bus in seen and rec.to_bus in seen:  # else diagnosed above
                adj[rec.from_bus].append(rec.to_bus)
                adj[rec.to_bus].append(rec.from_bus)
        while frontier:
            b = frontier.pop()
            for nb in adj[b]:
                if nb not in reach:
                    reach.add(nb)
                    frontier.append(nb)
        for b in net.buses:
            if b not in reach:
                diags.append(f"bus {b} has no path to any source (ungrounded island)")
    return diags
