from __future__ import annotations

import cmath
import math
import struct

from dataclasses import replace
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from faultloc import CaseError, build_zbus, parse_case, validate
from faultloc.netmodel import LineRecord, Network, SourceRecord

from oracles import reference_parse_case
from test_ranking import mesh_text

ONE_BUS = """
base 100 230 50
bus 1
source 1 0.0006 0.037343
"""


def test_parse_one_bus_case():
    net = parse_case(ONE_BUS)
    assert net.n == 1
    assert net.lines == ()
    assert len(net.sources) == 1
    assert net.sources[0].z1 == complex(0.0006, 0.037343)
    assert net.sources[0].emf == 1.0 + 0.0j


def test_parse_fourbus_counts_and_lengths(fourbus):
    assert fourbus.n == 4
    assert len(fourbus.lines) == 3
    assert len(fourbus.sources) == 2
    lengths = {rec.id: rec.length_km for rec in fourbus.lines}
    assert lengths == {"T1": 21.4, "T2": 178.6, "T3": 91.4}
    t2 = fourbus.line("T2")
    assert t2.z1_per_km == complex(0.015455, 0.116066)
    assert t2.z0_per_km == complex(0.098871, 0.365188)
    assert fourbus.base_mva == 100 and fourbus.base_kv == 230
    assert fourbus.z_base_ohm == pytest.approx(529.0)


def test_parse_unknown_bus_reference():
    text = ONE_BUS + "line L 1 9 10 0.01 0.1 0.03 0.3\n"
    with pytest.raises(CaseError, match="unknown bus 9"):
        parse_case(text)


def test_parse_duplicate_bus_label():
    text = "# comment\nbus 3\nbus 4\n\nbus 3\nsource 3 0 0.1\n"
    with pytest.raises(CaseError, match=r"^line 5: duplicate bus label 3$"):
        parse_case(text)


UNORDERED = """
bus 5
bus 2
bus 9
line B 5 2 10 0.01 0.1 0.03 0.3
line A 2 9 20 0.01 0.1 0.03 0.3
source 9 0.001 0.04
"""


def test_parse_keeps_declaration_order():
    net = parse_case(UNORDERED)
    assert net.buses == (5, 2, 9)
    assert [rec.id for rec in net.lines] == ["B", "A"]
    assert [net.bus_index(b) for b in (5, 2, 9)] == [0, 1, 2]
    assert build_zbus(net, 1).bus_order == (5, 2, 9)


@pytest.mark.parametrize(
    "record",
    [
        "line L 1 7 10 0.01 0.1 0.03 0.3",
        "line L 7 1 10 0.01 0.1 0.03 0.3",
        "line L 7 7 10 0.01 0.1 0.03 0.3",  # unknown before joining a bus to itself
        "source 7 0.001 0.04",
    ],
)
def test_parse_rejects_a_bus_declared_further_down(record):
    text = f"bus 1\n{record}\nbus 7\nsource 1 0.001 0.04\n"
    with pytest.raises(CaseError, match=r"^line 2: unknown bus 7$"):
        parse_case(text)


def test_parse_non_positive_length():
    text = "bus 1\nbus 2\nline L 1 2 0.0 0.01 0.1 0.03 0.3\nsource 1 0 0.1\n"
    with pytest.raises(CaseError, match="non-positive length"):
        parse_case(text)


def test_parse_empty_sources():
    with pytest.raises(CaseError, match="no sources"):
        parse_case("bus 1\nbus 2\nline L 1 2 1 0.01 0.1 0.03 0.3\n")


def test_parse_syntax_error_names_line():
    with pytest.raises(CaseError, match="line 2"):
        parse_case("bus 1\nwibble 3 4\n")


def test_parse_bad_number_names_line():
    with pytest.raises(CaseError, match="line 3"):
        parse_case("bus 1\nbus 2\nline L 1 2 ten 0.01 0.1 0.03 0.3\n")


def test_parse_keeps_explicit_source_fields():
    text = "bus 1\nsource 1 0.001 0.1 0.002 0.2 0.001 0.1 1.05 -10\n"
    net = parse_case(text)
    src = net.sources[0]
    assert src.z0 == complex(0.002, 0.2)
    assert src.z2 == complex(0.001, 0.1)
    assert abs(abs(src.emf) - 1.05) < 1e-15
    assert cmath.phase(src.emf) == pytest.approx(math.radians(-10.0), rel=1e-15)


def test_total_impedance_linear_in_length():
    rec = LineRecord("L", 1, 2, 178.6, complex(0.015455, 0.116066), complex(0.098871, 0.365188))
    half = LineRecord("L", 1, 2, 178.6 / 2, rec.z1_per_km, rec.z0_per_km)
    assert half.z1 == rec.z1 / 2
    assert half.z0 == rec.z0 / 2
    assert rec.z(2) == rec.z1


def test_validate_clean_cases(fourbus, ieee14):
    assert validate(fourbus) == []
    assert validate(ieee14) == []


def test_validate_ungrounded():
    net = Network(buses=(1,), lines=(), sources=())
    assert any("ungrounded" in d for d in validate(net))


def test_validate_bad_line_records():
    bad = LineRecord("L", 1, 2, 0.0, complex(0.01, 0.1), complex(0.03, 0.3))
    net = Network(
        buses=(1, 2),
        lines=(bad,),
        sources=(SourceRecord(bus=1, z1=0.1j),),
    )
    diags = validate(net)
    assert any("non-positive length" in d for d in diags)


def test_validate_reports_a_line_to_an_unknown_bus():
    net = Network(
        buses=(1, 2),
        lines=(
            LineRecord("L", 1, 2, 1.0, complex(0.01, 0.1), complex(0.03, 0.3)),
            LineRecord("X", 2, 99, 1.0, complex(0.01, 0.1), complex(0.03, 0.3)),
        ),
        sources=(SourceRecord(bus=1, z1=0.1j),),
    )
    assert validate(net) == ["line X: unknown bus 99"]


@pytest.mark.parametrize(
    "record, change, diagnostic",
    [
        ("T2", {"z1_per_km": 0j}, "line T2: zero sequence-1 impedance"),
        ("T2", {"z0_per_km": 0j}, "line T2: zero sequence-0 impedance"),
        (3, {"z0": 0j}, "source at bus 3: zero internal impedance"),
        (3, {"z2": 0j}, "source at bus 3: zero internal impedance"),
        ("T2", {"length_km": math.nan}, "line T2: non-finite length or impedance"),
        ("T2", {"length_km": math.inf}, "line T2: non-finite length or impedance"),
        ("T2", {"z1_per_km": complex(math.nan, 0.1)}, "line T2: non-finite length or impedance"),
        (3, {"z1": complex(math.nan, 0.0)}, "source at bus 3: non-finite impedance or EMF"),
        (3, {"emf": complex(math.inf, 0.0)}, "source at bus 3: non-finite impedance or EMF"),
        (None, {"base_mva": 0.0}, "non-positive or non-finite base value in (0.0, 230.0, 50.0)"),
        (None, {"base_kv": math.nan}, "non-positive or non-finite base value in (100.0, nan, 50.0)"),
    ],
)
def test_validate_reports_zero_impedance_records(fourbus, record, change, diagnostic):
    """A zero line or source impedance is an infinite admittance, which
    ``parse_case`` refuses and no matrix can be built from.  It refuses
    non-finite numbers and non-positive base values too, and so does
    ``validate``.  A ``record`` of None changes the network itself."""
    lines = tuple(replace(rec, **change) if rec.id == record else rec for rec in fourbus.lines)
    sources = tuple(replace(src, **change) if src.bus == record else src for src in fourbus.sources)
    net = replace(fourbus, lines=lines, sources=sources, **(change if record is None else {}))
    assert validate(net) == [diagnostic]


def test_validate_unreachable_island():
    lonely = Network(
        buses=(1, 2, 3),
        lines=(LineRecord("L", 1, 2, 1.0, complex(0.01, 0.1), complex(0.03, 0.3)),),
        sources=(SourceRecord(bus=1, z1=0.1j),),
    )
    diags = validate(lonely)
    assert any("bus 3" in d and "ungrounded" in d for d in diags)


def test_line_between_and_parallel_ambiguity(parallel_pair):
    assert parallel_pair.line_between(2, 3).id == "T"
    assert parallel_pair.line_between(3, 2).id == "T"
    with pytest.raises(CaseError, match="parallel"):
        parallel_pair.line_between(1, 2)


def test_unknown_line_lookup(fourbus):
    with pytest.raises(CaseError, match="unknown line"):
        fourbus.line("T9")


def test_current_channel_ids(fourbus, ieee14, parallel_pair):
    t1, t2 = fourbus.line("T1"), fourbus.line("T2")
    assert fourbus.channel("T2") == (t2, "")
    assert fourbus.channel("T2@from") == (t2, "from")
    assert fourbus.channel("T2@to") == (t2, "to")
    assert fourbus.channel("3-1") == (t1, "")  # T1 joins buses 3 and 1
    assert fourbus.channel("1-3@to") == (t1, "to")
    assert ieee14.channel("2-3") == (ieee14.line("2-3"), "")
    assert ieee14.channel("3-2@from") == (ieee14.line("2-3"), "from")
    for token in ("T1@bogus", "T1@", "T1@from@to"):
        with pytest.raises(CaseError, match=f"suffix in current channel {token!r}"):
            fourbus.channel(token)
    for token in ("T9", "T9@from", "1-2-3", "x-1", ""):
        with pytest.raises(CaseError, match=f"unknown line in current channel {token!r}"):
            fourbus.channel(token)
    with pytest.raises(CaseError, match="no line between buses 1 and 4"):
        fourbus.channel("1-4")
    with pytest.raises(CaseError, match="parallel"):
        parallel_pair.channel("1-2@from")


@pytest.mark.parametrize(
    "record",
    [
        "base nan 230 50",
        "base 100 inf 50",
        "base 0 230 50",
        "base 100 0 50",
        "base -100 230 50",
        "base 100 230 -0",
        "line L 1 2 nan 0.01 0.1 0.03 0.3",
        "line L 1 2 10 0.01 -inf 0.03 0.3",
        "source 1 0.0006 0.037343 nan 0",
        "source 1 0.0006 0.037343 0.001 0.1 0.001 0.1 1.0 inf",
    ],
)
def test_parse_rejects_non_finite_numbers(record):
    kind = record.split()[0]
    text = {
        "base": record + "\nbus 1\nsource 1 0.0006 0.037343\n",
        "line": "bus 1\nbus 2\n" + record + "\nsource 1 0.0006 0.037343\n",
        "source": "bus 1\n" + record + "\n",
    }[kind]
    with pytest.raises(CaseError, match=r"line \d+: bad"):
        parse_case(text)


# ---------------------------------------------------------------------------
# The one-pass parse against the record-by-record reference parser
# ---------------------------------------------------------------------------


def _case_text(name: str) -> str:
    return resources.files("faultloc").joinpath("cases", f"{name}.case").read_text(encoding="utf-8")


#: Fourbus, ieee14 and a 4x4 mesh, as rows of tokens (comment rows included).
_BASE_ROWS = [
    [raw.split() for raw in text.splitlines()]
    for text in (_case_text("fourbus"), _case_text("ieee14"), mesh_text(4, seed=3))
]

#: Where a record's numbers and bus labels sit among its tokens.
_NUMBERS = {"base": range(1, 4), "line": range(4, 9), "source": range(2, 10)}
_LABELS = {"bus": (1,), "line": (2, 3), "source": (1,)}

#: Mutations, numbers and labels drawn most often.
_OPS = ["number"] * 4 + ["label"] * 2 + ["drop", "duplicate", "swap", "id", "comment"]


def _bits(x) -> tuple:
    """A value's exact bits: ``-0.0`` is not ``0.0``, and every NaN is one."""
    if x is None or isinstance(x, (str, int)):
        return (x,)
    x = complex(x)
    return struct.pack("<dd", x.real, x.imag), cmath.isnan(x)


def _record_bits(net: Network) -> tuple:
    lines = [
        (r.id, r.from_bus, r.to_bus, _bits(r.length_km), _bits(r.z1_per_km), _bits(r.z0_per_km))
        for r in net.lines
    ]
    sources = [(s.bus, *map(_bits, (s.z1, s.z2, s.z0, s.emf))) for s in net.sources]
    base = tuple(map(_bits, (net.base_mva, net.base_kv, net.frequency_hz)))
    return net.buses, lines, sources, base


def _bundle_bits(net: Network) -> tuple:
    p, q, ids, z1, z0 = net._lines_bundle()
    assert not any(a.flags.writeable for a in (p, q, ids))
    return p.tolist(), q.tolist(), ids.tolist(), [_bits(z) for z in z1], [_bits(z) for z in z0]


@st.composite
def _mutated_cases(draw) -> str:
    """A bundled case or a 4x4 mesh, its tokens mutated: numbers and labels
    replaced, records dropped, duplicated or swapped, ids duplicated and
    comments inserted.  Some mutations leave a valid case."""
    rows = [list(row) for row in draw(st.sampled_from(_BASE_ROWS))]
    records = lambda kinds: [i for i, row in enumerate(rows) if row and row[0] in kinds]  # noqa: E731
    for _ in range(draw(st.integers(0, 3))):
        op = draw(st.sampled_from(_OPS))
        kinds = {"number": _NUMBERS, "label": _LABELS}.get(op, _NUMBERS.keys() | _LABELS.keys())
        if not (candidates := records(kinds)):
            break
        row = rows[i := draw(st.sampled_from(candidates))]
        if op == "number" and (at := [k for k in _NUMBERS[row[0]] if k < len(row)]):
            k = draw(st.sampled_from(at))
            row[k] = draw(st.sampled_from(["0", "-0", f"-{row[k]}", "nan", "inf", "1e400", "", "word"]))
        elif op == "label" and (at := [k for k in _LABELS[row[0]] if k < len(row)]):
            k = draw(st.sampled_from(at))
            other = row[5 - k] if row[0] == "line" else rows[candidates[-1]][1]  # a self-loop
            row[k] = draw(st.sampled_from(["999", "1.5", "x", "-3", "+2", "١", other]))
        elif op == "drop":
            del rows[i]
        elif op == "duplicate":
            rows.insert(draw(st.integers(0, len(rows))), list(row))
        elif op == "swap":
            j = draw(st.integers(0, len(rows) - 1))
            rows[i], rows[j] = rows[j], rows[i]
        elif op == "id" and row[0] == "line":
            row[1] = rows[draw(st.sampled_from(records({"line"})))][1]
        elif op == "comment":
            row.insert(draw(st.integers(0, len(row))), draw(st.sampled_from(["#", "# note", "#x"])))
    return "\n".join(" ".join(row) for row in rows) + "\n"


def _outcome(parse, text: str):
    try:
        return parse(text), None
    except CaseError as exc:
        return None, str(exc)


@settings(derandomize=True, max_examples=400, deadline=2000)
@given(text=_mutated_cases())
def test_parse_matches_the_reference_parser_on_mutated_cases(text):
    """The same error text, or networks whose records agree bit for bit; the
    per-line cache the parse fills equals the one built from the records."""
    (net, error), (want, want_error) = _outcome(parse_case, text), _outcome(reference_parse_case, text)
    assert error == want_error
    if net is not None:
        assert _record_bits(net) == _record_bits(want)
        assert _bundle_bits(net) == _bundle_bits(want) == _bundle_bits(replace(net, lines=net.lines))


@pytest.mark.parametrize(
    ("records", "error"),
    [
        # A bad number on an earlier record comes before an unknown bus after it.
        (["line A 1 2 nan 0.01 0.1 0.03 0.3", "line B 1 9 1 0.01 0.1 0.03 0.3"], "line 4: bad length"),
        (["line A 1 2 1 0.01 0.1 -0.03 0.3", "line A 1 2 1 0.01 0.1 0.03 0.3"], "line 4: negative"),
        # Within a record, the first failing check in field order.
        (["line A 1 1 0 nan 0.1 0.03 0.3"], "line 4: line 'A' joins a bus to itself"),
        (["line A 1 2 -1 nan 0.1 0.03 0.3"], "line 4: non-positive length -1.0"),
        (["line A 1 2 1 0 0 0 1e400"], "line 4: bad impedance '1e400'"),
        (["line A 1 2 1 0 -0 0.03 0.3"], "line 4: line 'A' has zero sequence-1 impedance"),
        (["line A 1 2 1 0.01 0.1 -0 0"], "line 4: line 'A' has zero sequence-0 impedance"),
        (["line A x 9 1 0.01 0.1 0.03 0.3"], "line 4: bus label must be an integer, got 'x'"),
        (["line A 1 2 1 0.01 0.1 0.03"], "line 4: line expects"),
    ],
)
def test_parse_reports_the_first_failing_check_in_file_order(records, error):
    text = "\n".join(["bus 1", "bus 2", "source 1 0.01 0.1", *records]) + "\n"
    with pytest.raises(CaseError) as got:
        parse_case(text)
    assert str(got.value).startswith(error)
    assert _outcome(reference_parse_case, text)[1] == str(got.value)
