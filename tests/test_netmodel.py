from __future__ import annotations

import cmath
import math

from dataclasses import replace

import pytest

from faultloc import CaseError, build_zbus, parse_case, validate
from faultloc.netmodel import LineRecord, Network, SourceRecord

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
    ],
)
def test_validate_reports_zero_impedance_records(fourbus, record, change, diagnostic):
    """A zero line or source impedance is an infinite admittance, which
    ``parse_case`` refuses and no matrix can be built from."""
    lines = tuple(replace(rec, **change) if rec.id == record else rec for rec in fourbus.lines)
    sources = tuple(replace(src, **change) if src.bus == record else src for src in fourbus.sources)
    assert validate(replace(fourbus, lines=lines, sources=sources)) == [diagnostic]


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
