"""Seeded n x n mesh cases for the benchmark.

Bus ``r*n + c + 1`` sits at row r, column c.  Every bus is joined to its
right and lower neighbour, so an n x n mesh has n*n buses and 2*n*(n-1)
lines.  Per-km impedances and lengths are drawn from the seed, which keeps
the X/R ratio different on every line: with one common ratio every transfer
impedance would share a phase angle, and wrong line hypotheses would solve
to real positions as cleanly as the true one.

Two sources ground the mesh at opposite corners.  The second one has a
non-zero EMF angle, so pre-fault branch currents are non-zero.
"""
from __future__ import annotations

import random

from faultloc.netmodel import parse_case, validate

#: 230 kV, 100 MVA: the impedance base is 529 ohm.
_BASE = "base 100 230 50"


def _num(x: float) -> str:
    return format(x, ".9g")


def mesh_case(n: int, seed: int) -> str:
    """Case text of a seeded n x n mesh; the same (n, seed) gives the same text."""
    if n < 2:
        raise ValueError(f"a mesh needs n >= 2, got {n}")
    rng = random.Random(f"perfbench-mesh-{n}-{seed}")
    out = [f"# seeded {n}x{n} mesh, seed {seed}", _BASE]
    out.extend(f"bus {k}" for k in range(1, n * n + 1))

    def line(lid: str, a: int, b: int) -> str:
        length = rng.uniform(20.0, 120.0)
        x1 = rng.uniform(5.0e-4, 9.0e-4)
        r1 = x1 * rng.uniform(0.03, 0.3)
        r0 = r1 * rng.uniform(2.0, 4.0)
        x0 = x1 * rng.uniform(2.5, 3.5)
        return f"line {lid} {a} {b} {_num(length)} {_num(r1)} {_num(x1)} {_num(r0)} {_num(x0)}"

    for r in range(n):
        for c in range(n):
            here = r * n + c + 1
            if c + 1 < n:
                out.append(line(f"h{r}_{c}", here, here + 1))
            if r + 1 < n:
                out.append(line(f"v{r}_{c}", here, here + n))
    out.append("source 1 0.002 0.04")
    out.append(f"source {n * n} 0.003 0.05 1.02 {_num(rng.uniform(-15.0, -5.0))}")
    return "\n".join(out) + "\n"


def checked_mesh_case(n: int, seed: int) -> str:
    """:func:`mesh_case`, after checking that it parses, validates and repeats.

    Raises ``ValueError`` when the text does not parse into a valid network
    of the expected size or differs between two generations.
    """
    text = mesh_case(n, seed)
    if mesh_case(n, seed) != text:
        raise ValueError(f"mesh {n}x{n} seed {seed} is not reproducible")
    net = parse_case(text)
    diags = validate(net)
    if diags:
        raise ValueError(f"mesh {n}x{n} seed {seed} fails validation: {diags[:3]}")
    if net.n != n * n or len(net.lines) != 2 * n * (n - 1):
        raise ValueError(f"mesh {n}x{n} has {net.n} buses and {len(net.lines)} lines")
    if all(src.emf.imag == 0.0 for src in net.sources):
        raise ValueError("mesh sources share one EMF angle; pre-fault currents vanish")
    return text
