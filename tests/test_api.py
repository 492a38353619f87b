"""The public surface: what the package exports, and how much of it there is."""
from __future__ import annotations

from pathlib import Path

import faultloc
from faultloc import cli, faultsim, locator, netmodel, seqmatrix

#: Public names over the five modules' ``__all__``.  The surface may shrink;
#: lower this bound when it does, never raise it.
MAX_PUBLIC_NAMES = 47

#: Lines over ``src/faultloc/*.py``, as ``wc -l`` counts them.  The same rule:
#: lower it when the code shrinks, never raise it.
MAX_SOURCE_LINES = 2209


def test_package_reexports_every_library_name():
    for module in (netmodel, seqmatrix, faultsim, locator):
        for name in module.__all__:
            assert getattr(faultloc, name, None) is getattr(module, name), (
                f"faultloc does not re-export {module.__name__}.{name}"
            )


def test_public_name_count_does_not_grow():
    modules = (netmodel, seqmatrix, faultsim, locator, cli)
    assert sum(len(module.__all__) for module in modules) <= MAX_PUBLIC_NAMES


def test_source_line_count_does_not_grow():
    sources = Path(faultloc.__file__).parent.glob("*.py")
    lines = sum(p.read_text(encoding="utf-8").count("\n") for p in sources)
    assert lines <= MAX_SOURCE_LINES
