"""The public surface: what the package exports, how much of it there is, and
the internal names the benchmark's tracer needs kept."""
from __future__ import annotations

from pathlib import Path

import importlib.util
import sys

import faultloc
from faultloc import cli, faultsim, locator, netmodel, seqmatrix

#: Public names over the five modules' ``__all__``.  The surface may shrink;
#: lower this bound when it does, never raise it.
MAX_PUBLIC_NAMES = 35

#: Lines over ``src/faultloc/*.py``, as ``wc -l`` counts them.  The same rule:
#: lower it when the code shrinks, never raise it.
MAX_SOURCE_LINES = 2184


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


def _perfbench_spans():
    """``perfbench/spans.py``, loaded from its file: it imports the standard library only."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("_perfbench_spans", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_every_traced_site_is_its_owners_own_attribute():
    """The tracer wraps each site through its owner's ``__dict__``: a site
    renamed, moved or no longer imported where it is traced fails here."""
    spans = _perfbench_spans()
    sites = [site[:2] for site in spans.SPAN_SITES + spans.LAW_SITES + spans.CHANNEL_SITES]
    missing = [(path, attr) for path, attr in sites if attr not in vars(spans._resolve(path))]
    assert sites and not missing, missing
