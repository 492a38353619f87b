"""Fault location on meshed transmission networks from sparse phasor data.

The package parses a small structured-text case format, builds per-sequence
bus impedance matrices, simulates shunt faults analytically, and estimates
fault positions from synchronized voltage and/or current phasor pairs.  It
re-exports the ``__all__`` of each library module.
"""
from .netmodel import *  # noqa: F403
from .seqmatrix import *  # noqa: F403
from .faultsim import *  # noqa: F403
from .locator import *  # noqa: F403

__version__ = "0.1.0"
