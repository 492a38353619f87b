"""Fault location on meshed transmission networks from sparse phasor data.

The package parses a small structured-text case format, builds per-sequence
bus impedance matrices, simulates shunt faults analytically, and estimates
fault positions from synchronized voltage and/or current phasor pairs.
"""
from .netmodel import (
    CaseError,
    LineRecord,
    Network,
    SourceRecord,
    bundled_case,
    load_case,
    parse_case,
    validate,
)
from .seqmatrix import (
    FaultPointCoefficients,
    IllConditionedNetworkError,
    LinearLaw,
    SequenceZbus,
    UngroundedNetworkError,
    branch_coefficients,
    build_ybus,
    build_zbus,
    fault_point_coefficients,
    transfer_coefficients,
)
from .faultsim import (
    Distortion,
    FaultScenario,
    FaultStudy,
    FaultType,
    MeasurementTaps,
    PhasorMeasurementSet,
    apply_distortion,
    fault_sequence_currents,
    measurements_from_csv,
    measurements_to_csv,
    prefault_solve,
)
from .locator import (
    Channel,
    CurrentPlacement,
    DegenerateChannelError,
    HybridPlacement,
    LinearDependenceError,
    LocationEstimate,
    Method,
    VoltagePlacement,
    current_channel,
    estimate_for_placement,
    feasibility_check,
    locate,
    percent_error,
    rank_line_hypotheses,
    voltage_channel,
)

__version__ = "0.1.0"
