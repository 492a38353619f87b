"""
Locating a fault on the two-area 4-bus system, step by step
===========================================================

Walks the whole pipeline once: parse the bundled case, build the bus
impedance matrix, look at the position-coefficient laws, simulate a
single-line-to-ground fault on the tie line, and recover its position with
all four estimators.

Run:  python demos/fourbus_walkthrough.py
"""
import faultloc as fl

# ---------------------------------------------------------------------------
# The network: generator 1 behind the short line T1, generator 2 behind T3,
# and the 178.6 km tie line T2 between buses 1 and 2.
net = fl.bundled_case("fourbus")
print("Case:", f"{net.base_kv:g} kV, {net.base_mva:g} MVA, {net.frequency_hz:g} Hz")
for rec in net.lines:
    print(f"  line {rec.id}: {rec.from_bus}-{rec.to_bus}, {rec.length_km} km, "
          f"z1 = {rec.z1:.4f} pu")

# ---------------------------------------------------------------------------
# The positive-sequence bus impedance matrix.  Entry (j, k) is the voltage
# at bus j per unit current injected at bus k.
zbus = fl.build_zbus(net, 1)
print("\nPositive-sequence bus impedance matrix (diagonal):")
for b in net.buses:
    print(f"  Z[{b},{b}] = {zbus.column(b)[zbus.index(b)]:.4f} pu")

# ---------------------------------------------------------------------------
# For a fault at normalized position m on T2 the transfer impedance from
# any bus to the fault point is linear in m, and the driving-point
# impedance at the fault is quadratic in m.  These laws are all the
# estimators need.
line = net.line("T2")
for bus in (1, 2):
    tc = fl.transfer_coefficients(zbus, line, bus)
    print(f"\nbus {bus}: z(m) = {tc.b:.4f} + ({tc.c:.4f})*m")
fp = fl.fault_point_coefficients(zbus, line)
print(f"fault point: z(m) = {fp.a0:.4f} + ({fp.a1:.4f})*m + ({fp.a2:.4f})*m^2")

# ---------------------------------------------------------------------------
# Simulate a phase-a-to-ground fault 100 km from bus 2 (m = 0.56) through
# 1 ohm of fault resistance.  The result is exactly what synchronized
# phasor measurement units would report: pre-fault and during-fault
# positive-sequence phasors at every bus and healthy branch.
scenario = fl.FaultScenario("T2", m=100.0 / 178.6, fault_type=fl.FaultType.LG, rf_ohm=1.0)
measurements = fl.FaultStudy(net).measurements(scenario)
print(f"\nScenario: {scenario.fault_type.value} fault on T2 at m = {scenario.m:.4f}")
for b in net.buses:
    print(f"  bus {b}: |E| pre {abs(measurements.prefault_bus_v[b]):.4f}"
          f" -> fault {abs(measurements.fault_bus_v[b][1]):.4f} pu")

# ---------------------------------------------------------------------------
# Recover the fault position.  Each method consumes a different pair of
# channels; all are exact on noiseless measurements.
runs = [
    (fl.Method.SSVM, fl.VoltagePlacement(1, 2), "voltages at buses 1 and 2"),
    (fl.Method.SSCM, fl.CurrentPlacement("T1", "T3"), "currents through T1 and T3"),
    (fl.Method.HYBRID_DIRECT, fl.HybridPlacement("T1", 2), "current T1 + voltage 2"),
    (fl.Method.HYBRID_QUAD, fl.HybridPlacement("T1", 2), "same, via the quadratic"),
]
print("\nEstimates (true m = {:.6f}, i.e. {:.1f} km from bus 2):".format(scenario.m, 100.0))
for method, placement, label in runs:
    est = fl.estimate_for_placement(net, zbus, "T2", placement, measurements, method)
    km = est.m * line.length_km
    err = fl.percent_error(100.0, km, line.length_km)
    print(f"  {method.value:12s} {label:28s} m = {est.m:.12f}"
          f" ({km:8.4f} km, error {err:.2e} %)")
