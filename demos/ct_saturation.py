"""
Current-transformer saturation and which estimators survive it
==============================================================

A heavy close-in fault can drive the faulted line's current transformer
into saturation, so the reported current magnitude is clamped.  Estimators
that never consume that channel are untouched bit for bit.  A current pair
that reads the terminal current (T2@from with T1) is exact on clean data,
like every other pair here, and drifts once the CT saturates.

Run:  python demos/ct_saturation.py
"""
import faultloc as fl

net = fl.bundled_case("fourbus")
study = fl.FaultStudy(net)
zbus = study.zbus(1)

scenario = fl.FaultScenario("T2", m=0.56, fault_type=fl.FaultType.LLL, rf_ohm=1.0)
taps = fl.MeasurementTaps()
clean = study.measurements(scenario, taps)

# Saturate the CT at the bus-2 terminal of the faulted line: clamp the
# channel at 60% of its true magnitude.
true_mag = abs(clean.fault_branch_i["T2@from"][1])
saturated = fl.apply_distortion(
    clean,
    [fl.Distortion(kind="branchI", channel="T2@from", clamp_pu=0.6 * true_mag)],
)
print(f"Faulted-line terminal current: {true_mag:.4f} pu true,"
      f" {abs(saturated.fault_branch_i['T2@from'][1]):.4f} pu after saturation\n")

runs = [
    ("voltage pair (1, 2)", fl.Method.SSVM, fl.VoltagePlacement(1, 2)),
    ("healthy current pair (T1, T3)", fl.Method.SSCM, fl.CurrentPlacement("T1", "T3")),
    ("hybrid: current T1 + voltage 2", fl.Method.HYBRID_DIRECT, fl.HybridPlacement("T1", 2)),
    ("current pair reading the CT (T2@from, T1)", fl.Method.SSCM,
     fl.CurrentPlacement("T2@from", "T1")),
]

print(f"{'placement':42s} {'clean m':>12s} {'saturated m':>12s}")
for label, method, placement in runs:
    before = fl.estimate_for_placement(net, zbus, "T2", placement, clean, method)
    after = fl.estimate_for_placement(net, zbus, "T2", placement, saturated, method)
    note = "unchanged" if before == after else f"moved {abs(after.m - before.m):.4f}"
    print(f"{label:42s} {before.m:12.6f} {after.m:12.6f}   {note}")

print("\nOnly the estimator that consumes the saturated channel moves; the"
      "\nvoltage and hybrid estimates are immune by construction.")
