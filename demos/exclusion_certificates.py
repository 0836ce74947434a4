#!/usr/bin/env python3
"""Linear-programming exclusion certificates.

Runs the eigenstate-support and eigenstate-mixture feasibility programs on
the deterministic response atoms of a certified witness fragment, verifies
the infeasibility certificates, and contrasts them with the feasible
control programs and the quantum overlap ceiling. The eigenstate-support
certificate is printed row by row: its nonzero multipliers are the paper's
inequality chain.
"""

from fractions import Fraction

from macroreal import WitnessExclusion, WitnessParams, build_witness

ALPHA = 0.5

print("=" * 72)
print(f"Exclusion programs at alpha = {ALPHA}")
print("=" * 72)

context = WitnessExclusion(build_witness(WitnessParams(ALPHA)))
print(f"\nresponse atoms: {len(context.atoms)} "
      f"(three 4-outcome measurements -> 4^3)")
print("accessible-atom sets:")
for target in ("zero", "q1", "q2", "q3", "phi"):
    print(f"  {target:>4}: {len(context.accessible(target))} atoms")

esmr = context.esmr()
print(f"""
[eigenstate-support program]
  status: {esmr.status}
  certificate residual: {esmr.certificate_residual:.2e} (budget 1e-7)
  {esmr.explanation}
  Farkas multipliers (half 1 is psi before the fixing unitary, half 2 after):""")
rows = [
    f"half {half}, {name}, outcome {label}"
    for half in (1, 2)
    for name, meas in context.fragment.measurements.items()
    for label in meas.outcomes
]
multipliers = list(esmr.outcome.farkas_eq) + list(esmr.outcome.farkas_ub)
for row, y in zip(rows + ["transport"], multipliers):
    if y != 0.0:
        print(f"    {str(Fraction(y).limit_denominator(1000)):>5}  [{row}]")
gain = esmr.program.b_eq @ esmr.outcome.farkas_eq
print(f"  gain b.y = {gain:.6f} = (3/5) alpha^2 (1 - 2 alpha^2) "
      f"= {0.6 * ALPHA**2 * (1 - 2 * ALPHA**2):.6f}\n")

emmr = context.emmr()
print(f"[eigenstate-mixture program]\n  status: {emmr.status}, "
      f"certificate residual {emmr.certificate_residual:.2e}")

overlap = context.max_overlap()
print(f"""
[quantum ceiling]
  maximize accessible mass of (phi, zero) under the witness statistics:
  optimum  = {overlap.optimum:.9f}
  required = {overlap.required_mass:.9f}
  deficit  = {overlap.required_mass - overlap.optimum:.9f}
""")

control = context.macro_only_control()
print(f"[macro-only control]  status: {control.status} "
      "(mixtures reproduce any single-observable statistics)")

static = context.static_control()
print(f"[static control, transport constraint removed]  status: {static.status} "
      "(recorded, not asserted)")

free = context.unconstrained_control()
print(f"[unconstrained control]  status: {free.status} "
      "(the product measure always reproduces the statistics)")
