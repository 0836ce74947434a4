#!/usr/bin/env python3
"""Linear-programming exclusion certificates.

Runs the eigenstate-support and eigenstate-mixture feasibility programs on
the deterministic response atoms of a certified witness fragment, verifies
the infeasibility certificates, and contrasts them with the feasible
control programs and the quantum overlap ceiling.
"""

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
""")

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
