"""
How the cost weights shape a recovery step
==========================================

The step planner trades three penalties against each other.  alpha1
prices distance of the landing from the nominal footprint.  alpha2
prices the DCM offset left over at touchdown.  alpha3 prices deviation
of the step timing from the nominal duration.  This script plans the
same perturbed state under a sweep of weight triples and prints where
the foot goes and for how long the step lasts.
"""

import math

from exorecover import NominalGait, StepBounds, plan_step, step_program

omega = math.sqrt(9.81 / 0.88)
bounds = StepBounds(cop_min=(-0.15, -0.30), cop_max=(0.30, -0.04), T_min=0.25, T_max=1.2)

# A forward DCM excursion of 0.08 m with the CoP still under the stance
# foot.  Every plan below answers the same disturbance.
xi0 = (0.08, 0.0)
cop0 = (0.0, 0.0)


def plan_with(weights):
    nominal = NominalGait(cop_T_nom=(0.0, -0.2), gamma_nom=(0.0, 0.0), T_nom=0.5, weights=weights)
    return plan_step(xi0, step_program(cop0, omega, nominal, bounds))


def describe(weights):
    plan = plan_with(weights)
    length = math.dist(plan.cop_T, (0.0, -0.2))
    print(f"  ({weights[0]:7.2f}, {weights[1]:4.1f}, {weights[2]:5.2f})"
          f"   ({plan.cop_T[0]:+.3f}, {plan.cop_T[1]:+.3f})"
          f"   {length:7.3f}      {plan.duration:6.3f}")
    return length, plan.duration


print("  (alpha1, alpha2, alpha3)   landing (x, y)   step length  duration")

# A permissive triple, a position-tracking triple and a conservative
# triple that also pins the timing.  Heavier tracking weights buy shorter
# steps at the cost of holding the disturbance longer.
for triple in ((1.0, 5.0, 0.02), (10.0, 5.0, 0.02), (50.0, 5.0, 2.0)):
    describe(triple)

# ---------------------------------------------------------------------------
# Ramping one weight at a time makes the monotone trade-off visible.

print("\nalpha1 ramp (step length shrinks):")
for a1 in (1.0, 10.0, 100.0, 1000.0):
    length, _ = describe((a1, 5.0, 0.02))

print("\nalpha3 ramp (duration pinned to the nominal 0.5 s):")
for a3 in (0.02, 0.2, 2.0, 20.0):
    describe((1.0, 5.0, a3))
