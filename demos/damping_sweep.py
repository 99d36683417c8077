#!/usr/bin/env python3
"""
Strong damping limit of the attenuator semigroup
================================================

Turns up the dissipation strength gamma in exp(t (gamma K + L)) and watches
the total dynamics collapse onto the effective vacuum dynamics, with error
falling like log(gamma)/gamma.

The numbers are those of `zenolab run attenuator-damping`: d = 16,
H = (a + a^dag)/d, t = 1 and gamma = 8 .. 2048.
"""

from zenolab.experiments import preset_config, run_experiment

state = "coherent:0.8"
rows = [row for row in run_experiment(preset_config("attenuator-damping")) if row.state_id == state]

print(f"  gamma    ||exp(t(gamma K + L)) - effective||_1 ({state})")
for row in rows:
    print(f"  {row.parameter:6.0f}   {row.error:.6e}")

print(f"\npower-log fit: error ~ C log(gamma)/gamma^p with p = {rows[0].fitted_p:.3f}")

# The total dynamics is trace preserving and L moves nothing out of the
# vacuum on average, so the strong-damping limit is the vacuum itself, and
# a row's error is twice the trace distance of the evolved state to it.
last = rows[-1]
print(f"trace distance of the gamma={last.parameter:.0f} state to the vacuum:", f"{last.error / 2:.2e}")
