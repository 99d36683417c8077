#!/usr/bin/env python3
"""
Convergence-speed bounds from empirical mixing tables
=====================================================

The Zeno error admits a bound built from nothing but the mixing speeds of
the chain states (tLP)^{l-1} x:

    sup_l ( ||tL||^{-l+1} s_{N_l}((tLP)^{l-1} x) + N_l / n * ||x|| )

up to a constant.  For the attenuator the chain collapses after two states,
the mixing tables decay exponentially, and the choice
N_l = floor(log n / log(1/|eta|)) turns the supremum into an explicit
log(n)/n envelope.  The script evaluates that pipeline and compares it to
the measured error, which comes from the sweep engine of `zenolab run`.
"""

import numpy as np

from zenolab import (
    HamiltonianCommutator,
    annihilation,
    attenuator_kraus,
    attenuator_speed_bound,
    chain_states,
    constant_big_n,
    mixing_speed_empirical,
    one_one_norm_probe,
    theoretical_zeno_bound_ssup,
    to_superoperator,
    trace_norm,
    vacuum_projection_superop,
)
from zenolab.experiments import parse_config_text, run_experiment

d = 8
eta = 0.5
t = 1.0

a = annihilation(d)
m = to_superoperator(attenuator_kraus(eta, d))
p = vacuum_projection_superop(d)
l = HamiltonianCommutator(hamiltonian=(a + a.conj().T) / d).to_superoperator(d)
rho = np.zeros((d, d), dtype=complex)
rho[1, 1] = 1.0

# --- chain states and their mixing tables -----------------------------------
l_max = 6
chain = chain_states(l, p, t, rho, l_max)
print("trace norms of the chain states (tLP)^(l-1) x:")
for idx, state in enumerate(chain, start=1):
    print(f"  l={idx}: {trace_norm(state):.6e}")

mixing_grid = list(range(1, 33))
tables = []
for state in chain:
    if np.linalg.norm(state) > 0:
        tables.append(mixing_speed_empirical(m, p, state, mixing_grid))
    else:
        tables.append([(n, 0.0) for n in mixing_grid])

l_norm = one_one_norm_probe(l)
print(f"\n||L|| probe lower bound: {l_norm.value:.6g} ({l_norm.probe_count} probes)")

# --- the bound core vs the measured error ------------------------------------
# the same instance as a zeno sweep: H = (a + a^dag)/d is the default
# quadrature Hamiltonian, and n = 8, 32, 128, 512
sweep = parse_config_text(
    f"""
[experiment]
kind = zeno
dimension = {d}
t = {t}

[channel]
eta_re = {eta}

[grid]
start = 8
factor = 4
count = 4

[states]
specs = fock:1
"""
)
rows = run_experiment(sweep)

print("\n   n    measured error   bound core s_sup   argmax l (inside truncation)")
for row in rows:
    n, err = int(row.parameter), row.error
    big_n = constant_big_n(n, eta, l_max)
    bound = theoretical_zeno_bound_ssup(tables, l_norm.value, t, n, big_n, trace_norm(rho), l_max=l_max)
    print(f"  {n:4d}   {err:.6e}     {bound.value:.6e}     l*={bound.argmax_l} ({bound.attained_inside_truncation})")

# --- the attenuator-specific state factor -------------------------------------
print("\nstate-dependent log(m)/m factor for a few inputs:")
for label, state in (("vacuum", np.eye(1, d, 0).T @ np.eye(1, d, 0).astype(complex)),
                     ("fock:1", rho)):
    value = attenuator_speed_bound(state, l, t, 256.0)
    print(f"  {label:8s}: {value:.6e}")
