#!/usr/bin/env python3
"""
Convergence-speed bounds from exact mixing speeds
=================================================

The Zeno error admits a bound built from nothing but the mixing speeds of
the chain states (tLP)^{l-1} x:

    sup_l ( ||tL||^{-l+1} s_{N_l}((tLP)^{l-1} x) + N_l / n * ||x|| )

up to a constant.  Every input is exact and matrix-free for the attenuator:

* L preserves the trace, so PLP = 0 and the chain is
  [x, t Tr(x) L(|0><0|), 0, ...], with L(|0><0|) = -i[H, |0><0|];
* s_N(y) = ||(Phi_{eta^N} - P) y||_1; one `attenuator_deviation` call at
  eta^N gives it for every chain state.  It does not increase with N, since
  Phi_{eta^{N+1}} - P = Phi_eta o (Phi_{eta^N} - P) and Phi_eta contracts
  the trace norm, so the supremum over N' >= N is the value at N;
* ||L|| is the exact 1->1 norm `generator_norm` of the run's config.

The choice N_l = floor(log n / log(1/|eta|)) turns the supremum into an
explicit log(n)/n envelope.  The script evaluates that core and compares it
to the measured error, which comes from the sweep engine of `zenolab run`.
"""

import numpy as np

from zenolab import annihilation, constant_big_n, theoretical_zeno_bound_ssup, trace_norm, vacuum_state
from zenolab.channels import attenuator_deviation
from zenolab.experiments import generator_norm, parse_config_text, run_experiment

d = 8
eta = 0.5
t = 1.0

# the instance of a zeno sweep: H = (a + a^dag)/d is the default quadrature
# Hamiltonian, and n = 8, 32, 128, 512
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
rho = np.zeros((d, d), dtype=complex)
rho[1, 1] = 1.0

# --- chain states ------------------------------------------------------------
a = annihilation(d)
h = (a + a.conj().T) / d
vac = vacuum_state(d)
l_max = 6
chain = [rho, t * np.trace(rho) * -1j * (h @ vac - vac @ h)] + [np.zeros_like(rho)] * (l_max - 2)
print("trace norms of the chain states (tLP)^(l-1) x:")
for idx, state in enumerate(chain, start=1):
    print(f"  l={idx}: {trace_norm(state):.6e}")

l_norm = generator_norm(sweep)
print(f"\n||L|| (exact 1->1 norm): {l_norm!r}")

# --- the bound core vs the measured error ------------------------------------
print("\n   n    measured error   bound core s_sup   error/core   argmax l")
for row in run_experiment(sweep):
    n, err = int(row.parameter), row.error
    big_n = constant_big_n(n, eta, l_max)
    speeds = [trace_norm(dev) for dev in attenuator_deviation(eta ** big_n[0], chain)]
    bound = theoretical_zeno_bound_ssup(speeds, l_norm, t, n, big_n, trace_norm(rho))
    print(f"  {n:4d}   {err:.6e}     {bound.value:.6e}     {err / bound.value:.6f}     l*={bound.argmax_l}")
