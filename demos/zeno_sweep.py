#!/usr/bin/env python3
"""
Quantum Zeno limit of the attenuator
====================================

Interleaves n photon-loss events with n slices of a Hamiltonian evolution
and watches (M e^{tL/n})^n approach the effective dynamics e^{tPLP} P.
The error falls like log(n)/n; the sweep fits the rate, and the script
renders a log-log picture.

The numbers are those of `zenolab run attenuator-zeno`: d = 16, eta = 0.5,
H = (a + a^dag)/d, t = 1 and n = 8 .. 4096.
"""

import numpy as np

from zenolab.experiments import preset_config, run_experiment

state = "coherent:0.8"
rows = [row for row in run_experiment(preset_config("attenuator-zeno")) if row.state_id == state]

# errors are printed to every digit the CSV holds
print(f"   n      ||Zeno - effective||_1 ({state})    bound C log(n)/n")
for row in rows:
    print(f"  {int(row.parameter):5d}   {row.error!r:<32} {row.bound:.6e}")

first = rows[0]
envelope = first.bound * first.parameter / np.log(first.parameter)
holds = all(row.error <= row.bound + 1e-15 for row in rows)
print(f"\npower-log fit: error ~ C log(n)/n^p with p = {first.fitted_p:.3f}, C = {first.fitted_c:.3g}")
print(f"envelope C log(n)/n pinned at n={int(first.parameter)}: C = {envelope:.3g}, dominates rest of grid: {holds}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    ns = [row.parameter for row in rows]
    fig, ax = plt.subplots(figsize=(6, 4.5))
    ax.loglog(ns, [row.error for row in rows], "o-", label="measured error")
    ax.loglog(ns, [row.bound for row in rows], "--", label="C log(n)/n envelope")
    ax.set_xlabel("n")
    ax.set_ylabel("trace-norm error")
    ax.grid(True, which="both", alpha=0.3)
    ax.legend()
    fig.tight_layout()
    fig.savefig("zeno_sweep.png", dpi=150)
    print("wrote zeno_sweep.png")
except ImportError:
    print("matplotlib not available; skipped the figure")
