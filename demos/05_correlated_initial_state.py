"""Propagating an initially correlated state without an inhomogeneous term.

Initial system-environment correlations normally force an extra inhomogeneous
term into the memory-kernel equation of motion. That term can be avoided
entirely: write the correlated joint state as a linear combination of
product-state branches (one per element of a positive tomographic frame),
propagate each branch with its own transfer tensors, and recombine.

Each branch starts uncorrelated with a reference state equal to its own
environment factor, so every branch residual vanishes identically; the only
approximation left is the shared memory cutoff.
"""

import math

import numpy as np

from memtensor import (
    MemoryConfig,
    SpaceLayout,
    TimeGrid,
    decompose_initial_state,
    evolve_state,
    example_initial_state,
    example_model,
    partial_trace,
    propagate_correlation_free,
    trace_distance,
)

LAYOUT = SpaceLayout(2, 2)
model = example_model()
rho0 = example_initial_state()

decomp = decompose_initial_state(rho0, LAYOUT)
print("decomposition branches (coefficient, tr X, environment purity):")
for coeff, x_op, tau in decomp.terms:
    purity = float(np.trace(tau @ tau).real)
    print(f"  c = {coeff.real:+.3f}  tr X = {np.trace(x_op).real:+.3f}  tr tau^2 = {purity:.3f}")
defect = np.max(np.abs(decomp.reassemble() - rho0))
print(f"reassembly defect: {defect:.2e}\n")

dt = math.pi / 4          # memory window of m steps spans two driving periods
config = MemoryConfig(dt=dt, m=8, c=4)
total = int(round(100.0 / dt))
window = TimeGrid(0.0, dt, 13)

print(f"propagating {len(decomp.terms)} branches to wt = {total * dt:.0f} (m = {config.m})...")
combined = propagate_correlation_free(model, decomp, window, config, total, substeps=48)

joint = evolve_state(rho0, model, TimeGrid(0.0, dt, total), substeps=48)
exact = [partial_trace(r, LAYOUT, "system") for r in joint]
errors = [trace_distance(combined[k], exact[k]) for k in range(total + 1)]

print(f"\n{'wt':>6}  {'pop(excited)':>13}  {'error':>10}")
for k in range(0, total + 1, 12):
    print(f"{k * dt:6.1f}  {combined[k][0, 0].real:13.6f}  {errors[k]:10.2e}")
print(f"\nmax error over the whole horizon: {max(errors):.3e}")
print("no residual term was computed anywhere, yet the correlated dynamics")
print("is tracked to the cutoff level")
