"""How memory time and step size shape the propagation error.

For a grid of (memory time, step size) cells we measure the long-time
propagation error against exact integration and compare it with two
indicators computed purely from the reconstructed tensors:

* the conservative second-memory-window bound (a sum of tensor norms), and
* the cheap heuristic ``max ||longest kept tensor||``, which tracks the
  actual error much more closely.

Cells whose error exceeds 2 (the maximal trace distance between states) are
flagged: there the cutoff was severe enough to make the propagation leave
the physical state space entirely.
"""

import math

from memtensor import (
    FixedState,
    MemoryConfig,
    PropagatorCache,
    SpaceLayout,
    TimeGrid,
    build_tensors,
    error_bound,
    evolve_state,
    example_initial_state,
    example_model,
    memory_cutoff_heuristic,
    partial_trace,
    propagate,
    reconstruct_family,
    trace_distance,
)

LAYOUT = SpaceLayout(2, 2)
model = example_model()
rho0 = example_initial_state()
policy = FixedState(partial_trace(rho0, LAYOUT, "environment"))
horizon = 100.0

print(f"{'wdt':>7} {'wt_m':>7} {'m':>4}  {'error':>10} {'bound':>10} {'heuristic':>10}  flag")
for c in (6, 8, 12, 14):  # steps per driving period; dt = pi / c
    dt = math.pi / c
    total = int(round(horizon / dt))
    grid = TimeGrid(0.0, dt, total)
    cache = PropagatorCache(model, grid, substeps=48)
    joint = evolve_state(rho0, model, grid, cache=cache)
    exact = partial_trace(joint, LAYOUT, "system")
    for target in (1.25, 2.5, 5.0, 10.0):
        m = max(1, round(target / dt))
        if not 1.24 <= m * dt <= 10.01:
            continue
        memory = MemoryConfig(dt=dt, m=m, c=c)
        max_length = 2 * m - 1
        family = reconstruct_family(
            model, TimeGrid(0.0, dt, c + max_length), policy,
            substeps=48, band=max_length, cache=cache,
        )
        tensors = build_tensors(
            family, memory, max_length=max_length, exact_states=exact[: m + 1]
        )
        trajectory = propagate(tensors, exact[:m], total, include_residuals=True)
        start = max(2 * m, total // 2)
        err = max(
            trace_distance(trajectory[k], exact[k]) for k in range(start, total + 1)
        )
        bound = max(error_bound(tensors, memory, k) for k in range(start, total + 1))
        heuristic = memory_cutoff_heuristic(tensors, memory)
        flag = "UNPHYSICAL" if err > 2 else ""
        print(
            f"{dt:7.3f} {m * dt:7.2f} {m:4d}  {err:10.2e} {bound:10.2e} "
            f"{heuristic:10.2e}  {flag}"
        )

print(
    "\nlonger memory at fixed step size lowers the error; finer steps need\n"
    "longer memory for the same accuracy, and cutting too early diverges"
)
