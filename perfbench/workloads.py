"""The benchmark's four workloads, driven through memtensor's public API.

Each workload is built from a seed (set-up: model and inputs), runs one pass
through the pipeline with every call into a library layer wrapped in a
tracer span, and checks a pass afterwards against an exact oracle and the
fingerprints recorded in ``fingerprints.json``. An operation (a sweep cell, a
trajectory, a kernel call or a map) fails when it raises or when a check on
it falls outside tolerance; when a step that all operations of a pass share
raises, ``run`` raises and every operation of the pass fails.

``cutoff_sweep`` and ``continuum_kernel`` have no random input and ignore the
seed; ``long_horizon`` draws its initial states and ``large_bath`` its bath
fields from it.
"""

from __future__ import annotations

import functools
import json
import math
import traceback

import numpy as np

from memtensor import (
    FixedState,
    FrozenSystem,
    MemoryConfig,
    PropagatorCache,
    ProjectorChoice,
    TimeGrid,
    TrueEnvironment,
    build_tensors,
    check_cptp,
    convergence_study,
    error_bound,
    evolve_state,
    example_initial_state,
    example_model,
    kernel_norm_curve,
    memory_cutoff_heuristic,
    model_from_config,
    nz_kernel_slice,
    operator_norm,
    partial_trace,
    propagate,
    propagator,
    reconstruct_family,
    tensors_from_json,
    tensors_to_json,
    trace_distance,
)

# Fixed shapes of the workloads (the sizes that the tests reduce are
# constructor arguments instead): steps per driving period and memory length
# of long_horizon, grid step of continuum_kernel (the CLI default), steps per
# period of large_bath, and the spin bath's exchange coupling and damping rate.
LONG_HORIZON_C, LONG_HORIZON_M = 5, 8
KERNEL_DT = 0.25
LARGE_BATH_C = 5
SPIN_COUPLING, SPIN_DAMPING = 1.0, 0.5


class Failed:
    """Stands in for the result of an operation that raised."""

    def __init__(self, exc: BaseException):
        self.reason = "".join(traceback.format_exception_only(type(exc), exc)).strip()


def attempt(results: dict, key, fn, *args):
    """Store ``fn(*args)`` under ``key``, or a :class:`Failed` if it raises.

    One operation's exception must not stop the pass: the rest of the pass
    is still measured and the failure is counted.
    """
    try:
        results[key] = fn(*args)
    except Exception as exc:  # noqa: BLE001 - counted as a failed operation
        results[key] = Failed(exc)


def close(value: float, golden: float, rtol: float, atol: float = 0.0) -> bool:
    return abs(value - golden) <= atol + rtol * abs(golden)


def trace_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``tr|a - b|`` over stacks of Hermitian matrices."""
    diff = a - b
    diff = 0.5 * (diff + np.conj(np.swapaxes(diff, -1, -2)))
    return np.abs(np.linalg.eigvalsh(diff)).sum(axis=-1)


def random_density(rng: np.random.Generator, d: int) -> np.ndarray:
    """Full-rank density matrix from a complex Ginibre draw."""
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real


def _reduced_batch(vecs: np.ndarray, ds: int, de: int) -> np.ndarray:
    """System marginals of column-stacked joint vectors, shape ``(n, d*d)``."""
    d = ds * de
    joint = vecs.reshape(-1, d, d).transpose(0, 2, 1)
    return np.einsum("naebe->nab", joint.reshape(-1, ds, de, ds, de))


class CheckResult:
    """Failed operations (key -> reason), the oracle error of a pass, and how
    many error-bound comparisons held."""

    def __init__(self):
        self.failures: dict = {}
        self.max_error = 0.0
        self.bound_checks = 0
        self.bound_ok = 0

    def fail(self, key, reason: str) -> None:
        self.failures.setdefault(key, reason)


# ---------------------------------------------------------------------------
# cutoff_sweep: the `memtensor error-sweep --policy fixed` experiment
# ---------------------------------------------------------------------------


class CutoffSweep:
    """Cutoff-error landscape over (step size, memory time), as the CLI runs it."""

    name = "cutoff_sweep"
    uses_seed = False

    def __init__(self, seed: int, c_values=(6, 8, 12, 14), tm_targets=(1.25, 2.5, 5.0, 10.0),
                 horizon: float = 100.0, substeps: int = 64):
        self.model = example_model()
        self.rho0 = example_initial_state()
        self.layout = self.model.layout
        self.policy = FixedState(partial_trace(self.rho0, self.layout, "environment"))
        self.substeps = substeps
        self.sweeps = []  # (c, dt, total steps, [m, ...]) in CLI order
        for c in c_values:
            dt = self.model.period / c
            ms = [max(1, round(t / dt)) for t in tm_targets]
            ms = [m for m in ms if 1.24 <= m * dt <= 10.01]
            self.sweeps.append((c, dt, int(round(horizon / dt)), ms))
        self.ops = [(c, m) for c, _, _, ms in self.sweeps for m in ms]

    def run(self, tr) -> dict:
        results = {}
        for c, dt, total, ms in self.sweeps:
            grid = TimeGrid(0.0, dt, total)
            cache = PropagatorCache(self.model, grid, self.substeps)
            joint = tr.call("models.evolve_state", evolve_state, self.rho0, self.model, grid,
                            self.substeps, cache=cache)
            exact = [partial_trace(r, self.layout, "system") for r in joint]
            for m in ms:
                attempt(results, (c, m), self._cell, tr, c, m, dt, total, cache, exact)
        return results

    def _cell(self, tr, c, m, dt, total, cache, exact) -> dict:
        memory = MemoryConfig(dt=dt, m=m, c=c)
        max_length = 2 * m - 1
        family = tr.call("tomography.reconstruct_family", reconstruct_family, self.model,
                         TimeGrid(0.0, dt, c + max_length), self.policy, substeps=self.substeps,
                         rho_se0=self.rho0, band=max_length, cache=cache)
        tr.count("tomography.maps", len(family.maps))
        tensors = tr.call("transfer.build_tensors", build_tensors, family, memory,
                          max_length=max_length, exact_states=exact[: m + 1])
        tr.count("transfer.tensors", len(tensors.tensors))
        trajectory = tr.call("transfer.propagate", propagate, tensors, exact[:m], total,
                             include_residuals=True)
        tr.count("transfer.propagate.steps", total + 1 - m)
        start = max(2 * m, total // 2)
        error = max(trace_distance(trajectory[k], exact[k]) for k in range(start, total + 1))
        bound = max(tr.call("transfer.error_bound", error_bound, tensors, memory, k)
                    for k in range(start, total + 1))
        tr.count("transfer.error_bound.calls", total + 1 - start)
        heuristic = tr.call("transfer.memory_cutoff_heuristic", memory_cutoff_heuristic,
                            tensors, memory)
        unphysical = error > 2.0
        bound_ok = unphysical or error <= bound
        return {"wt_m": m * dt, "wdt": dt, "m": m, "c": c, "error": error, "bound": bound,
                "heuristic": heuristic, "unphysical": int(unphysical), "bound_ok": int(bound_ok)}

    def fingerprint(self, results: dict) -> dict:
        return {"rtol": 1e-6, "cells": {
            f"{c},{m}": {k: results[(c, m)][k] for k in ("error", "bound", "heuristic", "unphysical", "bound_ok")}
            for c, m in self.ops}}

    def check(self, results: dict, golden: dict | None) -> CheckResult:
        out = CheckResult()
        healthy = []
        for key in self.ops:
            row = results[key]
            if isinstance(row, Failed):
                out.fail(key, row.reason)
                continue
            if not row["unphysical"]:
                healthy.append(row["error"])
            out.bound_checks += 1
            out.bound_ok += row["bound_ok"]
            if not row["bound_ok"]:
                out.fail(key, f"error {row['error']:.4g} above bound {row['bound']:.4g}")
            if golden is None:
                continue
            want = golden["cells"].get(f"{key[0]},{key[1]}")
            if want is None:
                out.fail(key, "cell missing from fingerprints")
                continue
            rtol = golden["rtol"]
            if row["unphysical"] != want["unphysical"] or row["bound_ok"] != want["bound_ok"]:
                out.fail(key, f"flags {row['unphysical']},{row['bound_ok']} != fingerprint")
            for name in ("bound", "heuristic") + (() if want["unphysical"] else ("error",)):
                if not close(row[name], want[name], rtol):
                    out.fail(key, f"{name} {row[name]!r} != fingerprint {want[name]!r}")
        out.max_error = max(healthy, default=0.0)
        return out


# ---------------------------------------------------------------------------
# long_horizon: one tensor set, many long propagations
# ---------------------------------------------------------------------------


class LongHorizon:
    """Tensors built once (with a JSON round trip), then long propagations
    of uncorrelated initial states drawn from the seed."""

    name = "long_horizon"
    uses_seed = True

    def __init__(self, seed: int, n_states: int = 8, steps: int = 10_000, substeps: int = 64,
                 checkpoint: int = 1000):
        c, m = LONG_HORIZON_C, LONG_HORIZON_M
        self.model = example_model()
        layout = self.model.layout
        self.ds, self.de = layout.dim_system, layout.dim_environment
        self.tau = partial_trace(example_initial_state(), layout, "environment")
        self.policy = FixedState(self.tau)
        rng = np.random.default_rng(seed)
        self.states = [random_density(rng, self.ds) for _ in range(n_states)]
        self.dt = self.model.period / c
        self.memory = MemoryConfig(dt=self.dt, m=m, c=c)
        self.grid = TimeGrid(0.0, self.dt, c + 2 * m - 1)
        self.steps = steps
        self.substeps = substeps
        self.checkpoints = [2 * m, *range(checkpoint, steps + 1, checkpoint)]
        self.late_start = max(2 * m, steps // 2)
        self.ops = list(range(n_states))
        self._oracle = None

    def run(self, tr) -> dict:
        m = self.memory.m
        cache = PropagatorCache(self.model, self.grid, self.substeps)
        family = tr.call("tomography.reconstruct_family", reconstruct_family, self.model,
                         self.grid, self.policy, substeps=self.substeps, band=2 * m - 1, cache=cache)
        tr.count("tomography.maps", len(family.maps))
        tensors = tr.call("transfer.build_tensors", build_tensors, family, self.memory,
                          max_length=2 * m - 1)
        tr.count("transfer.tensors", len(tensors.tensors))
        text = tr.call("serialization.tensors_json", lambda t: json.dumps(tensors_to_json(t)), tensors)
        tensors = tr.call("serialization.tensors_json", lambda s: tensors_from_json(json.loads(s)), text)
        tr.count("serialization.bytes", len(text))
        results = {"tensors": tensors}
        for i in self.ops:
            attempt(results, i, self._trajectory, tr, tensors, self.states[i])
        return results

    def _trajectory(self, tr, tensors, rho):
        trajectory = tr.call("transfer.propagate", propagate, tensors, [rho], self.steps,
                             include_residuals=True)
        tr.count("transfer.propagate.steps", self.steps)
        bounds = [tr.call("transfer.error_bound", error_bound, tensors, self.memory, k)
                  for k in self.checkpoints]
        tr.count("transfer.error_bound.calls", len(bounds))
        return np.array(trajectory), max(bounds)

    def oracle(self) -> np.ndarray:
        """Exact system states, shape ``(steps + 1, n_states, d_S, d_S)``.

        Joint evolution of ``rho (x) tau`` with one period of adjacent-step
        propagators, reused cyclically (the grid is commensurate with the
        driving period).
        """
        if self._oracle is None:
            c = self.memory.c
            period = [propagator(self.model, i * self.dt, (i + 1) * self.dt, self.substeps)
                      for i in range(c)]
            vecs = np.stack([np.kron(rho, self.tau).reshape(-1, order="F") for rho in self.states],
                            axis=1)
            out = np.empty((self.steps + 1, len(self.states), self.ds, self.ds), dtype=complex)
            for k in range(self.steps + 1):
                out[k] = _reduced_batch(vecs.T, self.ds, self.de)
                vecs = period[k % c] @ vecs
            self._oracle = out
        return self._oracle

    def fingerprint(self, results: dict) -> dict:
        tensors = results["tensors"]
        return {"rtol": 1e-6, "trace_tol": 1e-10, "min_eig_floor": -0.05,
                "tensor_norm_sum": sum(operator_norm(t) for t in tensors.tensors.values()),
                "bound": results[0][1]}

    def check(self, results: dict, golden: dict | None) -> CheckResult:
        out = CheckResult()
        exact = self.oracle()
        if golden is not None:
            rtol = golden["rtol"]
            norm_sum = sum(operator_norm(t) for t in results["tensors"].tensors.values())
            if not close(norm_sum, golden["tensor_norm_sum"], rtol):
                for i in self.ops:
                    out.fail(i, f"tensor norm sum {norm_sum!r} != fingerprint")
        for i in self.ops:
            if isinstance(results[i], Failed):
                out.fail(i, results[i].reason)
                continue
            states, bound = results[i]
            distances = trace_distances(states, exact[:, i])
            error = float(distances.max())
            # reported error: the long-time window, as `error-sweep` defines it
            out.max_error = max(out.max_error, float(distances[self.late_start:].max()))
            out.bound_checks += 1
            out.bound_ok += int(error <= bound)
            if error > bound:
                out.fail(i, f"error {error:.4g} above bound {bound:.4g}")
            if golden is None:
                continue
            if not close(bound, golden["bound"], golden["rtol"]):
                out.fail(i, f"bound {bound!r} != fingerprint {golden['bound']!r}")
            trace_dev = float(np.abs(np.trace(states, axis1=1, axis2=2) - 1).max())
            if trace_dev > golden["trace_tol"]:
                out.fail(i, f"trace deviates by {trace_dev:.3g}")
            min_eig = float(np.linalg.eigvalsh(states).min())
            if min_eig < golden["min_eig_floor"]:
                out.fail(i, f"minimum eigenvalue {min_eig:.4g} below floor")
        return out


# ---------------------------------------------------------------------------
# continuum_kernel: the direct Nakajima-Zwanzig kernel routes
# ---------------------------------------------------------------------------


class ContinuumKernel:
    """`kernel-norms` and `convergence` CLI defaults plus a true-env kernel slice."""

    name = "continuum_kernel"
    uses_seed = False

    def __init__(self, seed: int, steps: int = 20, substeps: int = 64,
                 t_values=(2.5, 5.0), n_values=(8, 16, 32, 64), kernel_substeps: int = 1024,
                 slice_t: float = 5.0, slice_points: int = 40, slice_substeps: int = 16):
        self.model = example_model()
        self.rho0 = example_initial_state()
        layout = self.model.layout
        tau0 = partial_trace(self.rho0, layout, "environment")
        ground = np.zeros((layout.dim_system,) * 2, dtype=complex)
        ground[0, 0] = 1.0
        self.grid = TimeGrid(0.0, KERNEL_DT, steps)
        h = KERNEL_DT / 16
        self.choices = [ProjectorChoice(FixedState(tau0), h),
                        ProjectorChoice(FrozenSystem(lambda t: ground), h),
                        ProjectorChoice(TrueEnvironment(), h)]
        self.fixed = ProjectorChoice(FixedState(tau0))
        self.substeps = substeps
        self.t_values, self.n_values = list(t_values), list(n_values)
        self.kernel_substeps = kernel_substeps
        self.slice_t = slice_t
        self.s_values = [slice_t * j / slice_points for j in range(slice_points)]
        self.slice_substeps = slice_substeps
        self.ops = ["kernel_norms", "convergence", "slice"]

    def run(self, tr) -> dict:
        results = {}
        attempt(results, "kernel_norms", self._kernel_norms, tr)
        attempt(results, "convergence", self._convergence, tr)
        attempt(results, "slice", self._slice, tr)
        return results

    def _kernel_norms(self, tr):
        rows = tr.call("kernel.kernel_norm_curve", kernel_norm_curve, self.model, self.choices,
                       self.grid, self.rho0, substeps=self.substeps)
        tr.count("kernel.kernels", len(rows))
        return [list(row) for row in rows]

    def _convergence(self, tr):
        rows = tr.call("kernel.convergence_study", convergence_study, self.model, self.t_values,
                       self.n_values, self.fixed, self.rho0, map_substeps=self.substeps,
                       kernel_substeps=self.kernel_substeps)
        tr.count("kernel.kernels", len(self.t_values))
        return [list(row) for row in rows]

    def _slice(self, tr):
        pairs = tr.call("kernel.nz_kernel_slice", nz_kernel_slice, self.model, self.choices[2],
                        self.slice_t, self.s_values, substeps=self.slice_substeps, rho_se0=self.rho0)
        tr.count("kernel.kernels", len(pairs))
        return [[s, operator_norm(k)] for s, k in pairs]

    def fingerprint(self, results: dict) -> dict:
        return {"rtol": 1e-6, "atol": 1e-12, **{op: [list(row) for row in results[op]] for op in self.ops}}

    def check(self, results: dict, golden: dict | None) -> CheckResult:
        out = CheckResult()
        for op in self.ops:
            rows = results[op]
            if isinstance(rows, Failed):
                out.fail(op, rows.reason)
                continue
            values = [row[-1] for row in rows]
            if not all(math.isfinite(v) for v in values):
                out.fail(op, "non-finite value")
            if golden is None:
                continue
            want = golden[op]
            labels_differ = len(rows) != len(want) or any(
                x != y if isinstance(x, str) else not close(x, y, 1e-12)
                for row, w in zip(rows, want) for x, y in zip(row[:-1], w[:-1]))
            if labels_differ:
                out.fail(op, "row labels differ from fingerprint")
            elif not all(close(v, w[-1], golden["rtol"], golden["atol"]) for v, w in zip(values, want)):
                out.fail(op, "values differ from fingerprint")
        conv = results["convergence"]
        if not isinstance(conv, Failed):
            finest = max(self.n_values)
            out.max_error = max(diff for _, n, diff in conv if n == finest)
        return out


# ---------------------------------------------------------------------------
# large_bath: tomography on 256x256 superoperators
# ---------------------------------------------------------------------------


def spin_bath_config(fields) -> dict:
    """d_S = 2 qubit with XX and cos(2t) YY exchange to each bath qubit.

    Bath qubit ``k`` has Z field ``fields[k]`` and amplitude damping
    ``|0><1|`` at rate ``SPIN_DAMPING``; the generator period is pi.
    """
    n = len(fields)
    lower = np.array([[0, 1], [0, 0]], dtype=complex)

    def pauli(system: str, k: int, op: str) -> str:
        return system + "".join(op if j == k else "I" for j in range(n))

    terms = [{"pauli": "Z" + "I" * n, "coefficient": 0.5}]
    jumps = []
    for k, field in enumerate(fields):
        terms += [{"pauli": pauli("I", k, "Z"), "coefficient": 0.5 * float(field)},
                  {"pauli": pauli("X", k, "X"), "coefficient": SPIN_COUPLING},
                  {"pauli": pauli("Y", k, "Y"), "coefficient": SPIN_COUPLING,
                   "envelope": {"type": "cosine", "frequency": 2.0}}]
        op = functools.reduce(np.kron, [np.eye(2)] * (k + 1) + [lower] + [np.eye(2)] * (n - k - 1))
        jumps.append({"matrix": [[[z.real, z.imag] for z in row] for row in op], "rate": SPIN_DAMPING})
    return {"dim_system": 2, "dim_environment": 2**n, "period": math.pi,
            "hamiltonian": terms, "jumps": jumps}


class LargeBath:
    """Map family, CPTP checks and tensors for a d_E = 8 spin bath."""

    name = "large_bath"
    uses_seed = True

    def __init__(self, seed: int, n_bath: int = 3, steps: int = 10, band: int = 4,
                 substeps: int = 16):
        self.seed = seed
        rng = np.random.default_rng(seed)
        self.fields = rng.uniform(2.85, 3.15, size=n_bath)
        self.model = model_from_config(spin_bath_config(self.fields))
        layout = self.model.layout
        self.ds, self.de = layout.dim_system, layout.dim_environment
        self.tau = np.eye(self.de, dtype=complex) / self.de
        self.policy = FixedState(self.tau)
        dt = self.model.period / LARGE_BATH_C
        self.grid = TimeGrid(0.0, dt, steps)
        self.memory = MemoryConfig(dt=dt, m=band, c=LARGE_BATH_C)
        self.substeps = substeps
        self.band = band
        self.ops = [(i, j) for i in range(steps) for j in range(i + 1, min(steps, i + band) + 1)]

    def run(self, tr) -> dict:
        cache = PropagatorCache(self.model, self.grid, self.substeps)
        family = tr.call("tomography.reconstruct_family", reconstruct_family, self.model,
                         self.grid, self.policy, substeps=self.substeps, band=self.band, cache=cache)
        tr.count("tomography.maps", len(family.maps))
        results = {"cache": cache}
        for key in self.ops:
            attempt(results, key, self._map, tr, family, key)
        tensors = tr.call("transfer.build_tensors", build_tensors, family, self.memory,
                          dense_window=self.grid.steps)
        tr.count("transfer.tensors", len(tensors.tensors))
        results["tensors"] = tensors
        return results

    def _map(self, tr, family, key):
        lam = family.map(*key)
        report = tr.call("tomography.check_cptp", check_cptp, lam, tol=1e-8)
        tr.count("tomography.cptp_checks")
        tr.count("tomography.cptp_passed", int(report.passed))
        return lam, report

    def fingerprint(self, results: dict) -> dict:
        return {"norm_checksum": sum(operator_norm(results[key][0]) for key in self.ops)}

    def check(self, results: dict, golden: dict | None) -> CheckResult:
        """CPTP for every map and, for seeds with a recorded fingerprint, the
        map-norm checksum. ``golden`` maps seed strings to fingerprints."""
        out = CheckResult()
        for key in self.ops:
            if isinstance(results[key], Failed):
                out.fail(key, results[key].reason)
            elif not results[key][1].passed:
                report = results[key][1]
                out.fail(key, f"not CPTP: trace_dev {report.trace_dev:.3g}, "
                              f"choi_min_eig {report.choi_min_eig:.3g}")
        want = None if golden is None else golden["seeds"].get(str(self.seed))
        if want is not None and not out.failures:
            checksum = self.fingerprint(results)["norm_checksum"]
            if not close(checksum, want["norm_checksum"], golden["rtol"]):
                for key in self.ops:
                    out.fail(key, f"map-norm checksum {checksum!r} != fingerprint")
        out.max_error = self._cutoff_error(results)
        return out

    def _cutoff_error(self, results: dict) -> float:
        """Memory-cutoff error of tensor propagation over the window, from
        ``|0><0| (x) tau``, against joint evolution with the pass's propagators."""
        rho = np.zeros((self.ds, self.ds), dtype=complex)
        rho[0, 0] = 1.0
        trajectory = propagate(results["tensors"], [rho], self.grid.steps, include_residuals=True)
        vec = np.kron(rho, self.tau).reshape(-1, order="F")
        exact = [rho]
        for k in range(self.grid.steps):
            vec = results["cache"].adjacent(k) @ vec
            exact.append(_reduced_batch(vec[None, :], self.ds, self.de)[0])
        return float(trace_distances(np.array(trajectory), np.array(exact)).max())


WORKLOADS = {w.name: w for w in (CutoffSweep, LongHorizon, ContinuumKernel, LargeBath)}
