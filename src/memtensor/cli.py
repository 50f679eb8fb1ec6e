"""Deterministic command-line experiment runner.

Subcommands reproduce the library's headline experiments from a single JSON
config file (or from built-in defaults), emitting CSV artifacts with full
parameter echoes. There is no randomness anywhere in the pipeline, so
identical configs produce byte-identical outputs.

Each runner only computes: it takes the merged config, the model inputs of
:func:`build_inputs` and the parsed flags, and returns its outputs in order,
``(file name, columns, rows, echo extras)`` for a CSV and ``(file name,
document)`` for JSON. :func:`main` validates the config once, also for
``validate``, then writes every output through one writer and prints its path.

Config file schema (all keys optional; flags override file values)::

    {
      "model": "builtin-example" | {<model schema, see memtensor.models>},
      "initial_state": <complex matrix>,       # joint state; required for
                                               # custom models
      "grid": {"t0": 0.0, "dt": 0.625, "steps": 160},
      "policy": {"kind": "fixed"|"true-env"|"frozen",
                 "tau": <matrix>,              # fixed; default: environment
                                               # marginal of the initial state
                 "sigma": <matrix>},           # frozen; default |0><0|
      "memory": {"m": 8, "c": <int>,           # default: steps per period of
                 "transient_steps": 0,         # the generator; a pinned c
                                               # must be a multiple of them
                 "t_m": <float>},              # declared memory time (checked)
      "substeps": 64,
      "sweep": {"c_values": [6, 8, 12, 14],
                "tm_targets": [1.25, 2.5, 5.0, 10.0],
                "horizon": 100.0},
      "convergence": {"t_values": [2.5, 5.0], "n_values": [8, 16, 32, 64],
                      "kernel_substeps": 1024}
    }

Complex matrices are row-major nested lists of ``[re, im]`` pairs.

Numeric settings are finite JSON numbers, never booleans. ``grid.dt``,
``sweep.horizon``, the ``sweep.tm_targets`` and the ``convergence.t_values``
are > 0; ``memory.transient_steps`` is >= 0, the ``convergence.n_values`` are
>= 2 and the other integers >= 1; ``grid.t0`` and ``memory.t_m`` are free.
Lists are non-empty. A malformed value or section exits 2 naming its key.
``sweep.c_values`` counts grid steps per driving period, so ``error-sweep``
needs a model with a ``period`` and exits 2 on one without. ``tensors`` and
``propagate`` exit 2 on a pinned ``memory.c`` that is not a multiple of the
grid steps per period; so does every experiment, ``validate`` included, when
the config (or ``--dt``) sets ``grid.dt``, the step both of them then use.
Without ``grid.dt`` each runner picks its own grid and only it can check.

Exit codes: 0 success, 2 config error or an ``--out`` that cannot be created
or written, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .linalg import partial_trace, trace_distance, validate_density_operator
from .models import (
    LindbladModel,
    PropagatorCache,
    TimeGrid,
    complex_matrix_from_json,
    evolve_state,
    example_initial_state,
    example_model,
    model_from_config,
    steps_per_period,
)
from .tomography import (
    FixedState,
    FrozenSystem,
    TrueEnvironment,
    check_cptp,
    policy_label,
    reconstruct_family,
)
from .transfer import (
    MemoryConfig,
    build_tensors,
    error_bound,
    memory_cutoff_heuristic,
    propagate,
    tensor_norm_profile,
)
from .kernel import ProjectorChoice, convergence_study, kernel_norm_curve
from .serialization import family_to_json, save_json, tensors_to_json

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

CONVENTION_LINE = (
    "column-stacking vectorization; operator norm = largest singular value; "
    "trace distance = tr|a-b| (no factor 1/2)"
)


class ConfigError(Exception):
    pass


def _fmt(value) -> str:
    # plain shortest-round-trip floats; numpy scalars would repr as
    # np.float64(...) and corrupt the CSV
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path: Path, columns: list[str], rows: list[tuple], parameters: dict) -> None:
    lines = [
        f"# memtensor {__version__}",
        f"# convention: {CONVENTION_LINE}",
        f"# parameters: {json.dumps(parameters, sort_keys=True)}",
        ",".join(columns),
    ]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Config loading and validation
# ---------------------------------------------------------------------------


def load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON (line {exc.lineno}): {exc.msg}") from exc
    if not isinstance(config, dict):
        raise ConfigError("config root must be a JSON object")
    return config


# Every number a runner reads: name -> (type, bound). A type in brackets is a
# non-empty list; an integer must reach its bound, a number exceed it.
SETTINGS = {
    "grid.t0": (float, None),
    "grid.dt": (float, 0),
    "grid.steps": (int, 1),
    "memory.m": (int, 1),
    "memory.c": (int, 1),
    "memory.transient_steps": (int, 0),
    "memory.t_m": (float, None),
    "substeps": (int, 1),
    "sweep.c_values": ([int], 1),
    "sweep.tm_targets": ([float], 0),
    "sweep.horizon": (float, 0),
    "convergence.t_values": ([float], 0),
    "convergence.n_values": ([int], 2),
    "convergence.kernel_substeps": (int, 1),
}


def _section(config: dict, name: str) -> dict:
    section = config.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"{name} must be an object, got {section!r}")
    return section


def setting(config: dict, name: str, default):
    """Value of the ``SETTINGS`` row ``name`` (``section.key`` or a top-level
    key) in ``config``, converted to its type, else ``default``. A malformed
    value or section raises :class:`ConfigError` naming the key."""
    kind, bound = SETTINGS[name]
    item = kind[0] if isinstance(kind, list) else kind
    section, _, key = name.rpartition(".")
    values = _section(config, section) if section else config
    if key not in values:
        return default
    value = values[key]
    entries = [value] if item is kind else (value if isinstance(value, list) else [])
    if not entries or not all(
        isinstance(v, (int, item)) and not isinstance(v, bool)
        and abs(v) <= sys.float_info.max  # false for nan and infinities
        and (bound is None or (v >= bound if item is int else v > bound))
        for v in entries
    ):
        limit = "" if bound is None else f" {'>=' if item is int else '>'} {bound}"
        shape = "" if item is kind else "a non-empty list of "
        raise ConfigError(f"{name} must be {shape}{item.__name__}{limit}, got {value!r}")
    return item(value) if item is kind else [item(v) for v in entries]


def merge_flags(config: dict, args: argparse.Namespace) -> dict:
    merged = dict(config)
    # the sections are always present, since the CSV parameter echo prints them
    for name in ("grid", "memory", "policy"):
        merged[name] = dict(_section(config, name))
    if args.dt is not None:
        merged["grid"]["dt"] = args.dt
    if args.steps is not None:
        merged["grid"]["steps"] = args.steps
    if args.m is not None:
        merged["memory"]["m"] = args.m
    if args.substeps is not None:
        merged["substeps"] = args.substeps
    if args.policy is not None:
        merged["policy"]["kind"] = args.policy
    return merged


def build_model(config: dict) -> tuple[LindbladModel, np.ndarray]:
    source = config.get("model", "builtin-example")
    if source == "builtin-example":
        model = example_model()
        rho0 = example_initial_state()
    elif isinstance(source, dict):
        model = model_from_config(source)
        if "initial_state" not in config:
            raise ConfigError("custom models need an initial_state")
        rho0 = None
    else:
        raise ConfigError(f"model must be 'builtin-example' or an object, got {source!r}")
    try:
        if "initial_state" in config:
            rho0 = complex_matrix_from_json(config["initial_state"])
        validate_density_operator(rho0)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"initial_state: {exc}") from exc
    if rho0.shape != (model.layout.dim_joint,) * 2:
        raise ConfigError(
            f"initial_state shape {rho0.shape} does not match joint dimension "
            f"{model.layout.dim_joint}"
        )
    return model, rho0


def _policy_state(policy_cfg: dict, key: str, d: int) -> np.ndarray:
    """Density operator ``policy.<key>`` of dimension ``d``."""
    try:
        state = complex_matrix_from_json(policy_cfg[key])
        validate_density_operator(state)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"policy.{key}: {exc}") from exc
    if state.shape != (d, d):
        raise ConfigError(
            f"policy.{key} has shape {state.shape}, expected {(d, d)} for the model's layout"
        )
    return state


def _ground(d: int) -> np.ndarray:
    """The default frozen system state ``|0><0|`` of dimension ``d``."""
    state = np.zeros((d, d), dtype=complex)
    state[0, 0] = 1.0
    return state


def build_policy(config: dict, model: LindbladModel, rho0: np.ndarray):
    policy_cfg = _section(config, "policy")
    kind = policy_cfg.get("kind", "fixed")
    layout = model.layout
    if kind == "fixed":
        if "tau" in policy_cfg:
            return FixedState(_policy_state(policy_cfg, "tau", layout.dim_environment))
        return FixedState(partial_trace(rho0, layout, "environment"))
    if kind == "true-env":
        return TrueEnvironment()
    if kind == "frozen":
        sigma = _ground(layout.dim_system)
        if "sigma" in policy_cfg:
            sigma = _policy_state(policy_cfg, "sigma", layout.dim_system)
        return FrozenSystem(lambda t: sigma)
    raise ConfigError(f"policy.kind must be fixed|true-env|frozen, got {kind!r}")


def build_grid(config: dict, default_dt: float, default_steps: int) -> tuple[TimeGrid, int]:
    """A runner's time grid and the substeps of each of its steps."""
    substeps = setting(config, "substeps", 64)
    grid = TimeGrid(
        t0=setting(config, "grid.t0", 0.0),
        dt=setting(config, "grid.dt", default_dt),
        steps=setting(config, "grid.steps", default_steps),
    )
    return grid, substeps


def resolve_memory(config: dict, model: LindbladModel, dt: float, policy=None):
    """Memory config plus whether periodic tensor reuse is available.

    Under a fixed (or no) policy ``c`` is :func:`~memtensor.models.steps_per_period`;
    ``None`` there, or a time-dependent policy, stores densely unless the
    config pins ``c``, which must be a multiple of the steps per period, else
    :class:`ConfigError`. :func:`validate_config` checks it when the config
    sets ``grid.dt``, which both tensor runners then use; without it each
    runner picks its own grid, and only the runner can check.
    """
    period = steps_per_period(model, dt)
    c = setting(config, "memory.c", None)
    if c is None:
        c = period if policy is None or isinstance(policy, FixedState) else None
    elif period is None or c % period:
        repeats = f"repeats every {period} steps" if period else "never repeats"
        raise ConfigError(f"memory.c={c} must be a multiple of the steps per period, "
                          f"but at dt={dt!r} the generator {repeats}")
    m, transient = setting(config, "memory.m", 8), setting(config, "memory.transient_steps", 0)
    return MemoryConfig(dt=dt, m=m, c=c or 1, transient_steps=transient), c is not None


def memory_time_warnings(config: dict, m: int, dt: float) -> list[str]:
    declared = setting(config, "memory.t_m", m * dt)
    if abs(declared - m * dt) <= 1e-9:
        return []
    return [f"memory.t_m={declared} inconsistent with m*dt={m * dt!r}; "
            f"the computed value m*dt is used"]


def build_inputs(config: dict) -> tuple:
    """Model, initial joint state and reference policy of a config."""
    model, rho0 = build_model(config)
    return model, rho0, build_policy(config, model, rho0)


def validate_config(config: dict) -> tuple[list[str], list[str], tuple | None]:
    """Returns (errors, warnings, inputs) for a merged experiment config.
    ``inputs`` is :func:`build_inputs` of the config, ``None`` on errors, so
    a run builds its model once. A config that sets ``grid.dt`` fixes the
    grid step of ``tensors`` and ``propagate``, so :func:`resolve_memory`
    checks its pinned ``memory.c`` here too, and the warnings compare
    ``memory.t_m`` with ``m * dt``. Without ``grid.dt`` there are none: each
    runner picks its own grid and warns on it."""
    errors = []
    inputs = None
    try:
        inputs = build_inputs(config)
    except ConfigError as exc:
        errors.append(str(exc))
    except ValueError as exc:
        errors.append(f"model: {exc}")
    for name in SETTINGS:
        try:
            setting(config, name, None)
        except ConfigError as exc:
            errors.append(str(exc))
    if errors:  # a section that is not an object fails each of its rows alike
        return list(dict.fromkeys(errors)), [], None
    m, dt = setting(config, "memory.m", 8), setting(config, "grid.dt", None)
    if dt is None:  # each runner checks and warns on its own grid
        return errors, [], inputs
    model, _, policy = inputs  # dt is the grid step of both tensor runners
    try:
        resolve_memory(config, model, dt, policy)
    except ConfigError as exc:
        return [str(exc)], [], None
    return errors, memory_time_warnings(config, m, dt), inputs


def _echo(config: dict, **extra) -> dict:
    echo = {k: v for k, v in config.items() if k not in ("model", "initial_state")}
    echo["model"] = "builtin-example" if config.get("model", "builtin-example") == "builtin-example" else "custom"
    echo.update(extra)
    return echo


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------


def _run_memory(config: dict, model: LindbladModel, dt: float, policy):
    """:func:`resolve_memory` on a runner's grid, warning on stderr when
    ``memory.t_m`` differs from ``m * dt`` there."""
    memory, commensurate = resolve_memory(config, model, dt, policy)
    for warning in memory_time_warnings(config, memory.m, dt):
        print(f"warning: {warning}", file=sys.stderr)
    return memory, commensurate


def _exact_states(inputs: tuple, grid: TimeGrid, substeps: int, cache=None) -> np.ndarray:
    """Exact reduced states ``(N + 1, d_S, d_S)`` of the inputs' evolution on ``grid``."""
    model, rho0, _ = inputs
    joint = evolve_state(rho0, model, grid, substeps, cache=cache)
    return partial_trace(joint, model.layout, "system")


def _state_table(name: str, grid: TimeGrid, states: np.ndarray, exact=None, **extras) -> tuple:
    """CSV output of a reduced trajectory array: step, wt, rho elements
    (re/im), trace_re, and trace_distance_exact to ``exact`` when it is given."""
    d = len(states[0])
    entries = [f"rho{i}{j}_{part}" for i in range(d) for j in range(d) for part in ("re", "im")]
    columns = ["step", "wt", *entries, "trace_re"]
    rows = []
    for k, rho in enumerate(states):
        row = [k, grid.time(k), *(float(v) for z in rho.ravel() for v in (z.real, z.imag))]
        rows.append(row + [float(np.trace(rho).real)])
    if exact is not None:
        distances = trace_distance(states, exact[: len(states)])
        rows = [row + [distance] for row, distance in zip(rows, distances.tolist())]
        columns.append("trace_distance_exact")
    return name, columns, rows, extras


def run_evolve(config: dict, inputs: tuple, args) -> list[tuple]:
    """Exact reduced trajectory. Columns: step, wt, rho elements (re/im), trace_re."""
    grid, substeps = build_grid(config, default_dt=0.625, default_steps=8)
    return [_state_table("evolve.csv", grid, _exact_states(inputs, grid, substeps))]


def run_tomography(config: dict, inputs: tuple, args) -> list[tuple]:
    """Family CPTP report (columns: i, j, trace_dev, choi_min_eig, passed)
    plus the family itself as JSON."""
    model, rho0, policy = inputs
    grid, substeps = build_grid(config, default_dt=0.625, default_steps=16)
    family = reconstruct_family(
        model, grid, policy, substeps=substeps, rho_se0=rho0
    )
    rows = []
    for (i, j), lam in family.maps.items():
        report = check_cptp(lam, tol=1e-8)
        rows.append((i, j, report.trace_dev, report.choi_min_eig, int(report.passed)))
    columns = ["i", "j", "trace_dev", "choi_min_eig", "passed"]
    return [("tomography_report.csv", columns, rows, {}), ("family.json", family_to_json(family))]


def _transfer_tensors(cache, policy, rho0, memory, periodic, max_length, exact):
    """Map family and tensors, with residuals from ``exact``, on ``cache``'s grid.

    Stores one period of start steps plus transients when ``periodic`` and the
    grid holds them plus ``max_length``, else every start of the grid; on a
    commensurate grid both give bit-identical tensors (see the README).
    """
    grid = cache.grid
    phases = memory.c + memory.transient_steps
    periodic = periodic and grid.steps >= phases + max_length
    if periodic:
        grid = TimeGrid(grid.t0, grid.dt, phases + max_length)
    family = reconstruct_family(
        cache.model, grid, policy, cache.substeps, rho0, band=max_length, cache=cache
    )
    return build_tensors(
        family,
        memory,
        max_length=max_length,
        exact_states=exact[: memory.m + 1],
        dense_window=None if periodic else grid.steps,
    )


def run_tensors(config: dict, inputs: tuple, args) -> list[tuple]:
    """Transfer tensors as JSON plus the norm profile (columns: length,
    start, operator_norm). Lengths reach 2m-1 so the error bound is usable."""
    model, rho0, policy = inputs
    # parses t0, dt and any configured steps; the window is chosen below
    grid, substeps = build_grid(config, default_dt=math.pi / 5, default_steps=1)
    memory, commensurate = _run_memory(config, model, grid.dt, policy)
    max_length = 2 * memory.m - 1
    if commensurate:
        window = memory.c + memory.transient_steps + max_length
    elif setting(config, "grid.steps", None) is not None:
        window = grid.steps
    else:
        window = memory.m + max_length
    cache = PropagatorCache(model, TimeGrid(grid.t0, grid.dt, window), substeps)
    exact = _exact_states(inputs, TimeGrid(grid.t0, grid.dt, memory.m), substeps, cache)
    tensors = _transfer_tensors(cache, policy, rho0, memory, commensurate, max_length, exact)
    profile = tensor_norm_profile(tensors)
    rows = [(l, p, norm) for (l, p), norm in sorted(profile.items())]
    columns = ["length", "start", "operator_norm"]
    extras = {"commensurate": commensurate}
    return [("tensors.json", tensors_to_json(tensors)), ("tensor_norms.csv", columns, rows, extras)]


def run_propagate(config: dict, inputs: tuple, args) -> list[tuple]:
    """Memory-truncated long-time propagation. Columns: step, wt, rho
    elements (re/im), trace_re, and trace_distance_exact with --oracle."""
    model, rho0, policy = inputs
    grid, substeps = build_grid(config, default_dt=0.625, default_steps=160)
    memory, commensurate = _run_memory(config, model, grid.dt, policy)
    cache = PropagatorCache(model, grid, substeps)
    oracle_window = grid.steps if args.oracle else min(memory.m, grid.steps)
    exact = _exact_states(inputs, TimeGrid(grid.t0, grid.dt, oracle_window), substeps, cache)
    tensors = _transfer_tensors(cache, policy, rho0, memory, commensurate, memory.m, exact)
    trajectory = propagate(tensors, exact[: memory.m], grid.steps, include_residuals=True)
    oracle = exact if args.oracle else None
    return [_state_table("propagate.csv", grid, trajectory, oracle, oracle=bool(args.oracle))]


def run_error_sweep(config: dict, inputs: tuple, args) -> list[tuple]:
    """Cutoff-error landscape. Columns: wt_m, wdt, m, c, error (long-time
    max), bound (second-window envelope), heuristic (max longest-tensor
    norm), unphysical (error > 2), bound_ok. Each cell reuses one period of
    tensors, so a model without ``model.period`` and a time-dependent
    reference policy are refused as config errors, even when the config pins
    ``memory.c`` (each cell sets its own)."""
    model, rho0, policy = inputs
    substeps = setting(config, "substeps", 64)
    c_values = setting(config, "sweep.c_values", [6, 8, 12, 14])
    tm_targets = setting(config, "sweep.tm_targets", [1.25, 2.5, 5.0, 10.0])
    horizon = setting(config, "sweep.horizon", 100.0)
    if model.period is None:
        raise ConfigError(
            "error-sweep needs a model with a driving period (model.period): "
            "sweep.c_values counts steps per period"
        )
    # every cell's grid is commensurate and sets its own c, so reuse depends
    # on the policy alone, whatever c the config pins for the other runners
    if not isinstance(policy, FixedState):
        raise ConfigError(
            f"error-sweep needs periodic tensor reuse, which the "
            f"{policy_label(policy)} reference policy does not allow"
        )
    cells = []  # (c, dt, steps, memory steps), all checked before any propagation
    for c in c_values:
        dt = model.period / c
        ms = [m for m in (max(1, round(t / dt)) for t in tm_targets) if 1.24 <= m * dt <= 10.01]
        cells += [(c, dt, int(round(horizon / dt)), ms)] if ms else []
    if not cells:
        raise ConfigError(f"sweep.tm_targets={tm_targets} give no memory time in [1.24, 10.01]")
    if any(total < 2 * max(ms) for _, _, total, ms in cells):
        raise ConfigError(f"sweep.horizon={horizon} leaves no step past two memory times")
    rows = []
    for c, dt, total, ms in cells:
        grid_long = TimeGrid(0.0, dt, total)
        cache = PropagatorCache(model, grid_long, substeps)
        exact = _exact_states(inputs, grid_long, substeps, cache)
        for m in ms:
            memory = MemoryConfig(dt=dt, m=m, c=c)
            tensors = _transfer_tensors(cache, policy, rho0, memory, True, 2 * m - 1, exact)
            trajectory = propagate(tensors, exact[:m], total, include_residuals=True)
            # long-time window: both envelopes compared cell-level, since the
            # second-memory-window bound is approximate pointwise
            start = max(2 * m, total // 2)
            window = slice(start, total + 1)
            max_error = float(trace_distance(trajectory[window], exact[window]).max())
            # the bound depends on k only through the phase of k - 2m
            phases = {tensors.phase_of(k - 2 * m): k for k in range(start, total + 1)}
            max_bound = max(error_bound(tensors, memory, k) for k in phases.values())
            unphysical = max_error > 2.0
            rows.append(
                (
                    m * dt,
                    dt,
                    m,
                    c,
                    max_error,
                    max_bound,
                    memory_cutoff_heuristic(tensors, memory),
                    int(unphysical),
                    int(unphysical or max_error <= max_bound),
                )
            )
    columns = ["wt_m", "wdt", "m", "c", "error", "bound", "heuristic", "unphysical", "bound_ok"]
    return [("error_sweep.csv", columns, rows, {})]


def run_kernel_norms(config: dict, inputs: tuple, args) -> list[tuple]:
    """Kernel-norm decay for the three projector choices. Columns: policy,
    wt, kernel_norm."""
    model, rho0, _ = inputs
    grid, substeps = build_grid(config, default_dt=0.25, default_steps=20)
    tau0 = partial_trace(rho0, model.layout, "environment")
    ground = _ground(model.layout.dim_system)
    h = grid.dt / 16
    choices = [
        ProjectorChoice(FixedState(tau0), h),
        ProjectorChoice(FrozenSystem(lambda t: ground), h),
        ProjectorChoice(TrueEnvironment(), h),
    ]
    rows = kernel_norm_curve(model, choices, grid, rho0, substeps=substeps)
    return [("kernel_norms.csv", ["policy", "wt", "kernel_norm"], rows, {})]


def run_convergence(config: dict, inputs: tuple, args) -> list[tuple]:
    """Scaled-kernel vs full-length-tensor comparison. Columns: wt, n,
    relative_difference."""
    model, rho0, _ = inputs
    substeps = setting(config, "substeps", 64)
    t_values = setting(config, "convergence.t_values", [2.5, 5.0])
    n_values = setting(config, "convergence.n_values", [8, 16, 32, 64])
    tau0 = partial_trace(rho0, model.layout, "environment")
    choice = ProjectorChoice(FixedState(tau0))
    rows = convergence_study(
        model,
        t_values,
        n_values,
        choice,
        rho0,
        map_substeps=substeps,
        kernel_substeps=setting(config, "convergence.kernel_substeps", 1024),
    )
    return [("convergence.csv", ["wt", "n", "relative_difference"], rows, {})]


EXPERIMENTS = {
    "evolve": run_evolve,
    "tomography": run_tomography,
    "tensors": run_tensors,
    "propagate": run_propagate,
    "error-sweep": run_error_sweep,
    "kernel-norms": run_kernel_norms,
    "convergence": run_convergence,
}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="memtensor",
        description="Transfer-tensor / memory-kernel experiment runner",
    )
    # validate runs the config checks of every experiment and writes nothing
    parser.add_argument("experiment", choices=sorted([*EXPERIMENTS, "validate"]))
    parser.add_argument("--config", help="JSON experiment config", default=None)
    parser.add_argument("--out", help="output directory (default ./out)", default="out")
    parser.add_argument("--substeps", type=int, default=None)
    parser.add_argument("--policy", choices=["fixed", "true-env", "frozen"], default=None)
    parser.add_argument("--m", type=int, default=None, help="memory steps")
    parser.add_argument("--dt", type=float, default=None, help="grid spacing")
    parser.add_argument("--steps", type=int, default=None, help="grid steps")
    parser.add_argument(
        "--oracle", action="store_true", help="add exact-comparison columns"
    )
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    validating = args.experiment == "validate"
    try:
        config = merge_flags(load_config(args.config), args)
        errors, warnings, inputs = validate_config(config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if errors and not validating:
        for error in errors:
            print(f"error: {error}", file=sys.stderr)
        return EXIT_CONFIG
    out = Path(args.out)
    try:
        if validating:
            # the runners that read memory.t_m warn about it on their own grid
            for line in [f"warning: {w}" for w in warnings] + [f"error: {e}" for e in errors]:
                print(line)
            if errors:
                raise ConfigError(f"{len(errors)} config error(s)")
            print("config ok")
            return EXIT_OK
        out.mkdir(parents=True, exist_ok=True)
        for name, *content in EXPERIMENTS[args.experiment](config, inputs, args):
            path = out / name
            if len(content) == 1:
                save_json(content[0], path)
            else:
                columns, rows, extras = content
                write_csv(path, columns, rows, _echo(config, experiment=args.experiment, **extras))
            print(path)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: --out {args.out}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, KeyError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure in {args.experiment}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
