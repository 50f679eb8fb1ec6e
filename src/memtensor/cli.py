"""Deterministic command-line experiment runner.

Subcommands reproduce the library's headline experiments from a single JSON
config file (or from built-in defaults), emitting CSV artifacts with full
parameter echoes. There is no randomness anywhere in the pipeline, so
identical configs produce byte-identical outputs.

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
      "memory": {"m": 8, "c": <int>,           # c defaults to period/dt when
                 "transient_steps": 0,         # that is an integer
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
needs a model with a ``period`` and exits 2 on a static one.

Exit codes: 0 success, 2 config error, 3 numerical failure.
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
from .serialization import (
    complex_matrix_from_json,
    family_to_json,
    save_json,
    tensors_to_json,
)

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


def state_columns(d: int) -> list[str]:
    cols = []
    for i in range(d):
        for j in range(d):
            cols += [f"rho{i}{j}_re", f"rho{i}{j}_im"]
    return cols


def state_row(rho: np.ndarray) -> list[float]:
    values = []
    for i in range(rho.shape[0]):
        for j in range(rho.shape[1]):
            values += [float(rho[i, j].real), float(rho[i, j].imag)]
    return values


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
        sigma = np.zeros((layout.dim_system,) * 2, dtype=complex)
        sigma[0, 0] = 1.0
        if "sigma" in policy_cfg:
            sigma = _policy_state(policy_cfg, "sigma", layout.dim_system)
        return FrozenSystem(lambda t: sigma)
    raise ConfigError(f"policy.kind must be fixed|true-env|frozen, got {kind!r}")


def build_grid(config: dict, default_dt: float, default_steps: int) -> TimeGrid:
    return TimeGrid(
        t0=setting(config, "grid.t0", 0.0),
        dt=setting(config, "grid.dt", default_dt),
        steps=setting(config, "grid.steps", default_steps),
    )


def resolve_memory(config: dict, model: LindbladModel, dt: float, policy=None):
    """Memory config plus whether periodic tensor reuse is available.

    Reuse needs the generator period to be an integer number of grid steps
    and a reference state with the same periodicity; time-dependent policies
    fall back to dense tensor storage unless the config pins ``c`` itself.
    """
    c = setting(config, "memory.c", None)
    if c is None:
        if policy is not None and not isinstance(policy, FixedState):
            c = -1
        elif model.period is not None:
            # -1: grid incommensurate with the driving period
            c = steps_per_period(model.period, dt) or -1
        else:
            c = 1  # static generator: maps are invariant under any step shift
    m, transient = setting(config, "memory.m", 8), setting(config, "memory.transient_steps", 0)
    return MemoryConfig(dt=dt, m=m, c=max(c, 1), transient_steps=transient), c > 0


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
    """Returns (errors, warnings, inputs) for a merged experiment config. The
    warnings compare ``memory.t_m`` with ``m * dt`` on the default grid;
    ``inputs`` is :func:`build_inputs` of the config, ``None`` on errors, so
    a run builds its model once."""
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
    m, dt = setting(config, "memory.m", 8), setting(config, "grid.dt", 0.625)
    return errors, memory_time_warnings(config, m, dt), inputs


def _echo(config: dict, **extra) -> dict:
    echo = {k: v for k, v in config.items() if k not in ("model", "initial_state")}
    echo["model"] = "builtin-example" if config.get("model", "builtin-example") == "builtin-example" else "custom"
    echo.update(extra)
    return echo


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------


def run_evolve(config: dict, inputs: tuple, out: Path, args) -> list[Path]:
    """Exact reduced trajectory. Columns: step, wt, rho elements (re/im), trace_re."""
    model, rho0, _ = inputs
    substeps = setting(config, "substeps", 64)
    grid = build_grid(config, default_dt=0.625, default_steps=8)
    trajectory = evolve_state(rho0, model, grid, substeps=substeps)
    ds = model.layout.dim_system
    rows = []
    for j, joint in enumerate(trajectory):
        rho = partial_trace(joint, model.layout, "system")
        rows.append(
            (j, grid.time(j), *state_row(rho), float(np.trace(rho).real))
        )
    path = out / "evolve.csv"
    write_csv(
        path,
        ["step", "wt", *state_columns(ds), "trace_re"],
        rows,
        _echo(config, experiment="evolve"),
    )
    return [path]


def run_tomography(config: dict, inputs: tuple, out: Path, args) -> list[Path]:
    """Family CPTP report (columns: i, j, trace_dev, choi_min_eig, passed)
    plus the family itself as JSON."""
    model, rho0, policy = inputs
    substeps = setting(config, "substeps", 64)
    grid = build_grid(config, default_dt=0.625, default_steps=16)
    family = reconstruct_family(
        model, grid, policy, substeps=substeps, rho_se0=rho0
    )
    rows = []
    for (i, j), lam in family.maps.items():
        report = check_cptp(lam, tol=1e-8)
        rows.append((i, j, report.trace_dev, report.choi_min_eig, int(report.passed)))
    report_path = out / "tomography_report.csv"
    write_csv(
        report_path,
        ["i", "j", "trace_dev", "choi_min_eig", "passed"],
        rows,
        _echo(config, experiment="tomography"),
    )
    family_path = out / "family.json"
    save_json(family_to_json(family), family_path)
    return [report_path, family_path]


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


def run_tensors(config: dict, inputs: tuple, out: Path, args) -> list[Path]:
    """Transfer tensors as JSON plus the norm profile (columns: length,
    start, operator_norm). Lengths reach 2m-1 so the error bound is usable."""
    model, rho0, policy = inputs
    substeps = setting(config, "substeps", 64)
    # parses t0, dt and any configured steps; the window is chosen below
    grid = build_grid(config, default_dt=math.pi / 5, default_steps=1)
    memory, commensurate = resolve_memory(config, model, grid.dt, policy)
    for warning in memory_time_warnings(config, memory.m, grid.dt):
        print(f"warning: {warning}", file=sys.stderr)
    max_length = 2 * memory.m - 1
    if commensurate:
        window = memory.c + memory.transient_steps + max_length
    elif setting(config, "grid.steps", None) is not None:
        window = grid.steps
    else:
        window = memory.m + max_length
    cache = PropagatorCache(model, TimeGrid(grid.t0, grid.dt, window), substeps)
    joint = evolve_state(
        rho0, model, TimeGrid(grid.t0, grid.dt, memory.m), substeps, cache=cache
    )
    exact = [partial_trace(r, model.layout, "system") for r in joint]
    tensors = _transfer_tensors(cache, policy, rho0, memory, commensurate, max_length, exact)
    tensors_path = out / "tensors.json"
    save_json(tensors_to_json(tensors), tensors_path)
    profile = tensor_norm_profile(tensors)
    rows = [(l, p, norm) for (l, p), norm in sorted(profile.items())]
    norms_path = out / "tensor_norms.csv"
    write_csv(
        norms_path,
        ["length", "start", "operator_norm"],
        rows,
        _echo(config, experiment="tensors", commensurate=commensurate),
    )
    return [tensors_path, norms_path]


def run_propagate(config: dict, inputs: tuple, out: Path, args) -> list[Path]:
    """Memory-truncated long-time propagation. Columns: step, wt, rho
    elements (re/im), trace_re, and trace_distance_exact with --oracle."""
    model, rho0, policy = inputs
    substeps = setting(config, "substeps", 64)
    grid = build_grid(config, default_dt=0.625, default_steps=160)
    memory, commensurate = resolve_memory(config, model, grid.dt, policy)
    for warning in memory_time_warnings(config, memory.m, grid.dt):
        print(f"warning: {warning}", file=sys.stderr)
    cache = PropagatorCache(model, grid, substeps)
    oracle_window = grid.steps if args.oracle else min(memory.m, grid.steps)
    joint = evolve_state(
        rho0, model, TimeGrid(grid.t0, grid.dt, oracle_window), substeps, cache=cache
    )
    exact = [partial_trace(r, model.layout, "system") for r in joint]
    tensors = _transfer_tensors(cache, policy, rho0, memory, commensurate, memory.m, exact)
    trajectory = propagate(tensors, exact[: memory.m], grid.steps, include_residuals=True)
    ds = model.layout.dim_system
    columns = ["step", "wt", *state_columns(ds), "trace_re"]
    if args.oracle:
        columns.append("trace_distance_exact")
    rows = []
    for j, rho in enumerate(trajectory):
        row = [j, grid.time(j), *state_row(rho), float(np.trace(rho).real)]
        if args.oracle:
            row.append(trace_distance(rho, exact[j]))
        rows.append(tuple(row))
    path = out / "propagate.csv"
    write_csv(path, columns, rows, _echo(config, experiment="propagate", oracle=bool(args.oracle)))
    return [path]


def run_error_sweep(config: dict, inputs: tuple, out: Path, args) -> list[Path]:
    """Cutoff-error landscape. Columns: wt_m, wdt, m, c, error (long-time
    max), bound (second-window envelope), heuristic (max longest-tensor
    norm), unphysical (error > 2), bound_ok. Each cell reuses one period of
    tensors, so a static model (no ``model.period``) and a policy for which
    :func:`resolve_memory` allows no periodic reuse are refused as config
    errors."""
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
    cells = []  # (c, dt, steps, memory steps), all checked before any propagation
    for c in c_values:
        dt = model.period / c
        if not resolve_memory(config, model, dt, policy)[1]:
            raise ConfigError(
                f"error-sweep needs periodic tensor reuse, which the "
                f"{policy_label(policy)} reference policy does not allow"
            )
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
        joint = evolve_state(rho0, model, grid_long, substeps, cache=cache)
        exact = [partial_trace(r, model.layout, "system") for r in joint]
        for m in ms:
            memory = MemoryConfig(dt=dt, m=m, c=c)
            tensors = _transfer_tensors(cache, policy, rho0, memory, True, 2 * m - 1, exact)
            trajectory = propagate(tensors, exact[:m], total, include_residuals=True)
            # long-time window: both envelopes compared cell-level, since the
            # second-memory-window bound is approximate pointwise
            start = max(2 * m, total // 2)
            max_error = max(
                trace_distance(trajectory[k], exact[k]) for k in range(start, total + 1)
            )
            max_bound = max(error_bound(tensors, memory, k) for k in range(start, total + 1))
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
    path = out / "error_sweep.csv"
    write_csv(
        path,
        ["wt_m", "wdt", "m", "c", "error", "bound", "heuristic", "unphysical", "bound_ok"],
        rows,
        _echo(config, experiment="error-sweep"),
    )
    return [path]


def run_kernel_norms(config: dict, inputs: tuple, out: Path, args) -> list[Path]:
    """Kernel-norm decay for the three projector choices. Columns: policy,
    wt, kernel_norm."""
    model, rho0, _ = inputs
    substeps = setting(config, "substeps", 64)
    grid = build_grid(config, default_dt=0.25, default_steps=20)
    tau0 = partial_trace(rho0, model.layout, "environment")
    ds = model.layout.dim_system
    ground = np.zeros((ds, ds), dtype=complex)
    ground[0, 0] = 1.0
    h = grid.dt / 16
    choices = [
        ProjectorChoice(FixedState(tau0), h),
        ProjectorChoice(FrozenSystem(lambda t: ground), h),
        ProjectorChoice(TrueEnvironment(), h),
    ]
    rows = kernel_norm_curve(model, choices, grid, rho0, substeps=substeps)
    path = out / "kernel_norms.csv"
    write_csv(
        path,
        ["policy", "wt", "kernel_norm"],
        rows,
        _echo(config, experiment="kernel-norms"),
    )
    return [path]


def run_convergence(config: dict, inputs: tuple, out: Path, args) -> list[Path]:
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
    path = out / "convergence.csv"
    write_csv(
        path,
        ["wt", "n", "relative_difference"],
        rows,
        _echo(config, experiment="convergence"),
    )
    return [path]


def run_validate(config: dict, inputs: tuple, out: Path, args) -> list[Path]:
    """Schema, range and compatibility checks; exit 2 on errors."""
    errors, warnings, _ = validate_config(config)
    for warning in warnings:
        print(f"warning: {warning}")
    for error in errors:
        print(f"error: {error}")
    if errors:
        raise ConfigError(f"{len(errors)} config error(s)")
    print("config ok")
    return []


EXPERIMENTS = {
    "evolve": run_evolve,
    "tomography": run_tomography,
    "tensors": run_tensors,
    "propagate": run_propagate,
    "error-sweep": run_error_sweep,
    "kernel-norms": run_kernel_norms,
    "convergence": run_convergence,
    "validate": run_validate,
}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="memtensor",
        description="Transfer-tensor / memory-kernel experiment runner",
    )
    parser.add_argument("experiment", choices=sorted(EXPERIMENTS))
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
    inputs = None
    try:
        config = merge_flags(load_config(args.config), args)
        if args.experiment != "validate":
            # the runners that read memory.t_m warn about it on their own grid
            errors, _, inputs = validate_config(config)
            if errors:
                for error in errors:
                    print(f"error: {error}", file=sys.stderr)
                return EXIT_CONFIG
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        written = EXPERIMENTS[args.experiment](config, inputs, out, args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, KeyError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure in {args.experiment}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    for path in written:
        print(path)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
