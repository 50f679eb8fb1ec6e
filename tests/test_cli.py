"""CLI experiment runner: outputs, determinism, exit codes."""

import json
import math

import numpy as np
import pytest

from memtensor import cli
from memtensor.linalg import partial_trace
from memtensor.models import LindbladModel, example_initial_state, model_from_config
from memtensor.serialization import complex_matrix_to_json
from memtensor.transfer import error_bound


def run_cli(args):
    return cli.main(args)


def read_rows(path):
    header = None
    rows = []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            continue
        if header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return header, rows


def test_evolve_default_outputs_unit_trace(tmp_path):
    out = tmp_path / "out"
    assert run_cli(["evolve", "--out", str(out), "--substeps", "16"]) == 0
    header, rows = read_rows(out / "evolve.csv")
    assert header[:2] == ["step", "wt"]
    assert "trace_re" in header
    trace_idx = header.index("trace_re")
    assert len(rows) == 9  # default grid covers wt in [0, 5] in 8 steps
    for row in rows:
        assert abs(float(row[trace_idx]) - 1.0) < 1e-9
    text = (out / "evolve.csv").read_text()
    assert text.startswith("# memtensor")
    assert "# convention:" in text
    assert "# parameters:" in text


# a small config of each experiment
SMALL = {
    "evolve": {"substeps": 8},
    "tomography": {"grid": {"steps": 2}, "substeps": 4},
    "tensors": {"memory": {"m": 2}, "substeps": 4},
    "propagate": {"grid": {"steps": 6}, "memory": {"m": 2}, "substeps": 4},
    "error-sweep": {"sweep": {"c_values": [4], "tm_targets": [2.5], "horizon": 15.0},
                    "substeps": 4},
    "kernel-norms": {"grid": {"dt": 0.5, "steps": 2}, "substeps": 8},
    "convergence": {"convergence": {"t_values": [1.25], "n_values": [4], "kernel_substeps": 64},
                    "substeps": 8},
}


def test_outputs_are_byte_identical(tmp_path):
    assert sorted(SMALL) == sorted(cli.EXPERIMENTS)
    cfg_path = tmp_path / "cfg.json"
    for experiment, config in SMALL.items():
        cfg_path.write_text(json.dumps(config))
        written = []
        for run in ("a", "b"):
            out = tmp_path / experiment / run
            # --oracle only changes propagate
            args = [experiment, "--config", str(cfg_path), "--out", str(out), "--oracle"]
            assert run_cli(args) == 0
            written.append({path.name: path.read_bytes() for path in out.iterdir()})
        assert written[0] and written[0] == written[1], experiment


def test_unusable_out_exits_2(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    (tmp_path / "taken" / "evolve.csv").mkdir(parents=True)
    for out, reason in [
        (blocker, "File exists"),
        (blocker / "sub", "Not a directory"),
        (tmp_path / "taken", "Is a directory"),  # the writer fails, not mkdir
    ]:
        assert run_cli(["evolve", "--out", str(out), "--substeps", "4"]) == 2
        assert capsys.readouterr().err == f"error: --out {out}: {reason}\n"


def test_tomography_report_and_family_export(tmp_path):
    out = tmp_path / "out"
    assert (
        run_cli(
            ["tomography", "--out", str(out), "--steps", "4", "--substeps", "16"]
        )
        == 0
    )
    header, rows = read_rows(out / "tomography_report.csv")
    assert header == ["i", "j", "trace_dev", "choi_min_eig", "passed"]
    assert len(rows) == 10
    assert all(row[-1] == "1" for row in rows)
    doc = json.loads((out / "family.json").read_text())
    assert doc["format"] == "memtensor-map-family"
    assert doc["conventions"]["vectorization"] == "column-stacking"


def test_tensors_command_periodic_grid(tmp_path):
    out = tmp_path / "out"
    config = {
        "grid": {"dt": math.pi / 4},
        "memory": {"m": 3},
        "substeps": 12,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    assert run_cli(["tensors", "--config", str(cfg_path), "--out", str(out)]) == 0
    doc = json.loads((out / "tensors.json").read_text())
    assert doc["format"] == "memtensor-transfer-tensors"
    assert doc["config"] == {"dt": math.pi / 4, "m": 3, "c": 4, "transient_steps": 0}
    # lengths out to 2m-1 for the error bound, starts over one period
    keys = {tuple(int(x) for x in k.split(",")) for k in doc["tensors"]}
    assert {(p, l) for p in range(4) for l in range(1, 6)} == keys
    header, rows = read_rows(out / "tensor_norms.csv")
    assert header == ["length", "start", "operator_norm"]
    assert len(rows) == len(keys)


def test_propagate_with_oracle(tmp_path):
    out = tmp_path / "out"
    assert (
        run_cli(
            [
                "propagate",
                "--out", str(out),
                "--dt", "0.625",
                "--steps", "16",
                "--m", "4",
                "--substeps", "16",
                "--oracle",
            ]
        )
        == 0
    )
    header, rows = read_rows(out / "propagate.csv")
    assert header[-1] == "trace_distance_exact"
    assert len(rows) == 17
    # seed rows coincide with the oracle; later rows stay reasonable
    assert float(rows[0][-1]) == 0.0
    assert max(float(r[-1]) for r in rows) < 0.5


def test_error_sweep_single_cell(tmp_path):
    out = tmp_path / "out"
    config = {
        "sweep": {"c_values": [4], "tm_targets": [2.5], "horizon": 15.0},
        "substeps": 16,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    assert run_cli(["error-sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
    header, rows = read_rows(out / "error_sweep.csv")
    assert header == [
        "wt_m", "wdt", "m", "c", "error", "bound", "heuristic", "unphysical", "bound_ok",
    ]
    assert len(rows) == 1
    wt_m, wdt, m, c, error, bound, heuristic, unphysical, bound_ok = rows[0]
    assert int(m) == 3 and int(c) == 4
    assert float(error) <= float(bound)
    assert bound_ok == "1" and unphysical == "0"


def test_error_sweep_bounds_each_phase_once(tmp_path, monkeypatch):
    # the bound depends on k only through the phase of k - 2m: one call per
    # phase gives the maximum over every k of the long-time window
    calls = []

    def recording(tensors, memory, k):
        calls.append((tensors, memory, k))
        return error_bound(tensors, memory, k)

    monkeypatch.setattr(cli, "error_bound", recording)
    config = {"sweep": {"c_values": [4], "tm_targets": [2.5], "horizon": 15.0}, "substeps": 8}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert run_cli(["error-sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
    header, rows = read_rows(out / "error_sweep.csv")
    tensors, memory, _ = calls[0]
    m, c = memory.m, memory.c
    total = int(round(15.0 / memory.dt))
    window = range(max(2 * m, total // 2), total + 1)
    assert sorted(tensors.phase_of(k - 2 * m) for *_, k in calls) == list(range(c))
    assert len(window) > c
    assert float(rows[0][header.index("bound")]) == max(
        error_bound(tensors, memory, k) for k in window
    )


def test_error_sweep_traces_out_each_trajectory_in_one_call(tmp_path, monkeypatch):
    # one partial_trace for the fixed reference state, one for the cell's grid
    calls = []

    def recording(x, layout, keep="system"):
        calls.append(np.shape(x))
        return partial_trace(x, layout, keep)

    monkeypatch.setattr(cli, "partial_trace", recording)
    config = {"sweep": {"c_values": [4], "tm_targets": [2.5], "horizon": 15.0}, "substeps": 8}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    assert run_cli(["error-sweep", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
    total = int(round(15.0 / (math.pi / 4)))
    assert calls == [(4, 4), (total + 1, 4, 4)]


def test_error_sweep_refuses_policy_without_tensor_reuse(tmp_path, capsys):
    # a true-env reference state breaks the periodic reuse the sweep relies on
    config = {"sweep": {"c_values": [4], "tm_targets": [2.5], "horizon": 15.0}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "out"
    args = ["error-sweep", "--config", str(cfg_path), "--out", str(out), "--policy", "true-env"]
    assert run_cli(args) == 2
    assert "true-env" in capsys.readouterr().err
    assert not (out / "error_sweep.csv").exists()


def test_error_sweep_refuses_a_time_dependent_policy_despite_a_pinned_c(tmp_path, capsys):
    # each cell sets its own c, so a pinned memory.c cannot make a true-env
    # reference state periodic
    config = {"memory": {"c": 3}, "sweep": {"c_values": [4], "tm_targets": [2.5], "horizon": 15.0},
              "substeps": 8}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "out"
    args = ["error-sweep", "--config", str(cfg_path), "--out", str(out), "--policy", "true-env"]
    assert run_cli(args) == 2
    assert "true-env" in capsys.readouterr().err
    assert not (out / "error_sweep.csv").exists()


def test_kernel_norms_three_policies(tmp_path):
    out = tmp_path / "out"
    config = {"grid": {"dt": 0.5, "steps": 2}, "substeps": 8}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    assert run_cli(["kernel-norms", "--config", str(cfg_path), "--out", str(out)]) == 0
    header, rows = read_rows(out / "kernel_norms.csv")
    assert header == ["policy", "wt", "kernel_norm"]
    assert {row[0] for row in rows} == {"fixed", "frozen", "true-env"}
    assert all(float(row[2]) > 0 for row in rows)


def test_convergence_command(tmp_path):
    out = tmp_path / "out"
    config = {
        "convergence": {"t_values": [1.25], "n_values": [4, 8], "kernel_substeps": 128},
        "substeps": 16,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    assert run_cli(["convergence", "--config", str(cfg_path), "--out", str(out)]) == 0
    header, rows = read_rows(out / "convergence.csv")
    assert header == ["wt", "n", "relative_difference"]
    diffs = {int(row[1]): float(row[2]) for row in rows}
    assert diffs[8] < diffs[4]


def test_validate_ok_and_warning(tmp_path, capsys):
    assert run_cli(["validate"]) == 0
    assert "config ok" in capsys.readouterr().out
    config = {"memory": {"m": 8, "t_m": 3.0}, "grid": {"dt": 0.625}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    assert run_cli(["validate", "--config", str(cfg_path)]) == 0
    captured = capsys.readouterr().out
    assert "warning" in captured and "t_m" in captured


def test_validate_creates_no_output_directory(tmp_path, capsys):
    out = tmp_path / "new"
    assert run_cli(["validate", "--out", str(out)]) == 0
    assert "config ok" in capsys.readouterr().out
    assert not out.exists()


def test_validate_rejects_negative_rate(tmp_path, capsys):
    config = {
        "model": {
            "dim_system": 2,
            "dim_environment": 2,
            "hamiltonian": [{"pauli": "ZI", "coefficient": 0.5}],
            "jumps": [{"matrix": [[[0, 0]]], "rate": -1.0}],
        },
        "initial_state": [[[0.25, 0]] * 4] * 4,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    assert run_cli(["validate", "--config", str(cfg_path)]) == 2
    assert "rate" in capsys.readouterr().out


@pytest.mark.parametrize("experiment", ["evolve", "tomography", "tensors"])
def test_a_run_builds_its_model_once(tmp_path, monkeypatch, experiment):
    built = []
    post_init = LindbladModel.__post_init__

    def counting(model):
        built.append(model)
        post_init(model)

    monkeypatch.setattr(LindbladModel, "__post_init__", counting)
    args = [experiment, "--steps", "2", "--m", "2", "--substeps", "4", "--out", str(tmp_path)]
    assert run_cli(args) == 0
    assert len(built) == 1


def test_config_errors_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli(["evolve", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert run_cli(["evolve", "--config", str(tmp_path / "missing.json")]) == 2
    with pytest.raises(SystemExit) as excinfo:
        run_cli(["not-an-experiment"])
    assert excinfo.value.code == 2


def test_numerical_failure_exit_3(tmp_path, monkeypatch):
    def boom(config, inputs, args):
        raise ValueError("synthetic numerical failure")

    monkeypatch.setitem(cli.EXPERIMENTS, "evolve", boom)
    assert run_cli(["evolve", "--out", str(tmp_path / "o")]) == 3


def test_frozen_policy_flag(tmp_path):
    out = tmp_path / "out"
    assert (
        run_cli(
            [
                "tomography",
                "--out", str(out),
                "--steps", "2",
                "--substeps", "8",
                "--policy", "frozen",
            ]
        )
        == 0
    )
    header, rows = read_rows(out / "tomography_report.csv")
    assert len(rows) == 3
    assert all(row[-1] == "1" for row in rows)


def test_maximally_mixed_initial_state_config(tmp_path):
    # initial_state override on the builtin model
    config = {"initial_state": [[[0.25, 0], [0, 0], [0, 0], [0, 0]],
                                [[0, 0], [0.25, 0], [0, 0], [0, 0]],
                                [[0, 0], [0, 0], [0.25, 0], [0, 0]],
                                [[0, 0], [0, 0], [0, 0], [0.25, 0]]],
              "grid": {"steps": 2}, "substeps": 8}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert run_cli(["evolve", "--config", str(cfg_path), "--out", str(out)]) == 0


def _tensor_doc(tmp_path, name, config):
    cfg_path = tmp_path / f"{name}.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / name
    assert run_cli(["tensors", "--config", str(cfg_path), "--out", str(out)]) == 0
    return (out / "tensors.json").read_text()


def test_tensors_command_uses_grid_t0(tmp_path):
    # the example drive has period pi: shifting t0 by a quarter period moves
    # the tensors, shifting it by a whole period does not
    from memtensor import tensors_from_json

    def config(t0):
        return {"grid": {"t0": t0, "dt": math.pi / 4}, "memory": {"m": 3}, "substeps": 12}

    base = _tensor_doc(tmp_path, "t0_zero", config(0.0))
    assert _tensor_doc(tmp_path, "t0_shift", config(0.3)) != base
    shifted = tensors_from_json(json.loads(_tensor_doc(tmp_path, "t0_period", config(math.pi))))
    reference = tensors_from_json(json.loads(base))
    assert set(shifted.tensors) == set(reference.tensors)
    for key, t in reference.tensors.items():
        np.testing.assert_allclose(shifted.tensors[key], t, rtol=0, atol=1e-12)


@pytest.mark.parametrize("key", ["m", "c", "transient_steps"])
def test_bad_memory_value_exits_2(tmp_path, capsys, key):
    for value in ("x", True):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"memory": {key: value}}))
        assert run_cli(["tensors", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        assert f"memory.{key}" in capsys.readouterr().err
    # the runner refuses it on its own too, not only through validate_config
    model = cli.build_model({})[0]
    with pytest.raises(cli.ConfigError, match="memory"):
        cli.resolve_memory({"memory": {key: "x"}}, model, math.pi / 5)


def test_non_numeric_memory_time_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"memory": {"t_m": "x"}}))
    assert run_cli(["tensors", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    assert "memory.t_m" in capsys.readouterr().err


def test_bad_grid_dt_in_tensors_runner_is_config_error(tmp_path):
    with pytest.raises(cli.ConfigError, match="grid"):
        cli.run_tensors({"grid": {"dt": "x"}}, cli.build_inputs({}), None)


def _run_config(tmp_path, experiment, config):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    return run_cli([experiment, "--config", str(cfg_path), "--out", str(tmp_path / "o")])


def _bad_values(name):
    kind, bound = cli.SETTINGS[name]
    item = kind[0] if isinstance(kind, list) else kind
    bad = ["x", True]
    if item is float:
        bad.append(math.inf)
    if bound is not None:
        bad.append(bound - 1 if item is int else bound)  # largest value out of range
    if item is kind:
        return bad
    return [[v] for v in bad] + [bound + 1, []]  # a bare scalar, an empty list


# the runner that reads each section
READER = {"grid": "evolve", "memory": "tensors", "substeps": "evolve",
          "sweep": "error-sweep", "convergence": "convergence"}


@pytest.mark.parametrize("name", sorted(cli.SETTINGS))
def test_every_malformed_setting_exits_2_naming_it(tmp_path, capsys, name):
    section, _, key = name.rpartition(".")
    experiment = READER[section or key]
    for value in _bad_values(name):
        config = {section: {key: value}} if section else {key: value}
        assert _run_config(tmp_path, experiment, config) == 2, value
        assert name in capsys.readouterr().err
        # the runner refuses it on its own too, not only through validate_config
        with pytest.raises(cli.ConfigError, match=name):
            cli.EXPERIMENTS[experiment](config, cli.build_inputs(config), None)
    assert not (tmp_path / "o").exists()


def _custom_config(**model):
    """The static 2+2 model ``0.5 ZI`` with ``model`` keys added, maximally mixed."""
    base = {"dim_system": 2, "dim_environment": 2,
            "hamiltonian": [{"pauli": "ZI", "coefficient": 0.5}]}
    return {"model": dict(base, **model), "initial_state": complex_matrix_to_json(np.eye(4) / 4)}


@pytest.mark.parametrize(
    "config, key",
    [
        ({"grid": {"steps": True}, "substeps": True}, "grid.steps"),
        ({"grid": [1]}, "grid"),
        ({"memory": 3}, "memory"),
        ({"policy": [1]}, "policy"),
        ({"sweep": "x"}, "sweep"),
        ({"policy": {"tau": "x"}}, "policy.tau"),
        ({"policy": {"kind": "frozen", "sigma": [[1]]}}, "policy.sigma"),
        ({"initial_state": 3}, "initial_state"),
        (_custom_config(hamiltonian=[{"pauli": "ZI", "coefficient": math.nan}]),
         "hamiltonian[0].coefficient"),
        (_custom_config(hamiltonian=[{"pauli": "ZI", "coefficient": 0.5, "envelope": {
            "type": "cosine", "frequency": math.inf}}]), "hamiltonian[0].envelope.frequency"),
        (_custom_config(jumps=[{"matrix": complex_matrix_to_json(np.eye(4)), "rate": math.nan}]),
         "jumps[0].rate"),
        (_custom_config(period=math.nan), "period must be a finite number"),
        (_custom_config(period=math.inf), "period must be a finite number"),
        (_custom_config(dim_environment=2.9), "dim_environment"),
        (_custom_config(dim_environment=True), "dim_environment"),
        (_custom_config(period=True), "period must be a finite number"),
        (_custom_config(hamiltonian=[{"matrix": [[[1, 0]]], "coefficient": 0.5}]),
         "hamiltonian[0].matrix has shape (1, 1)"),
    ],
)
def test_malformed_section_or_matrix_exits_2_naming_it(tmp_path, capsys, config, key):
    assert _run_config(tmp_path, "evolve", config) == 2
    assert key in capsys.readouterr().err


def test_memory_time_warning_uses_the_experiment_grid(tmp_path, capsys):
    # tensors runs on dt = pi/5 by default, so m*dt = 8*pi/5
    config = {"memory": {"t_m": 8 * math.pi / 5}, "substeps": 4}
    assert _run_config(tmp_path, "tensors", config) == 0
    assert "warning" not in capsys.readouterr().err
    assert _run_config(tmp_path, "tensors", {"memory": {"t_m": 5.0}, "substeps": 4}) == 0
    err = capsys.readouterr().err
    assert "warning" in err and "memory.t_m" in err


def test_validate_compares_the_memory_time_only_on_a_grid_the_config_sets(tmp_path, capsys):
    # without grid.dt each runner warns on its own grid: tensors on dt = pi/5
    # (m*dt = 8 pi/5), propagate on dt = 0.625 (m*dt = 5.0)
    for t_m in (8 * math.pi / 5, 5.0):
        assert _run_config(tmp_path, "validate", {"memory": {"m": 8, "t_m": t_m}}) == 0
        out = capsys.readouterr().out
        assert "warning" not in out and "config ok" in out
    grid = {"dt": math.pi / 5}
    assert _run_config(tmp_path, "validate", {"grid": grid, "memory": {"m": 8, "t_m": 5.0}}) == 0
    out = capsys.readouterr().out
    assert "warning: memory.t_m=5.0" in out and "config ok" in out
    config = {"grid": grid, "memory": {"m": 8, "t_m": 8 * math.pi / 5}}
    assert _run_config(tmp_path, "validate", config) == 0
    assert "warning" not in capsys.readouterr().out


@pytest.mark.parametrize(
    "sweep, key",
    [
        ({"c_values": [6], "tm_targets": [0.1]}, "sweep.tm_targets"),
        ({"c_values": [6], "horizon": 4.0}, "sweep.horizon"),
    ],
)
def test_error_sweep_without_usable_cell_exits_2(tmp_path, capsys, monkeypatch, sweep, key):
    def no_propagator(*args, **kwargs):
        raise AssertionError("a propagator was built")

    monkeypatch.setattr(cli, "PropagatorCache", no_propagator)
    assert _run_config(tmp_path, "error-sweep", {"sweep": sweep}) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "o" / "error_sweep.csv").exists()


@pytest.mark.parametrize(
    "policy, key",
    [
        ({"kind": "frozen", "sigma": complex_matrix_to_json(np.eye(3) / 3)}, "policy.sigma"),
        ({"kind": "fixed", "tau": complex_matrix_to_json(np.eye(3) / 3)}, "policy.tau"),
    ],
)
def test_policy_state_of_another_layout_exits_2_naming_it(tmp_path, capsys, policy, key):
    assert _run_config(tmp_path, "validate", {"policy": policy}) == 2
    assert key in capsys.readouterr().out
    config = {"policy": policy, "grid": {"steps": 1}, "substeps": 4}
    assert _run_config(tmp_path, "tomography", config) == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("d", [1, 2])
def test_jump_of_another_shape_exits_2_naming_it(tmp_path, capsys, d):
    config = _custom_config(jumps=[{"matrix": complex_matrix_to_json(np.eye(d)), "rate": 1.0}])
    with pytest.raises(ValueError, match=r"jumps\[0\]"):
        model_from_config(config["model"])
    assert _run_config(tmp_path, "validate", config) == 2
    assert "jumps[0]" in capsys.readouterr().out
    assert _run_config(tmp_path, "evolve", config) == 2
    assert not (tmp_path / "o" / "evolve.csv").exists()


def test_error_sweep_asks_a_static_model_for_a_period(tmp_path, capsys):
    assert _run_config(tmp_path, "error-sweep", _custom_config()) == 2
    assert "model.period" in capsys.readouterr().err


# the built-in example model as a custom config: its cosine drive, no period
EXAMPLE_WITHOUT_PERIOD = {
    "dim_system": 2,
    "dim_environment": 2,
    "hamiltonian": [
        {"pauli": "ZI", "coefficient": 0.5},
        {"pauli": "IZ", "coefficient": 8.0},
        {"pauli": "XX", "coefficient": 2.0},
        {"pauli": "YY", "coefficient": 2.0, "envelope": {"type": "cosine", "frequency": 2.0}},
    ],
    "jumps": [{"matrix": complex_matrix_to_json(np.kron(np.eye(2), [[0, 1], [0, 0]])),
               "rate": 1.0}],
}


def _oracle_rows(tmp_path, name, config):
    """``propagate --oracle`` data rows of ``config`` as floats."""
    cfg_path = tmp_path / f"{name}.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / name
    assert run_cli(["propagate", "--oracle", "--config", str(cfg_path), "--out", str(out)]) == 0
    return np.array(read_rows(out / "propagate.csv")[1], dtype=float)


def test_a_driven_model_without_period_is_stored_densely(tmp_path):
    # its generator never repeats on the grid as far as the model says, so no
    # start may borrow start 0's tensors; declaring the period changes only cost
    run = {"initial_state": complex_matrix_to_json(example_initial_state()),
           "grid": {"dt": math.pi / 5, "steps": 40}, "memory": {"m": 4}, "substeps": 16}
    dense = _oracle_rows(tmp_path, "no-period", {"model": EXAMPLE_WITHOUT_PERIOD, **run})
    periodic = _oracle_rows(
        tmp_path, "period", {"model": dict(EXAMPLE_WITHOUT_PERIOD, period=math.pi), **run})
    np.testing.assert_allclose(dense, periodic, rtol=0, atol=1e-12)
    doc = json.loads(_tensor_doc(tmp_path, "tensors", {"model": EXAMPLE_WITHOUT_PERIOD, **run}))
    assert doc["dense"] is True


@pytest.mark.parametrize(
    "model, dt, c, repeats",
    [
        ("builtin-example", math.pi / 5, 4, "repeats every 5 steps"),
        ("builtin-example", 0.625, 5, "never repeats"),
        (EXAMPLE_WITHOUT_PERIOD, math.pi / 5, 5, "never repeats"),
    ],
    ids=["not-a-multiple", "incommensurate", "no-period"],
)
def test_pinned_c_against_the_period_rule_exits_2(tmp_path, capsys, model, dt, c, repeats):
    config = {"model": model, "initial_state": complex_matrix_to_json(example_initial_state()),
              "grid": {"dt": dt, "steps": 12}, "memory": {"m": 2, "c": c}, "substeps": 4}
    for experiment in ("propagate", "tensors"):
        assert _run_config(tmp_path, experiment, config) == 2
        err = capsys.readouterr().err
        assert f"memory.c={c}" in err and repeats in err
    assert not (tmp_path / "o" / "propagate.csv").exists()


def test_validate_refuses_a_pinned_c_that_the_runners_refuse(tmp_path, capsys):
    # grid.dt fixes the step of both tensor runners, so validate checks c there
    dt = math.pi / 5
    assert _run_config(tmp_path, "validate", {"grid": {"dt": dt}, "memory": {"c": 4}}) == 2
    out = capsys.readouterr().out
    assert "memory.c=4" in out and "repeats every 5 steps" in out and "config ok" not in out
    assert _run_config(tmp_path, "validate", {"grid": {"dt": dt}, "memory": {"c": 10}}) == 0
    assert "config ok" in capsys.readouterr().out
    # without grid.dt each runner picks its own grid, and only it can check
    assert _run_config(tmp_path, "validate", {"memory": {"c": 4}}) == 0
    assert "config ok" in capsys.readouterr().out


def test_pinned_multiple_of_the_period_runs(tmp_path):
    run = {"grid": {"dt": math.pi / 5, "steps": 30}, "substeps": 16}
    unpinned = _oracle_rows(tmp_path, "unpinned", {**run, "memory": {"m": 4}})
    pinned = _oracle_rows(tmp_path, "pinned", {**run, "memory": {"m": 4, "c": 10}})
    np.testing.assert_allclose(pinned, unpinned, rtol=0, atol=1e-12)  # the block size differs
    # under a time-dependent policy a pinned multiple with transients still
    # stores one period, as before
    true_env = {**run, "policy": {"kind": "true-env"}}
    dense = _oracle_rows(tmp_path, "dense", {**true_env, "memory": {"m": 4}})
    periodic = _oracle_rows(
        tmp_path, "periodic", {**true_env, "memory": {"m": 4, "c": 5, "transient_steps": 10}})
    assert abs(periodic[:, -1].max() - dense[:, -1].max()) < 1e-2
