"""CLI experiment runner: outputs, determinism, exit codes."""

import json
import math

import numpy as np
import pytest

from memtensor import cli


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


def test_outputs_are_byte_identical(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert run_cli(["evolve", "--out", str(out), "--substeps", "8"]) == 0
    assert (out_a / "evolve.csv").read_bytes() == (out_b / "evolve.csv").read_bytes()


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


def test_config_errors_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli(["evolve", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert run_cli(["evolve", "--config", str(tmp_path / "missing.json")]) == 2
    with pytest.raises(SystemExit) as excinfo:
        run_cli(["not-an-experiment"])
    assert excinfo.value.code == 2


def test_numerical_failure_exit_3(tmp_path, monkeypatch):
    def boom(config, out, args):
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
        cli.run_tensors({"grid": {"dt": "x"}}, tmp_path, None)


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
            cli.EXPERIMENTS[experiment](config, tmp_path, None)
    assert not (tmp_path / "o").exists()


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
