"""Round trips for the JSON interchange formats."""

import copy
import json
import re
from dataclasses import replace

import numpy as np
import pytest

from memtensor.models import TimeGrid, example_initial_state, example_model
from memtensor.linalg import SpaceLayout, partial_trace
from memtensor.tomography import (
    FixedState,
    FrozenSystem,
    ReferenceStates,
    TrueEnvironment,
    reconstruct_family,
)
from memtensor.transfer import MemoryConfig, build_tensors
from memtensor.serialization import (
    CONVENTIONS,
    complex_matrix_from_json,
    complex_matrix_to_json,
    family_from_json,
    family_to_json,
    load_json,
    save_json,
    tensors_from_json,
    tensors_to_json,
)

RNG = np.random.default_rng(5150)


def test_complex_matrix_round_trip():
    m = RNG.standard_normal((3, 4)) + 1j * RNG.standard_normal((3, 4))
    np.testing.assert_array_equal(complex_matrix_from_json(complex_matrix_to_json(m)), m)


def _small_family():
    model = example_model()
    rho0 = example_initial_state()
    tau = partial_trace(rho0, SpaceLayout(2, 2), "environment")
    grid = TimeGrid(0.0, 0.625, 3)
    return reconstruct_family(model, grid, FixedState(tau), substeps=8)


def test_family_round_trip_via_file(tmp_path):
    family = _small_family()
    path = tmp_path / "family.json"
    save_json(family_to_json(family), path)
    loaded = family_from_json(load_json(path))
    assert loaded.grid == family.grid
    assert set(loaded.maps) == set(family.maps)
    for key in family.maps:
        assert np.max(np.abs(loaded.maps[key] - family.maps[key])) < 1e-15
    for j in family.reference_states:
        assert np.max(np.abs(loaded.reference_states[j] - family.reference_states[j])) < 1e-15
    np.testing.assert_allclose(loaded.policy.tau, family.policy.tau, atol=1e-15)


def test_family_policy_descriptors():
    model = example_model()
    grid = TimeGrid(0.0, 0.625, 1)
    family = reconstruct_family(
        model, grid, TrueEnvironment(), substeps=4, rho_se0=example_initial_state()
    )
    loaded = family_from_json(family_to_json(family))
    assert isinstance(loaded.policy, TrueEnvironment)


def test_tensor_set_round_trip(tmp_path):
    family = _small_family()
    config = MemoryConfig(dt=0.625, m=3, c=3)
    tensors = build_tensors(family, config, dense_window=3)
    residual = RNG.standard_normal((2, 2)) + 1j * RNG.standard_normal((2, 2))
    tensors = replace(tensors, residuals={1: residual})
    path = tmp_path / "tensors.json"
    save_json(tensors_to_json(tensors), path)
    loaded = tensors_from_json(load_json(path))
    assert loaded.config == config
    assert set(loaded.tensors) == set(tensors.tensors)
    for key in tensors.tensors:
        assert np.max(np.abs(loaded.tensors[key] - tensors.tensors[key])) < 1e-15
    assert np.max(np.abs(loaded.residuals[1] - tensors.residuals[1])) < 1e-15
    # the dense flag survives; a document without it loads as periodic,
    # which holds every start here (c = 3 > 2)
    assert loaded.dense
    doc = tensors_to_json(tensors)
    del doc["dense"]
    assert not tensors_from_json(doc).dense
    periodic = build_tensors(family, replace(config, m=1))
    assert "dense" not in tensors_to_json(periodic)
    assert not tensors_from_json(tensors_to_json(periodic)).dense


def test_flagless_document_past_its_phases_is_refused():
    # without the flag a document is periodic, which cannot store start 2
    family = _small_family()
    tensors = build_tensors(family, MemoryConfig(dt=0.625, m=2, c=1), dense_window=3)
    assert max(p for p, _ in tensors.tensors) == 2  # past the single phase 0
    doc = tensors_to_json(tensors)
    assert tensors_from_json(doc).dense
    del doc["dense"]
    for periodic in (doc, {**doc, "dense": False}):
        with pytest.raises(ValueError, match="periodic"):
            tensors_from_json(periodic)


@pytest.mark.parametrize("flag", [1, 0, "true", None, [True]], ids=repr)
def test_dense_flag_that_is_not_a_json_boolean_is_refused(flag):
    family = _small_family()
    doc = tensors_to_json(build_tensors(family, MemoryConfig(dt=0.625, m=1, c=3)))
    doc["dense"] = flag
    with pytest.raises(ValueError, match="'dense' must be a JSON boolean"):
        tensors_from_json(doc)


def test_loaded_frozen_family_refuses_integration_but_feeds_tensors():
    model = example_model()
    rho0 = example_initial_state()
    grid = TimeGrid(0.0, 0.625, 3)
    ground = np.diag([1.0, 0.0]).astype(complex)
    family = reconstruct_family(
        model, grid, FrozenSystem(lambda t: ground), substeps=8, rho_se0=rho0
    )
    loaded = family_from_json(family_to_json(family))
    with pytest.raises(ValueError, match="no sigma profile"):
        ReferenceStates(loaded.policy, model, rho0)
    with pytest.raises(ValueError, match="no sigma profile"):
        reconstruct_family(model, grid, loaded.policy, substeps=8, rho_se0=rho0)
    config = MemoryConfig(dt=grid.dt, m=3, c=3)
    rebuilt = build_tensors(loaded, config, dense_window=3)
    for key, tensor in build_tensors(family, config, dense_window=3).tensors.items():
        np.testing.assert_array_equal(rebuilt.tensors[key], tensor)


# id: (document, section, key (None: the last stored key), new value)
MALFORMED = {
    "tensors-conventions": ("tensors", "conventions", None, None),
    "tensors-2x2-tensor": ("tensors", "tensors", "0,1", np.eye(2)),
    "tensors-mixed-system-dims": ("tensors", "tensors", None, np.eye(9)),
    "tensors-not-a-matrix": ("tensors", "tensors", None, [[1.0, 2.0]]),
    "tensors-residual-shape": ("tensors", "residuals", "1", np.eye(4)),
    "tensors-key-not-integers": ("tensors", "tensors", "a,1", np.eye(4)),
    "tensors-key-one-integer": ("tensors", "tensors", "3", np.eye(4)),
    "tensors-residual-key-pair": ("tensors", "residuals", "1,2", np.eye(2)),
    "family-conventions": ("family", "conventions", None, None),
    "family-2x2-map": ("family", "maps", "0,1", np.eye(2)),
    "family-map-key-one-integer": ("family", "maps", "1", np.eye(4)),
    "family-reference-state-shape": ("family", "reference_states", "2", np.eye(3)),
    "family-reference-key-not-integer": ("family", "reference_states", "x", np.eye(2)),
}


@pytest.mark.parametrize("kind, section, key, value", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_documents_raise_value_error_naming_the_key(kind, section, key, value):
    family = _small_family()
    if kind == "family":
        doc, load = family_to_json(family), family_from_json
    else:
        tensors = build_tensors(family, MemoryConfig(dt=0.625, m=3, c=3), dense_window=3)
        tensors = replace(tensors, residuals={1: np.eye(2) / 2})
        doc, load = tensors_to_json(tensors), tensors_from_json
    load(copy.deepcopy(doc))  # the unmutated document loads
    if section == "conventions":
        doc["conventions"] = dict(CONVENTIONS, vectorization="row-stacking")
        named = "conventions"
    else:
        key = key or list(doc[section])[-1]
        doc[section][key] = value if isinstance(value, list) else complex_matrix_to_json(value)
        named = repr(key)
    with pytest.raises(ValueError, match=named):
        load(doc)


@pytest.mark.parametrize("key", ["-1,1", "0,0", "0,-2"])
def test_a_tensor_document_with_an_impossible_key_is_refused(key):
    # a negative start has no tensor, and a length is at least 1
    family = _small_family()
    doc = tensors_to_json(build_tensors(family, MemoryConfig(dt=0.625, m=1, c=3)))
    tensors_from_json(copy.deepcopy(doc))  # the unedited document loads
    doc["tensors"][key] = doc["tensors"]["0,1"]
    named = "tensor key " + re.escape(repr(tuple(int(part) for part in key.split(","))))
    with pytest.raises(ValueError, match=named):
        tensors_from_json(doc)


# id: (keys added to the maps of a 4-step, band-2 family, keys deleted, text
# the refusal names)
BAND_BREAKS = {
    "off-grid-key": (["7,9"], [], "'7,9'"),
    "reversed-key": (["2,1"], [], "'2,1'"),
    "gap-in-band": ([], ["1,3"], "'1,3'"),
    "no-maps": ([], ["0,1", "0,2", "1,2", "1,3", "2,3", "2,4", "3,4"], "no map"),
}


@pytest.mark.parametrize("added, deleted, named", BAND_BREAKS.values(), ids=BAND_BREAKS.keys())
def test_loaded_family_must_be_the_band_of_its_grid(added, deleted, named):
    grid = TimeGrid(0.0, 0.625, 4)
    family = reconstruct_family(example_model(), grid, FixedState(np.eye(2) / 2), 8, band=2)
    doc = family_to_json(family)
    loaded = family_from_json(copy.deepcopy(doc))  # the unedited document loads
    assert loaded.band == 2 and list(loaded.maps) == list(family.maps)
    np.testing.assert_array_equal(loaded.stack, family.stack)
    maps = doc["maps"]
    for key in added:
        maps[key] = maps["0,1"]
    for key in deleted:
        del maps[key]
    with pytest.raises(ValueError, match=named):
        family_from_json(doc)


# id: (keys deleted from the reference states of a 4-step family, key added,
# text the refusal names)
REFERENCE_BREAKS = {
    "empty": (["0", "1", "2", "3", "4"], None, "'0'"),
    "missing-point": (["2"], None, "'2'"),
    "missing-last-point": (["4"], None, "'4'"),
    "extra-point": ([], "5", "'5'"),
    "negative-point": ([], "-1", "'-1'"),
}


@pytest.mark.parametrize("deleted, added, named", REFERENCE_BREAKS.values(),
                         ids=REFERENCE_BREAKS.keys())
def test_loaded_family_holds_one_reference_state_per_grid_point(deleted, added, named):
    grid = TimeGrid(0.0, 0.625, 4)
    family = reconstruct_family(example_model(), grid, FixedState(np.eye(2) / 2), 8, band=2)
    doc = family_to_json(family)
    loaded = family_from_json(copy.deepcopy(doc))  # the unedited document loads
    assert list(loaded.reference_states) == list(range(5))
    states = doc["reference_states"]
    for key in deleted:
        del states[key]
    if added is not None:
        states[added] = states["0"]
    with pytest.raises(ValueError, match=f"reference_states.*{named}"):
        family_from_json(doc)


def test_malformed_numbers_in_documents_are_refused_by_name():
    family = _small_family()
    tensors = build_tensors(family, MemoryConfig(dt=0.625, m=1, c=1))
    doc = tensors_to_json(tensors)
    doc["config"]["m"] = 1.5
    with pytest.raises(ValueError, match="m must be an integer"):
        tensors_from_json(doc)
    doc = family_to_json(family)
    doc["grid"]["steps"] = 2.5
    with pytest.raises(ValueError, match="steps must be an integer"):
        family_from_json(doc)


def test_format_guards():
    with pytest.raises(ValueError):
        family_from_json({"format": "something-else"})
    with pytest.raises(ValueError):
        tensors_from_json({"format": "memtensor-map-family"})


def test_loaded_family_must_be_trace_preserving():
    doc = json.loads(json.dumps(family_to_json(_small_family())))
    family_from_json(copy.deepcopy(doc))  # the round-tripped document loads
    lam = complex_matrix_from_json(doc["maps"]["1,2"])
    # a change off the diagonal rows, and one inside the tolerance, keep it loadable
    for row, delta in ((1, 1e-3), (0, 1e-10)):
        changed = copy.deepcopy(doc)
        changed["maps"]["1,2"] = complex_matrix_to_json(lam + delta * np.eye(4)[row][:, None])
        family_from_json(changed)
    # the trace of the image of |0><0| moves by 1e-6
    doc["maps"]["1,2"] = complex_matrix_to_json(lam + 1e-6 * np.outer(np.eye(4)[0], np.eye(4)[0]))
    with pytest.raises(ValueError, match="maps key '1,2' is not trace preserving"):
        family_from_json(doc)
