"""Scene documents: every measure and set kind builds from JSON, and a
bad document raises SceneError naming where it went wrong."""

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

from hypothesis import example, given, settings, strategies as st
import numpy as np
import pytest

import potkit
from potkit.errors import SceneError
from potkit.measures import (AtomicMeasure, RadialProfileMeasure,
                             SumMeasure)
from potkit.scene import MEASURE_KINDS, SET_KINDS, load_scene, parse_scene
from potkit.sets import (BallUnion, BoxUnion, Cusp, PointList,
                         RestrictedSet, Sphere)

MEASURES = [
    {"name": "dirac", "kind": "atoms", "locations": [[0.0, 0.0, 0.0]],
     "masses": [1.0]},
    {"name": "power", "kind": "power-profile", "center": [0.0, 0.0, 0.0],
     "coef": 1.0, "exponent": 1.5, "radius": 0.5},
    {"name": "spike", "kind": "atom-plus-power", "center": [0.1, 0.0, 0.0],
     "atom": 0.5, "coef": 1.0, "exponent": 2.0},
    {"name": "solid", "kind": "uniform-ball", "center": [0.0, 0.2, 0.0],
     "radius": 0.3, "density": 2.0},
    {"name": "shell", "kind": "sphere-shell", "center": [0.0, 0.0, 0.0],
     "radius": 0.4, "mass": 1.0},
    {"name": "both", "kind": "sum", "parts": ["dirac", "shell"]},
]

SETS = [
    {"name": "balls", "kind": "balls", "centers": [[0.5, 0.0, 0.0]],
     "radii": [0.1]},
    {"name": "boxes", "kind": "boxes", "los": [[0.0, 0.0, 0.0]],
     "his": [0.2, 0.2, 0.2]},
    {"name": "sphere", "kind": "sphere", "center": [0.0, 0.0, 0.0],
     "radius": 0.5},
    {"name": "points", "kind": "points", "points": [[0.1, 0.2, 0.3]]},
    {"name": "segment", "kind": "segment", "a": [0.0, 0.0, 0.0],
     "b": [0.5, 0.0, 0.0]},
    {"name": "dust", "kind": "cantor-dust", "depth": 2, "axis": 1},
    {"name": "cusp", "kind": "cusp", "gamma": 2.0, "length": 0.5,
     "vertex": [0.0, 0.0, 0.0]},
    {"name": "piece", "kind": "restricted", "base": "sphere",
     "center": [0.0, 0.0, 0.0], "r_in": 0.2, "r_out": 0.6},
]


def _scene(**extra):
    doc = {"dimension": 3,
           "domain": {"lo": [-1.0, -1.0, -1.0], "hi": [1.0, 1.0, 1.0]},
           "measures": copy.deepcopy(MEASURES),
           "sets": copy.deepcopy(SETS)}
    doc.update(extra)
    return doc


def test_scene_fixture_edits_stay_in_their_document():
    doc = _scene()
    doc["sets"][0]["centers"][0][0] = 9.0
    doc["measures"][0]["masses"].append(2.0)
    assert SETS[0]["centers"] == [[0.5, 0.0, 0.0]]
    assert MEASURES[0]["masses"] == [1.0]


def _raises_at(doc, pointer):
    with pytest.raises(SceneError) as err:
        parse_scene(doc)
    assert pointer in str(err.value)
    return str(err.value)


def test_every_kind_builds():
    assert {m["kind"] for m in MEASURES} == set(MEASURE_KINDS)
    assert {s["kind"] for s in SETS} == set(SET_KINDS)
    scene = parse_scene(_scene(seed=4, tolerance=1e-3, task={"p": 2.5}))
    assert (scene.dimension, scene.lo, scene.hi) == (
        3, (-1.0, -1.0, -1.0), (1.0, 1.0, 1.0))
    assert (scene.require_seed(), scene.tolerance, scene.task) == (
        4, 1e-3, {"p": 2.5})
    kinds = {name: type(m) for name, m in scene.measures.items()}
    assert kinds == {"dirac": AtomicMeasure, "power": RadialProfileMeasure,
                     "spike": RadialProfileMeasure,
                     "solid": RadialProfileMeasure,
                     "shell": RadialProfileMeasure, "both": SumMeasure}
    kinds = {name: type(s) for name, s in scene.sets.items()}
    assert kinds == {"balls": BallUnion, "boxes": BoxUnion,
                     "sphere": Sphere, "points": PointList,
                     "segment": BoxUnion, "dust": BoxUnion, "cusp": Cusp,
                     "piece": RestrictedSet}
    assert all(obj.dim == 3 for obj in
               list(scene.measures.values()) + list(scene.sets.values()))
    assert scene.measure("both").total_mass == pytest.approx(2.0)
    assert scene.set("piece").base is scene.set("sphere")
    # depth 2 leaves four intervals on the chosen axis
    dust = scene.set("dust")
    assert len(dust.los) == 4 and np.all(dust.his[:, [0, 2]] == 0.0)


def test_unknown_names_and_a_missing_seed_raise():
    scene = parse_scene(_scene())
    with pytest.raises(SceneError, match="unknown measure"):
        scene.measure("nothing")
    with pytest.raises(SceneError, match="unknown set"):
        scene.set("nothing")
    with pytest.raises(SceneError, match="no seed"):
        scene.require_seed()


@pytest.mark.parametrize("edit, pointer", [
    (lambda d: d.update(dimension="three"), "/dimension"),
    (lambda d: d.update(extra=1), "at /:"),
    (lambda d: d["domain"].update(lo=[0.0]), "/domain/lo"),
    (lambda d: d["measures"][1].update(kind="comet"), "/measures/1/kind"),
    (lambda d: d["sets"][2].pop("kind"), "/sets/2"),
    (lambda d: d["sets"][0].update(name="1st"), "/sets/0/name"),
    (lambda d: d.update(seed=-1), "/seed"),
])
def test_schema_errors_name_their_pointer(edit, pointer):
    doc = _scene()
    edit(doc)
    assert "schema violation" in _raises_at(doc, pointer)


@pytest.mark.parametrize("section, index, key", [
    ("measures", 0, "locations"),
    ("measures", 3, "center"),
    ("sets", 0, "centers"),
    ("sets", 1, "his"),
    ("sets", 4, "b"),
    ("sets", 6, "vertex"),
])
def test_dimension_errors_name_their_pointer(section, index, key):
    doc = _scene()
    spec = doc[section][index]
    spec[key] = (np.asarray(spec[key])[..., :2]).tolist()
    message = _raises_at(doc, f"/{section}/{index}/{key}")
    assert "expected dimension 3, got 2" in message


def test_domain_errors():
    doc = _scene()
    doc["domain"]["lo"] = [-1.0, -1.0]
    _raises_at(doc, "/domain")
    doc = _scene()
    doc["domain"]["hi"] = [1.0, -1.0, 1.0]
    _raises_at(doc, "/domain")


def test_a_bad_value_names_its_object():
    doc = _scene()
    doc["measures"][4]["radius"] = -0.4
    _raises_at(doc, "/measures/4")
    doc = _scene()
    doc["sets"][2].pop("radius")
    assert "missing field 'radius'" in _raises_at(doc, "/sets/2")


@pytest.mark.parametrize("section, index", [("measures", 2), ("sets", 3)])
def test_duplicate_names_raise(section, index):
    doc = _scene()
    doc[section][index]["name"] = doc[section][0]["name"]
    assert "duplicate" in _raises_at(doc, f"/{section}/{index}")


def test_forward_references_raise():
    doc = _scene()
    doc["measures"].insert(0, doc["measures"].pop())
    assert "earlier measures" in _raises_at(doc, "/measures/0")
    doc = _scene()
    doc["sets"].insert(0, doc["sets"].pop())
    assert "earlier set" in _raises_at(doc, "/sets/0")
    doc = _scene()
    doc["sets"][-1]["base"] = "piece"
    _raises_at(doc, "/sets/7")


def _field_pointers():
    """(path, pointer) of every field of the tests' scene but the
    names: the path to replace the field, the pointer that a SceneError
    about it names (the field's object, for a domain or entry field)."""
    doc = _scene(seed=4, tolerance=1e-3, task={"p": 2.5})
    out = [((key,), f"/{key}") for key in doc]
    out += [(("domain", key), "/domain") for key in doc["domain"]]
    for section in ("measures", "sets"):
        out += [((section, i, key), f"/{section}/{i}")
                for i, spec in enumerate(doc[section])
                for key in spec if key != "name"]
    return out


# integers stay small: a cantor-dust depth builds 2**depth boxes
_JSON = st.recursive(
    st.none() | st.booleans() | st.text(max_size=4)
    | st.integers(-3, 8) | st.just(1e308)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.sampled_from(_field_pointers()), _JSON)
@example((("measures", 3, "radius"), "/measures/3"), 1e308)
@example((("sets", 5, "axis"), "/sets/5"), "x")
@example((("sets", 5, "axis"), "/sets/5"), 7)
@example((("measures", 0, "locations"), "/measures/0"), {})
@example((("sets", 4, "b"), "/sets/4"), "x")
def test_any_bad_field_is_a_scene_error_naming_its_pointer(where, value):
    (*path, key), pointer = where
    doc = _scene(seed=4, tolerance=1e-3, task={"p": 2.5})
    spec = doc
    for step in path:
        spec = spec[step]
    spec[key] = value
    try:
        parse_scene(doc)
    except SceneError as exc:
        assert pointer in str(exc), (where, value, str(exc))


# a bool or a numeric string read as a number before; in a vector it sits
# at index 0, in a list of vectors in the first one
@pytest.mark.parametrize("section, index, key, at", [
    ("measures", 0, "masses", ()),
    ("measures", 1, "exponent", ()),
    ("measures", 2, "atom", ()),
    ("measures", 3, "density", ()),
    ("measures", 4, "mass", ()),
    ("measures", 5, "parts", ()),
    ("sets", 0, "centers", (0, 0)),
    ("sets", 1, "his", (0,)),
    ("sets", 2, "radius", ()),
    ("sets", 3, "points", (0, 0)),
    ("sets", 4, "b", (0,)),
    ("sets", 5, "depth", ()),
    ("sets", 6, "gamma", ()),
    ("sets", 7, "r_out", ()),
], ids=["atoms", "power-profile", "atom-plus-power", "uniform-ball",
        "sphere-shell", "sum", "balls", "boxes", "sphere", "points",
        "segment", "cantor-dust", "cusp", "restricted"])
@pytest.mark.parametrize("bad", [True, "2"], ids=["bool", "numeric-string"])
def test_a_bool_or_numeric_string_field_names_its_pointer(section, index, key,
                                                          at, bad):
    doc = _scene()
    spec = doc[section][index]
    if at:
        value = spec[key]
        for i in at[:-1]:
            value = value[i]
        value[at[-1]] = bad
    else:
        spec[key] = bad
    message = _raises_at(doc, f"/{section}/{index}/{key}: expected ")
    assert json.dumps(bad) in message


# null would set every coordinate of a dust's boxes, and true read as axis 1
@pytest.mark.parametrize("axis", [None, True, 1.5])
@pytest.mark.parametrize("index", [5, 6], ids=["cantor-dust", "cusp"])
def test_an_axis_that_is_not_an_integer_is_a_scene_error(index, axis):
    doc = _scene()
    doc["sets"][index]["axis"] = axis
    message = _raises_at(doc, f"/sets/{index}")
    assert "axis must be an integer in [0, 3)" in message


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("key", ["tolerance", "lo"])
def test_a_non_finite_number_is_a_scene_error(tmp_path, literal, key):
    # Python's json reads these literals as floats; a range check such as
    # tolerance <= 0 lets NaN through
    doc = _scene(seed=4, tolerance=1e-3)
    value = json.loads(literal)
    if key == "lo":
        doc["domain"]["lo"] = [-1.0, value, -1.0]
        pointer, expected = "/domain/lo", "expected a list of numbers"
    else:
        doc["tolerance"] = value
        pointer, expected = "/tolerance", "expected a finite number"
    message = _raises_at(doc, pointer)
    assert f"{pointer}: {expected}, got " in message and literal in message
    file = tmp_path / "scene.json"
    file.write_text(json.dumps(doc))
    assert literal in file.read_text()
    with pytest.raises(SceneError, match=pointer):
        load_scene(file)


def test_load_scene_reads_a_file(tmp_path):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(_scene()))
    assert set(load_scene(path).sets) == {s["name"] for s in SETS}
    with pytest.raises(SceneError, match="not found"):
        load_scene(tmp_path / "missing.json")
    path.write_text("{")
    with pytest.raises(SceneError, match="not valid JSON"):
        load_scene(path)
    path.write_text("[]")
    with pytest.raises(SceneError, match="JSON object"):
        load_scene(path)


def test_importing_potkit_loads_neither_scipy_stats_nor_jsonschema():
    # a fresh interpreter, so modules that other tests load do not count;
    # every import of jsonschema fails there, and a scene still parses or
    # names the pointer of a schema violation; the p-energy descent is
    # potkit's own, so scipy.optimize stays out too
    code = """
import json, sys
sys.modules["jsonschema"] = None
import potkit, potkit.cli, potkit.verify
from potkit.errors import SceneError
loaded = [m for m in ("scipy.stats", "scipy.optimize") if m in sys.modules]
assert not loaded, loaded
good, bad = (json.loads(arg) for arg in sys.argv[1:])
assert potkit.parse_scene(good).dimension == 3
try:
    potkit.parse_scene(bad)
except SceneError as exc:
    assert "schema violation at /dimension" in str(exc), exc
else:
    raise AssertionError("no SceneError")
"""
    src = str(Path(potkit.__file__).resolve().parents[1])
    run = subprocess.run(
        [sys.executable, "-c", code, json.dumps(_scene()),
         json.dumps(_scene(dimension="three"))],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
