"""Scene files: a JSON description of a domain box, named measures and
sets, and task parameters, validated against a published schema.

Violations are reported with JSON-pointer paths so batch users can fix
scenes without reading tracebacks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import json
from pathlib import Path

import numpy as np

from .errors import SceneError
from .measures import (AtomicMeasure, AtomPlusPowerProfile, Measure,
                       PowerLawProfile, RadialProfileMeasure, SumMeasure,
                       lebesgue_ball_measure, normalized_sphere_shell)
from .sets import (BallUnion, BoxUnion, Cusp, ParametricSet, PointList,
                   RestrictedSet, Sphere, cantor_dust, segment_set)

MEASURE_KINDS = ("atoms", "power-profile", "atom-plus-power",
                 "uniform-ball", "sphere-shell", "sum")
SET_KINDS = ("balls", "boxes", "sphere", "points", "segment",
             "cantor-dust", "cusp", "restricted")

_VECTOR = {"type": "array", "items": {"type": "number"}, "minItems": 2}
_NAME = {"type": "string", "pattern": "^[A-Za-z][A-Za-z0-9_-]*$"}

SCENE_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["dimension", "domain"],
    "additionalProperties": False,
    "properties": {
        "dimension": {"type": "integer", "minimum": 2, "maximum": 12},
        "domain": {
            "type": "object",
            "required": ["lo", "hi"],
            "additionalProperties": False,
            "properties": {"lo": _VECTOR, "hi": _VECTOR},
        },
        "seed": {"type": "integer", "minimum": 0},
        "tolerance": {"type": "number", "exclusiveMinimum": 0},
        "measures": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "kind"],
                "properties": {"name": _NAME,
                               "kind": {"enum": list(MEASURE_KINDS)}},
            },
        },
        "sets": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "kind"],
                "properties": {"name": _NAME,
                               "kind": {"enum": list(SET_KINDS)}},
            },
        },
        "task": {"type": "object"},
    },
}


@dataclass(frozen=True)
class Scene:
    """Validated scene: dimension, domain box, resolved measures and
    sets by name, the task parameter block, and optional seed."""

    dimension: int
    lo: tuple
    hi: tuple
    measures: dict
    sets: dict
    task: dict = field(default_factory=dict)
    seed: int | None = None
    tolerance: float | None = None

    def measure(self, name: str) -> Measure:
        if name not in self.measures:
            raise SceneError(f"unknown measure name {name!r}")
        return self.measures[name]

    def set(self, name: str) -> ParametricSet:
        if name not in self.sets:
            raise SceneError(f"unknown set name {name!r}")
        return self.sets[name]

    def require_seed(self) -> int:
        if self.seed is None:
            raise SceneError("task uses randomness but the scene has no seed")
        return self.seed


def _pointer(error: jsonschema.ValidationError) -> str:
    return "/" + "/".join(str(p) for p in error.absolute_path)


def _need(spec: dict, key: str, where: str):
    if key not in spec:
        raise SceneError(f"{where}: missing field {key!r}")
    return spec[key]


def _build_measure(spec: dict, n: int, built: dict, where: str) -> Measure:
    kind = spec["kind"]
    try:
        if kind == "atoms":
            return AtomicMeasure(_need(spec, "locations", where),
                                 _need(spec, "masses", where))
        if kind == "power-profile":
            prof = PowerLawProfile(_need(spec, "coef", where),
                                   _need(spec, "exponent", where),
                                   spec.get("radius"))
            return RadialProfileMeasure(_need(spec, "center", where), prof)
        if kind == "atom-plus-power":
            prof = AtomPlusPowerProfile(_need(spec, "atom", where),
                                        _need(spec, "coef", where),
                                        _need(spec, "exponent", where),
                                        spec.get("radius"))
            return RadialProfileMeasure(_need(spec, "center", where), prof)
        if kind == "uniform-ball":
            return lebesgue_ball_measure(_need(spec, "center", where),
                                         _need(spec, "radius", where),
                                         spec.get("density", 1.0))
        if kind == "sphere-shell":
            return normalized_sphere_shell(_need(spec, "center", where),
                                           _need(spec, "radius", where),
                                           _need(spec, "mass", where))
        parts = [built[p] if p in built else None
                 for p in _need(spec, "parts", where)]
        if any(p is None for p in parts):
            raise SceneError(f"{where}: sum parts must name earlier measures")
        return SumMeasure(parts)
    except (ValueError, TypeError) as exc:
        raise SceneError(f"{where}: {exc}") from exc


def _build_set(spec: dict, n: int, built: dict, where: str) -> ParametricSet:
    kind = spec["kind"]
    try:
        if kind == "balls":
            return BallUnion(_need(spec, "centers", where),
                             _need(spec, "radii", where))
        if kind == "boxes":
            return BoxUnion(_need(spec, "los", where),
                            _need(spec, "his", where))
        if kind == "sphere":
            return Sphere(_need(spec, "center", where),
                          _need(spec, "radius", where))
        if kind == "points":
            return PointList(_need(spec, "points", where))
        if kind == "segment":
            return segment_set(_need(spec, "a", where), _need(spec, "b", where))
        if kind == "cantor-dust":
            return cantor_dust(_need(spec, "depth", where), dim=n,
                               axis=spec.get("axis", 0))
        if kind == "cusp":
            return Cusp(_need(spec, "gamma", where),
                        _need(spec, "length", where), n,
                        vertex=spec.get("vertex"),
                        axis=spec.get("axis", 0))
        base = _need(spec, "base", where)
        if base not in built:
            raise SceneError(f"{where}: restricted base must name an earlier set")
        return RestrictedSet(built[base], _need(spec, "center", where),
                             _need(spec, "r_in", where),
                             _need(spec, "r_out", where))
    except (ValueError, TypeError) as exc:
        raise SceneError(f"{where}: {exc}") from exc


def _check_dim(obj, n: int, where: str) -> None:
    arr = np.asarray(obj, dtype=float)
    width = arr.shape[-1] if arr.ndim else 0
    if width != n:
        raise SceneError(f"{where}: expected dimension {n}, got {width}")


_MEASURE_DIM_FIELDS = ("locations", "center")
_SET_DIM_FIELDS = ("centers", "los", "his", "center", "points", "a", "b",
                   "vertex")


def parse_scene(obj: dict) -> Scene:
    """Validate a decoded scene document and resolve all named objects."""
    import jsonschema  # loaded here, off the cold start of every import
    try:
        jsonschema.validate(obj, SCENE_SCHEMA)
    except jsonschema.ValidationError as exc:
        raise SceneError(f"scene schema violation at {_pointer(exc)}: "
                         f"{exc.message}") from exc
    n = obj["dimension"]
    lo = np.asarray(obj["domain"]["lo"], dtype=float)
    hi = np.asarray(obj["domain"]["hi"], dtype=float)
    if lo.size != n or hi.size != n:
        raise SceneError("/domain: lo and hi must have length `dimension`")
    if not np.all(hi > lo):
        raise SceneError("/domain: hi must exceed lo on every axis")
    measures: dict = {}
    for i, spec in enumerate(obj.get("measures", [])):
        where = f"/measures/{i}"
        if spec["name"] in measures:
            raise SceneError(f"{where}: duplicate measure name {spec['name']!r}")
        for key in _MEASURE_DIM_FIELDS:
            if key in spec:
                _check_dim(spec[key], n, f"{where}/{key}")
        measures[spec["name"]] = _build_measure(spec, n, measures, where)
    sets: dict = {}
    for i, spec in enumerate(obj.get("sets", [])):
        where = f"/sets/{i}"
        if spec["name"] in sets:
            raise SceneError(f"{where}: duplicate set name {spec['name']!r}")
        for key in _SET_DIM_FIELDS:
            if key in spec:
                _check_dim(spec[key], n, f"{where}/{key}")
        sets[spec["name"]] = _build_set(spec, n, sets, where)
    for name, obj_built in list(measures.items()) + list(sets.items()):
        if obj_built.dim != n:
            raise SceneError(f"{name!r} has dimension {obj_built.dim}, "
                             f"scene declares {n}")
    return Scene(n, tuple(lo), tuple(hi), measures, sets,
                 obj.get("task", {}), obj.get("seed"), obj.get("tolerance"))


def load_scene(path) -> Scene:
    """Read and validate a scene file."""
    p = Path(path)
    if not p.is_file():
        raise SceneError(f"scene file not found: {p}")
    try:
        obj = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise SceneError(f"scene is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise SceneError("scene document must be a JSON object")
    return parse_scene(obj)
