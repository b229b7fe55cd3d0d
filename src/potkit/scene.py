"""Scene files: a JSON description of a domain box, named measures and
sets, and task parameters.

One validator checks a scene and its task: the typed field readers
below, for every field.  A number is a finite JSON number and never a
bool or a string (nor the ``NaN``, ``Infinity`` or ``-Infinity`` that
Python's json reads), an integer is an integral number (``2.0`` reads
as 2), a vector is a list of numbers, a list of vectors one of equally
long ones (or one vector).
Every SceneError names the JSON pointer of the offending value
(``/measures/4``, ``task/path/count``), so batch users can fix scenes
without reading tracebacks; a violation of the top-level layout reads
``scene schema violation at <pointer>: ...``.  A ValueError, TypeError,
IndexError or OverflowError of a measure or set constructor becomes a
SceneError naming its entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
import json
import math
from pathlib import Path
import re
import sys

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

_SCENE_FIELDS = ("dimension", "domain", "seed", "tolerance", "measures",
                 "sets", "task")
_NAME = "^[A-Za-z][A-Za-z0-9_-]*$"


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
        if not isinstance(name, str) or name not in self.measures:
            raise SceneError(f"unknown measure name {name!r}")
        return self.measures[name]

    def set(self, name: str) -> ParametricSet:
        if not isinstance(name, str) or name not in self.sets:
            raise SceneError(f"unknown set name {name!r}")
        return self.sets[name]

    def require_seed(self) -> int:
        if self.seed is None:
            raise SceneError("task uses randomness but the scene has no seed")
        return self.seed


_REQUIRED = object()


def _reader(check, convert=lambda value: value):
    """A typed field reader: it returns ``convert`` of field ``key`` of
    the object at pointer ``where`` (the task block by default, "" for
    the document), or ``default`` when the field is absent.  A missing
    required field, or a value for which ``check`` names what the field
    expects instead, raises SceneError naming its pointer."""
    def read(spec: dict, key: str, default=_REQUIRED, where: str = "task"):
        if key not in spec:
            if default is _REQUIRED:
                raise SceneError(f"{where or '/'}: missing field {key!r}")
            return default
        expected = check(spec[key])
        if expected:
            raise SceneError(f"{where}/{key}: expected {expected}, got "
                             f"{json.dumps(spec[key])}")
        return convert(spec[key])
    return read


def _number(value):
    # a bool is no number, nor an integer literal beyond the float range;
    # json reads NaN, Infinity and -Infinity as floats that are not finite
    if isinstance(value, float):
        return None if math.isfinite(value) else "a finite number"
    if type(value) is int and abs(value) <= sys.float_info.max:
        return None
    return "a number"


def _integer(value):
    if isinstance(value, float):
        return None if value.is_integer() else "an integer"
    return None if type(value) is int else "a number"


def _vector(value):
    ok = isinstance(value, list) and not any(map(_number, value))
    return None if ok else "a list of numbers"


def _vectors(value):  # one vector reads as a list of that one vector
    rows = [value] if _vector(value) is None else value
    if (not isinstance(rows, list) or any(map(_vector, rows))
            or len({len(row) for row in rows}) != 1):
        return "a list of equally long lists of numbers"


read_field = _reader(lambda v: None)
read_number = _reader(_number, float)
read_int = _reader(_integer, int)
read_object = _reader(lambda v: None if isinstance(v, dict) else "an object")
read_list = _reader(lambda v: None if isinstance(v, list) else "a list")
read_vector = _reader(_vector, lambda v: np.asarray(v, dtype=float))
read_vectors = _reader(
    _vectors, lambda v: np.atleast_2d(np.asarray(v, dtype=float)))


def _only(spec: dict, keys: tuple, where: str) -> None:
    extra = sorted(set(spec) - set(keys))
    if extra:
        raise SceneError(f"{where or '/'}: unexpected field {extra[0]!r}")


def _read_entries(obj: dict, section: str, kinds: tuple) -> list:
    """The objects of ``section``, each with a valid name and kind."""
    entries = read_list(obj, section, [], where="")
    for i, spec in enumerate(entries):
        where = f"/{section}/{i}"
        if not isinstance(spec, dict):
            raise SceneError(f"{where}: expected an object, got "
                             f"{json.dumps(spec)}")
        name = read_field(spec, "name", where=where)
        if not (isinstance(name, str) and re.match(_NAME, name)):
            raise SceneError(f"{where}/name: expected a name matching "
                             f"{_NAME}, got {json.dumps(name)}")
        kind = read_field(spec, "kind", where=where)
        if kind not in kinds:
            raise SceneError(f"{where}/kind: expected one of "
                             f"{', '.join(kinds)}, got {json.dumps(kind)}")
    return entries


def _readers(spec: dict, n: int, where: str):
    """Typed readers of the entry at pointer ``where``: a number, a vector,
    a point of the scene's dimension n and a list of such points."""
    def sized(read):
        def get(key, default=_REQUIRED):
            value = read(spec, key, default, where=where)
            if key in spec and value.shape[-1] != n:
                raise SceneError(f"{where}/{key}: expected dimension {n}, "
                                 f"got {value.shape[-1]}")
            return value
        return get
    return (partial(read_number, spec, where=where),
            partial(read_vector, spec, where=where), sized(read_vector),
            sized(read_vectors))


def _build_measure(spec: dict, n: int, built: dict, where: str) -> Measure:
    num, vec, point, points = _readers(spec, n, where)
    kind = spec["kind"]
    if kind == "atoms":
        return AtomicMeasure(points("locations"), vec("masses"))
    if kind == "power-profile":
        prof = PowerLawProfile(num("coef"), num("exponent"),
                               num("radius", None))
        return RadialProfileMeasure(point("center"), prof)
    if kind == "atom-plus-power":
        prof = AtomPlusPowerProfile(num("atom"), num("coef"),
                                    num("exponent"), num("radius", None))
        return RadialProfileMeasure(point("center"), prof)
    if kind == "uniform-ball":
        return lebesgue_ball_measure(point("center"), num("radius"),
                                     num("density", 1.0))
    if kind == "sphere-shell":
        return normalized_sphere_shell(point("center"), num("radius"),
                                       num("mass"))
    parts = read_list(spec, "parts", where=where)
    if not all(isinstance(p, str) and p in built for p in parts):
        raise SceneError(f"{where}: sum parts must name earlier measures")
    return SumMeasure([built[p] for p in parts])


def _build_set(spec: dict, n: int, built: dict, where: str) -> ParametricSet:
    # an axis goes to the constructors, which check it
    num, vec, point, points = _readers(spec, n, where)
    get = partial(read_field, spec, where=where)
    kind = spec["kind"]
    if kind == "balls":
        return BallUnion(points("centers"), vec("radii"))
    if kind == "boxes":
        return BoxUnion(points("los"), points("his"))
    if kind == "sphere":
        return Sphere(point("center"), num("radius"))
    if kind == "points":
        return PointList(points("points"))
    if kind == "segment":
        return segment_set(point("a"), point("b"))
    if kind == "cantor-dust":
        return cantor_dust(read_int(spec, "depth", where=where), dim=n,
                           axis=get("axis", 0))
    if kind == "cusp":
        return Cusp(num("gamma"), num("length"), n,
                    vertex=point("vertex", None), axis=get("axis", 0))
    base = get("base")
    if not (isinstance(base, str) and base in built):
        raise SceneError(f"{where}: restricted base must name an earlier set")
    return RestrictedSet(built[base], point("center"), num("r_in"),
                         num("r_out"))


_BUILDERS = (("measures", MEASURE_KINDS, _build_measure),
             ("sets", SET_KINDS, _build_set))


def parse_scene(obj: dict) -> Scene:
    """Validate a decoded scene document and resolve all named objects."""
    try:
        _only(obj, _SCENE_FIELDS, "")
        n = read_int(obj, "dimension", where="")
        if not 2 <= n <= 12:
            raise SceneError(f"/dimension: expected 2 to 12, got {n}")
        domain = read_object(obj, "domain", where="")
        _only(domain, ("lo", "hi"), "/domain")
        lo, hi = (read_vector(domain, key, where="/domain")
                  for key in ("lo", "hi"))
        for key, vec in (("lo", lo), ("hi", hi)):
            if vec.size != n:
                raise SceneError(f"/domain/{key}: expected /dimension = {n} "
                                 f"numbers, got {vec.size}")
        seed = read_int(obj, "seed", None, where="")
        if seed is not None and seed < 0:
            raise SceneError(f"/seed: expected at least 0, got {seed}")
        tolerance = read_number(obj, "tolerance", None, where="")
        if tolerance is not None and tolerance <= 0:
            raise SceneError(f"/tolerance: expected above 0, got {tolerance}")
        task = read_object(obj, "task", {}, where="")
        entries = [_read_entries(obj, section, kinds)
                   for section, kinds, _ in _BUILDERS]
    except SceneError as exc:
        raise SceneError(f"scene schema violation at {exc}") from None
    if not np.all(hi > lo):
        raise SceneError("/domain: hi must exceed lo on every axis")
    built = []
    for specs, (section, _, build) in zip(entries, _BUILDERS):
        named: dict = {}
        for i, spec in enumerate(specs):
            where = f"/{section}/{i}"
            if spec["name"] in named:
                raise SceneError(f"{where}: duplicate {section[:-1]} name "
                                 f"{spec['name']!r}")
            try:
                made = build(spec, n, named, where)
            except SceneError:
                raise
            except (ValueError, TypeError, IndexError,
                    OverflowError) as exc:
                raise SceneError(f"{where}: {exc}") from exc
            if made.dim != n:
                raise SceneError(f"{where}: has dimension {made.dim}, "
                                 f"the scene declares {n}")
            named[spec["name"]] = made
        built.append(named)
    return Scene(n, tuple(lo), tuple(hi), *built, task, seed, tolerance)


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
