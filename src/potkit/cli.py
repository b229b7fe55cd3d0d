"""Batch front-end: scene ingestion, subcommand dispatch, deterministic
CSV/JSON emission.

Exit codes: 0 on success; 1 on usage or scene/schema errors and on scene
values a computation rejects with a plain ``ValueError`` (a path too
short or through an atom), printed as ``potkit: <msg>`` on stderr; 2
when a run completes but an assertion-style outcome fails (an inclusion
counterexample, a failed verification suite, or a resolution error).
Artifacts are rendered fully in memory and moved into place through
temp files, so a failed run never leaves partial outputs.  Every
subcommand takes ``--out``; ``--scene`` all but ``verify-all``, ``--seed``
only ``cones include`` and ``verify-all``, ``--tol`` only ``cones
pgamma``.  A flag falls back to its ``POTKIT_``-prefixed environment
variable, then to its default, only on the subcommands that take it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .capacity import BallDomain, BoxDomain, p_capacity, riesz_capacity
from .cones import Cone, inclusion_check, p_gamma
from .density import (box_counting_dimension, covering_counts,
                      geometric_ladder, upper_density)
from .errors import PotkitError, SceneError
from .fitting import ApproachPath
from .grid import EvaluationGrid
from .plaplace import solve_p_dirichlet
from .riesz import RieszParams, riesz_asymptotic_report
from .scene import Scene, load_scene
from .thinness import classify_thinness, wiener_terms
from .verify import (CHECK_NAMES, csv_text, json_text, render_artifacts,
                     run_all, write_files)
from .wolff import WolffParams, wolff_asymptotic_report

_ENV_PREFIX = "POTKIT_"


class _Parser(argparse.ArgumentParser):
    # the interface reserves exit code 2 for failed checks; usage
    # errors exit 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


_FLAGS = {"scene": (str, "scene JSON file"), "seed": (int, "seed override"),
          "tol": (float, "tolerance override")}


def _add_flags(sp: argparse.ArgumentParser, *names: str):
    sp.add_argument("--out", help="output directory (default potkit-out)")
    for name in names:
        sp.add_argument("--" + name, type=_FLAGS[name][0],
                        help=_FLAGS[name][1])


def _env(name: str):
    return os.environ.get(_ENV_PREFIX + name.upper())


def _resolve(args, name: str, cast, default=None):
    """Flag, else environment variable, else ``default``, which is also
    the value of a flag the subcommand does not take."""
    if not hasattr(args, name):
        return default
    val = getattr(args, name)
    if val is not None:
        return val
    raw = _env(name)
    if raw is not None:
        try:
            return cast(raw)
        except ValueError as exc:
            raise SceneError(f"bad {_ENV_PREFIX}{name.upper()}: {exc}")
    return default


def _load(args) -> Scene:
    path = _resolve(args, "scene", str)
    if path is None:
        raise SceneError("a scene file is required (--scene or POTKIT_SCENE)")
    scene = load_scene(path)
    seed = _resolve(args, "seed", int)
    tol = _resolve(args, "tol", float)
    if seed is not None or tol is not None:
        scene = Scene(scene.dimension, scene.lo, scene.hi, scene.measures,
                      scene.sets, scene.task,
                      scene.seed if seed is None else seed,
                      scene.tolerance if tol is None else tol)
    return scene


def _need(task: dict, key: str):
    if key not in task:
        raise SceneError(f"task: missing field {key!r}")
    return task[key]


_REQUIRED = object()


def _number(spec: dict, key: str, default=_REQUIRED, *, cast=float,
            where: str = "task"):
    """Field ``key`` of the scene object at ``where`` through ``cast``;
    ``default`` when absent.  A missing required field, or a value that
    is not a number (JSON null included), raises SceneError."""
    if key not in spec:
        if default is _REQUIRED:
            raise SceneError(f"{where}: missing field {key!r}")
        return default
    try:
        return cast(spec[key])
    except (TypeError, ValueError):
        raise SceneError(f"{where}/{key}: expected a number, got "
                         f"{json.dumps(spec[key])}") from None


def _task_path(task: dict, n: int) -> ApproachPath:
    spec = _need(task, "path")
    anchor = np.asarray(_need(task, "anchor"), dtype=float)
    direction = np.asarray(spec.get("direction", [1.0] + [0.0] * (n - 1)),
                           dtype=float)
    return ApproachPath.geometric(
        anchor, direction, r0=_number(spec, "r0", 0.5, where="task/path"),
        ratio=_number(spec, "ratio", 0.5, where="task/path"),
        count=_number(spec, "count", 20, cast=int, where="task/path"))


def _domain_from(task: dict, scene: Scene):
    spec = task.get("omega")
    if spec is None:
        return BoxDomain(scene.lo, scene.hi)
    kind = spec.get("kind", "box")
    if kind == "ball":
        return BallDomain(tuple(spec["center"]),
                          _number(spec, "radius", where="task/omega"))
    if kind == "box":
        return BoxDomain(tuple(spec["lo"]), tuple(spec["hi"]))
    raise SceneError(f"task/omega: unknown domain kind {kind!r}")


def _cone_from(spec, where: str) -> Cone:
    if not isinstance(spec, dict) or "kind" not in spec:
        raise SceneError(f"{where}: cone spec needs a 'kind'")
    kind = str(spec["kind"]).lower()
    param = spec.get("param")
    if kind in ("a", "r", "gamma") and param is None:
        raise SceneError(f"{where}: cone spec needs 'param'")
    if kind == "a":
        return Cone.a(_number(spec, "param", where=where))
    if kind == "r":
        return Cone.r(_number(spec, "param", cast=int, where=where))
    if kind == "gamma":
        return Cone.gamma(_number(spec, "param", cast=int, where=where))
    raise SceneError(f"{where}: unknown cone kind {spec['kind']!r}")


# ---------------------------------------------------------------------------
# subcommands


# subcommand -> (parameter type, its two task fields, the second's
# default, limit report, CSV columns of the report's radii, scaled values
# and raw potentials)
_LIMITS = {
    "wolff": (WolffParams, "p", "r", 1.0, wolff_asymptotic_report,
              ("r", "scaled_value", "raw_value")),
    "riesz": (RieszParams, "alpha", "domain_diameter", None,
              riesz_asymptotic_report, ("r", "ratio", "potential")),
}


def _run_limit(args, outdir: str) -> int:
    kind, first, second, default, report, columns = _LIMITS[args.command]
    scene = _load(args)
    task = scene.task
    mu = scene.measure(_need(task, "measure"))
    params = kind(_number(task, first), _number(task, second, default))
    path = _task_path(task, scene.dimension)
    rep = report(mu, params, path.anchor, path)
    files = {
        f"{args.command}.csv": csv_text(
            columns, zip(rep.radii, rep.values, rep.extras["raw"])),
        "report.json": json_text({
            "limit": rep.limit,
            "correction_exponent": rep.correction_exponent,
            "residual": rep.residual,
            "point_mass_estimate": rep.extras["point_mass_estimate"],
        }),
    }
    write_files(outdir, files)
    print(f"{args.command}: limit {rep.limit:.12g} -> {outdir}")
    return 0


def _run_capacity(args, outdir: str) -> int:
    """The p task's optional ``fold_center`` is a checked claim: p_capacity
    folds every mirror plane it finds and raises when the set and domain
    are not mirror-symmetric about that point."""
    scene = _load(args)
    task = scene.task
    E = scene.set(_need(task, "set"))
    omega = _domain_from(task, scene)
    h = _number(task, "h")
    kind = task.get("kind", "p")
    if kind == "riesz":
        est = riesz_capacity(E, omega, _number(task, "alpha"), h)
    elif kind == "p":
        est = p_capacity(E, omega, _number(task, "p"), h,
                         fold_center=task.get("fold_center"))
    else:
        raise SceneError(f"task/kind: expected 'riesz' or 'p', got {kind!r}")
    files = {"report.json": json_text({
        "value": est.value, "lower": est.lower, "upper": est.upper,
        "h": est.h, "iterations": est.iterations})}
    write_files(outdir, files)
    print(f"capacity: value {est.value:.12g} -> {outdir}")
    return 0


def _run_thin(args, outdir: str) -> int:
    scene = _load(args)
    task = scene.task
    E = scene.set(_need(task, "set"))
    x0 = np.asarray(_need(task, "point"), dtype=float)
    weighting = task.get("weighting", "cap-p")
    terms = wiener_terms(E, x0, index=_number(task, "index"),
                         count=_number(task, "count", 8, cast=int),
                         weighting=weighting,
                         delta=_number(task, "delta", 1.0),
                         pitch_rel=_number(task, "pitch_rel", 1.0 / 8.0))
    rep = classify_thinness(terms)
    partial = np.cumsum(terms)
    files = {
        "thin.csv": csv_text(("i", "term", "partial_sum"),
                             zip(range(1, terms.size + 1), terms, partial)),
        "report.json": json_text({
            "verdict": rep.verdict,
            "partial_sum": rep.partial_sum,
            "tail": None if rep.tail is None else {
                "model": rep.tail.model, "rate": rep.tail.rate},
        }),
    }
    write_files(outdir, files)
    print(f"thin: verdict {rep.verdict} -> {outdir}")
    return 0


def _boundary_from(task):
    spec = task.get("boundary", 0.0)
    if isinstance(spec, (int, float)):
        return float(spec)
    if not isinstance(spec, dict):
        raise SceneError("task/boundary: expected a number or an object")
    kind = spec.get("kind")
    if kind == "affine":
        grad = np.asarray(_need(spec, "gradient"), dtype=float)
        off = _number(spec, "offset", 0.0, where="task/boundary")
        return lambda pts: pts @ grad + off
    raise SceneError(f"task/boundary/kind: unsupported {kind!r}")


def _run_plaplace(args, outdir: str) -> int:
    scene = _load(args)
    task = scene.task
    name = task.get("measure")
    mu = None if name is None else scene.measure(name)
    p, h = _number(task, "p"), _number(task, "h")
    grid = EvaluationGrid.from_box(scene.lo, scene.hi, h)
    sol = solve_p_dirichlet(grid, mu, p, _boundary_from(task))
    flat = sol.values.ravel()
    files = {
        "plaplace.csv": csv_text(("index", "value"), enumerate(flat)),
        "report.json": json_text({
            "p": p, "h": h, "energy": sol.energy,
            "residual": sol.residual, "iterations": sol.iterations,
            "min": float(flat.min()), "max": float(flat.max()),
        }),
    }
    write_files(outdir, files)
    print(f"plaplace: energy {sol.energy:.12g} -> {outdir}")
    return 0


def _run_cones_member(args, outdir: str) -> int:
    scene = _load(args)
    task = scene.task
    cone = _cone_from(_need(task, "cone"), "task/cone")
    lam = np.asarray(_need(task, "lambda"), dtype=float)
    inside = bool(cone.contains(lam))
    write_files(outdir, {"report.json": json_text({
        "cone": cone.label(), "lambda": lam, "member": inside})})
    print(f"cones member: {cone.label()} -> {inside}")
    return 0


def _run_cones_include(args, outdir: str) -> int:
    scene = _load(args)
    task = scene.task
    inner = _cone_from(_need(task, "inner"), "task/inner")
    outer = _cone_from(_need(task, "outer"), "task/outer")
    n = _number(task, "n", cast=int)
    samples = _number(task, "samples", 100_000, cast=int)
    rep = inclusion_check(inner, outer, n, samples=samples,
                          seed=scene.require_seed())
    write_files(outdir, {"report.json": json_text({
        "inner": rep.inner, "outer": rep.outer, "n": rep.n,
        "tested": rep.tested, "passed": rep.passed,
        "counterexamples": [list(v) for v in rep.counterexamples]})})
    if rep.passed:
        print(f"cones include: {rep.inner} inside {rep.outer} "
              f"({rep.tested} samples)")
        return 0
    print(f"cones include: counterexample {list(rep.counterexamples[0])}",
          file=sys.stderr)
    return 2


def _run_cones_pgamma(args, outdir: str) -> int:
    scene = _load(args)
    task = scene.task
    cone = _cone_from(_need(task, "cone"), "task/cone")
    n = _number(task, "n", cast=int)
    tol = scene.tolerance if scene.tolerance is not None else 1e-10
    value = p_gamma(cone, n, tol=tol)
    write_files(outdir, {"report.json": json_text({
        "cone": cone.label(), "n": n, "p_gamma": value})})
    print(f"cones pgamma: {cone.label()} at n={n} -> {value:.12g}")
    return 0


def _run_density(args, outdir: str) -> int:
    scene = _load(args)
    task = scene.task
    mode = task.get("mode", "upper")
    if mode == "upper":
        mu = scene.measure(_need(task, "measure"))
        x = np.asarray(_need(task, "point"), dtype=float)
        d = _number(task, "d")
        spec = task.get("ladder", {})
        radii = geometric_ladder(
            _number(spec, "r_max", 0.5, where="task/ladder"),
            _number(spec, "r_min", 0.5 * 2.0 ** -15, where="task/ladder"),
            _number(spec, "rungs", 16, cast=int, where="task/ladder"))
        prof = upper_density(mu, x, d, radii)
        files = {
            "density.csv": csv_text(("r", "value"),
                                    zip(prof.radii(), prof.values())),
            "report.json": json_text({"d": d,
                                      "limsup": prof.limsup_estimate}),
        }
        write_files(outdir, files)
        print(f"density: limsup estimate {prof.limsup_estimate} -> {outdir}")
        return 0
    if mode == "boxcount":
        E = scene.set(_need(task, "set"))
        scales = np.asarray(_need(task, "scales"), dtype=float)
        counts = covering_counts(E, scales)
        dim = box_counting_dimension(E, scales)
        files = {
            "density.csv": csv_text(("scale", "count"), zip(scales, counts)),
            "report.json": json_text({"dimension": dim}),
        }
        write_files(outdir, files)
        print(f"density: box-counting dimension {dim:.6g} -> {outdir}")
        return 0
    raise SceneError(f"task/mode: expected 'upper' or 'boxcount', "
                     f"got {mode!r}")


def _run_verify_all(args, outdir: str) -> int:
    seed = _resolve(args, "seed", int, 0)
    names = None
    if args.checks:
        names = tuple(s.strip() for s in args.checks.split(",") if s.strip())
        for nm in names:
            if nm not in CHECK_NAMES:
                raise SceneError(f"unknown check {nm!r}; choose from "
                                 f"{', '.join(CHECK_NAMES)}")

    def progress(name, result, seconds):
        status = "PASS" if result.passed else "FAIL"
        print(f"{name}: {status} ({seconds:.1f} s)", flush=True)

    report = run_all(names, profile=args.profile, seed=seed,
                     progress=progress)
    render_artifacts(report, outdir)
    done = sum(r.passed for r in report.results)
    status = "PASS" if report.passed else "FAIL"
    print(f"verify-all: {status} ({done}/{len(report.results)} checks) "
          f"-> {outdir}")
    return 0 if report.passed else 2


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="potkit",
                     description="potential-theory toolkit batch runner")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    for name, help_text in (("riesz", "Riesz potential asymptotics"),
                            ("capacity", "Riesz or variational p-capacity"),
                            ("thin", "Wiener-type thinness classification"),
                            ("wolff", "Wolff potential asymptotics"),
                            ("plaplace", "measure-data p-Laplace solve"),
                            ("density", "upper density / box counting")):
        sp = sub.add_parser(name, help=help_text)
        _add_flags(sp, "scene")

    cones = sub.add_parser("cones", help="eigenvalue cone queries")
    cones_sub = cones.add_subparsers(dest="verb", required=True,
                                     parser_class=_Parser)
    for verb, help_text, flags in (
            ("member", "membership of one vector", ()),
            ("include", "sampled inclusion check", ("seed",)),
            ("pgamma", "critical p index of a cone", ("tol",))):
        sp = cones_sub.add_parser(verb, help=help_text)
        _add_flags(sp, "scene", *flags)

    va = sub.add_parser("verify-all", help="run the verification suite",
                        description="Artifacts are byte-identical only at "
                        "a fixed BLAS thread count (OMP_NUM_THREADS, "
                        "OPENBLAS_NUM_THREADS); CI pins 1 thread.")
    _add_flags(va, "seed")
    va.add_argument("--profile", choices=("full", "quick"), default="full")
    va.add_argument("--checks", help="comma-separated subset of checks")
    return parser


_RUNNERS = {
    "riesz": _run_limit,
    "capacity": _run_capacity,
    "thin": _run_thin,
    "wolff": _run_limit,
    "plaplace": _run_plaplace,
    "density": _run_density,
    "verify-all": _run_verify_all,
}

_CONE_RUNNERS = {
    "member": _run_cones_member,
    "include": _run_cones_include,
    "pgamma": _run_cones_pgamma,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        outdir = _resolve(args, "out", str, "potkit-out")
        if args.command == "cones":
            return _CONE_RUNNERS[args.verb](args, outdir)
        return _RUNNERS[args.command](args, outdir)
    except SceneError as exc:
        print(f"potkit: {exc}", file=sys.stderr)
        return 1
    except PotkitError as exc:
        print(f"potkit: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"potkit: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
