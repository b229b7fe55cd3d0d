"""Batch front-end: scene ingestion, subcommand dispatch, deterministic
CSV/JSON emission.

Task fields are read by ``potkit.scene``'s typed readers, the one scene
validator, under its type rules; a bad field is reported with its path,
as in ``potkit: task/path/count: expected an integer, got 8.7``.

Exit codes: 0 on success; 1 on usage or scene errors and on scene
values a computation rejects with a plain ``ValueError`` (a path too
short or through an atom), printed as ``potkit: <msg>`` on stderr; 2
when a run completes but an assertion-style outcome fails (an inclusion
counterexample, a failed verification suite, or a resolution error).
Artifacts are rendered fully in memory and moved into place through
temp files, so a failed run never leaves partial outputs.  Every
subcommand takes ``--out``; ``--scene`` all but ``verify-all``, ``--seed``
only ``cones include`` and ``verify-all``, ``--tol`` only ``cones
pgamma``.  A flag falls back to its ``POTKIT_``-prefixed environment
variable, then to the scene's value or its default, only on the
subcommands that take it.
"""

from __future__ import annotations

import argparse
import dataclasses
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
from .scene import (Scene, load_scene, read_field, read_int, read_number,
                    read_object, read_vector)
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
    return dataclasses.replace(
        scene, seed=_resolve(args, "seed", int, scene.seed),
        tolerance=_resolve(args, "tol", float, scene.tolerance))


def _task_path(task: dict, n: int) -> ApproachPath:
    spec = read_object(task, "path")
    where = "task/path"
    return ApproachPath.geometric(
        read_vector(task, "anchor"),
        read_vector(spec, "direction", np.eye(n)[0], where=where),
        r0=read_number(spec, "r0", 0.5, where=where),
        ratio=read_number(spec, "ratio", 0.5, where=where),
        count=read_int(spec, "count", 20, where=where))


def _domain_from(task: dict, scene: Scene):
    spec = read_object(task, "omega", None)
    if spec is None:
        return BoxDomain(scene.lo, scene.hi)
    kind = read_field(spec, "kind", "box", where="task/omega")
    if kind == "ball":
        return BallDomain(read_vector(spec, "center", where="task/omega"),
                          read_number(spec, "radius", where="task/omega"))
    if kind == "box":
        return BoxDomain(read_vector(spec, "lo", where="task/omega"),
                         read_vector(spec, "hi", where="task/omega"))
    raise SceneError(f"task/omega: unknown domain kind {kind!r}")


def _cone_from(task: dict, key: str) -> Cone:
    spec = read_object(task, key)
    where = f"task/{key}"
    kind = str(read_field(spec, "kind", where=where)).lower()
    if kind == "a":
        return Cone.a(read_number(spec, "param", where=where))
    if kind == "r":
        return Cone.r(read_int(spec, "param", where=where))
    if kind == "gamma":
        return Cone.gamma(read_int(spec, "param", where=where))
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


def _run_limit(args, scene: Scene, outdir: str) -> int:
    kind, first, second, default, report, columns = _LIMITS[args.command]
    task = scene.task
    mu = scene.measure(read_field(task, "measure"))
    params = kind(read_number(task, first), read_number(task, second, default))
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


def _run_capacity(args, scene: Scene, outdir: str) -> int:
    """The p task's optional ``fold_center`` is a checked claim: p_capacity
    folds every mirror plane it finds and raises when the set and domain
    are not mirror-symmetric about that point."""
    task = scene.task
    E = scene.set(read_field(task, "set"))
    omega = _domain_from(task, scene)
    h = read_number(task, "h")
    kind = read_field(task, "kind", "p")
    if kind == "riesz":
        est = riesz_capacity(E, omega, read_number(task, "alpha"), h)
    elif kind == "p":
        est = p_capacity(E, omega, read_number(task, "p"), h,
                         fold_center=read_vector(task, "fold_center", None))
    else:
        raise SceneError(f"task/kind: expected 'riesz' or 'p', got {kind!r}")
    files = {"report.json": json_text({
        "value": est.value, "lower": est.lower, "upper": est.upper,
        "h": est.h, "iterations": est.iterations})}
    write_files(outdir, files)
    print(f"capacity: value {est.value:.12g} -> {outdir}")
    return 0


def _run_thin(args, scene: Scene, outdir: str) -> int:
    task = scene.task
    E = scene.set(read_field(task, "set"))
    terms = wiener_terms(
        E, read_vector(task, "point"),
        index=read_number(task, "index"),
        count=read_int(task, "count", 8),
        weighting=read_field(task, "weighting", "cap-p"),
        delta=read_number(task, "delta", 1.0),
        pitch_rel=read_number(task, "pitch_rel", 1.0 / 8.0))
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
    spec = read_field(task, "boundary", 0.0)
    if not isinstance(spec, dict):
        return read_number(task, "boundary", 0.0)
    kind = read_field(spec, "kind", None, where="task/boundary")
    if kind == "affine":
        grad = read_vector(spec, "gradient", where="task/boundary")
        off = read_number(spec, "offset", 0.0, where="task/boundary")
        return lambda pts: pts @ grad + off
    raise SceneError(f"task/boundary/kind: unsupported {kind!r}")


def _run_plaplace(args, scene: Scene, outdir: str) -> int:
    task = scene.task
    name = read_field(task, "measure", None)
    mu = None if name is None else scene.measure(name)
    p, h = read_number(task, "p"), read_number(task, "h")
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


def _run_cones_member(args, scene: Scene, outdir: str) -> int:
    task = scene.task
    cone = _cone_from(task, "cone")
    lam = read_vector(task, "lambda")
    inside = bool(cone.contains(lam))
    write_files(outdir, {"report.json": json_text({
        "cone": cone.label(), "lambda": lam, "member": inside})})
    print(f"cones member: {cone.label()} -> {inside}")
    return 0


def _run_cones_include(args, scene: Scene, outdir: str) -> int:
    task = scene.task
    inner = _cone_from(task, "inner")
    outer = _cone_from(task, "outer")
    n = read_int(task, "n")
    samples = read_int(task, "samples", 100_000)
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


def _run_cones_pgamma(args, scene: Scene, outdir: str) -> int:
    task = scene.task
    cone = _cone_from(task, "cone")
    n = read_int(task, "n")
    tol = scene.tolerance if scene.tolerance is not None else 1e-10
    value = p_gamma(cone, n, tol=tol)
    write_files(outdir, {"report.json": json_text({
        "cone": cone.label(), "n": n, "p_gamma": value})})
    print(f"cones pgamma: {cone.label()} at n={n} -> {value:.12g}")
    return 0


def _run_density(args, scene: Scene, outdir: str) -> int:
    task = scene.task
    mode = read_field(task, "mode", "upper")
    if mode == "upper":
        mu = scene.measure(read_field(task, "measure"))
        x = read_vector(task, "point")
        d = read_number(task, "d")
        spec = read_object(task, "ladder", {})
        where = "task/ladder"
        radii = geometric_ladder(
            read_number(spec, "r_max", 0.5, where=where),
            read_number(spec, "r_min", 0.5 * 2.0 ** -15, where=where),
            read_int(spec, "rungs", 16, where=where))
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
        E = scene.set(read_field(task, "set"))
        scales = read_vector(task, "scales")
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
        if args.command == "verify-all":
            return _run_verify_all(args, outdir)
        scene = _load(args)
        if args.command == "cones":
            return _CONE_RUNNERS[args.verb](args, scene, outdir)
        return _RUNNERS[args.command](args, scene, outdir)
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
