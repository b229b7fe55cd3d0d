"""Named end-to-end checks bundling the library's headline guarantees.

Each check builds its own scene, runs it at the ``full`` production
settings or at a reduced ``quick`` profile, and returns a CheckResult
whose metrics carry the observed value, the reference value and the
tolerance.  ``artifact_texts`` serializes a report deterministically;
runtimes are deliberately kept out of the artifacts so repeated runs
with the same seed are byte-identical, at a fixed BLAS thread count
only (``OMP_NUM_THREADS``, ``OPENBLAS_NUM_THREADS``; CI pins 1 thread).
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass, field

import numpy as np

from .capacity import (BallDomain, BoxDomain, condenser_capacity, p_capacity,
                       riesz_capacity)
from .cones import Cone, inclusion_check, p_gamma
from .fitting import ApproachPath, loglog_slope
from .grid import EvaluationGrid
from .integrate import ball_mass_integral
from .measures import AtomicMeasure, AtomPlusPowerProfile, RadialProfileMeasure
# perfbench's tracer test patches and reads this module's binding
from .penergy import newton_polish  # noqa: F401
from .plaplace import (FundamentalSolution, envelope_band, envelope_check,
                       flux_normalization, fundamental_coefficient,
                       solve_p_dirichlet)
from .riesz import RieszParams, riesz_asymptotic_report
from .sets import BallUnion, Sphere, sphere_directions
from .thinness import (ball_sequence_terms, calibrate_small_ball_ratio,
                       classify_thinness, thin_witness_blowup)
from .wolff import WolffParams, wolff_asymptotic_report, wolff_potential

PROFILES = ("full", "quick")


@dataclass(frozen=True)
class Metric:
    """One named comparison inside a check.

    kind 'rel': |observed - expected| <= tolerance * |expected|;
    kind 'at-most' / 'at-least': one-sided bound against expected;
    kind 'true': observed must be exactly 1 (booleans as 0/1).
    """

    name: str
    observed: float
    expected: float | None = None
    tolerance: float | None = None
    kind: str = "rel"

    @property
    def ok(self) -> bool:
        if not math.isfinite(self.observed):
            return False
        if self.kind == "rel":
            return abs(self.observed - self.expected) <= \
                self.tolerance * abs(self.expected)
        if self.kind == "at-most":
            return self.observed <= self.expected
        if self.kind == "at-least":
            return self.observed >= self.expected
        if self.kind == "true":
            return self.observed == 1.0
        raise ValueError(f"unknown metric kind {self.kind!r}")


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    metrics: tuple
    notes: str = ""
    series: dict = field(default_factory=dict)


@dataclass(frozen=True)
class VerifyReport:
    profile: str
    seed: int
    results: tuple

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def result(self, name: str) -> CheckResult:
        for r in self.results:
            if r.name == name:
                return r
        raise KeyError(name)


def _finish(name: str, metrics, notes: str = "", series=None) -> CheckResult:
    metrics = tuple(metrics)
    return CheckResult(name, all(m.ok for m in metrics), metrics, notes,
                       dict(series or {}))


# ---------------------------------------------------------------------------
# the checks


def _check_wolff_atom_limit(profile: str, seed: int) -> CheckResult:
    n, p, a = 3, 2.5, 2.0
    mu = AtomicMeasure([[0.0] * n], [a])
    params = WolffParams(p, 1.0)
    path = ApproachPath.geometric(np.zeros(n), [1.0, 0.0, 0.0],
                                  r0=0.25, ratio=0.5, count=20)
    rep = wolff_asymptotic_report(mu, params, np.zeros(n), path)
    target = (p - 1.0) / (n - p) * a ** (1.0 / (p - 1.0))

    # the same integral by quadrature of ball masses alone must agree
    # with the exact piecewise closed form
    quad_err = 0.0
    for d in (0.3, 0.1, 0.02):
        x = np.array([d, 0.0, 0.0])
        exact = wolff_potential(mu, params, x)
        approx = ball_mass_integral(mu, x, n - p, p - 1.0, 0.0, params.r)
        quad_err = max(quad_err, abs(approx - exact) / exact)

    rows = list(zip(path.radii, rep.values, rep.extras["raw"]))
    return _finish(
        "wolff-atom-limit",
        [Metric("fitted-limit", rep.limit, target, 1e-3),
         Metric("quadrature-agreement", quad_err, 1e-6, kind="at-most")],
        notes=f"atom mass {a}, p={p}, n={n}",
        series={"wolff-atom-limit": (("r", "scaled_value", "raw_value"),
                                     rows)})


def _check_wolff_log_limit(profile: str, seed: int) -> CheckResult:
    n, a = 3, 2.0
    mu = AtomicMeasure([[0.0] * n], [a])
    params = WolffParams(float(n), 0.5)
    path = ApproachPath.geometric(np.zeros(n), [1.0, 0.0, 0.0],
                                  r0=0.25, ratio=0.5, count=24)
    rep = wolff_asymptotic_report(mu, params, np.zeros(n), path)
    target = a ** (1.0 / (n - 1.0))
    rows = list(zip(path.radii, rep.values, rep.extras["raw"]))
    return _finish(
        "wolff-log-limit",
        [Metric("fitted-limit", rep.limit, target, 5e-3)],
        notes=f"p = n = {n}, atom mass {a}, integration cap r=0.5",
        series={"wolff-log-limit": (("r", "scaled_value", "raw_value"),
                                    rows)})


def _check_riesz_atom_limit(profile: str, seed: int) -> CheckResult:
    n, alpha, atom = 3, 2.0, 2.0
    profile_measure = RadialProfileMeasure(
        np.zeros(n), AtomPlusPowerProfile(atom, 1.0, float(n), rmax=1.0))
    params = RieszParams(alpha)
    path = ApproachPath.geometric(np.zeros(n), [1.0, 0.0, 0.0],
                                  r0=0.5, ratio=0.5, count=20)
    rep = riesz_asymptotic_report(profile_measure, params, np.zeros(n), path)
    rows = list(zip(path.radii, rep.values, rep.extras["raw"]))
    return _finish(
        "riesz-atom-limit",
        [Metric("fitted-limit", rep.limit, atom, 1e-2)],
        notes="atom plus uniform bulk, ratio to |x|^(alpha-n)",
        series={"riesz-atom-limit": (("r", "ratio", "potential"), rows)})


def _check_capacity_scaling(profile: str, seed: int) -> CheckResult:
    n, alpha = 3, 1.5
    h = 1.0 / 64.0 if profile == "full" else 1.0 / 32.0
    lams = np.array([1.0, 0.5, 0.25])
    omega = BoxDomain((-1.0,) * n, (1.0,) * n)
    ests = [riesz_capacity(Sphere(np.zeros(n), 0.5 * lam), omega, alpha, h)
            for lam in lams]
    rows = [(lam, est.value, est.extras["sites"])
            for lam, est in zip(lams, ests)]
    slope, _, _ = loglog_slope(lams, np.array([est.value for est in ests]))
    return _finish(
        "capacity-scaling",
        [Metric("loglog-slope", slope, n - alpha, 0.10)],
        notes=f"sphere radius 0.5*lambda, h={h:g}",
        series={"capacity-scaling": (("lambda", "value", "sites"), rows)})


def _check_condenser(profile: str, seed: int) -> CheckResult:
    n, p, r, R = 3, 2.5, 0.25, 1.0
    h = 1.0 / 96.0 if profile == "full" else 1.0 / 48.0
    tol = 0.05 if profile == "full" else 0.15
    est = p_capacity(BallUnion([np.zeros(n)], [r]),
                     BallDomain((0.0,) * n, R), p, h)
    exact = condenser_capacity(r, R, n, p)
    return _finish(
        "condenser",
        [Metric("capacity", est.value, exact, tol)],
        notes=f"closed ball {r} in ball {R}, h={h:g}, folded orthant solve",
        series={"condenser": (("h", "value", "exact"),
                              [(h, est.value, exact)])})


def _cell_center(h: float, approx: float) -> float:
    return (math.floor(approx / h) + 0.5) * h


def _check_envelope_band(profile: str, seed: int) -> CheckResult:
    n, p = 3, 2.5
    coef = fundamental_coefficient(n, p)
    reports = []
    rows = []
    diag = np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0)
    # the Wolff term only sees mass inside B(x, r): keep the atom within
    # reach (r > d) for the lower band, plus far probes for the upper one
    for a in (0.5, 2.0):
        u = FundamentalSolution(n, p, m=coef * a ** (1.0 / (p - 1.0)))
        mu = AtomicMeasure([[0.0] * n], [a])
        for d in (0.05, 0.1, 0.2):
            for r in (1.5 * d, 3.0 * d):
                for direction in (np.array([1.0, 0.0, 0.0]), diag):
                    x = d * direction
                    rep = envelope_check(u, mu, p, x, r)
                    reports.append(rep)
                    rows.append(("radial", x[0], x[1], x[2], r,
                                 rep.lower_ratio, rep.upper_ratio))
        rep = envelope_check(u, mu, p, np.array([0.35, 0.0, 0.0]), 0.1)
        reports.append(rep)
        rows.append(("radial", 0.35, 0.0, 0.0, 0.1,
                     rep.lower_ratio, rep.upper_ratio))

    h = 1.0 / 24.0 if profile == "full" else 1.0 / 12.0
    grid = EvaluationGrid.from_box((0.0,) * n, (1.0,) * n, h)
    atoms = np.array([[_cell_center(h, 0.39), _cell_center(h, 0.49),
                       _cell_center(h, 0.49)],
                      [_cell_center(h, 0.60), _cell_center(h, 0.49),
                       _cell_center(h, 0.49)]])
    mu2 = AtomicMeasure(atoms, [1.0, 0.5])
    sol = solve_p_dirichlet(grid, mu2, p, 0.0)
    probes = [(atoms[0] + np.array([0.06, 0.0, 0.0]), 0.1),
              (atoms[0] + np.array([0.0, -0.05, 0.03]), 0.09),
              (atoms[1] + np.array([-0.06, 0.0, 0.0]), 0.1),
              (atoms[1] + np.array([0.04, 0.04, 0.0]), 0.08),
              (np.array([0.5, 0.5, 0.5]), 0.16),
              (np.array([0.3, 0.35, 0.5]), 0.08)]
    for x, r in probes:
        rep = envelope_check(sol, mu2, p, x, r)
        reports.append(rep)
        rows.append(("grid", x[0], x[1], x[2], r,
                     rep.lower_ratio, rep.upper_ratio))

    c1, c2 = envelope_band(reports)
    return _finish(
        "envelope-band",
        [Metric("c1", c1, 0.05, kind="at-least"),
         Metric("c2", c2, 50.0, kind="at-most")],
        notes=f"{len(reports)} envelope ratios over the radial and "
              f"two-atom families",
        series={"envelope-band": (("family", "x1", "x2", "x3", "r",
                                   "lower", "upper"), rows)})


def _delta_solve_ratio(n: int, p: float, h: float, half: float):
    """Grid Dirichlet solve with a unit atom; returns window radii and
    the direction-averaged ratios u / (m G_p)."""
    grid = EvaluationGrid.from_box((-half,) * n, (half,) * n, h)
    x0 = np.full(n, 0.5 * h)
    mu = AtomicMeasure([x0], [1.0])
    fund = FundamentalSolution(n, p, x0=x0)
    sol = solve_p_dirichlet(grid, mu, p, fund)
    radii = np.geomspace(4.0 * h, half / 4.0, 4)
    dirs = sphere_directions(n, 64)
    means = []
    for rr in radii:
        pts = x0 + rr * dirs
        ratios = np.asarray(sol(pts)) / np.asarray(fund(pts))
        means.append(float(ratios.mean()))
    return radii, np.asarray(means)


def _check_flux_normalization(profile: str, seed: int) -> CheckResult:
    metrics = []
    rows = []
    for n, p in ((3, 2.0), (3, 2.5), (4, 3.0)):
        flux = flux_normalization(n, p)
        metrics.append(Metric(f"flux-n{n}-p{p:g}", flux, -1.0, 0.02))
        rows.append((n, p, 0.0, flux))
    if profile == "full":
        for n, p in ((3, 2.0), (3, 2.5)):
            radii, means = _delta_solve_ratio(n, p, 1.0 / 32.0, 1.0)
            worst = float(np.max(np.abs(means - 1.0)))
            metrics.append(Metric(f"delta-ratio-n{n}-p{p:g}", 1.0 + worst,
                                  1.0, 0.05))
            rows.extend((n, p, rr, mm) for rr, mm in zip(radii, means))
    return _finish(
        "flux-normalization", metrics,
        notes="flux of m G_p across a sphere, plus grid delta-solve "
              "ratios on the window [4h, half/4] (full profile)",
        series={"flux-normalization": (("n", "p", "radius", "value"), rows)})


def _check_witness_flip(profile: str, seed: int) -> CheckResult:
    n, p = 3, 2.5
    if profile == "full":
        model = calibrate_small_ball_ratio(n, p=p)
    else:
        model = calibrate_small_ball_ratio(n, p=p, rhos=(0.4, 0.25),
                                           pitch_rel=1.0 / 5.0)
    s_low = 0.5 / (n - p)
    s_high = 2.0 / (n - p)
    terms_low = ball_sequence_terms(s_low, n=n, p=p, count=200, model=model)
    terms_high = ball_sequence_terms(s_high, n=n, p=p, count=200, model=model)
    verdict_low = classify_thinness(terms_low).verdict
    verdict_high = classify_thinness(terms_high).verdict

    count = 14 if profile == "full" else 10
    wit = thin_witness_blowup(s_high, p, n=n, count=count)

    idx = np.arange(1, terms_low.size + 1)
    series = {
        "witness-flip-terms": (
            ("i", "term_not_thin_side", "term_thin_side"),
            list(zip(idx, terms_low, terms_high))),
        "witness-flip-centers": (
            ("i", "scaled_value", "ramp"),
            list(zip(wit.indices, wit.center_scaled,
                     wit.extras["linear_ramp"]))),
        "witness-flip-ray": (
            ("r", "scaled_value"),
            list(zip(wit.ray_radii, wit.ray_scaled))),
    }
    return _finish(
        "witness-flip",
        [Metric("verdict-below-threshold-not-thin",
                float(verdict_low == "not-thin"), kind="true"),
         Metric("verdict-above-threshold-thin",
                float(verdict_high == "thin"), kind="true"),
         Metric("centers-diverge", float(wit.centers_diverge), kind="true"),
         Metric("ray-vanishes", float(wit.ray_vanishes), kind="true")],
        notes=f"s(n-p) = 0.5 vs 2.0 at n={n}, p={p}; calibrated exponent "
              f"{model.exponent:.4f}",
        series=series)


def _check_cone_suite(profile: str, seed: int) -> CheckResult:
    samples = 100_000 if profile == "full" else 10_000
    agree_samples = 10_000 if profile == "full" else 2_000
    n_max = 12 if profile == "full" else 8

    inclusions = [
        (4, Cone.a(3.0), Cone.a(2.0)),
        (4, Cone.r(1), Cone.r(2)),
        (4, Cone.a(3.0), Cone.r(2)),
        (6, Cone.a(4.0), Cone.a(2.5)),
        (6, Cone.r(1), Cone.r(3)),
        (6, Cone.a(4.0), Cone.r(2)),
        (6, Cone.a(4.0), Cone.r(3)),
    ]
    rows = []
    bad = 0
    for k, (n, inner, outer) in enumerate(inclusions):
        rep = inclusion_check(inner, outer, n, samples=samples,
                              seed=seed + 101 * k)
        bad += len(rep.counterexamples)
        rows.append((n, inner.label(), outer.label(), rep.tested,
                     len(rep.counterexamples), int(rep.passed)))

    # a below-range target must be caught: A(3) is not inside R(2) at n=6
    viol = inclusion_check(Cone.a(3.0), Cone.r(2), 6, samples=samples,
                           seed=seed + 999)
    rows.append((6, viol.inner, viol.outer, viol.tested,
                 len(viol.counterexamples), int(viol.passed)))

    pg_err = 0.0
    id_err = 0.0
    for n in range(3, n_max + 1):
        for k in range(1, n // 2 + 1):
            p = p_gamma(Cone.gamma(k), n)
            closed = n * (k - 1.0) / (n - k) + 2.0
            pg_err = max(pg_err, abs(p - closed))
            id_err = max(id_err, abs((2.0 - n / k) + (n - p) / (p - 1.0)))

    agree = True
    rng = np.random.default_rng(seed + 77)
    for n in (4, 6):
        lam = rng.normal(size=(agree_samples, n))
        agree = agree and bool(np.array_equal(
            Cone.a(2.0).contains(lam), Cone.r(n // 2).contains(lam)))

    return _finish(
        "cone-suite",
        [Metric("inclusion-counterexamples", float(bad), 0.0, kind="at-most"),
         Metric("violation-detected", float(len(viol.counterexamples) > 0),
                kind="true"),
         Metric("p-gamma-error", pg_err, 1e-9, kind="at-most"),
         Metric("exponent-identity-error", id_err, 1e-12, kind="at-most"),
         Metric("a2-equals-r-half", float(agree), kind="true")],
        notes=f"{samples} samples per inclusion, closed forms to n={n_max}",
        series={"cone-suite": (("n", "inner", "outer", "tested",
                                "counterexamples", "passed"), rows)})


def _check_comparison_principle(profile: str, seed: int) -> CheckResult:
    pairs = 100 if profile == "full" else 8
    grid = EvaluationGrid.from_box((0.0, 0.0), (1.0, 1.0), 1.0 / 64.0)
    axes = np.meshgrid(*grid.node_axes(), indexing="ij")
    X, Y = axes
    rng = np.random.default_rng(seed)
    metrics = []
    rows = []
    for p in (1.5, 2.0, 3.0):
        worst = 0.0
        worst_res = 0.0
        for j in range(pairs):
            coef = rng.normal(size=6)
            f = (coef[0] + coef[1] * np.sin(math.pi * X + coef[2])
                 + coef[3] * np.sin(2.0 * math.pi * Y + coef[4]))
            bump = (0.2 + coef[5] ** 2) * (0.5 + 0.5 * np.cos(
                math.pi * (X + Y))) ** 2
            g = f + bump
            u_f = solve_p_dirichlet(grid, None, p, f)
            u_g = solve_p_dirichlet(grid, None, p, g)
            violation = float(max(0.0, np.max(u_f.values - u_g.values)))
            worst = max(worst, violation)
            worst_res = max(worst_res, u_f.residual, u_g.residual)
            rows.append((p, j, violation))
        metrics.append(Metric(f"max-violation-p{p:g}", worst, 1e-10,
                              kind="at-most"))
        metrics.append(Metric(f"max-residual-p{p:g}", worst_res, 1e-8,
                              kind="at-most"))
    return _finish(
        "comparison-principle", metrics,
        notes=f"{pairs} ordered boundary pairs per p on the 64^2 grid",
        series={"comparison-principle": (("p", "pair", "violation"), rows)})


_DETERMINISM_NAMES = ("wolff-atom-limit", "wolff-log-limit",
                      "riesz-atom-limit")


def _check_determinism(profile: str, seed: int) -> CheckResult:
    def one_run() -> dict:
        results = tuple(run_check(nm, profile="quick", seed=seed)
                        for nm in _DETERMINISM_NAMES)
        return artifact_texts(VerifyReport("quick", seed, results))

    texts = one_run()
    identical = texts == one_run()
    return _finish(
        "determinism",
        [Metric("artifacts-identical", float(identical), kind="true"),
         Metric("files-compared", float(len(texts)), 3.0, kind="at-least")],
        notes="two renders of the same sub-report compared byte by byte")


_CHECKS = {
    "wolff-atom-limit": _check_wolff_atom_limit,
    "wolff-log-limit": _check_wolff_log_limit,
    "riesz-atom-limit": _check_riesz_atom_limit,
    "capacity-scaling": _check_capacity_scaling,
    "condenser": _check_condenser,
    "envelope-band": _check_envelope_band,
    "flux-normalization": _check_flux_normalization,
    "witness-flip": _check_witness_flip,
    "cone-suite": _check_cone_suite,
    "comparison-principle": _check_comparison_principle,
    "determinism": _check_determinism,
}

CHECK_NAMES = tuple(_CHECKS)


def run_check(name: str, profile: str = "full", seed: int = 0) -> CheckResult:
    if name not in _CHECKS:
        raise KeyError(f"unknown check {name!r}; choose from {CHECK_NAMES}")
    if profile not in PROFILES:
        raise ValueError(f"profile must be one of {PROFILES}")
    return _CHECKS[name](profile, int(seed))


def run_all(names=None, *, profile: str = "full", seed: int = 0,
            progress=None) -> VerifyReport:
    """Run the named checks (all by default) in their canonical order.

    ``progress``, if given, is called after each check with
    (name, result, seconds); timing stays outside the report itself.
    """
    import time as _time
    picked = CHECK_NAMES if names is None else tuple(names)
    for nm in picked:
        if nm not in _CHECKS:
            raise KeyError(f"unknown check {nm!r}")
    results = []
    for nm in picked:
        t0 = _time.perf_counter()
        res = run_check(nm, profile=profile, seed=seed)
        if progress is not None:
            progress(nm, res, _time.perf_counter() - t0)
        results.append(res)
    return VerifyReport(profile, int(seed), tuple(results))


# ---------------------------------------------------------------------------
# artifact rendering


def _jsonable(x):
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, (bool, np.bool_)):
        return bool(x)
    if isinstance(x, (int, np.integer)):
        return int(x)
    if isinstance(x, (float, np.floating)):
        v = float(x)
        if math.isnan(v):
            return "nan"
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return v
    if isinstance(x, np.ndarray):
        return [_jsonable(v) for v in x.tolist()]
    return x


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, str):
        return v
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def json_text(doc) -> str:
    """Deterministic JSON: sorted keys, two-space indent, trailing
    newline, non-finite floats as strings."""
    return json.dumps(_jsonable(doc), sort_keys=True, indent=2) + "\n"


def csv_text(header, rows) -> str:
    """CSV with a header line; floats in repr form, None as empty."""
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def write_files(outdir: str, files: dict) -> list:
    """Write each (name, text) pair into ``outdir`` through a temp file
    moved into place, so no file is ever left half written; returns the
    written paths."""
    os.makedirs(outdir, exist_ok=True)
    written = []
    for name, text in files.items():
        target = os.path.join(outdir, name)
        fd, tmp = tempfile.mkstemp(dir=outdir, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
            os.replace(tmp, target)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        written.append(target)
    return written


def artifact_texts(report: VerifyReport) -> dict:
    """report.json, criteria.csv and the per-check series CSVs, as a
    mapping from file name to text."""
    doc = {"profile": report.profile, "seed": report.seed,
           "passed": report.passed, "checks": {}}
    for res in report.results:
        doc["checks"][res.name] = {
            "passed": res.passed,
            "notes": res.notes,
            "metrics": {m.name: {"observed": m.observed,
                                 "expected": m.expected,
                                 "tolerance": m.tolerance,
                                 "kind": m.kind,
                                 "ok": m.ok}
                        for m in res.metrics},
        }
    files = {
        "report.json": json_text(doc),
        "criteria.csv": csv_text(
            ("check", "metric", "kind", "observed", "expected", "tolerance",
             "ok"),
            [(res.name, m.name, m.kind, m.observed, m.expected, m.tolerance,
              m.ok) for res in report.results for m in res.metrics]),
    }
    for res in report.results:
        for stem, (header, rows) in res.series.items():
            files[stem + ".csv"] = csv_text(header, rows)
    return files


def render_artifacts(report: VerifyReport, outdir: str) -> list:
    """Write the :func:`artifact_texts` of ``report`` into ``outdir``
    through :func:`write_files`; returns the written paths."""
    return write_files(outdir, artifact_texts(report))
