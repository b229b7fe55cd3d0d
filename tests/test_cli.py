"""The batch front-end writes its artifacts atomically and reports its
outcome through the exit code."""

import json

import numpy as np
import pytest

from potkit import cli
from potkit.capacity import BallDomain, BoxDomain, p_capacity, riesz_capacity
from potkit.cones import Cone, inclusion_check, p_gamma
from potkit.density import box_counting_dimension, covering_counts
from potkit.grid import EvaluationGrid
from potkit.sets import BallUnion, Sphere, segment_set
from potkit.thinness import classify_thinness, wiener_terms


def test_cones_member_writes_report(tmp_path, monkeypatch):
    written = []
    original = cli.write_files

    def recording(outdir, files):
        written.append(sorted(files))
        return original(outdir, files)

    monkeypatch.setattr(cli, "write_files", recording)
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps({
        "dimension": 3,
        "domain": {"lo": [-1.0, -1.0, -1.0], "hi": [1.0, 1.0, 1.0]},
        "task": {"cone": {"kind": "a", "param": 3.0},
                 "lambda": [1.0, 1.0, -0.5]},
    }))
    out = tmp_path / "out"
    code = cli.main(["cones", "member", "--scene", str(scene),
                     "--out", str(out)])
    assert code == 0
    assert written == [["report.json"]]
    # the temp file is moved into place, none is left behind
    assert sorted(p.name for p in out.iterdir()) == ["report.json"]
    report = json.loads((out / "report.json").read_text())
    # (p - 2) min + sum = 1 * (-0.5) + 1.5 = 1.0 >= 0
    assert report == {"cone": "A(3.0)", "lambda": [1.0, 1.0, -0.5],
                      "member": True}


def test_missing_scene_is_a_usage_error(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("POTKIT_SCENE", raising=False)
    code = cli.main(["cones", "member", "--out", str(tmp_path / "out")])
    assert code == 1
    assert "scene file is required" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _wolff_scene(tmp_path):
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps({
        "dimension": 3,
        "domain": {"lo": [-1.0, -1.0, -1.0], "hi": [1.0, 1.0, 1.0]},
        "measures": [{"name": "a", "kind": "atoms",
                      "locations": [[0.0, 0.0, 0.0]], "masses": [2.0]}],
        "task": {"measure": "a", "p": 2.5, "anchor": [0.0, 0.0, 0.0],
                 "path": {"count": 8}},
    }))
    return scene


def test_flags_a_subcommand_does_not_read_are_usage_errors(tmp_path):
    out = str(tmp_path / "out")
    for argv in (["verify-all", "--tol", "0.5", "--checks", "determinism",
                  "--out", out],
                 ["wolff", "--scene", str(_wolff_scene(tmp_path)),
                  "--seed", "3", "--out", out]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 1
    assert not (tmp_path / "out").exists()


def test_environment_fallback_only_where_the_flag_is_taken(tmp_path, capsys,
                                                          monkeypatch):
    # wolff takes no seed, so a malformed POTKIT_SEED is never read
    monkeypatch.setenv("POTKIT_SEED", "not-a-number")
    out = tmp_path / "out"
    code = cli.main(["wolff", "--scene", str(_wolff_scene(tmp_path)),
                     "--out", str(out)])
    assert code == 0
    assert sorted(p.name for p in out.iterdir()) == ["report.json",
                                                     "wolff.csv"]
    # cones include takes one, so the same variable is a usage error
    code = cli.main(["cones", "include", "--scene",
                     str(_wolff_scene(tmp_path)), "--out", str(out)])
    assert code == 1
    assert "bad POTKIT_SEED" in capsys.readouterr().err


def test_riesz_capacity_writes_its_report(tmp_path):
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps({
        "dimension": 3,
        "domain": {"lo": [-1.0, -1.0, -1.0], "hi": [1.0, 1.0, 1.0]},
        "sets": [{"name": "s", "kind": "sphere", "center": [0.0, 0.0, 0.0],
                  "radius": 0.5}],
        "task": {"kind": "riesz", "set": "s", "alpha": 1.5, "h": 0.125},
    }))
    out = tmp_path / "out"
    code = cli.main(["capacity", "--scene", str(scene), "--out", str(out)])
    assert code == 0
    est = riesz_capacity(Sphere(np.zeros(3), 0.5),
                         BoxDomain((-1.0,) * 3, (1.0,) * 3), 1.5, 0.125)
    report = json.loads((out / "report.json").read_text())
    # a sphere charges every site, so its equilibrium takes one pivot
    assert report == {"value": est.value, "lower": est.lower,
                      "upper": est.upper, "h": 0.125, "iterations": 1}


def test_riesz_at_alpha_equal_n_reports_the_atom_mass(tmp_path):
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps({
        "dimension": 3,
        "domain": {"lo": [-1.0, -1.0, -1.0], "hi": [1.0, 1.0, 1.0]},
        "measures": [{"name": "a", "kind": "atoms",
                      "locations": [[0.0, 0.0, 0.0]], "masses": [2.0]}],
        "task": {"measure": "a", "alpha": 3.0, "domain_diameter": 4.0,
                 "anchor": [0.0, 0.0, 0.0],
                 "path": {"r0": 0.25, "ratio": 0.5, "count": 24}},
    }))
    out = tmp_path / "out"
    code = cli.main(["riesz", "--scene", str(scene), "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["limit"] == pytest.approx(2.0, abs=1e-12)
    assert report["correction_exponent"] == 1.0


def _limit_scene(tmp_path, command, **changes):
    """A wolff or riesz scene on an atom at the origin; ``changes``
    replace task fields, and ``atoms`` the atom locations."""
    atoms = changes.pop("atoms", [[0.0, 0.0, 0.0]])
    exponent = {"wolff": "p", "riesz": "alpha"}[command]
    task = {"measure": "a", exponent: 2.5, "anchor": [0.0, 0.0, 0.0],
            "path": {"count": 8}}
    task.update({exponent if k == "exponent" else k: v
                 for k, v in changes.items()})
    return _write_scene(tmp_path, 3, task, measures=[
        {"name": "a", "kind": "atoms", "locations": atoms,
         "masses": [2.0] * len(atoms)}])


@pytest.mark.parametrize("command, columns", [
    ("wolff", "r,scaled_value,raw_value"), ("riesz", "r,ratio,potential")])
def test_limit_subcommands_write_the_report_series(tmp_path, capsys,
                                                   command, columns):
    out = tmp_path / "out"
    code = cli.main([command, "--scene", _limit_scene(tmp_path, command),
                     "--out", str(out)])
    assert code == 0
    assert sorted(p.name for p in out.iterdir()) == sorted(
        [f"{command}.csv", "report.json"])
    header, rows = _csv_rows(out / f"{command}.csv")
    assert header == columns
    assert [row[0] for row in rows] == [0.5 * 0.5 ** k for k in range(8)]
    report = json.loads((out / "report.json").read_text())
    assert sorted(report) == ["correction_exponent", "limit",
                              "point_mass_estimate", "residual"]
    assert capsys.readouterr().out == (
        f"{command}: limit {report['limit']:.12g} -> {out}\n")


@pytest.mark.parametrize("command", ["wolff", "riesz"])
@pytest.mark.parametrize("changes, message", [
    ({"path": {"count": 4}}, "path too short"),
    ({"exponent": 0.5}, "must be a finite real > 1"),
    ({"atoms": [[0.0, 0.0, 0.0], [0.25, 0.0, 0.0]]}, "through an atom"),
], ids=["short-path", "exponent-below-1", "path-through-an-atom"])
def test_limit_subcommands_reject_bad_scene_values(tmp_path, capsys, command,
                                                   changes, message):
    out = tmp_path / "out"
    code = cli.main([command, "--scene",
                     _limit_scene(tmp_path, command, **changes),
                     "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("potkit: ") and message in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command, changes, field", [
    ("wolff", {"path": {"count": None}}, "task/path/count"),
    ("riesz", {"path": {"count": None}}, "task/path/count"),
    ("wolff", {"r": None}, "task/r"),
    ("riesz", {"r": None}, None),
    ("riesz", {"domain_diameter": None}, "task/domain_diameter"),
    ("wolff", {"exponent": None}, "task/p"),
    ("riesz", {"exponent": None}, "task/alpha"),
])
def test_limit_subcommands_reject_null_numbers(tmp_path, capsys, command,
                                               changes, field):
    # JSON null in a numeric task field is a scene error, not a TypeError;
    # riesz reads no "r"
    out = tmp_path / "out"
    code = cli.main([command, "--scene",
                     _limit_scene(tmp_path, command, **changes),
                     "--out", str(out)])
    err = capsys.readouterr().err
    if field is None:
        assert code == 0 and err == ""
        return
    assert code == 1
    assert err == f"potkit: {field}: expected a number, got null\n"
    assert not out.exists()


def _write_scene(tmp_path, n, task, *, sets=(), measures=(), tolerance=None,
                 seed=None):
    doc = {"dimension": n,
           "domain": {"lo": [-1.0] * n, "hi": [1.0] * n},
           "sets": list(sets), "measures": list(measures), "task": task}
    if tolerance is not None:
        doc["tolerance"] = tolerance
    if seed is not None:
        doc["seed"] = seed
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps(doc))
    return str(scene)


def _csv_rows(path):
    lines = path.read_text().splitlines()
    return lines[0], [[float(v) for v in ln.split(",")] for ln in lines[1:]]


def test_thin_writes_terms_partial_sums_and_verdict(tmp_path):
    centers = [[0.75, 0.0], [0.375, 0.0], [0.1875, 0.0]]
    radii = [0.125, 0.0625, 0.03125]
    scene = _write_scene(tmp_path, 2, {
        "set": "e", "point": [0.0, 0.0], "index": 1.5,
        "weighting": "riesz-alpha", "count": 4, "pitch_rel": 0.5},
        sets=[{"name": "e", "kind": "balls", "centers": centers,
               "radii": radii}])
    out = tmp_path / "out"
    assert cli.main(["thin", "--scene", scene, "--out", str(out)]) == 0
    terms = wiener_terms(BallUnion(centers, radii), np.zeros(2), index=1.5,
                         count=4, weighting="riesz-alpha", pitch_rel=0.5)
    rep = classify_thinness(terms)
    header, rows = _csv_rows(out / "thin.csv")
    assert header == "i,term,partial_sum"
    assert rows == [[i + 1, t, s] for i, (t, s)
                    in enumerate(zip(terms, np.cumsum(terms)))]
    report = json.loads((out / "report.json").read_text())
    assert report["verdict"] == rep.verdict
    assert report["partial_sum"] == rep.partial_sum


def test_plaplace_reproduces_affine_boundary_data(tmp_path):
    # with no measure and affine data the discrete p-harmonic function is
    # the affine function itself
    scene = _write_scene(tmp_path, 2, {
        "p": 2.5, "h": 0.25,
        "boundary": {"kind": "affine", "gradient": [1.0, 0.5],
                     "offset": 0.25}})
    out = tmp_path / "out"
    assert cli.main(["plaplace", "--scene", scene, "--out", str(out)]) == 0
    grid = EvaluationGrid.from_box((-1.0, -1.0), (1.0, 1.0), 0.25)
    want = grid.node_points() @ np.array([1.0, 0.5]) + 0.25
    header, rows = _csv_rows(out / "plaplace.csv")
    assert header == "index,value"
    values = np.array([v for _, v in rows])
    assert values.shape == want.shape
    assert np.allclose(values, want, rtol=0.0, atol=1e-6)
    report = json.loads((out / "report.json").read_text())
    assert (report["p"], report["h"]) == (2.5, 0.25)
    assert report["min"] == values.min() and report["max"] == values.max()
    assert report["min"] == pytest.approx(-1.25, abs=1e-6)


def test_density_upper_of_an_atom_is_its_mass(tmp_path):
    scene = _write_scene(tmp_path, 2, {
        "mode": "upper", "measure": "a", "point": [0.0, 0.0], "d": 0.0,
        "ladder": {"r_max": 0.5, "r_min": 0.5 ** 12, "rungs": 12}},
        measures=[{"name": "a", "kind": "atoms", "locations": [[0.0, 0.0]],
                   "masses": [2.0]}])
    out = tmp_path / "out"
    assert cli.main(["density", "--scene", scene, "--out", str(out)]) == 0
    header, rows = _csv_rows(out / "density.csv")
    assert header == "r,value"
    assert rows == [[r, 2.0] for r in np.geomspace(0.5, 0.5 ** 12, 12)]
    assert json.loads((out / "report.json").read_text()) == {
        "d": 0.0, "limsup": 2.0}


def test_density_boxcount_of_a_segment(tmp_path):
    scales = [0.25, 0.125, 0.0625, 0.03125]
    scene = _write_scene(tmp_path, 2, {"mode": "boxcount", "set": "s",
                                       "scales": scales},
                         sets=[{"name": "s", "kind": "segment",
                                "a": [0.0, 0.0], "b": [1.0, 0.0]}])
    out = tmp_path / "out"
    assert cli.main(["density", "--scene", scene, "--out", str(out)]) == 0
    seg = segment_set([0.0, 0.0], [1.0, 0.0])
    header, rows = _csv_rows(out / "density.csv")
    assert header == "scale,count"
    assert rows == [[s, c] for s, c in zip(scales,
                                           covering_counts(seg, scales))]
    dim = json.loads((out / "report.json").read_text())["dimension"]
    assert dim == box_counting_dimension(seg, scales)
    assert dim == pytest.approx(1.0, abs=0.1)


def test_density_unknown_mode_is_a_usage_error(tmp_path, capsys):
    scene = _write_scene(tmp_path, 2, {"mode": "lower"})
    out = tmp_path / "out"
    assert cli.main(["density", "--scene", scene, "--out", str(out)]) == 1
    assert "task/mode" in capsys.readouterr().err
    assert not out.exists()


def test_cones_pgamma_of_the_trace_cone_is_two(tmp_path):
    # Gamma_1 = {sigma_1 > 0}: -a + (n - 1) vanishes at a* = n - 1, so
    # p = 1 + (n - 1) / a* = 2; --tol overrides the scene's tolerance
    scene = _write_scene(tmp_path, 3, {"cone": {"kind": "gamma", "param": 1},
                                       "n": 4}, tolerance=0.5)
    out = tmp_path / "out"
    assert cli.main(["cones", "pgamma", "--scene", scene, "--tol", "1e-9",
                     "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report == {"cone": "Gamma(1)", "n": 4,
                      "p_gamma": p_gamma(Cone.gamma(1), 4, tol=1e-9)}
    assert report["p_gamma"] == pytest.approx(2.0, abs=1e-8)


def _p_capacity_scene(tmp_path, fold_center):
    return _write_scene(tmp_path, 3, {
        "kind": "p", "set": "k", "p": 2.5, "h": 0.125,
        "omega": {"kind": "ball", "center": [0.0, 0.0, 0.0], "radius": 1.0},
        "fold_center": fold_center},
        sets=[{"name": "k", "kind": "balls", "centers": [[0.0, 0.0, 0.0]],
               "radii": [0.25]}])


def test_p_capacity_with_a_fold_center_that_holds(tmp_path):
    out = tmp_path / "out"
    code = cli.main(["capacity", "--scene",
                     _p_capacity_scene(tmp_path, [0.0, 0.0, 0.0]),
                     "--out", str(out)])
    assert code == 0
    est = p_capacity(BallUnion([[0.0, 0.0, 0.0]], [0.25]),
                     BallDomain((0.0, 0.0, 0.0), 1.0), 2.5, 0.125)
    report = json.loads((out / "report.json").read_text())
    assert report == {"value": est.value, "lower": None, "upper": None,
                      "h": 0.125, "iterations": est.iterations}


def test_p_capacity_with_a_fold_center_that_fails_exits_two(tmp_path,
                                                             capsys):
    out = tmp_path / "out"
    code = cli.main(["capacity", "--scene",
                     _p_capacity_scene(tmp_path, [0.25, 0.0, 0.0]),
                     "--out", str(out)])
    assert code == 2
    assert "mirror-symmetric" in capsys.readouterr().err
    assert not out.exists()


# a valid 2-D task per subcommand, on an atom "a" and a ball "k"
_TASKS = {
    "wolff": {"measure": "a", "p": 1.5, "anchor": [0.0, 0.0],
              "path": {"count": 8}},
    "capacity": {"kind": "p", "set": "k", "p": 2.5, "h": 0.25},
    "density": {"mode": "upper", "measure": "a", "point": [0.0, 0.0],
                "d": 0.0},
    "plaplace": {"p": 2.5, "h": 0.25},
    "thin": {"set": "k", "point": [0.0, 0.0], "index": 1.5},
}


def _task_scene(tmp_path, command, **changes):
    return _write_scene(
        tmp_path, 2, dict(_TASKS[command], **changes),
        measures=[{"name": "a", "kind": "atoms", "locations": [[0.0, 0.0]],
                   "masses": [1.0]}],
        sets=[{"name": "k", "kind": "balls", "centers": [[0.0, 0.0]],
               "radii": [0.25]}])


@pytest.mark.parametrize("command, changes, message", [
    ("capacity", {"omega": {"kind": "ball", "radius": 0.9}},
     "task/omega: missing field 'center'"),
    ("capacity", {"omega": "ball"},
     'task/omega: expected an object, got "ball"'),
    ("wolff", {"path": 3}, "task/path: expected an object, got 3"),
    ("density", {"ladder": 3}, "task/ladder: expected an object, got 3"),
    ("plaplace", {"boundary": {"kind": "affine"}},
     "task/boundary: missing field 'gradient'"),
    ("wolff", {"path": {"count": 8.7}},
     "task/path/count: expected an integer, got 8.7"),
    ("wolff", {"p": "2.5"}, 'task/p: expected a number, got "2.5"'),
    ("thin", {"index": True}, "task/index: expected a number, got true"),
    ("wolff", {"anchor": {}},
     "task/anchor: expected a list of numbers, got {}"),
    ("density", {"measure": ["a"]}, "unknown measure name ['a']"),
], ids=["omega-without-center", "omega-string", "path-number",
        "ladder-number", "boundary-without-gradient", "fractional-count",
        "string-number", "bool-number", "anchor-object", "measure-list"])
def test_bad_task_fields_name_their_path(tmp_path, capsys, command, changes,
                                         message):
    out = tmp_path / "out"
    code = cli.main([command, "--scene",
                     _task_scene(tmp_path, command, **changes),
                     "--out", str(out)])
    assert (code, capsys.readouterr().err) == (1, f"potkit: {message}\n")
    assert not out.exists()


def test_integral_floats_read_as_integers(tmp_path):
    # "dimension": 2.0 and "seed": 1.0 are the ints 2 and 1
    def run(name, argv, **doc):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / name
        assert cli.main(argv + ["--scene", str(path), "--out", str(out)]) == 0
        return {p.name: p.read_text() for p in out.iterdir()}

    atom = {"name": "a", "kind": "atoms", "locations": [[0.0, 0.0]],
            "masses": [1.0]}
    cones = {"inner": {"kind": "gamma", "param": 2},
             "outer": {"kind": "gamma", "param": 1}, "n": 3, "samples": 500}
    for argv, doc, key, value in (
            (["wolff"], {"measures": [atom], "task": _TASKS["wolff"]},
             "dimension", 2),
            (["cones", "include"], {"dimension": 2, "seed": 1,
                                    "task": cones}, "seed", 1)):
        doc = dict(doc, dimension=2,
                   domain={"lo": [-1.0, -1.0], "hi": [1.0, 1.0]})
        files = run("int", argv, **doc)
        assert run("float", argv, **dict(doc, **{key: float(value)})) == files


@pytest.mark.parametrize("inner, outer, code", [(3, 1, 0), (1, 3, 2)])
def test_cones_include_reports_the_seeded_check(tmp_path, capsys, inner,
                                                outer, code):
    # Gamma(3) lies inside Gamma(1) in R^3, not the other way round
    scene = _write_scene(tmp_path, 3, {
        "inner": {"kind": "gamma", "param": inner},
        "outer": {"kind": "gamma", "param": outer}, "n": 3, "samples": 500},
        seed=7)
    out = tmp_path / "out"
    assert cli.main(["cones", "include", "--scene", scene,
                     "--out", str(out)]) == code
    rep = inclusion_check(Cone.gamma(inner), Cone.gamma(outer), 3,
                          samples=500, seed=7)
    assert rep.passed == (code == 0)
    report = json.loads((out / "report.json").read_text())
    assert report == {
        "inner": f"Gamma({inner})", "outer": f"Gamma({outer})", "n": 3,
        "tested": rep.tested, "passed": rep.passed,
        "counterexamples": [list(v) for v in rep.counterexamples]}
    stream = capsys.readouterr()
    if code == 0:
        assert stream.out.startswith("cones include: Gamma(3) inside Gamma(1)")
    else:
        assert stream.err.startswith("cones include: counterexample [")


def test_verify_all_runs_the_chosen_checks(tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["verify-all", "--profile", "quick", "--checks",
                     "determinism", "--seed", "0", "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["criteria.csv",
                                                     "report.json"]
    report = json.loads((out / "report.json").read_text())
    assert (report["profile"], report["seed"], report["passed"]) == (
        "quick", 0, True)
    check = report["checks"]["determinism"]
    assert list(report["checks"]) == ["determinism"] and check["passed"]
    assert check["metrics"]["artifacts-identical"]["observed"] == 1.0
    assert capsys.readouterr().out.splitlines()[-1] == (
        f"verify-all: PASS (1/1 checks) -> {out}")
