"""The batch front-end writes its artifacts atomically and reports its
outcome through the exit code."""

import json

import numpy as np
import pytest

from potkit import cli
from potkit.capacity import BallDomain, BoxDomain, p_capacity, riesz_capacity
from potkit.cones import Cone, p_gamma
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


def _write_scene(tmp_path, n, task, *, sets=(), measures=(), tolerance=None):
    doc = {"dimension": n,
           "domain": {"lo": [-1.0] * n, "hi": [1.0] * n},
           "sets": list(sets), "measures": list(measures), "task": task}
    if tolerance is not None:
        doc["tolerance"] = tolerance
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
