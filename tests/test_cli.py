"""The batch front-end writes its artifacts atomically and reports its
outcome through the exit code."""

import json

import numpy as np
import pytest

from potkit import cli
from potkit.capacity import BoxDomain, riesz_capacity
from potkit.sets import Sphere


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
