"""The package's modules form layers: each imports only modules listed
before it in ``LAYERS``, counting imports inside functions too, so no
import cycle can form and a lower module never reaches up a layer."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "potkit"

LAYERS = ("errors", "geometry", "grid", "integrate", "fitting", "sets",
          "cones", "penergy", "measures", "wolff", "riesz", "density",
          "plaplace", "capacity", "thinness", "scene", "verify", "cli")


def _potkit_imports(path: Path) -> set:
    """Names of the potkit modules a source file imports anywhere."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module is None:
                found.update(a.name for a in node.names)
            elif node.level == 1:
                found.add(node.module.split(".")[0])
            elif node.module and node.module.startswith("potkit."):
                found.add(node.module.split(".")[1])
            elif node.module == "potkit":
                found.update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names
                         if a.name.startswith("potkit."))
    return found


def test_every_module_has_a_layer():
    modules = {p.stem for p in SRC.glob("*.py")} - {"__init__"}
    assert modules == set(LAYERS)


@pytest.mark.parametrize("module", LAYERS)
def test_module_imports_only_lower_layers(module):
    below = set(LAYERS[:LAYERS.index(module)])
    assert _potkit_imports(SRC / f"{module}.py") <= below
