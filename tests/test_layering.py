"""Package imports flow one way, from the command line down to the errors.

Each module may import only modules on a strictly lower layer. The package
``__init__`` and ``__main__`` sit outside the order: they re-export and
start the command line.
"""

import ast
from pathlib import Path

import pytest

import elimgame

LAYERS = [
    {"errors"},
    {"core"},
    {"play"},
    {"welfare"},
    {"cultures", "extremal"},
    {"sweep"},
    {"experiments"},
    {"cli"},
]
LAYER_OF = {name: i for i, layer in enumerate(LAYERS) for name in layer}
PACKAGE = Path(elimgame.__file__).resolve().parent
EXEMPT = {"__init__", "__main__"}


def relative_imports(path: Path) -> set[str]:
    """Sibling modules named by the relative imports in one source file."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                found.update(alias.name for alias in node.names)
            else:
                found.add(node.module.split(".")[0])
    return found


def test_every_module_has_a_layer():
    modules = {p.stem for p in PACKAGE.glob("*.py")} - EXEMPT
    assert modules == set(LAYER_OF)


@pytest.mark.parametrize("module", sorted(LAYER_OF))
def test_imports_point_to_lower_layers(module):
    upward = {
        target for target in relative_imports(PACKAGE / f"{module}.py")
        if LAYER_OF[target] >= LAYER_OF[module]
    }
    assert not upward, f"{module} imports {sorted(upward)} from its own or a higher layer"
