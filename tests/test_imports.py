"""No module of the package reads another module's private names."""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "matchlot"
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _dotted(node: ast.expr) -> str | None:
    """``a.b.c`` for a chain of attribute reads on a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id, *reversed(parts)])


def private_reads(source: str) -> list[str]:
    """The package-private names a module's source takes from its siblings.

    Flags ``from .x import _y`` (or ``from matchlot.x import _y``), and a
    read ``m._y`` where ``m`` names a package module: bound by
    ``from . import m``, ``import matchlot.m as m``, or spelled out as
    ``matchlot.m``.  Imports inside functions count as well.
    """
    tree = ast.parse(source)
    modules = {f"matchlot.{name}" for name in MODULES}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            own = node.level > 0 or (node.module or "").split(".")[0] == "matchlot"
            if not own:
                continue
            package = node.module is None or node.module == "matchlot"
            for alias in node.names:
                if _private(alias.name):
                    found.append(f"from {'.' * node.level}{node.module or ''} import {alias.name}")
                elif package and alias.name in MODULES:
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname and alias.name in modules:
                    modules.add(alias.asname)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            owner = _dotted(node.value)
            if owner in modules:
                found.append(f"{owner}.{node.attr}")
    return found


@pytest.mark.parametrize("module", MODULES)
def test_no_module_reads_a_private_name_of_another(module):
    assert private_reads((PACKAGE / f"{module}.py").read_text()) == []


@pytest.mark.parametrize(
    "source, expected",
    [
        ("from .lp import _Simplex, solve_lp", ["from .lp import _Simplex"]),
        ("from matchlot.core import _x", ["from matchlot.core import _x"]),
        ("from . import lp as solver\nsolver._invert(B, '')", ["solver._invert"]),
        ("import matchlot.lp as lp\nlp._RC_TOL", ["lp._RC_TOL"]),
        ("import matchlot.lp\nmatchlot.lp._RC_TOL", ["matchlot.lp._RC_TOL"]),
        ("def f():\n    from .colgen import _inside", ["from .colgen import _inside"]),
        ("from . import __version__\nself._cache\nnp._core", []),
        ("from .core import MatchlotError\nMatchlotError.__name__", []),
    ],
)
def test_the_check_flags_private_imports_and_reads(source, expected):
    assert private_reads(source) == expected
