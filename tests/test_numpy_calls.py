"""Guards on the source of the package: the numpy calls it replaced, and the private names it shares.

np.kron, np.moveaxis and np.unique cost 20-30 us a call on small arrays, where
a broadcast product, one transpose or a dict does the same work in a few; the
forms they replaced live on in tests/oracles.py, which the package must equal
bit for bit.

A module imports a private name of another package module only from basis, the
input gate: a helper that two modules share across any other line is a sign
that one decision is split between them.
"""
import ast
import pkgutil
from pathlib import Path

import lindblad_ode

SRC = Path(__file__).resolve().parents[1] / "src" / "lindblad_ode"
_REPLACED = {"kron", "moveaxis", "unique"}


def _replaced_calls(path: Path) -> list[str]:
    """Calls np.<name> or numpy.<name> of a replaced name, as 'file:line: np.name'."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        func = getattr(node, "func", None)
        if (
            isinstance(node, ast.Call)
            and isinstance(func, ast.Attribute)
            and func.attr in _REPLACED
            and isinstance(func.value, ast.Name)
            and func.value.id in ("np", "numpy")
        ):
            found.append((node.lineno, f"{path.name}:{node.lineno}: np.{func.attr}"))
    return [hit for _, hit in sorted(found)]


def _private_imports(path: Path) -> list[str]:
    """Private names imported from a package module other than basis, as 'file:line: from .module import _name'."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("lindblad_ode")):
            module = (node.module or "").rpartition(".")[2]
            found += [
                f"{path.name}:{node.lineno}: from {'.' * node.level}{node.module or ''} import {alias.name}"
                for alias in node.names
                if alias.name.startswith("_") and module != "basis"
            ]
    return found


def _package_files() -> list[Path]:
    files = sorted(SRC.glob("*.py"))
    # the scan reads every module of the package, whatever their number
    assert {p.stem for p in files} == {m.name for m in pkgutil.iter_modules(lindblad_ode.__path__)} | {"__init__"}
    return files


def test_no_replaced_numpy_call_in_the_package():
    found = [hit for p in _package_files() for hit in _replaced_calls(p)]
    assert not found, "use the broadcast, transpose or dict forms: " + ", ".join(found)


def test_private_names_cross_module_lines_only_from_the_input_gate():
    found = [hit for p in _package_files() for hit in _private_imports(p)]
    assert not found, "keep the helper in the module that uses it: " + ", ".join(found)


def test_guard_sees_replaced_calls(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import numpy as np\nimport numpy\n"
        "s = np.kron(a, b)\n"
        "t = f(numpy.moveaxis(m, -1, -3))\n"
        "u, k = np.unique(x, return_inverse=True)\n"
        "v = x.unique() + np.kronecker(a) + np.unique_values(x)\n"
    )
    assert _replaced_calls(probe) == ["probe.py:3: np.kron", "probe.py:4: np.moveaxis", "probe.py:5: np.unique"]


def test_guard_sees_private_imports(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from .basis import _numbers, NiceBasis\n"
        "from .core import apply, _dim\n"
        "from . import _private\n"
        "from lindblad_ode.maps import _rates\n"
        "from numpy import _core\n"
        "from .maps import phi\n"
    )
    assert _private_imports(probe) == [
        "probe.py:2: from .core import _dim",
        "probe.py:3: from . import _private",
        "probe.py:4: from lindblad_ode.maps import _rates",
    ]
