"""A guard that keeps the numpy calls the package replaced out of it.

np.kron, np.moveaxis and np.unique cost 20-30 us a call on small arrays, where
a broadcast product, one transpose or a dict does the same work in a few; the
forms they replaced live on in tests/oracles.py, which the package must equal
bit for bit.
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


def test_no_replaced_numpy_call_in_the_package():
    files = sorted(SRC.glob("*.py"))
    # the scan reads every module of the package, whatever their number
    assert {p.stem for p in files} == {m.name for m in pkgutil.iter_modules(lindblad_ode.__path__)} | {"__init__"}
    found = [hit for p in files for hit in _replaced_calls(p)]
    assert not found, "use the broadcast, transpose or dict forms: " + ", ".join(found)


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
