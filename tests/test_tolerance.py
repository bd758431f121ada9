"""The tolerance policy: its rules, and a guard that keeps it in one module."""
import ast
import io
import pkgutil
import re
import tokenize
from pathlib import Path

import numpy as np
import pytest

import lindblad_ode
from lindblad_ode import tolerance

SRC = Path(__file__).resolve().parents[1] / "src" / "lindblad_ode"
# underflow guards, which keep a division or a ratio finite and judge nothing
_UNDERFLOW_GUARDS = {1e-300}
# statements whose literals are not tolerances: the Pade coefficients b_0..b_13 of _expm
_EXEMPT_STATEMENTS = {("odesolve.py", "_PADE13")}


def _tolerance_like_literals(path: Path) -> list[str]:
    """Numeric literals in (0, 1e-6] or >= 1e6 outside the exempt statements."""
    found = []
    statement = None  # the first name or number of the current logical line
    for tok in tokenize.generate_tokens(io.StringIO(path.read_text(encoding="utf-8")).readline):
        if tok.type == tokenize.NEWLINE:
            statement = None
        elif statement is None and tok.type in (tokenize.NAME, tokenize.NUMBER):
            statement = tok.string
        if tok.type == tokenize.NUMBER:
            value = abs(ast.literal_eval(tok.string))
            small_or_large = 0 < value <= 1e-6 or value >= 1e6
            exempt = value in _UNDERFLOW_GUARDS or (path.name, statement) in _EXEMPT_STATEMENTS
            if small_or_large and not exempt:
                found.append(f"{path.name}:{tok.start[0]}: {tok.string}")
    return found


def test_no_tolerance_literal_outside_the_policy_module():
    files = sorted(p for p in SRC.glob("*.py") if p.name != "tolerance.py")
    # the scan reads every module of the package but the policy module
    modules = {m.name for m in pkgutil.iter_modules(lindblad_ode.__path__)}
    assert {p.stem for p in files} == modules - {"tolerance"} | {"__init__"}
    found = [hit for p in files for hit in _tolerance_like_literals(p)]
    assert not found, "tolerances belong in lindblad_ode/tolerance.py: " + ", ".join(found)


def test_guard_sees_literals(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("x = 1e-9\ny = f(a, 1e8)\nz = 2.0**52 + 0.5 + 1e-300\n_PADE13 = 64764752532480000\n")
    assert _tolerance_like_literals(probe) == ["probe.py:1: 1e-9", "probe.py:2: 1e8", "probe.py:4: 64764752532480000"]


@pytest.mark.parametrize("rtol", [0, 0.0, 1e-9, np.float32(0.5), np.int64(2), 1.7976931348623157e308])
def test_check_rtol_returns_a_finite_non_negative_number_unchanged(rtol):
    assert tolerance.check_rtol(rtol, "tol") is rtol


@pytest.mark.parametrize(
    "rtol", [np.nan, np.inf, -1e-9, -1, True, np.bool_(False), "0.1", None, 1j, pytest.param(2**1100, id="huge-int")]
)
def test_check_rtol_rejects_and_names_the_value(rtol):
    with pytest.raises(ValueError, match=rf"^tol must be a finite non-negative number, got {re.escape(repr(rtol))}$"):
        tolerance.check_rtol(rtol, "tol")


def test_negligible_is_absolute_up_to_scale_one_and_relative_above():
    r = tolerance.DATA
    assert tolerance.negligible(r, 0.5, r)
    assert not tolerance.negligible(np.nextafter(r, 1), 0.5, r)
    assert tolerance.negligible([1e3 * r, -1e3 * r], 1e3, r)
    assert not tolerance.negligible(2e3 * r, 1e3, r)
    assert tolerance.negligible(np.zeros(0), np.zeros(0), r)
    assert not tolerance.negligible(np.nan, 1.0, r)


def test_magnitude_is_the_largest_absolute_entry_as_a_float():
    cases = [
        (3, 3.0),
        (-2.5, 2.5),
        ([1, -5, 2], 5.0),
        ([[1.0, -2.0], [0.5, 1.5]], 2.0),
        ([], 0.0),
        (np.zeros((0, 3)), 0.0),
        (3 + 4j, 5.0),
        ([1j, -2 + 0j], 2.0),
        (-0.0, 0.0),
    ]
    for x, want in cases:
        got = tolerance.magnitude(x)
        assert type(got) is float and got == want, (x, got)
    assert np.isnan(tolerance.magnitude(np.nan))
    assert np.isnan(tolerance.magnitude([1.0, np.nan, 2.0]))
    assert np.isnan(tolerance.magnitude(complex(np.nan, 0.0)))


@pytest.mark.parametrize("s", [1e-14, 1e-6, 1.0, 1e6, 1e14])
def test_rank_is_scale_invariant(s):
    sv = s * np.array([2.0, 1.0, 1e-13, 0.0])
    assert tolerance.rank(sv, tolerance.ROUNDING) == 2
    assert tolerance.rank(sv, 1e-14) == 3
    assert tolerance.rank(np.zeros(3), tolerance.ROUNDING) == 0
    assert tolerance.rank(np.zeros(0), tolerance.ROUNDING) == 0


def test_is_psd_on_one_spectrum_and_on_a_stack():
    r = tolerance.DATA
    spectra = np.array([[-0.5 * r, 1.0], [-2.0 * r, 1.0], [-1e3 * r, 2e3], [-3e3 * r, 2e3]])
    np.testing.assert_array_equal(tolerance.is_psd(spectra, r), [True, False, True, False])
    assert [bool(tolerance.is_psd(w, r)) for w in spectra] == [True, False, True, False]
    assert tolerance.is_psd(np.zeros(0), r)
    assert tolerance.is_psd(np.zeros((0, 4)), r).shape == (0,)
