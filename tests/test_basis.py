import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lindblad_ode import (
    coherence_vector,
    coordinatize,
    decoordinatize,
    generate_gell_mann,
    structure_constants,
    verify_nice_basis,
)

from conftest import random_density


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_basis_axioms(d):
    basis = generate_gell_mann(d)
    assert basis.elements.shape == (d * d, d, d)
    report = verify_nice_basis(basis, tol=1e-12)
    assert report.passed


def test_d2_is_normalized_paulis():
    basis = generate_gell_mann(2)
    s = 1 / np.sqrt(2)
    np.testing.assert_allclose(basis.elements[0], s * np.eye(2), atol=1e-15)
    np.testing.assert_allclose(basis.elements[1], s * np.array([[0, 1], [1, 0]]), atol=1e-15)
    np.testing.assert_allclose(basis.elements[2], s * np.array([[0, -1j], [1j, 0]]), atol=1e-15)
    np.testing.assert_allclose(basis.elements[3], s * np.diag([1.0, -1.0]), atol=1e-15)


def test_d3_element_order():
    # symmetric pairs (1,2),(1,3),(2,3), then antisymmetric, then diagonal
    basis = generate_gell_mann(3)
    f = basis.traceless
    s = 1 / np.sqrt(2)
    assert abs(f[0][0, 1] - s) < 1e-15
    assert abs(f[1][0, 2] - s) < 1e-15
    assert abs(f[2][1, 2] - s) < 1e-15
    assert abs(f[3][0, 1] + 1j * s) < 1e-15
    assert abs(f[4][0, 2] + 1j * s) < 1e-15
    assert abs(f[5][1, 2] + 1j * s) < 1e-15
    np.testing.assert_allclose(f[6], np.diag([s, -s, 0.0]), atol=1e-15)
    np.testing.assert_allclose(f[7], np.diag([1, 1, -2]) / np.sqrt(6), atol=1e-15)


def test_generate_rejects_bad_dim():
    with pytest.raises(ValueError):
        generate_gell_mann(0)


@pytest.mark.parametrize("d", [0, 2.5, True, 3.0])
def test_generate_rejects_a_dim_that_is_not_an_integer_and_names_it(d):
    # 2.5 and True used to raise TypeError from inside numpy
    with pytest.raises(ValueError, match=rf"^dimension must be an integer >= 1, got {d!r}$"):
        generate_gell_mann(d)


def test_generate_accepts_a_numpy_integer():
    basis = generate_gell_mann(np.int64(3))
    assert type(basis.dim) is int
    np.testing.assert_array_equal(basis.elements, generate_gell_mann(3).elements)


@pytest.mark.parametrize("tol", [np.nan, -1.0, np.inf, True, "1e-9"])
def test_verify_rejects_a_tolerance_that_is_not_finite_and_non_negative(tol):
    with pytest.raises(ValueError, match=r"^tol must be a finite non-negative number, got "):
        verify_nice_basis(generate_gell_mann(2), tol)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_structure_constants_properties(d):
    basis = generate_gell_mann(d)
    f = structure_constants(basis).f
    j = basis.J
    assert f.shape == (j, j, j)
    # totally antisymmetric
    np.testing.assert_allclose(f, -f.transpose(1, 0, 2), atol=1e-12)
    np.testing.assert_allclose(f, -f.transpose(0, 2, 1), atol=1e-12)
    # contraction identity sum_jk f_jkl f_jkm = 2d delta_lm
    contr = np.einsum("jkl,jkm->lm", f, f)
    np.testing.assert_allclose(contr, 2 * d * np.eye(j), atol=1e-10)
    # commutators reconstruct: [F_i, F_j] = i f_ijk F_k
    ft = basis.traceless
    comm = np.einsum("iab,jbc->ijac", ft, ft) - np.einsum("jab,ibc->ijac", ft, ft)
    rebuilt = 1j * np.einsum("ijk,kab->ijab", f, ft)
    np.testing.assert_allclose(comm, rebuilt, atol=1e-12)


def test_d2_structure_constants_are_levi_civita():
    f = structure_constants(generate_gell_mann(2)).f
    expected = np.zeros((3, 3, 3))
    for i, j, k, sgn in [(0, 1, 2, 1), (1, 2, 0, 1), (2, 0, 1, 1),
                         (1, 0, 2, -1), (2, 1, 0, -1), (0, 2, 1, -1)]:
        expected[i, j, k] = sgn * np.sqrt(2)
    np.testing.assert_allclose(f, expected, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 6), st.integers(0, 2**32 - 1))
def test_coordinate_roundtrip(d, seed):
    rng = np.random.default_rng(seed)
    basis = generate_gell_mann(d)
    x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    coords = coordinatize(x, basis)
    np.testing.assert_allclose(decoordinatize(coords, basis), x, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 6), st.integers(0, 2**32 - 1))
def test_coherence_vector_properties(d, seed):
    rng = np.random.default_rng(seed)
    basis = generate_gell_mann(d)
    rho = random_density(d, rng)
    v = coherence_vector(rho, basis)
    assert v.shape == (d * d - 1,)
    assert np.all(np.isreal(v))
    # rho reconstructs from I/d + sum v_k F_k
    rebuilt = np.eye(d) / d + np.einsum("k,kab->ab", v, basis.traceless)
    np.testing.assert_allclose(rebuilt, rho, atol=1e-12)
    # purity bound
    assert np.linalg.norm(v) <= np.sqrt(1 - 1 / d) + 1e-12


def test_coherence_vector_rejects_bad_trace(basis2):
    with pytest.raises(ValueError):
        coherence_vector(np.eye(2), basis2)  # trace 2


@pytest.mark.parametrize("entry", [np.inf, np.nan, complex(0.0, np.inf)])
def test_coherence_vector_rejects_a_non_finite_rho_without_a_warning(basis2, entry):
    # an inf entry used to emit a RuntimeWarning from the Hermiticity residue before the ValueError;
    # filterwarnings = error would turn that warning into the exception instead
    rho = np.diag([0.5, 0.5]).astype(complex)
    rho[0, 1] = entry
    with pytest.raises(ValueError, match="^density matrix must be finite$"):
        coherence_vector(rho, basis2)


def test_coherence_vector_warns_outside_ball(basis2):
    rho = np.diag([1.5, -0.5]).astype(complex)  # Hermitian, trace 1, not PSD
    with pytest.warns(UserWarning):
        coherence_vector(rho, basis2)
