import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from lindblad_ode import (
    FAFRep,
    MasterEqParams,
    SuperopTensor,
    adjoint_faf,
    adjoint_tensor,
    apply_dissipator,
    apply_faf,
    apply_liouvillian,
    apply_tensor,
    faf_from_tensor,
    generate_gell_mann,
    superop_matrix,
    tensor_from_faf,
    tensor_from_matrix,
)

from conftest import amplitude_damping_a, dephasing_a, random_meq


def _random_tensor(d, rng):
    return SuperopTensor(rng.normal(size=(d,) * 4) + 1j * rng.normal(size=(d,) * 4))


def test_identity_superop_matrix(basis2):
    t = oracles.tensor_from_map(lambda x: x, 2)
    m = superop_matrix(t, basis2)
    np.testing.assert_allclose(m.entries, np.eye(4), atol=1e-12)


def test_sigma_z_conjugation_matrix(basis2):
    sz = np.diag([1.0, -1.0])
    t = oracles.tensor_from_map(lambda x: sz @ x @ sz, 2)
    m = superop_matrix(t, basis2)
    np.testing.assert_allclose(m.entries, np.diag([1.0, -1.0, -1.0, 1.0]), atol=1e-12)


@pytest.mark.parametrize("d", [2, 3])
def test_matrix_tensor_roundtrip(d):
    rng = np.random.default_rng(d)
    basis = generate_gell_mann(d)
    t = _random_tensor(d, rng)
    back = tensor_from_matrix(superop_matrix(t, basis))
    np.testing.assert_allclose(back.entries, t.entries, atol=1e-12)


@pytest.mark.parametrize("d", [2, 3])
def test_faf_reproduces_action(d):
    rng = np.random.default_rng(10 + d)
    basis = generate_gell_mann(d)
    t = _random_tensor(d, rng)
    rep = faf_from_tensor(t, basis)
    np.testing.assert_allclose(tensor_from_faf(rep, basis).entries, t.entries, atol=1e-12)
    x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    np.testing.assert_allclose(apply_faf(rep, x, basis), apply_tensor(t, x), atol=1e-12)


def test_tensor_from_map_oracle_requires_a_square_image():
    # a 1x2 image would broadcast into each d x d slice of the tensor
    with pytest.raises(AssertionError, match=r"fn must return a 2x2 matrix, got shape \(1, 2\)"):
        oracles.tensor_from_map(lambda x: x[:1], 2)


def test_faf_of_single_sandwich(basis2):
    f1 = basis2.elements[1]
    t = oracles.tensor_from_map(lambda x: f1 @ x @ f1, 2)
    rep = faf_from_tensor(t, basis2)
    expected = np.zeros((4, 4))
    expected[1, 1] = 1.0
    np.testing.assert_allclose(rep.c, expected, atol=1e-12)


def test_cp_map_gives_psd_coefficients(basis2):
    rng = np.random.default_rng(5)
    kraus = [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(3)]
    t = oracles.tensor_from_map(lambda x: sum(k @ x @ k.conj().T for k in kraus), 2)
    rep = faf_from_tensor(t, basis2)
    np.testing.assert_allclose(rep.c, rep.c.conj().T, atol=1e-12)
    assert np.min(np.linalg.eigvalsh(rep.c)) >= -1e-12


def test_adjoint_is_involution_and_conjugate():
    c = np.zeros((4, 4), dtype=complex)
    c[0, 1] = 1j
    rep = FAFRep(c=c)
    adj = adjoint_faf(rep)
    np.testing.assert_allclose(adj.c, c.conj())
    np.testing.assert_allclose(adjoint_faf(adj).c, c)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 6), st.integers(0, 2**32 - 1))
def test_adjoint_inner_product_identity(d, seed):
    rng = np.random.default_rng(seed)
    basis = generate_gell_mann(d)
    t = _random_tensor(d, rng)
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    b = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    lhs = np.trace(apply_tensor(adjoint_tensor(t), a).conj().T @ b)
    rhs = np.trace(a.conj().T @ apply_tensor(t, b))
    assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 6), st.integers(0, 2**32 - 1))
def test_hermitian_faf_is_hermiticity_preserving(d, seed):
    rng = np.random.default_rng(seed)
    basis = generate_gell_mann(d)
    n = d * d
    c = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rep = FAFRep(c=(c + c.conj().T) / 2)
    t = tensor_from_faf(rep, basis)
    m = superop_matrix(t, basis)
    assert oracles.is_hermiticity_preserving(m, 1e-10)
    assert np.max(np.abs(m.entries.imag)) <= 1e-10


def test_multiplication_by_i_not_hermiticity_preserving(basis2):
    t = oracles.tensor_from_map(lambda x: 1j * x, 2)
    assert not oracles.is_hermiticity_preserving(superop_matrix(t, basis2), 1e-10)


def test_liouvillian_is_hermiticity_preserving(basis2):
    rng = np.random.default_rng(2)
    p = random_meq(2, rng)
    t = oracles.tensor_from_map(lambda x: apply_liouvillian(p, x, basis2), 2)
    assert oracles.is_hermiticity_preserving(superop_matrix(t, basis2), 1e-10)


def test_unitality(basis2, basis3):
    dep = MasterEqParams(hamiltonian=np.zeros((2, 2)), rates=dephasing_a())
    t = oracles.tensor_from_map(lambda x: apply_liouvillian(dep, x, basis2), 2)
    assert oracles.is_unital(t, 1e-10)
    ad = MasterEqParams(hamiltonian=np.zeros((2, 2)), rates=amplitude_damping_a())
    t = oracles.tensor_from_map(lambda x: apply_liouvillian(ad, x, basis2), 2)
    assert not oracles.is_unital(t, 1e-10)
    assert oracles.is_unital(SuperopTensor(np.zeros((3, 3, 3, 3))), 1e-10)


def test_unital_does_not_force_symmetric_rates(basis3):
    # coupling only the two commuting diagonal elements keeps L(I) = 0
    # even though the coefficient matrix is not symmetric
    a = np.zeros((8, 8), dtype=complex)
    a[6, 7] = 1.0
    assert not np.allclose(a, a.T)
    t = oracles.tensor_from_map(lambda x: apply_dissipator(a, x, basis3), 3)
    assert oracles.is_unital(t, 1e-10)
