import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from lindblad_ode import (
    FAFRep,
    MasterEqParams,
    SuperopMatrix,
    SuperopTensor,
    adjoint,
    apply,
    apply_dissipator,
    generate_gell_mann,
    phi,
    superop_matrix,
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
    back = phi(7, 4, superop_matrix(t, basis), basis)
    np.testing.assert_allclose(back.entries, t.entries, atol=1e-12)


@pytest.mark.parametrize("d", [2, 3])
def test_faf_reproduces_action(d):
    rng = np.random.default_rng(10 + d)
    basis = generate_gell_mann(d)
    t = _random_tensor(d, rng)
    rep = phi(4, 8, t, basis)
    np.testing.assert_allclose(phi(8, 4, rep, basis).entries, t.entries, atol=1e-12)
    x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    np.testing.assert_allclose(apply(rep, x, basis), apply(t, x, basis), atol=1e-12)


def test_tensor_from_map_oracle_requires_a_square_image():
    # a 1x2 image would broadcast into each d x d slice of the tensor
    with pytest.raises(AssertionError, match=r"fn must return a 2x2 matrix, got shape \(1, 2\)"):
        oracles.tensor_from_map(lambda x: x[:1], 2)


def test_faf_of_single_sandwich(basis2):
    f1 = basis2.elements[1]
    t = oracles.tensor_from_map(lambda x: f1 @ x @ f1, 2)
    rep = phi(4, 8, t, basis2)
    expected = np.zeros((4, 4))
    expected[1, 1] = 1.0
    np.testing.assert_allclose(rep.c, expected, atol=1e-12)


def test_cp_map_gives_psd_coefficients(basis2):
    rng = np.random.default_rng(5)
    kraus = [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(3)]
    t = oracles.tensor_from_map(lambda x: sum(k @ x @ k.conj().T for k in kraus), 2)
    rep = phi(4, 8, t, basis2)
    np.testing.assert_allclose(rep.c, rep.c.conj().T, atol=1e-12)
    assert np.min(np.linalg.eigvalsh(rep.c)) >= -1e-12


def test_adjoint_is_involution_and_conjugate():
    c = np.zeros((4, 4), dtype=complex)
    c[0, 1] = 1j
    rep = FAFRep(c=c)
    adj = adjoint(rep)
    np.testing.assert_allclose(adj.c, c.conj())
    np.testing.assert_allclose(adjoint(adj).c, c)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 6), st.integers(0, 2**32 - 1))
def test_adjoint_inner_product_identity(d, seed):
    rng = np.random.default_rng(seed)
    basis = generate_gell_mann(d)
    t = _random_tensor(d, rng)
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    b = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rhs = np.trace(a.conj().T @ apply(t, b, basis))
    # the adjoint in each space of any superoperator, each applied through its own S
    for space in (4, 7, 8):
        lhs = np.trace(apply(adjoint(phi(4, space, t, basis)), a, basis).conj().T @ b)
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 6), st.integers(0, 2**32 - 1))
def test_hermitian_faf_is_hermiticity_preserving(d, seed):
    rng = np.random.default_rng(seed)
    basis = generate_gell_mann(d)
    n = d * d
    c = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rep = FAFRep(c=(c + c.conj().T) / 2)
    t = phi(8, 4, rep, basis)
    m = superop_matrix(t, basis)
    assert oracles.is_hermiticity_preserving(m, 1e-10)
    assert np.max(np.abs(m.entries.imag)) <= 1e-10


def test_multiplication_by_i_not_hermiticity_preserving(basis2):
    t = oracles.tensor_from_map(lambda x: 1j * x, 2)
    assert not oracles.is_hermiticity_preserving(superop_matrix(t, basis2), 1e-10)


def test_liouvillian_is_hermiticity_preserving(basis2):
    rng = np.random.default_rng(2)
    p = random_meq(2, rng)
    t = oracles.tensor_from_map(lambda x: apply(p, x, basis2), 2)
    assert oracles.is_hermiticity_preserving(superop_matrix(t, basis2), 1e-10)


def test_unitality(basis2, basis3):
    dep = MasterEqParams(hamiltonian=np.zeros((2, 2)), rates=dephasing_a())
    t = oracles.tensor_from_map(lambda x: apply(dep, x, basis2), 2)
    assert oracles.is_unital(t, 1e-10)
    ad = MasterEqParams(hamiltonian=np.zeros((2, 2)), rates=amplitude_damping_a())
    t = oracles.tensor_from_map(lambda x: apply(ad, x, basis2), 2)
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


def test_the_adjoint_stays_in_its_space_and_refuses_a_space_of_generators(basis2):
    rng = np.random.default_rng(8)
    p = MasterEqParams(hamiltonian=np.zeros((2, 2)), rates=amplitude_damping_a())
    # the adjoint of a non-unital generator is not trace-annihilating, so no space of generators holds it
    for space in (1, 2, 6):
        with pytest.raises(ValueError, match=f"^space {space} holds generators only, and the adjoint"):
            adjoint(phi(1, space, p, basis2))
    # space 3 reads the SuperopTensor of any superoperator as a generator: the adjoint is one, and space 3 refuses it
    with pytest.raises(ValueError, match="^not a Hermiticity-preserving .* flavor-x_tilde invariants"):
        phi(3, 1, adjoint(phi(1, 3, p, basis2)), basis2)
    t = _random_tensor(2, rng)
    for space, kind in ((4, SuperopTensor), (7, SuperopMatrix), (8, FAFRep)):
        adj = adjoint(phi(4, space, t, basis2))
        assert type(adj) is kind
        np.testing.assert_allclose(phi(space, 4, adj, basis2).entries, adjoint(t).entries, atol=1e-12)
    with pytest.raises(ValueError, match="^no space of phi holds a ndarray$"):
        adjoint(t.entries)
    with pytest.raises(ValueError, match="^no space of phi holds a ndarray$"):
        apply(t.entries, np.eye(2), basis2)
