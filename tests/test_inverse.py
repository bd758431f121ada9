import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from lindblad_ode import (
    MasterEqParams,
    OdePair,
    SuperopTensor,
    Tensor4,
    a_from_gc,
    decompose_g,
    forward_map,
    generate_gell_mann,
    h_from_g,
    image_dimensions,
    inverse_map,
    phi,
    r_from_a,
    r_image_check,
)

from conftest import (
    amplitude_damping_a,
    amplitude_damping_h,
    dephasing_a,
    dephasing_g,
    qutrit_ad_a,
    qutrit_ad_c,
    qutrit_ad_r,
    qutrit_antisym_g,
    qutrit_antisym_h,
    qutrit_antisym_q,
    random_meq,
)


def test_h_recovery_amplitude_damping(basis2):
    rng_free = forward_map(
        inverse_map(OdePair(G=np.zeros((3, 3)), c=np.zeros(3)), basis2), basis2
    )
    assert np.allclose(rng_free.G, 0)
    omega = 1.0
    from lindblad_ode import MasterEqParams

    p = MasterEqParams(hamiltonian=amplitude_damping_h(omega), rates=amplitude_damping_a())
    pair = forward_map(p, basis2)
    np.testing.assert_allclose(h_from_g(pair.G, basis2), amplitude_damping_h(omega), atol=1e-12)


def test_h_from_symmetric_g_is_zero(basis3):
    rng = np.random.default_rng(0)
    g = rng.normal(size=(8, 8))
    np.testing.assert_allclose(h_from_g(g + g.T, basis3), 0, atol=1e-12)


def test_qutrit_h_and_q_recovery(basis3):
    g = qutrit_antisym_g()
    np.testing.assert_allclose(h_from_g(g, basis3), qutrit_antisym_h(), atol=1e-12)
    q, r = decompose_g(g, basis3)
    np.testing.assert_allclose(q, qutrit_antisym_q(), atol=1e-12)
    # Q is not the antisymmetric part of G here
    assert np.max(np.abs(q - g)) > 1e-3
    np.testing.assert_allclose(h_from_g(q, basis3), qutrit_antisym_h(), atol=1e-12)


def test_a_recovery_golden(basis2, basis3):
    np.testing.assert_allclose(
        a_from_gc(dephasing_g(), np.zeros(3), basis2), dephasing_a(), atol=1e-12
    )
    np.testing.assert_allclose(
        a_from_gc(qutrit_ad_r(), qutrit_ad_c(), basis3), qutrit_ad_a(), atol=1e-12
    )
    g12 = np.zeros((3, 3))
    g12[0, 1] = 1.0
    a = a_from_gc(g12, np.zeros(3), basis2)
    expected = np.zeros((3, 3))
    expected[0, 1] = expected[1, 0] = 0.5
    np.testing.assert_allclose(a, expected, atol=1e-12)
    np.testing.assert_allclose(sorted(np.linalg.eigvalsh(a)), [-0.5, 0.0, 0.5], atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 3), st.integers(0, 2**32 - 1))
def test_bijection_roundtrips(d, seed):
    rng = np.random.default_rng(seed)
    basis = generate_gell_mann(d)
    p = random_meq(d, rng)
    pair = forward_map(p, basis)
    back = inverse_map(pair, basis)
    np.testing.assert_allclose(back.hamiltonian, p.hamiltonian, atol=1e-10)
    np.testing.assert_allclose(back.rates, p.rates, atol=1e-10)
    again = forward_map(back, basis)
    np.testing.assert_allclose(again.G, pair.G, atol=1e-10)
    np.testing.assert_allclose(again.c, pair.c, atol=1e-10)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("space", [2, 3, 4, 5, 6])
def test_phi_roundtrip_every_space(d, space):
    rng = np.random.default_rng(100 * d + space)
    basis = generate_gell_mann(d)
    p = random_meq(d, rng)
    value = phi(1, space, p, basis)
    back = phi(space, 1, value, basis)
    np.testing.assert_allclose(back.hamiltonian, p.hamiltonian, atol=1e-9)
    np.testing.assert_allclose(back.rates, p.rates, atol=1e-9)


def test_phi_composed_route_matches_forward(basis2):
    rng = np.random.default_rng(11)
    p = random_meq(2, rng)
    via_phi = phi(1, 6, p, basis2)
    direct = forward_map(p, basis2)
    np.testing.assert_allclose(via_phi.G, direct.G, atol=1e-10)
    np.testing.assert_allclose(via_phi.c, direct.c, atol=1e-10)


def test_phi_validates_inputs(basis2):
    bad = Tensor4(entries=np.ones((2, 2, 2, 2)), flavor="x")
    with pytest.raises(ValueError):
        phi(2, 1, bad, basis2)
    with pytest.raises(ValueError):
        phi(0, 1, None, basis2)
    # a value of the wrong type for its space
    for src, dst, value in [
        (4, 6, np.zeros((2, 2, 2, 2))),
        (2, 1, np.zeros((2, 2, 2, 2))),
        (3, 6, SuperopTensor(np.zeros((2, 2, 2, 2)))),
    ]:
        with pytest.raises(ValueError, match=f"space {src} values must be"):
            phi(src, dst, value, basis2)
    # a d=3 value with the d=2 basis
    for src, value in [
        (1, MasterEqParams(hamiltonian=np.zeros((3, 3)), rates=np.zeros((8, 8)))),
        (2, Tensor4(entries=np.zeros((3, 3, 3, 3)), flavor="x")),
        (4, SuperopTensor(np.zeros((3, 3, 3, 3)))),
        (6, OdePair(G=np.zeros((8, 8)), c=np.zeros(8))),
    ]:
        with pytest.raises(ValueError, match="the basis has dimension 2"):
            phi(src, 6 if src != 6 else 1, value, basis2)


@pytest.mark.parametrize("d", [2, 3])
def test_produced_tensors_satisfy_invariants(d):
    rng = np.random.default_rng(50 + d)
    basis = generate_gell_mann(d)
    p = random_meq(d, rng)
    x = phi(1, 2, p, basis).entries
    np.testing.assert_allclose(x, x.conj().transpose(3, 2, 1, 0), atol=1e-10)
    np.testing.assert_allclose(
        np.einsum("ijkk->ij", x) + np.einsum("kkij->ij", x), 0, atol=1e-10
    )
    xt = phi(1, 3, p, basis).entries
    np.testing.assert_allclose(xt, xt.conj().transpose(3, 2, 1, 0), atol=1e-10)
    np.testing.assert_allclose(np.einsum("ijki->jk", xt), 0, atol=1e-10)


SPACE_PAIRS = [(s, t) for s in range(1, 7) for t in range(1, 7)]


def phi_cycle(p, s, t, basis):
    """(H, a) -> space s -> space t -> (H, a)."""
    return phi(t, 1, phi(s, t, phi(1, s, p, basis), basis), basis)


@pytest.mark.parametrize("d", [2, 3])
def test_all_cycles_commute(d):
    # the cycle through every ordered pair of spaces is the identity on (H, a)
    rng = np.random.default_rng(77 + d)
    basis = generate_gell_mann(d)
    for _ in range(5):
        p = random_meq(d, rng)
        scale = max(np.max(np.abs(p.hamiltonian)), np.max(np.abs(p.rates)))
        for s, t in SPACE_PAIRS:
            value = phi_cycle(p, s, t, basis)
            assert np.max(np.abs(value.hamiltonian - p.hamiltonian)) <= 1e-9 * scale
            assert np.max(np.abs(value.rates - p.rates)) <= 1e-9 * scale


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 3), st.integers(0, 2**32 - 1))
def test_h_formula_routes_agree(d, seed):
    rng = np.random.default_rng(seed)
    basis = generate_gell_mann(d)
    g = rng.normal(size=(basis.J, basis.J))
    np.testing.assert_allclose(h_from_g(g, basis), oracles.h_from_g_structure(g, basis), atol=1e-10)


@pytest.mark.parametrize("d", [2, 3])
def test_four_h_recovery_routes_agree(d):
    rng = np.random.default_rng(60 + d)
    basis = generate_gell_mann(d)
    p = random_meq(d, rng)
    pair = forward_map(p, basis)
    q, r = decompose_g(pair.G, basis)
    h_ref = p.hamiltonian
    np.testing.assert_allclose(h_from_g(pair.G, basis), h_ref, atol=1e-10)
    np.testing.assert_allclose(h_from_g(q, basis), h_ref, atol=1e-10)
    np.testing.assert_allclose(h_from_g((pair.G - pair.G.T) / 2, basis), h_ref, atol=1e-10)
    # subtracting any dissipative image element leaves the recovered H alone
    a_other = random_meq(d, rng).rates
    r_other = r_from_a(a_other, basis)
    np.testing.assert_allclose(h_from_g(pair.G - r_other, basis), h_ref, atol=1e-10)


def test_decompose_d2_q_is_antisymmetric_part(basis2):
    rng = np.random.default_rng(14)
    g = rng.normal(size=(3, 3))
    q, r = decompose_g(g, basis2)
    np.testing.assert_allclose(q, (g - g.T) / 2, atol=1e-12)
    np.testing.assert_allclose(r, r.T, atol=1e-12)


def test_decompose_symmetric_g_trivial(basis3):
    rng = np.random.default_rng(15)
    g = rng.normal(size=(8, 8))
    g = g + g.T
    q, r = decompose_g(g, basis3)
    np.testing.assert_allclose(q, 0, atol=1e-12)
    np.testing.assert_allclose(r, g, atol=1e-12)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_decompose_matches_structure_constant_oracle(d):
    rng = np.random.default_rng(17 + d)
    basis = generate_gell_mann(d)
    g = rng.normal(size=(basis.J, basis.J))
    q, r = decompose_g(g, basis)
    q_ref, r_ref = oracles.decompose_g(g, basis)
    np.testing.assert_allclose(q, q_ref, rtol=0, atol=1e-12)
    np.testing.assert_allclose(r, r_ref, rtol=0, atol=1e-12)


def test_r_image_check(basis3):
    rng = np.random.default_rng(16)
    sym = rng.normal(size=(8, 8))
    assert r_image_check(sym + sym.T, basis3)
    a = random_meq(3, rng).rates
    assert r_image_check(r_from_a(a, basis3), basis3)
    # a pure Hamiltonian Q encodes no dissipator and fails the image condition
    assert not r_image_check(qutrit_antisym_q(), basis3)


@pytest.mark.parametrize(
    "d,expected",
    [(1, (0, 0, 0)), (2, (6, 0, 0)), (3, (56, 20, 0)), (4, (210, 90, 0))],
)
def test_image_dimensions(d, expected):
    assert image_dimensions(generate_gell_mann(d)) == expected
