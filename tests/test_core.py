"""The superoperator core against the explicit reference formulas in
`oracles`, and the forward/inverse round trip at larger d."""
import numpy as np
import pytest

import oracles
from lindblad_ode import (
    FAFRep,
    OdePair,
    SuperopTensor,
    a_from_gc,
    apply_dissipator,
    apply_faf,
    apply_liouvillian,
    c_from_a,
    core,
    cp_quadratic_form,
    faf_from_tensor,
    forward_map,
    generate_gell_mann,
    h_from_g,
    hermitian_dissipator_checks,
    image_dimensions,
    inverse_map,
    phi,
    q_from_h,
    r_from_a,
    superop_matrix,
)
from lindblad_ode.basis import DATA_TOL

from conftest import random_meq

ORACLE_DIMS = [2, 3, 4, 5]
ROUNDTRIP_DIMS = [4, 5, 6]


def assert_close(got, want, scale):
    err = float(np.max(np.abs(np.asarray(got) - np.asarray(want)), initial=0.0))
    assert err <= 1e-12 * max(1.0, scale), f"error {err:.3e} at data scale {scale:.3g}"


def _size(*arrays):
    return max(float(np.max(np.abs(x), initial=0.0)) for x in arrays)


def _complex(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _random_pair(d, rng):
    j = d * d - 1
    return OdePair(G=rng.normal(size=(j, j)), c=rng.normal(size=j))


@pytest.mark.parametrize("d", ORACLE_DIMS)
def test_forward_matches_oracles(d):
    rng = np.random.default_rng(300 + d)
    basis = generate_gell_mann(d)
    p = random_meq(d, rng)
    scale = _size(p.hamiltonian, p.rates)
    q = oracles.q_from_h(p.hamiltonian, basis)
    r = oracles.r_from_a(p.rates, basis)
    c = oracles.c_from_a(p.rates, basis)
    assert_close(q_from_h(p.hamiltonian, basis), q, scale)
    assert_close(r_from_a(p.rates, basis), r, scale)
    assert_close(c_from_a(p.rates, basis), c, scale)
    pair = forward_map(p, basis)
    assert_close(pair.G, q + r, scale)
    assert_close(pair.c, c, scale)


@pytest.mark.parametrize("d", ORACLE_DIMS)
def test_inverse_matches_oracles(d):
    rng = np.random.default_rng(400 + d)
    basis = generate_gell_mann(d)
    pair = _random_pair(d, rng)
    scale = _size(pair.G, pair.c)
    assert_close(a_from_gc(pair.G, pair.c, basis), oracles.a_from_gc(pair.G, pair.c, basis), scale)
    assert_close(h_from_g(pair.G, basis), oracles.h_from_g(pair.G, basis), scale)
    back = inverse_map(pair, basis)
    assert_close(back.rates, oracles.a_from_gc(pair.G, pair.c, basis), scale)
    assert_close(back.hamiltonian, oracles.h_from_g(pair.G, basis), scale)


@pytest.mark.parametrize("d", ORACLE_DIMS)
def test_phi_matches_oracles(d):
    rng = np.random.default_rng(500 + d)
    basis = generate_gell_mann(d)
    p = random_meq(d, rng)
    scale = _size(p.hamiltonian, p.rates)
    assert_close(phi(1, 2, p, basis).entries, oracles.meq_to_x(p, basis).entries, scale)
    pair = forward_map(p, basis)
    assert_close(phi(6, 2, pair, basis).entries, oracles.gc_to_x(pair, basis).entries, scale)
    via_oracle = oracles.superop_to_gc(phi(1, 4, p, basis), basis)
    assert_close(via_oracle.G, pair.G, scale)
    assert_close(via_oracle.c, pair.c, scale)
    via_phi = phi(4, 6, phi(1, 4, p, basis), basis)
    assert_close(via_phi.G, pair.G, scale)
    assert_close(via_phi.c, pair.c, scale)


@pytest.mark.parametrize("d", ORACLE_DIMS)
def test_superop_conversions_match_oracles(d):
    rng = np.random.default_rng(600 + d)
    basis = generate_gell_mann(d)
    t = SuperopTensor(rng.normal(size=(d,) * 4) + 1j * rng.normal(size=(d,) * 4))
    scale = _size(t.entries)
    assert_close(superop_matrix(t, basis).entries, oracles.superop_matrix(t, basis), scale)
    assert_close(faf_from_tensor(t, basis).c, oracles.faf_from_tensor(t, basis), scale)


@pytest.mark.parametrize("d", ORACLE_DIMS)
def test_actions_match_oracles(d):
    rng = np.random.default_rng(1000 + d)
    basis = generate_gell_mann(d)
    j = d * d - 1
    x = _complex(rng, d, d)
    p = random_meq(d, rng)
    # a non-Hermitian a is a valid input to apply_dissipator
    for a in (p.rates, _complex(rng, j, j)):
        assert_close(apply_dissipator(a, x, basis), oracles.apply_dissipator(a, x, basis), _size(a) * _size(x))
    scale = _size(p.hamiltonian, p.rates) * _size(x)
    assert_close(apply_liouvillian(p, x, basis), oracles.apply_liouvillian(p, x, basis), scale)
    c = _complex(rng, j + 1, j + 1)
    assert_close(apply_faf(FAFRep(c), x, basis), oracles.apply_faf(c, x, basis), _size(c) * _size(x))


@pytest.mark.parametrize("d", ORACLE_DIMS)
def test_quadratic_form_matches_oracle(d):
    rng = np.random.default_rng(1100 + d)
    basis = generate_gell_mann(d)
    pair = _random_pair(d, rng)
    for _ in range(3):
        big_b = _complex(rng, d, d)
        big_b -= np.trace(big_b) / d * np.eye(d)
        want = oracles.cp_quadratic_form(pair, big_b, basis)
        assert_close(cp_quadratic_form(pair, big_b, basis), want.real, _size(pair.G, pair.c) * _size(big_b) ** 2)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_superop_hermitian_matches_oracle(d):
    rng = np.random.default_rng(1200 + d)
    basis = generate_gell_mann(d)
    j = d * d - 1
    y = rng.normal(size=(j, j))
    # a real symmetric a gives a Hermitian dissipator, a complex Hermitian a does not
    for a, hermitian in ((y + y.T, True), (random_meq(d, rng).rates, False)):
        verdict = hermitian_dissipator_checks(a, basis).superop_hermitian
        assert verdict == oracles.superop_hermitian(a, basis, DATA_TOL) == hermitian


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_image_dimensions_match_rank_oracle(d):
    basis = generate_gell_mann(d)
    assert image_dimensions(basis) == oracles.image_dimensions(basis)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_stacked_core_equals_per_matrix_calls(d):
    rng = np.random.default_rng(900 + d)
    basis = generate_gell_mann(d)
    stack = rng.normal(size=(2, 3, d * d, d * d)) + 1j * rng.normal(size=(2, 3, d * d, d * d))
    for fn in (core.reshuffle, core.unreshuffle, lambda s: core.rates(s, basis)):
        got = fn(stack)
        for idx in np.ndindex(stack.shape[:2]):
            np.testing.assert_array_equal(got[idx], fn(stack[idx]))


@pytest.mark.parametrize("d", ROUNDTRIP_DIMS)
@pytest.mark.parametrize("psd", [False, True])
def test_roundtrip_from_master_equation(d, psd):
    rng = np.random.default_rng(700 + 10 * d + psd)
    basis = generate_gell_mann(d)
    for _ in range(3):
        p = random_meq(d, rng, psd=psd)
        back = inverse_map(forward_map(p, basis), basis)
        scale = _size(p.hamiltonian, p.rates)
        assert_close(back.hamiltonian, p.hamiltonian, scale)
        assert_close(back.rates, p.rates, scale)


@pytest.mark.parametrize("d", ROUNDTRIP_DIMS)
def test_roundtrip_from_ode_pair(d):
    rng = np.random.default_rng(800 + d)
    basis = generate_gell_mann(d)
    for _ in range(3):
        pair = _random_pair(d, rng)
        again = forward_map(inverse_map(pair, basis), basis)
        scale = _size(pair.G, pair.c)
        assert_close(again.G, pair.G, scale)
        assert_close(again.c, pair.c, scale)
