"""The superoperator core against the explicit reference formulas in
`oracles`, and the forward/inverse round trip at larger d."""
import numpy as np
import pytest

import oracles
from lindblad_ode import (
    FAFRep,
    MasterEqParams,
    OdePair,
    SuperopTensor,
    a_from_gc,
    apply,
    apply_dissipator,
    c_from_a,
    check_lindblad,
    coordinatize,
    core,
    decompose_g,
    diagonalize_dissipator,
    evolve_density,
    forward_map,
    generate_gell_mann,
    h_from_g,
    inverse_map,
    liouvillian_matrix,
    phi,
    q_from_h,
    r_from_a,
    r_image_check,
    superop_matrix,
)
from lindblad_ode.tolerance import DATA as DATA_TOL

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
    assert_close(phi(4, 8, t, basis).c, oracles.faf_from_tensor(t, basis), scale)


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
    assert_close(apply(p, x, basis), oracles.apply_liouvillian(p, x, basis), scale)
    c = _complex(rng, j + 1, j + 1)
    assert_close(apply(FAFRep(c), x, basis), oracles.apply_faf(c, x, basis), _size(c) * _size(x))


@pytest.mark.parametrize("d", ORACLE_DIMS)
def test_quadratic_form_matches_oracle(d):
    rng = np.random.default_rng(1100 + d)
    basis = generate_gell_mann(d)
    pair = _random_pair(d, rng)
    a = inverse_map(pair, basis).rates
    for _ in range(3):
        big_b = _complex(rng, d, d)
        big_b -= np.trace(big_b) / d * np.eye(d)
        b = coordinatize(big_b, basis)[1:]
        want = oracles.cp_quadratic_form(pair, big_b, basis)
        assert_close(b.conj() @ a @ b, want, _size(pair.G, pair.c) * _size(big_b) ** 2)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_superop_hermitian_matches_oracle(d):
    rng = np.random.default_rng(1200 + d)
    basis = generate_gell_mann(d)
    j = d * d - 1
    y = rng.normal(size=(j, j))
    # a real symmetric a gives a Hermitian dissipator, a complex Hermitian a does not
    for a, hermitian in ((y + y.T, True), (random_meq(d, rng).rates, False)):
        verdict = oracles.dissipator_symmetry(a, basis)["superop_hermitian"]
        assert verdict == oracles.superop_hermitian(a, basis, DATA_TOL) == hermitian


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_image_dimensions_match_rank_oracle(d):
    basis = generate_gell_mann(d)
    assert oracles.closed_form_image_dimensions(basis.J) == oracles.image_dimensions(basis)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_stacked_core_equals_per_matrix_calls(d):
    rng = np.random.default_rng(900 + d)
    basis = generate_gell_mann(d)
    stack = rng.normal(size=(2, 3, d * d, d * d)) + 1j * rng.normal(size=(2, 3, d * d, d * d))
    for fn in (core.reshuffle, core.unreshuffle, lambda s: core.rates(s, basis)):
        got = fn(stack)
        for idx in np.ndindex(stack.shape[:2]):
            np.testing.assert_array_equal(got[idx], fn(stack[idx]))


def assert_same_bits(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_broadcast_superops_equal_the_kron_forms_bit_for_bit(d):
    rng = np.random.default_rng(950 + d)
    basis = generate_gell_mann(d)
    p = random_meq(d, rng)
    # signed zeros too: a product with 0 or 1 keeps or flips the sign of a zero
    for h in (p.hamiltonian, -0.0 * p.hamiltonian, np.eye(d)):
        assert_same_bits(core.hamiltonian_superop(h), oracles.kron_hamiltonian_superop(h))
    # a non-Hermitian a as well, as apply_dissipator takes one
    for a in (p.rates, _complex(rng, basis.J, basis.J), -0.0 * p.rates):
        assert_same_bits(core.dissipator_superop(a, basis), oracles.kron_dissipator_superop(a, basis))


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("lead", [(), (3,), (2, 3)])
def test_transpose_reshuffle_equals_the_moveaxis_form_bit_for_bit(d, lead):
    rng = np.random.default_rng(970 + d)
    m = _complex(rng, *lead, d * d, d * d)
    assert_same_bits(core.reshuffle(m), oracles.moveaxis_reshuffle(m))
    assert_same_bits(core.unreshuffle(m), oracles.moveaxis_unreshuffle(m))
    assert_same_bits(core.unreshuffle(core.reshuffle(m)), m)


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


_H3 = np.diag([1.0, 0.0, -1.0])
_P3 = MasterEqParams(hamiltonian=_H3, rates=np.eye(8))


@pytest.mark.parametrize(
    "fn, operands",
    [
        (forward_map, (_P3,)),
        (liouvillian_matrix, (_P3,)),
        (apply, (_P3, np.eye(3))),
        (apply_dissipator, (np.eye(8), np.eye(3))),
        (q_from_h, (_H3,)),
        (r_from_a, (np.eye(8),)),
        (c_from_a, (np.eye(8),)),
        (evolve_density, (_P3, np.eye(2) / 2, [0.0, 1.0])),
        (diagonalize_dissipator, (np.eye(8),)),
        (h_from_g, (-np.eye(8),)),
        (a_from_gc, (-np.eye(8), np.zeros(8))),
        (inverse_map, (OdePair(-np.eye(8), np.zeros(8)),)),
        (check_lindblad, (OdePair(-np.eye(8), np.zeros(8)),)),
        (decompose_g, (-np.eye(8),)),
        (r_image_check, (-np.eye(8),)),
    ],
    ids=lambda v: getattr(v, "__name__", None),
)
def test_maps_name_both_dimensions_given_a_basis_of_another_dimension(fn, operands):
    # d=3 operands with the d=2 basis; the core checks them where it first uses the basis
    with pytest.raises(ValueError, match="operand of dimension 3 does not match the basis of dimension 2"):
        fn(*operands, generate_gell_mann(2))


@pytest.mark.parametrize(
    "fn, operands",
    [
        (h_from_g, (-np.eye(4),)),
        (a_from_gc, (-np.eye(4), np.zeros(4))),
        (inverse_map, (OdePair(-np.eye(4), np.zeros(4)),)),
        (check_lindblad, (OdePair(-np.eye(4), np.zeros(4)),)),
        (decompose_g, (-np.eye(4),)),
        (r_image_check, (-np.eye(4),)),
    ],
    ids=lambda v: getattr(v, "__name__", None),
)
def test_inverse_maps_name_the_shape_of_a_g_of_no_dimension(fn, operands):
    # a 4 x 4 G is J x J for no d; the message named the (5, 5) Lhat built from it
    with pytest.raises(ValueError, match=r"^operand of shape \(4, 4\) does not match the basis of dimension 2$"):
        fn(*operands, generate_gell_mann(2))
