import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from lindblad_ode import (
    MasterEqParams,
    OdePair,
    apply,
    c_from_a,
    coordinatize,
    diagonalize_dissipator,
    evolve_density,
    forward_map,
    generate_gell_mann,
    inverse_map,
    liouvillian_matrix,
    phi,
    q_from_h,
    r_from_a,
    structure_constants,
)
from lindblad_ode import tolerance
from lindblad_ode.maps import _canonical_eig_order

from conftest import (
    amplitude_damping_a,
    amplitude_damping_c,
    amplitude_damping_h,
    amplitude_damping_q,
    amplitude_damping_r,
    dephasing_a,
    dephasing_g,
    qutrit_ad_a,
    qutrit_ad_c,
    qutrit_ad_r,
    random_density,
    random_meq,
)


def test_params_normalize_trace():
    h = np.diag([3.0, 1.0])
    p = MasterEqParams(hamiltonian=h, rates=np.zeros((3, 3)))
    assert abs(np.trace(p.hamiltonian)) < 1e-14
    assert p.trace_shift == pytest.approx(2.0)


def test_the_normal_form_moves_a_traceless_h_by_rounding_only():
    # not idempotent, as README.md says why: building MasterEqParams again from an inverse_map result subtracts the
    # rounding-sized trace that the first subtraction left, and moves H by at most eps * max|H|
    eps, moved = np.finfo(float).eps, 0
    for d in (3, 4, 5):
        basis, rng = generate_gell_mann(d), np.random.default_rng(d)
        for _ in range(20):
            p = inverse_map(OdePair(rng.normal(size=(basis.J, basis.J)), rng.normal(size=basis.J)), basis)
            again = MasterEqParams(p.hamiltonian, p.rates)
            scale = np.max(np.abs(p.hamiltonian))
            np.testing.assert_array_equal(again.rates, p.rates)
            assert np.max(np.abs(again.hamiltonian - p.hamiltonian)) <= eps * scale
            assert abs(again.trace_shift) <= eps * scale
            moved += np.any(again.hamiltonian != p.hamiltonian)
    assert moved > 0


def test_params_reject_non_hermitian():
    with pytest.raises(ValueError):
        MasterEqParams(hamiltonian=np.array([[0.0, 1.0], [0.0, 0.0]]), rates=np.zeros((3, 3)))
    with pytest.raises(ValueError):
        MasterEqParams(hamiltonian=np.zeros((2, 2)), rates=np.eye(3) * 1j)


@pytest.mark.parametrize("h", [5.0, np.zeros(2), np.zeros((2, 3))], ids=["0-d", "1-d", "not-square"])
def test_params_reject_a_hamiltonian_that_is_not_square(h):
    with pytest.raises(ValueError, match=r"^Hamiltonian H must have shape \(n, n\), got \("):
        MasterEqParams(hamiltonian=h, rates=np.zeros((3, 3)))


@pytest.mark.parametrize("h, a", [([[np.nan, 0], [0, 0]], np.zeros((3, 3))), (np.zeros((2, 2)), np.full((3, 3), np.inf))])
def test_params_reject_non_finite(h, a):
    with pytest.raises(ValueError, match="must be finite"):
        MasterEqParams(hamiltonian=np.array(h), rates=a)


def test_ode_pair_rejects_an_imaginary_part_and_names_it():
    # a float conversion would drop it with only a ComplexWarning and store G = -I
    with pytest.raises(ValueError, match=r"^G has imaginary residue 1\.000e\+00$"):
        OdePair(G=-np.eye(3) + 1j * np.eye(3), c=np.zeros(3))
    with pytest.raises(ValueError, match=r"^c has imaginary residue 2\.000e-06$"):
        OdePair(G=-np.eye(3), c=np.array([0.0, 2e-6j, 0.0]))
    with pytest.raises(ValueError, match=r"^c must be finite$"):
        OdePair(G=-np.eye(3), c=np.array([0.0, complex(0.0, np.inf), 0.0]))


def test_ode_pair_drops_a_negligible_imaginary_part_without_a_warning():
    g = np.arange(9.0).reshape(3, 3) * 1e3
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # 1e-9 * max(1, 8e3) is the bound on G's residue, 1e-9 the bound on c's
        pair = OdePair(G=g + 7e-6j, c=np.ones(3) + 1e-10j)
    assert pair.G.dtype == float and pair.c.dtype == float
    np.testing.assert_array_equal(pair.G, g)
    np.testing.assert_array_equal(pair.c, np.ones(3))


def test_dephasing_action_on_sigma_x(basis2):
    gamma = 0.6
    p = MasterEqParams(hamiltonian=np.zeros((2, 2)), rates=dephasing_a(gamma))
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    np.testing.assert_allclose(apply(p, sx, basis2), -2 * gamma * sx, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 6), st.integers(0, 2**32 - 1))
def test_liouvillian_output_traceless_and_hermitian(d, seed):
    rng = np.random.default_rng(seed)
    basis = generate_gell_mann(d)
    p = random_meq(d, rng)
    x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    x = (x + x.conj().T) / 2
    out = apply(p, x, basis)
    assert abs(np.trace(out)) < 1e-12
    np.testing.assert_allclose(out, out.conj().T, atol=1e-12)


def test_symmetric_rates_annihilate_identity(basis3):
    rng = np.random.default_rng(7)
    a = rng.normal(size=(8, 8))
    a = a + a.T
    p = MasterEqParams(hamiltonian=np.zeros((3, 3)), rates=a)
    np.testing.assert_allclose(apply(p, np.eye(3), basis3), 0, atol=1e-12)


def test_qubit_hamiltonian_q(basis2):
    omega = 1.4
    q = q_from_h(amplitude_damping_h(omega), basis2)
    np.testing.assert_allclose(q, amplitude_damping_q(omega), atol=1e-12)
    np.testing.assert_allclose(q, -q.T, atol=1e-12)


def test_golden_forward_maps(basis2, basis3):
    gamma = 1.0
    np.testing.assert_allclose(r_from_a(dephasing_a(gamma), basis2), dephasing_g(gamma), atol=1e-12)
    np.testing.assert_allclose(c_from_a(dephasing_a(gamma), basis2), 0, atol=1e-12)
    np.testing.assert_allclose(r_from_a(amplitude_damping_a(gamma), basis2), amplitude_damping_r(gamma), atol=1e-12)
    np.testing.assert_allclose(c_from_a(amplitude_damping_a(gamma), basis2), amplitude_damping_c(gamma), atol=1e-12)
    np.testing.assert_allclose(r_from_a(qutrit_ad_a(), basis3), qutrit_ad_r(), atol=1e-12)
    np.testing.assert_allclose(c_from_a(qutrit_ad_a(), basis3), qutrit_ad_c(), atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 6), st.integers(0, 2**32 - 1))
def test_c_formulas_agree_and_real(d, seed):
    rng = np.random.default_rng(seed)
    basis = generate_gell_mann(d)
    a = random_meq(d, rng).rates
    c1 = c_from_a(a, basis)
    c2 = oracles.c_from_a_structure(a, basis)
    np.testing.assert_allclose(c1, c2, atol=1e-12)


def test_symmetric_a_gives_zero_c(basis3):
    rng = np.random.default_rng(9)
    a = rng.normal(size=(8, 8))
    np.testing.assert_allclose(c_from_a(a + a.T, basis3), 0, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 6), st.integers(0, 2**32 - 1))
def test_hamiltonian_coords_recovered_from_q(d, seed):
    rng = np.random.default_rng(seed)
    basis = generate_gell_mann(d)
    h = random_meq(d, rng).hamiltonian
    q = q_from_h(h, basis)
    f = structure_constants(basis).f
    hm = -np.einsum("jkm,jk->m", f, q) / (2 * d)
    np.testing.assert_allclose(hm, coordinatize(h, basis)[1:], atol=1e-10)


def test_liouvillian_matrix_block_form(basis2):
    gamma, omega = 0.8, 1.2
    p = MasterEqParams(hamiltonian=amplitude_damping_h(omega), rates=amplitude_damping_a(gamma))
    lmat = liouvillian_matrix(p, basis2)
    pair = forward_map(p, basis2)
    np.testing.assert_allclose(lmat[0], 0, atol=1e-14)
    np.testing.assert_allclose(lmat[1:, 0], np.sqrt(2) * pair.c, atol=1e-14)
    np.testing.assert_allclose(lmat[1:, 1:], pair.G, atol=1e-14)
    # dephasing gives a diagonal Liouvillian matrix
    pd = MasterEqParams(hamiltonian=np.zeros((2, 2)), rates=dephasing_a(gamma))
    np.testing.assert_allclose(liouvillian_matrix(pd, basis2), np.diag([0, -2 * gamma, -2 * gamma, 0]), atol=1e-12)


@pytest.mark.parametrize("d", [2, 3])
def test_spectrum_relation_random(d):
    rng = np.random.default_rng(20 + d)
    basis = generate_gell_mann(d)
    for _ in range(25):
        assert oracles.spectrum_relation(random_meq(d, rng), basis)


def test_pure_hamiltonian_spectrum_imaginary(basis2):
    p = MasterEqParams(hamiltonian=amplitude_damping_h(1.0), rates=np.zeros((3, 3)))
    pair = forward_map(p, basis2)
    assert np.max(np.abs(np.linalg.eigvals(pair.G).real)) < 1e-12


def test_diagonalize_dissipator_amplitude_damping(basis2):
    gamma = 0.9
    diag = diagonalize_dissipator(amplitude_damping_a(gamma), basis2)
    np.testing.assert_allclose(diag.gamma, [2 * gamma, 0.0, 0.0], atol=1e-12)
    # the top eigenvector yields a lowering operator |0><1| up to phase
    top = diag.lindblad_ops[0]
    target = np.array([[0.0, 1.0], [0.0, 0.0]])
    overlap = abs(np.trace(top.conj().T @ target)) / (np.linalg.norm(top) * np.linalg.norm(target))
    assert overlap == pytest.approx(1.0, abs=1e-10)


def test_diagonalize_dissipator_reconstructs_action(basis3):
    rng = np.random.default_rng(33)
    a = random_meq(3, rng).rates
    diag = diagonalize_dissipator(a, basis3)
    p = MasterEqParams(hamiltonian=np.zeros((3, 3)), rates=a)
    for _ in range(5):
        x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        direct = apply(p, x, basis3)
        rebuilt = sum(
            g * (op @ x @ op.conj().T - 0.5 * (op.conj().T @ op @ x + x @ op.conj().T @ op))
            for g, op in zip(diag.gamma, diag.lindblad_ops)
        )
        np.testing.assert_allclose(rebuilt, direct, atol=1e-10)


def test_diagonalize_dissipator_deterministic_and_snapped(basis3):
    a = qutrit_ad_a()
    d1 = diagonalize_dissipator(a, basis3)
    d2 = diagonalize_dissipator(a, basis3)
    np.testing.assert_array_equal(d1.gamma, d2.gamma)
    for o1, o2 in zip(d1.lindblad_ops, d2.lindblad_ops):
        np.testing.assert_array_equal(o1, o2)
    # eigenvalues 2 and exact zeros (7-fold)
    assert d1.gamma[0] == pytest.approx(2.0, abs=1e-12)
    assert np.all(d1.gamma[1:] == 0.0)


@pytest.mark.parametrize("entry", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_diagonalize_dissipator_rejects_a_non_finite_rate_matrix(basis2, entry):
    # eigh would raise LinAlgError: Eigenvalues did not converge
    a = np.eye(3, dtype=complex)
    a[1, 1] = entry
    with pytest.raises(ValueError, match=r"^rate matrix a must be finite$"):
        diagonalize_dissipator(a, basis2)


@pytest.mark.parametrize("transpose", [False, True], ids=["upper", "lower"])
def test_diagonalize_dissipator_rejects_a_rate_matrix_that_is_not_hermitian(basis2, transpose):
    # eigh reads the lower triangle alone: gamma was (1, 1, 1) for this a and (6, 1, -4) for its transpose
    a = np.array([[1.0, 5.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(ValueError, match=r"^rate matrix is not Hermitian$"):
        diagonalize_dissipator(a.T if transpose else a, basis2)
    # a residue negligible at tolerance.DATA is accepted, as MasterEqParams accepts it
    a = np.eye(3) + np.triu(np.full((3, 3), 1e-12), 1)
    np.testing.assert_allclose(diagonalize_dissipator(a, basis2).gamma, np.ones(3), rtol=1e-12)

@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_diagonalize_dissipator_matches_per_column_oracle(d):
    basis = generate_gell_mann(d)
    j = basis.J
    rng = np.random.default_rng(100 + d)
    q, _ = np.linalg.qr(rng.normal(size=(j, j)) + 1j * rng.normal(size=(j, j)))
    cases = [
        random_meq(d, rng, psd=True).rates,
        random_meq(d, rng).rates,
        # degenerate clusters, so the tie-break reorders columns
        (q * rng.choice([0.0, 1.0, 2.0], size=j)) @ q.conj().T,
        np.diag(rng.choice([0.0, 3.0], size=j)).astype(complex),
    ]
    if d == 3:
        cases.append(qutrit_ad_a())
    for a in cases:
        diag = diagonalize_dissipator(a, basis)
        gamma, vectors, ops = oracles.diagonalize_dissipator(a, basis)
        assert diag.gamma.tobytes() == gamma.tobytes()
        assert _canonical_eig_order(*np.linalg.eigh(np.asarray(a, dtype=complex)))[1].tobytes() == vectors.tobytes()
        assert isinstance(diag.lindblad_ops, list) and len(diag.lindblad_ops) == len(ops)
        for op, ref in zip(diag.lindblad_ops, ops):
            assert np.max(np.abs(op - ref)) <= 1e-15 * max(1.0, np.max(np.abs(ref)))


def _eig_order_cases(n, rng):
    """(w, v) pairs for the eigenvector tie-break: eigh of a = 0, of forced and near clusters, of random
    data, each at three scales, and hand-made columns whose rounded keys tie."""
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    # eigenvalues 1, 1 + 0.6 cut, 1 + 1.2 cut, ...: every adjacent gap is within the cut, no run of three is
    chain = 1.0 + 0.6e-12 * np.arange(n)
    mats = [
        np.zeros((n, n)),
        (q * rng.choice([0.0, 1.0, 2.0], size=n)) @ q.conj().T,
        np.diag(rng.choice([0.0, 3.0], size=n)),
        (q * chain) @ q.conj().T,
        random_meq(2, rng).rates if n == 3 else q @ np.diag(rng.normal(size=n)) @ q.conj().T,
    ]
    cases = [np.linalg.eigh(scale * np.asarray(a, dtype=complex)) for a in mats for scale in (1e-8, 1.0, 1e8)]
    x = q[:, 0]
    cols = [x, x + 1e-13, q[:, -1], x][:n]
    cases.append((np.zeros(len(cols)), np.stack(cols, axis=1)))
    # Re of row 1 ties, so Im of row 1 orders these two before row 2 can
    cols = np.zeros((n, 2), dtype=complex)
    cols[:3] = [[1.0, 1.0], [0.2j, 0.5j], [0.3, 0.1]][:n]
    cases.append((np.zeros(2), cols))
    return cases


@pytest.mark.parametrize("n", [1, 3, 8, 15, 24])
def test_canonical_eig_order_equals_loop_oracle(n):
    # n = 1 and J at d = 2..5; at d = 1 (J = 0) _diagonal_form returns before the tie-break
    rng = np.random.default_rng(40 + n)
    for w, v in _eig_order_cases(n, rng):
        got_w, got_v = _canonical_eig_order(w, v)
        ref_w, ref_v = oracles.canonical_eig_order(w, v)
        assert got_w.tobytes() == ref_w.tobytes()
        assert got_v.tobytes() == ref_v.tobytes()


def test_hermitian_dissipator_checks(basis2):
    rng = np.random.default_rng(4)
    sym = rng.normal(size=(3, 3))
    sym = sym + sym.T
    assert set(oracles.dissipator_symmetry(sym, basis2).values()) == {True}
    # for amplitude damping R is symmetric yet c != 0: the conjunction fails with the others
    assert set(oracles.dissipator_symmetry(amplitude_damping_a(), basis2).values()) == {False}
    assert set(oracles.dissipator_symmetry(np.zeros((3, 3)), basis2).values()) == {True}


@pytest.mark.parametrize("d", [3, 4, 5])
def test_forward_map_accepts_large_generators(d):
    # the imaginary residue that forward_map drops grows with the data, and so does its bound
    rng = np.random.default_rng(900 + d)
    basis = generate_gell_mann(d)
    for _ in range(5):
        p = random_meq(d, rng, psd=True)
        big = MasterEqParams(hamiltonian=1e4 * p.hamiltonian, rates=1e4 * p.rates)
        pair = forward_map(big, basis)
        back = inverse_map(pair, basis)
        scale = np.max(np.abs(big.rates))
        assert np.max(np.abs(back.rates - big.rates)) <= 1e-12 * scale
        assert np.max(np.abs(back.hamiltonian - big.hamiltonian)) <= 1e-12 * scale


def _with_hermiticity_defect(m, rng):
    """m plus 0.9 DATA max(1, max|m|) at one off-diagonal entry: a defect m - m^dag just inside its bound."""
    m = m.copy()
    i, j = rng.choice(len(m), 2, replace=False)
    m[i, j] += 0.9 * tolerance.bound(tolerance.magnitude(m), tolerance.DATA)
    return m


def _generators(d, rng):
    """Random (H, a) at scales 1e-3, 1 and 1e3, each exactly Hermitian and with a negligible defect planted."""
    for scale in (1e-3, 1.0, 1e3):
        p = random_meq(d, rng)
        h, a = scale * p.hamiltonian, scale * p.rates
        yield MasterEqParams(h, a)
        yield MasterEqParams(_with_hermiticity_defect(h, rng), _with_hermiticity_defect(a, rng))


def test_forward_map_is_phi_from_space_1_to_6():
    # forward_map added Q and R, each read from its own superoperator, and its G differed in the last bits
    rng = np.random.default_rng(60)
    for d in range(1, 6):
        basis = generate_gell_mann(d)
        for _ in range(3):
            p = random_meq(d, rng)
            pair, via_phi = forward_map(p, basis), phi(1, 6, p, basis)
            assert pair.G.tobytes() == via_phi.G.tobytes()
            assert pair.c.tobytes() == via_phi.c.tobytes()


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_forward_map_splits_into_q_from_h_and_r_from_a(d):
    # OdePair no longer carries Q and R; the public maps give them for every generator MasterEqParams admits
    rng = np.random.default_rng(70 + d)
    basis = generate_gell_mann(d)
    for p in _generators(d, rng):
        pair = forward_map(p, basis)
        atol = tolerance.bound(tolerance.magnitude(pair.G), tolerance.ROUNDING)
        np.testing.assert_allclose(pair.G, q_from_h(p.hamiltonian, basis) + r_from_a(p.rates, basis), rtol=0, atol=atol)
        np.testing.assert_allclose(pair.c, c_from_a(p.rates, basis), rtol=0, atol=atol)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_a_negligible_hermiticity_defect_is_dropped_on_every_forward_path(d):
    # MasterEqParams admitted the defect at DATA, then forward_map, liouvillian_matrix and evolve_density
    # refused it: "(R, c) has imaginary residue ...", judged at ROUNDING
    rng = np.random.default_rng(80 + d)
    basis = generate_gell_mann(d)
    rho0 = random_density(d, rng)
    for scale in (1e-3, 1.0, 1e3):
        exact = random_meq(d, rng)
        h, a = scale * exact.hamiltonian, scale * exact.rates
        p = MasterEqParams(_with_hermiticity_defect(h, rng), _with_hermiticity_defect(a, rng))
        # each is stored as its Hermitian part, Hermitian to the last bit
        assert np.array_equal(p.hamiltonian, p.hamiltonian.conj().T)
        assert np.array_equal(p.rates, p.rates.conj().T)
        g = forward_map(MasterEqParams(h, a), basis).G
        atol = tolerance.bound(tolerance.magnitude(g), 10 * tolerance.DATA)
        np.testing.assert_allclose(forward_map(p, basis).G, g, rtol=0, atol=atol)
        np.testing.assert_allclose(liouvillian_matrix(p, basis)[1:, 1:], g, rtol=0, atol=atol)
        states = evolve_density(p, rho0, [0.0, 0.1 / scale], basis)
        np.testing.assert_allclose(states[0], rho0, atol=1e-12)
