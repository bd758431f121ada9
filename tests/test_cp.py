import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lindblad_ode import (
    MasterEqParams,
    OdePair,
    check_lindblad,
    coordinatize,
    cp_quadratic_form,
    forward_map,
    generate_gell_mann,
    q_from_h,
    sample_extreme_ray,
)

from conftest import (
    amplitude_damping_c,
    amplitude_damping_r,
    dephasing_a,
    dephasing_g,
    qutrit_ad_c,
    qutrit_ad_r,
    random_meq,
)


def test_dephasing_is_lindblad(basis2):
    rep = check_lindblad(OdePair(G=dephasing_g(), c=np.zeros(3)), basis2)
    assert rep.is_lindblad
    np.testing.assert_allclose(rep.eigenvalues, [2.0, 0.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(rep.a, dephasing_a(), atol=1e-12)
    assert rep.diagonal_form is not None


def test_shift_generator_is_not_lindblad(basis2):
    g = np.zeros((3, 3))
    g[0, 1] = 1.0
    rep = check_lindblad(OdePair(G=g, c=np.zeros(3)), basis2)
    assert not rep.is_lindblad
    assert rep.min_eigenvalue == pytest.approx(-0.5, abs=1e-12)
    assert not rep.marginal
    assert rep.diagonal_form is None


def test_qutrit_amplitude_damping_is_lindblad(basis3):
    rep = check_lindblad(OdePair(G=qutrit_ad_r(), c=qutrit_ad_c()), basis3)
    assert rep.is_lindblad
    assert rep.eigenvalues[0] == pytest.approx(2.0, abs=1e-10)
    np.testing.assert_allclose(rep.eigenvalues[1:], 0, atol=1e-10)


def test_check_lindblad_rejects_nan(basis2):
    g = np.zeros((3, 3))
    pair = OdePair(G=g, c=np.zeros(3))
    object.__setattr__(pair, "G", g * np.nan)
    with pytest.raises(ValueError):
        check_lindblad(pair, basis2)


@pytest.mark.parametrize("tol", [np.nan, -1.0, np.inf, True, pytest.param(2**1100, id="huge-int")])
def test_check_lindblad_rejects_a_tolerance_that_is_not_finite_and_non_negative(basis2, tol):
    # nan and -1 used to report the CP pair G = -I, c = 0 as not Lindblad
    pair = OdePair(G=-np.eye(3), c=np.zeros(3))
    assert check_lindblad(pair, basis2).is_lindblad
    with pytest.raises(ValueError, match=r"^tol must be a finite non-negative number, got "):
        check_lindblad(pair, basis2, tol=tol)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 6), st.integers(0, 2**32 - 1))
def test_quadratic_form_equals_bilinear(d, seed):
    rng = np.random.default_rng(seed)
    basis = generate_gell_mann(d)
    pair = OdePair(G=rng.normal(size=(basis.J, basis.J)), c=rng.normal(size=basis.J))
    a = check_lindblad(pair, basis).a
    big_b = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    big_b -= np.trace(big_b) / d * np.eye(d)
    bvec = coordinatize(big_b, basis)[1:]
    expected = (bvec.conj() @ a @ bvec).real
    assert cp_quadratic_form(pair, big_b, basis) == pytest.approx(expected, abs=1e-10)


def test_quadratic_form_negative_direction(basis2):
    g = np.zeros((3, 3))
    g[0, 1] = 1.0
    pair = OdePair(G=g, c=np.zeros(3))
    rep = check_lindblad(pair, basis2)
    w, v = np.linalg.eigh(rep.a)
    bvec = v[:, 0]  # eigenvector of the -1/2 eigenvalue
    big_b = np.einsum("m,mab->ab", bvec, basis2.traceless)
    val = cp_quadratic_form(pair, big_b, basis2)
    assert val == pytest.approx(-0.5 * np.linalg.norm(bvec) ** 2, abs=1e-10)


def test_quadratic_form_requires_traceless(basis2):
    pair = OdePair(G=np.zeros((3, 3)), c=np.zeros(3))
    with pytest.raises(ValueError):
        cp_quadratic_form(pair, np.eye(2), basis2)
    assert cp_quadratic_form(pair, np.zeros((2, 2)), basis2) == 0.0


def test_extreme_ray_amplitude_damping(basis2):
    gamma = 1.0
    lower = np.array([[0.0, 1.0], [0.0, 0.0]])
    ray = sample_extreme_ray(np.sqrt(2 * gamma) * lower, basis2)
    np.testing.assert_allclose(ray.G, amplitude_damping_r(gamma), atol=1e-12)
    np.testing.assert_allclose(ray.c, amplitude_damping_c(gamma), atol=1e-12)
    rep = check_lindblad(ray, basis2)
    assert rep.is_lindblad
    assert np.sum(rep.eigenvalues > 1e-9) == 1  # rank one


def test_extreme_ray_hermitian_operator_unital(basis2):
    ray = sample_extreme_ray(basis2.elements[3], basis2)
    np.testing.assert_allclose(ray.c, 0, atol=1e-12)
    ray0 = sample_extreme_ray(np.zeros((2, 2)), basis2)
    np.testing.assert_allclose(ray0.G, 0, atol=1e-14)


@pytest.mark.parametrize("n_rays,d,seed,n_combos", [(5, 2, 123, 50), (1, 3, 7, 5)])
def test_cone_hull_consistency(n_rays, d, seed, n_combos):
    # nonnegative combinations of extreme rays plus a Hamiltonian part stay in the Lindblad cone
    basis = generate_gell_mann(d)
    rng = np.random.default_rng(seed)
    rays = []
    for _ in range(n_rays):
        big_b = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        big_b -= np.trace(big_b) / d * np.eye(d)
        rays.append(sample_extreme_ray(big_b, basis))
    for _ in range(n_combos):
        weights = rng.uniform(0.0, 1.0, size=n_rays)
        g = sum(w * ray.G for w, ray in zip(weights, rays))
        c = sum(w * ray.c for w, ray in zip(weights, rays))
        h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        h = (h + h.conj().T) / 2
        g = g + q_from_h(h - np.trace(h).real / d * np.eye(d), basis)
        assert check_lindblad(OdePair(G=g, c=c), basis).is_lindblad


def test_leaving_the_cone_is_detected(basis2):
    rng = np.random.default_rng(8)
    rays = []
    for _ in range(4):
        big_b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        big_b -= np.trace(big_b) / 2 * np.eye(2)
        rays.append(sample_extreme_ray(big_b, basis2))
    g = sum(r.G for r in rays)
    c = sum(r.c for r in rays)
    inside = check_lindblad(OdePair(G=g, c=c), basis2)
    assert inside.is_lindblad
    # subtract one ray scaled past the smallest eigenvalue: leaves the cone
    out = OdePair(G=g - 10.0 * rays[0].G, c=c - 10.0 * rays[0].c)
    assert not check_lindblad(out, basis2).is_lindblad


@pytest.mark.parametrize("d", [2, 3])
def test_psd_and_planted_negative_rates(d):
    rng = np.random.default_rng(90 + d)
    basis = generate_gell_mann(d)
    for _ in range(10):
        p = random_meq(d, rng, psd=True)
        assert check_lindblad(forward_map(p, basis), basis).is_lindblad
        # plant a negative eigenvalue
        a = p.rates - (np.linalg.eigvalsh(p.rates)[-1] + 1e-2) * np.eye(basis.J)
        bad = MasterEqParams(hamiltonian=p.hamiltonian, rates=a)
        assert not check_lindblad(forward_map(bad, basis), basis).is_lindblad


def test_verdict_invariant_under_hamiltonian_part(basis2):
    rng = np.random.default_rng(3)
    p = random_meq(2, rng, psd=True)
    pair = forward_map(p, basis2)
    h2 = random_meq(2, rng).hamiltonian
    shifted = OdePair(G=pair.G + q_from_h(h2, basis2), c=pair.c)
    rep = check_lindblad(shifted, basis2)
    assert rep.is_lindblad
    np.testing.assert_allclose(rep.a, p.rates, atol=1e-10)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_hamiltonian_only_pair_has_zero_rates(d):
    # the a recovered from a Hamiltonian-only pair is rounding noise at the scale of G
    basis = generate_gell_mann(d)
    j = d * d - 1
    rng = np.random.default_rng(40 + d)
    for scale in (1e-3, 1.0, 1e3):
        h = scale * (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        report = check_lindblad(forward_map(MasterEqParams(h + h.conj().T, np.zeros((j, j))), basis), basis)
        assert report.is_lindblad
        np.testing.assert_array_equal(report.diagonal_form.gamma, np.zeros(j))
        # one rate of 1e-6 next to the same Hamiltonian is kept
        a = np.zeros((j, j))
        a[0, 0] = 1e-6
        report = check_lindblad(forward_map(MasterEqParams(h + h.conj().T, a), basis), basis)
        assert np.count_nonzero(report.diagonal_form.gamma) == 1
        assert report.diagonal_form.gamma[0] == pytest.approx(1e-6, rel=1e-6)
