"""Verdicts on scaled data.

A generator in other units is the same generator: scaling (H, a) by s scales
(G, c), the tensors and the spectra by s, and every verdict (Hermitian,
traceless, CP, rank, eigenvalue cluster) must stay the same. Bounds of the
form rtol * max(1, scale) keep that promise above scale 1; ranks and clusters
cut at rtol * sigma_max keep it at every scale.
"""
import json

import numpy as np
import pytest

import oracles
from lindblad_ode import (
    MasterEqParams,
    check_lindblad,
    diagonalize_dissipator,
    forward_map,
    generate_gell_mann,
    inverse_map,
    phi,
    sample_extreme_ray,
)
from lindblad_ode.cli import main

SCALES = (1e-6, 1e6)
DIMS = (2, 3, 4, 5)
SEEDS = range(10)


def _cp_meq(d, seed, scale):
    """Random CP (H, a) of scale `scale`; a = B B^dag / J has rank about J/2, so zero eigenvalues occur."""
    rng = np.random.default_rng(seed)
    j = d * d - 1
    h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    b = rng.normal(size=(j, j // 2 + 1)) + 1j * rng.normal(size=(j, j // 2 + 1))
    a = b @ b.conj().T / j
    return MasterEqParams(hamiltonian=scale * (h + h.conj().T) / 2, rates=scale * (a + a.conj().T) / 2)


def _traceless(d, seed, scale):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return scale * (m - np.trace(m) / d * np.eye(d))


def _assert_recovers(back, params, scale):
    np.testing.assert_allclose(back.hamiltonian, params.hamiltonian, rtol=0, atol=1e-12 * scale)
    np.testing.assert_allclose(back.rates, params.rates, rtol=0, atol=1e-12 * scale)


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("d", DIMS)
def test_inverse_recovers_scaled_cp_generators(d, scale):
    basis = generate_gell_mann(d)
    for seed in SEEDS:
        params = _cp_meq(d, seed, scale)
        pair = forward_map(params, basis)
        _assert_recovers(inverse_map(pair, basis), params, scale)
        _assert_recovers(phi(6, 1, pair, basis), params, scale)


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("d", DIMS)
def test_scaled_cp_generators_are_lindblad(d, scale):
    basis = generate_gell_mann(d)
    for seed in SEEDS:
        params = _cp_meq(d, seed, scale)
        pair = forward_map(params, basis)
        rep = check_lindblad(pair, basis)
        assert rep.is_lindblad
        np.testing.assert_allclose(rep.a, params.rates, rtol=0, atol=1e-12 * scale)
        phi6 = phi(1, 6, params, basis)
        np.testing.assert_allclose(phi6.G, pair.G, rtol=0, atol=1e-12 * scale)


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("d", DIMS)
def test_spectrum_relation_holds_for_scaled_generators(d, scale):
    basis = generate_gell_mann(d)
    for seed in SEEDS:
        assert oracles.spectrum_relation(_cp_meq(d, seed, scale), basis)


@pytest.mark.parametrize("d", DIMS)
def test_hermitian_dissipator_checks_accept_scaled_rates(d):
    # a product B B^dag at scale 1e8 misses exact Hermiticity by far more than 1e-9
    basis = generate_gell_mann(d)
    j = d * d - 1
    rng = np.random.default_rng(d)
    b = rng.normal(size=(j, j)) + 1j * rng.normal(size=(j, j))
    a = 1e8 * b @ b.conj().T
    assert np.max(np.abs(a - a.conj().T)) > 1e-9
    assert set(oracles.dissipator_symmetry(a, basis).values()) == {False}
    sym = 1e8 * (b.real @ b.real.T)
    assert set(oracles.dissipator_symmetry(sym, basis).values()) == {True}


def _cli(tmp_path, argv, payload):
    inp = tmp_path / "in.json"
    inp.write_text(json.dumps(payload))
    out = tmp_path / "out.json"
    code = main(argv + ["--in", str(inp), "--out", str(out)])
    return code, json.loads(out.read_text()) if code == 0 else None


def _complex(m):
    return [[[float(x.real), float(x.imag)] for x in row] for row in m]


def _from_complex(rows):
    return np.array([[re + 1j * im for re, im in row] for row in rows])


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("d", DIMS)
def test_cli_inverse_and_roundtrip_of_scaled_generators(d, scale, tmp_path):
    basis = generate_gell_mann(d)
    for seed in SEEDS:
        params = _cp_meq(d, seed, scale)
        pair = forward_map(params, basis)
        code, out = _cli(tmp_path, ["inverse", "--dim", str(d)], {"G": pair.G.tolist(), "c": pair.c.tolist()})
        assert code == 0
        np.testing.assert_allclose(_from_complex(out["a"]), params.rates, rtol=0, atol=1e-12 * scale)
        code, out = _cli(
            tmp_path, ["roundtrip", "--dim", str(d)], {"H": _complex(params.hamiltonian), "a": _complex(params.rates)}
        )
        assert code == 0
        assert out["max_error_a"] <= 1e-12 * scale
        code, out = _cli(tmp_path, ["check-cp", "--dim", str(d)], {"G": pair.G.tolist(), "c": pair.c.tolist()})
        assert code == 0 and out["is_lindblad"]


@pytest.mark.parametrize("d", DIMS)
def test_quadratic_form_and_extreme_ray_accept_scaled_traceless_b(d):
    basis = generate_gell_mann(d)
    params = _cp_meq(d, 0, 1.0)
    pair = forward_map(params, basis)
    a = inverse_map(pair, basis).rates
    for seed in range(20):
        big_b = _traceless(d, 100 + seed, 1e8)
        b = np.einsum("iab,ba->i", basis.traceless, big_b)
        expected = (b.conj() @ a @ b).real
        assert oracles.cp_quadratic_form(pair, big_b, basis) == pytest.approx(expected, rel=1e-10)
        ray = sample_extreme_ray(big_b, basis)
        assert check_lindblad(ray, basis).is_lindblad


@pytest.mark.parametrize("scale", SCALES)
def test_diagonal_form_is_scale_equivariant(scale, basis2):
    # distinct rates 1e-7 apart (relative): at scale 1e-6 they differ by 1e-13,
    # which an absolute 1e-12 cluster cut merges, mispairing rates and operators
    rng = np.random.default_rng(0)
    u, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    a = u @ np.diag([1.0, 1.0 + 1e-7, 0.5]) @ u.conj().T
    ref = diagonalize_dissipator(a, basis2)
    scaled = diagonalize_dissipator(scale * a, basis2)
    np.testing.assert_allclose(scaled.gamma, scale * ref.gamma, rtol=1e-12)
    np.testing.assert_allclose(np.array(scaled.lindblad_ops), np.array(ref.lindblad_ops), atol=1e-6)

