"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single PASS/FAIL line on
the real stdout (bypassing capture) so that a plain ``pytest -v`` run shows a
human-readable scoreboard.
"""

import functools
import json
import math
import sys

import numpy as np
import pytest

from lindblad_ode import (
    MasterEqParams,
    OdePair,
    check_lindblad,
    coherence_vector,
    decompose_g,
    estimate_p_gue,
    estimate_p_lindblad_ginoe,
    evolve_density,
    forward_map,
    generate_gell_mann,
    ginoe_induced_a_covariance,
    gue_p_analytic,
    h_from_g,
    inverse_map,
    liouvillian_matrix,
    q_from_h,
    r_from_a,
    solve,
)
from lindblad_ode.cli import main as cli_main

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
    qutrit_antisym_g,
    qutrit_antisym_h,
    qutrit_antisym_q,
    random_density,
    random_meq,
)
import oracles
from test_inverse import SPACE_PAIRS, phi_cycle


def _scoreboard(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number}: FAIL — {description}", file=sys.__stdout__)
                raise
            print(f"ACCEPTANCE {number}: PASS — {description}", file=sys.__stdout__)

        wrapper.__name__ = fn.__name__
        return wrapper

    return decorate


@_scoreboard(1, "qubit dephasing forward map and rate-matrix recovery at 1e-12")
def test_acceptance_01_dephasing(basis2):
    p = MasterEqParams(hamiltonian=np.zeros((2, 2)), rates=dephasing_a(1.0))
    pair = forward_map(p, basis2)
    np.testing.assert_allclose(pair.G, dephasing_g(1.0), atol=1e-12)
    np.testing.assert_allclose(pair.c, 0.0, atol=1e-12)
    back = inverse_map(pair, basis2)
    np.testing.assert_allclose(back.rates, dephasing_a(1.0), atol=1e-12)
    np.testing.assert_allclose(back.hamiltonian, 0.0, atol=1e-12)


@_scoreboard(2, "qubit amplitude damping golden Q, R, c and (H, a) recovery at 1e-12")
def test_acceptance_02_amplitude_damping(basis2):
    p = MasterEqParams(hamiltonian=amplitude_damping_h(1.0), rates=amplitude_damping_a(1.0))
    pair = forward_map(p, basis2)
    np.testing.assert_allclose(q_from_h(p.hamiltonian, basis2), amplitude_damping_q(1.0), atol=1e-12)
    np.testing.assert_allclose(r_from_a(p.rates, basis2), amplitude_damping_r(1.0), atol=1e-12)
    np.testing.assert_allclose(pair.c, amplitude_damping_c(1.0), atol=1e-12)
    back = inverse_map(pair, basis2)
    np.testing.assert_allclose(back.hamiltonian, amplitude_damping_h(1.0), atol=1e-12)
    np.testing.assert_allclose(back.rates, amplitude_damping_a(1.0), atol=1e-12)


@_scoreboard(3, "G = E12 yields rate eigenvalues {-1/2, 1/2, 0} and a non-CP verdict")
def test_acceptance_03_non_cp(basis2):
    g = np.zeros((3, 3))
    g[0, 1] = 1.0
    report = check_lindblad(OdePair(G=g, c=np.zeros(3)), basis2)
    got = np.sort(report.eigenvalues)
    np.testing.assert_allclose(got, [-0.5, 0.0, 0.5], atol=1e-12)
    assert not report.is_lindblad
    assert not report.marginal


@_scoreboard(4, "qutrit damping golden 8x8 R and c at 1e-12, rate matrix recovered")
def test_acceptance_04_qutrit_golden(basis3):
    p = MasterEqParams(hamiltonian=np.zeros((3, 3)), rates=qutrit_ad_a())
    pair = forward_map(p, basis3)
    np.testing.assert_allclose(r_from_a(p.rates, basis3), qutrit_ad_r(), atol=1e-12)
    np.testing.assert_allclose(pair.c, qutrit_ad_c(), atol=1e-12)
    back = inverse_map(pair, basis3)
    np.testing.assert_allclose(back.rates, qutrit_ad_a(), atol=1e-12)


@_scoreboard(5, "qutrit antisymmetric G gives H23 = 1/6 and golden Q != antisym(G)")
def test_acceptance_05_qutrit_h_recovery(basis3):
    g = qutrit_antisym_g()
    h = h_from_g(g, basis3)
    assert abs(h[1, 2] - 1.0 / 6.0) <= 1e-12
    np.testing.assert_allclose(h, qutrit_antisym_h(), atol=1e-12)
    q, _ = decompose_g(g, basis3)
    np.testing.assert_allclose(q, qutrit_antisym_q(), atol=1e-12)
    assert np.max(np.abs(q - (g - g.T) / 2)) > 1e-3


@_scoreboard(6, "all representation-space cycles reproduce (H, a) to 1e-9 relative")
def test_acceptance_06_bijection():
    for d in (2, 3):
        basis = generate_gell_mann(d)
        rng = np.random.default_rng(600 + d)
        for _ in range(25):
            p = random_meq(d, rng)
            scale = max(np.max(np.abs(p.hamiltonian)), np.max(np.abs(p.rates)))
            for s, t in SPACE_PAIRS:
                value = phi_cycle(p, s, t, basis)
                assert np.max(np.abs(value.hamiltonian - p.hamiltonian)) <= 1e-9 * scale
                assert np.max(np.abs(value.rates - p.rates)) <= 1e-9 * scale


@_scoreboard(7, "Liouvillian spectrum equals {0} union spec(G) at 1e-8 for 50 systems")
def test_acceptance_07_spectrum():
    rng = np.random.default_rng(700)
    for trial in range(50):
        d = 2 + trial % 2
        basis = generate_gell_mann(d)
        p = random_meq(d, rng)
        pair = forward_map(p, basis)
        big = np.linalg.eigvals(liouvillian_matrix(p, basis))
        small = np.concatenate(([0.0], np.linalg.eigvals(pair.G)))
        assert oracles.eigenvalues_match(big, small, 1e-8)


@_scoreboard(8, "image/intersection dimensions are (6, 0) for d=2 and (56, 20) for d=3")
def test_acceptance_08_dimensions():
    expected = {2: (6, 0), 3: (56, 20)}
    for d, (dim_image, dim_intersection) in expected.items():
        basis = generate_gell_mann(d)
        image_rank, antisym_intersection, kernel = oracles.image_dimensions(basis)
        assert image_rank == dim_image
        assert antisym_intersection == dim_intersection
        assert kernel == 0


@_scoreboard(9, "superoperator quadratic form equals b-dagger a b at 1e-10, 100 trials per d")
def test_acceptance_09_cp_form():
    for d in (2, 3):
        basis = generate_gell_mann(d)
        rng = np.random.default_rng(900 + d)
        J = basis.J
        for _ in range(100):
            p = random_meq(d, rng)
            pair = forward_map(p, basis)
            b = rng.normal(size=J) + 1j * rng.normal(size=J)
            bmat = np.einsum("m,mij->ij", b, basis.traceless)
            lhs = oracles.cp_quadratic_form(pair, bmat, basis)
            a = inverse_map(pair, basis).rates
            rhs = b.conj() @ a @ b
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


@_scoreboard(10, "solver matches Jordan-block oracle and modal-sum oracle at 1e-8")
def test_acceptance_10_ode_oracle():
    for mu in (-1.0, -0.3):
        for size in (1, 2, 3):
            g = mu * np.eye(size) + np.diag(np.ones(size - 1), k=1)
            rng = np.random.default_rng(size * 10)
            w0 = rng.normal(size=size)
            sol = solve(OdePair(G=g, c=np.zeros(size)), w0)
            for t in np.linspace(0.0, 4.0, 9):
                oracle = np.array(
                    [
                        np.exp(mu * t)
                        * sum(
                            w0[n] * t ** (n - k) / math.factorial(n - k)
                            for n in range(k, size)
                        )
                        for k in range(size)
                    ]
                )
                np.testing.assert_allclose(sol.at(t), oracle, atol=1e-8)
    checked = 0
    rng = np.random.default_rng(1000)
    while checked < 50:
        d = 2 + checked % 2
        basis = generate_gell_mann(d)
        pair = forward_map(random_meq(d, rng, psd=True), basis)
        v0 = rng.normal(size=basis.J) * 0.1
        times = np.linspace(0.0, 3.0, 6)
        modal = oracles.modal_trajectory(pair.G, pair.c, v0, times)
        if modal is None:
            continue
        sol = solve(pair, v0)
        for t, ref in zip(times, modal):
            np.testing.assert_allclose(sol.at(t), ref, atol=1e-8)
        checked += 1


@_scoreboard(11, "50 random Lindblad evolutions stay physical at 10 sampled times")
def test_acceptance_11_physicality():
    rng = np.random.default_rng(1100)
    times = np.linspace(0.0, 2.0, 10)
    for trial in range(50):
        d = 2 + trial % 2
        basis = generate_gell_mann(d)
        p = random_meq(d, rng, psd=True)
        rho0 = random_density(d, rng)
        for rho in evolve_density(p, rho0, times, basis):
            assert abs(np.trace(rho).real - 1.0) <= 1e-10
            assert abs(np.trace(rho).imag) <= 1e-10
            assert np.max(np.abs(rho - rho.conj().T)) <= 1e-10
            assert np.min(np.linalg.eigvalsh(rho)) >= -1e-8
            v = coherence_vector(rho, basis)
            assert np.linalg.norm(v) <= np.sqrt(1.0 - 1.0 / d) + 1e-8


@_scoreboard(12, "rarity estimates bracket oracles; counting and covariance checks hold")
def test_acceptance_12_rarity():
    est1 = estimate_p_gue(1, n_samples=100_000, seed=1201)
    assert est1.ci_low <= gue_p_analytic(1) <= est1.ci_high
    est2 = estimate_p_gue(2, n_samples=100_000, seed=1202)
    assert est2.ci_low <= gue_p_analytic(2) <= est2.ci_high
    for d in (2, 3):
        gin = estimate_p_lindblad_ginoe(d, n_samples=20_000, seed=1203)
        assert gin.n_positive <= gin.n_spectrum_stable
    cov = ginoe_induced_a_covariance(2, n_samples=100_000, seed=1204)
    assert cov.passed
    assert cov.max_deviation_in_stderr <= 5.0


@_scoreboard(13, "every CLI subcommand re-run with the same inputs is byte-identical")
def test_acceptance_13_cli_determinism(tmp_path):
    h = np.diag([1.0, -1.0])
    a = amplitude_damping_a(0.8)
    meq = {
        "H": [[[float(x.real), float(x.imag)] for x in row] for row in h.astype(complex)],
        "a": [[[float(x.real), float(x.imag)] for x in row] for row in a],
    }
    meq_file = tmp_path / "meq.json"
    meq_file.write_text(json.dumps(meq))
    fwd_file = tmp_path / "fwd.json"
    assert cli_main(["forward", "--dim", "2", "--in", str(meq_file), "--out", str(fwd_file)]) == 0
    fwd = json.loads(fwd_file.read_text())
    gc = {"G": fwd["G"], "c": fwd["c"], "v0": [0.1, 0.0, 0.0], "times": [0.0, 1.0]}
    gc_file = tmp_path / "gc.json"
    gc_file.write_text(json.dumps(gc))
    ev = dict(meq)
    ev["rho0"] = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    ev["times"] = [0.0, 0.5]
    ev_file = tmp_path / "ev.json"
    ev_file.write_text(json.dumps(ev))

    runs = {
        "basis": ["basis", "--dim", "3"],
        "verify": ["verify", "--dim", "3"],
        "forward": ["forward", "--dim", "2", "--in", str(meq_file)],
        "inverse": ["inverse", "--dim", "2", "--in", str(gc_file)],
        "decompose": ["decompose", "--dim", "2", "--in", str(gc_file)],
        "check-cp": ["check-cp", "--dim", "2", "--in", str(gc_file)],
        "solve": ["solve", "--dim", "2", "--in", str(gc_file)],
        "evolve": ["evolve", "--dim", "2", "--in", str(ev_file)],
        "rarity": ["rarity", "--dim", "2", "--seed", "13", "--samples", "3000"],
        "roundtrip": ["roundtrip", "--dim", "2", "--in", str(meq_file)],
    }
    for name, argv in runs.items():
        out1 = tmp_path / f"{name}-1.json"
        out2 = tmp_path / f"{name}-2.json"
        code1 = cli_main(argv + ["--out", str(out1)])
        code2 = cli_main(argv + ["--out", str(out2)])
        assert code1 == code2
        assert code1 in (0, 3)
        assert out1.read_bytes() == out2.read_bytes(), f"{name} output not deterministic"
