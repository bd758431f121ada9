import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm as scipy_expm

from lindblad_ode import (
    MasterEqParams,
    OdePair,
    check_lindblad,
    coherence_vector,
    evolve_density,
    forward_map,
    generate_gell_mann,
    propagator,
    solve,
)
from lindblad_ode import odesolve
from lindblad_ode.odesolve import _expm

from conftest import (
    amplitude_damping_a,
    amplitude_damping_h,
    dephasing_a,
    random_density,
    random_meq,
)
from oracles import expm_extended, modal_trajectory, per_time_trajectory, unique_step_outward


def _residual(sol, times, h=1e-6):
    worst = 0.0
    for t in times:
        deriv = (sol.at(t + h) - sol.at(t - h)) / (2 * h)
        worst = max(worst, np.max(np.abs(deriv - sol.G @ sol.at(t) - sol.c)))
    return worst


def test_dephasing_closed_form(basis2):
    gamma = 0.7
    p = MasterEqParams(hamiltonian=np.zeros((2, 2)), rates=dephasing_a(gamma))
    pair = forward_map(p, basis2)
    v0 = np.array([1 / np.sqrt(2), 0.0, 0.0])
    sol = solve(pair, v0)  # G is singular here, so the augmented matrix is stepped
    assert sol.kind == "general"
    for t in (0.0, 0.3, 2.5):
        np.testing.assert_allclose(
            sol.at(t), [np.exp(-2 * gamma * t) / np.sqrt(2), 0.0, 0.0], atol=1e-12
        )


def test_amplitude_damping_fixed_point(basis2):
    p = MasterEqParams(hamiltonian=amplitude_damping_h(1.3), rates=amplitude_damping_a(0.9))
    pair = forward_map(p, basis2)
    sol = solve(pair, np.zeros(3))
    assert sol.kind == "diagonalizable_invertible"
    np.testing.assert_allclose(sol.v_infinity, [0.0, 0.0, 1 / np.sqrt(2)], atol=1e-12)
    np.testing.assert_allclose(pair.G @ sol.v_infinity + pair.c, 0, atol=1e-12)
    np.testing.assert_allclose(sol.at(0.0), 0, atol=1e-10)
    assert _residual(sol, np.linspace(0.1, 2, 10)) < 1e-8


def test_constant_solution():
    pair = OdePair(G=np.zeros((2, 2)), c=np.zeros(2))
    sol = solve(pair, np.array([0.3, -0.1]))
    for t in (0.0, 1.0, 7.0):
        np.testing.assert_allclose(sol.at(t), [0.3, -0.1], atol=1e-14)


def test_kind_names_the_route():
    # full rank at the SPECTRAL cut, defective or not, steps the deviation from v_inf
    for g in (np.diag([-1.0, -2.0]), np.array([[-1.0, 1.0], [0.0, -1.0]]), np.diag([1.0, 1e-7])):
        assert solve(OdePair(G=g, c=np.ones(2)), np.zeros(2)).kind == "diagonalizable_invertible"
    # below it the augmented matrix is stepped, though v_inf exists at the ROUNDING cut
    sol = solve(OdePair(G=np.diag([1.0, 1e-9]), c=np.ones(2)), np.zeros(2))
    assert sol.kind == "general"
    np.testing.assert_allclose(sol.v_infinity, [-1.0, -1e9], rtol=1e-15)
    assert sol.frozen_consistent is None
    assert solve(OdePair(G=np.zeros((3, 3)), c=np.zeros(3)), np.zeros(3)).kind == "general"


@pytest.mark.parametrize("v0", [[0.0, np.nan], [np.inf, 0.0], [-np.inf, 1.0]])
def test_solve_rejects_non_finite_v0(v0):
    for g in (np.eye(2), np.zeros((2, 2))):
        with pytest.raises(ValueError, match="v0 must be finite"):
            solve(OdePair(G=g, c=np.zeros(2)), v0)


def jordan_block_solution(mu, size, w0, t):
    """Polynomial-times-exponential solution of a single Jordan block."""
    out = np.zeros(size, dtype=complex)
    for k in range(size):
        acc = 0.0
        for n in range(k, size):
            acc += w0[n] * t ** (n - k) / math.factorial(n - k)
        out[k] = np.exp(mu * t) * acc
    return out.real


@pytest.mark.parametrize("mu", [-1.0, -0.3])
@pytest.mark.parametrize("size", [1, 2, 3])
def test_general_solver_matches_jordan_oracle(mu, size):
    g = mu * np.eye(size) + np.diag(np.ones(size - 1), k=1)
    rng = np.random.default_rng(size)
    w0 = rng.normal(size=size)
    sol = solve(OdePair(G=g, c=np.zeros(size)), w0)
    for t in np.linspace(0.0, 5.0 / abs(mu), 12):
        np.testing.assert_allclose(
            sol.at(t), jordan_block_solution(mu, size, w0, t), atol=1e-8
        )


def test_frozen_coordinate():
    g = np.diag([-1.0, 0.0])
    sol = solve(OdePair(G=g, c=np.zeros(2)), np.array([1.0, 0.4]))
    assert sol.frozen_consistent
    for t in (0.5, 3.0):
        assert sol.at(t)[1] == pytest.approx(0.4, abs=1e-12)


def test_inconsistent_frozen_direction_flagged():
    g = np.diag([-1.0, 0.0])
    sol = solve(OdePair(G=g, c=np.array([0.0, 1.0])), np.zeros(2))
    assert sol.frozen_consistent is False
    # the coordinate grows linearly
    assert sol.at(2.0)[1] == pytest.approx(2.0, abs=1e-10)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 6), st.integers(0, 2**32 - 1))
def test_solvers_agree_on_random_systems(d, seed):
    # solve against the modal sum, where the modal sum is trusted
    rng = np.random.default_rng(seed)
    basis = generate_gell_mann(d)
    pair = forward_map(random_meq(d, rng, psd=True), basis)
    v0 = rng.normal(size=basis.J) * 0.1
    times = np.linspace(0.0, 3.0, 7)
    modal = modal_trajectory(pair.G, pair.c, v0, times)
    if modal is None:
        return
    sol = solve(pair, v0)
    for t, ref in zip(times, modal):
        np.testing.assert_allclose(sol.at(t), ref, atol=1e-8)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_trajectory_matches_per_time_evaluation(d):
    rng = np.random.default_rng(70 + d)
    basis = generate_gell_mann(d)
    pair = forward_map(random_meq(d, rng, psd=True), basis)
    v0 = rng.normal(size=basis.J) * 0.1
    times = np.concatenate([[0.0], rng.uniform(0.0, 4.0, size=20), [-0.5]])
    # the deviation route for this generic pair, and the augmented route for a
    # Hamiltonian-only generator, whose G is singular
    h = random_meq(d, rng).hamiltonian
    hamiltonian_only = forward_map(MasterEqParams(hamiltonian=h, rates=np.zeros((basis.J, basis.J))), basis)
    sols = [solve(pair, v0), solve(hamiltonian_only, v0)]
    assert [s.kind for s in sols] == ["diagonalizable_invertible", "general"]
    for sol in sols:
        traj = sol.trajectory(times)
        assert traj.shape == (len(times), basis.J)
        for t, row in zip(times, traj):
            v = sol.at(t)
            assert np.max(np.abs(row - v)) <= 1e-12 * max(1.0, np.max(np.abs(v)))
        assert sol.trajectory([]).shape == (0, basis.J)


def test_propagator_properties():
    rng = np.random.default_rng(21)
    g = rng.normal(size=(4, 4))
    np.testing.assert_allclose(propagator(g, 0.0), np.eye(4), atol=1e-14)
    s, t = 0.7, 1.1
    np.testing.assert_allclose(
        propagator(g, s + t), propagator(g, s) @ propagator(g, t), atol=1e-10
    )
    anti = g - g.T
    u = propagator(anti, 1.3)
    np.testing.assert_allclose(u @ u.T, np.eye(4), atol=1e-12)
    nil = np.array([[0.0, 1.0], [0.0, 0.0]])
    np.testing.assert_allclose(propagator(nil, 2.0), np.eye(2) + 2.0 * nil, atol=1e-14)
    with pytest.raises(ValueError):
        propagator(g * np.nan, 1.0)


@pytest.mark.parametrize(
    "g, t",
    [
        (np.eye(2) * 1j, 1.0),
        (np.ones((2, 3)), 1),
        (np.ones(3), 1),
        (np.eye(2), [1.0, 2.0]),
        (np.eye(2) * 1e200, 1e200),
        (np.eye(2) * 1e3, 1.0),
        (np.eye(2), True),
        (np.eye(2), np.bool_(False)),
    ],
    ids=["complex", "not-square", "vector", "time-array", "gt-overflows", "result-overflows", "bool", "numpy-bool"],
)
def test_propagator_rejects_bad_input(g, t):
    with pytest.raises(ValueError, match="propagator"):
        propagator(g, t)


@pytest.mark.parametrize("t", [[1.0, 2.0], np.array([1.0, 2.0]), [1.0]])
def test_at_rejects_a_time_that_is_not_a_scalar(t):
    sol = solve(OdePair(G=np.zeros((2, 2)), c=np.zeros(2)), np.array([0.3, -0.1]))
    with pytest.raises(ValueError, match=r"^at needs a scalar t, got an array of shape \("):
        sol.at(t)
    np.testing.assert_array_equal(sol.at(np.float64(1.0)), sol.at(np.array(1.0)))


def test_propagator_edge_shapes():
    assert propagator(np.zeros((0, 0)), 1.0).shape == (0, 0)
    assert propagator([[0.5]], 2.0)[0, 0] == pytest.approx(np.e, rel=1e-15)
    # a zero imaginary part is accepted, as in the CLI
    np.testing.assert_allclose(propagator(np.eye(2) + 0j, 1.0), np.e * np.eye(2), rtol=1e-15)


def _augmented(pair):
    j = pair.G.shape[0]
    aug = np.zeros((j + 1, j + 1))
    aug[:j, :j] = pair.G
    aug[:j, j] = pair.c
    return aug


def _augmented_generators(d):
    """[[G, c], [0, 0]] of random CP, non-CP and Hamiltonian-only (H, a)."""
    rng = np.random.default_rng(90 + d)
    basis = generate_gell_mann(d)
    out = []
    for _ in range(2):
        cp, non_cp = random_meq(d, rng, psd=True), random_meq(d, rng)
        ham = MasterEqParams(hamiltonian=non_cp.hamiltonian, rates=np.zeros((basis.J, basis.J)))
        out += [_augmented(forward_map(p, basis)) for p in (cp, non_cp, ham)]
    return out


def _assert_close(got, ref, rtol):
    assert np.max(np.abs(got - ref), initial=0.0) <= rtol * max(1.0, np.max(np.abs(ref), initial=0.0))


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_expm_matches_scipy(d):
    # at t = 30 scipy's expm is itself off by up to 4e-13 on these generators (against
    # a 50-digit value), so that time is checked against the extended-precision oracle
    for aug in _augmented_generators(d):
        for t in (0.01, 1.0):
            _assert_close(_expm(aug * t), scipy_expm(aug * t), 1e-13)


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="long double is not extended precision here")
@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_expm_matches_extended_precision_oracle(d):
    for aug in _augmented_generators(d):
        for t in (0.01, 1.0, 30.0):
            _assert_close(_expm(aug * t), expm_extended(aug * t), 1e-13)


@pytest.mark.parametrize("size", range(1, 7))
def test_expm_of_jordan_blocks(size):
    nil = np.diag(np.ones(size - 1), k=1)
    powers = [np.linalg.matrix_power(nil, k) for k in range(size)]
    for mu in (-1.0, -0.3, 0.0, 0.5):
        for t in (0.01, 1.0, 30.0):
            m = (mu * np.eye(size) + nil) * t
            exact = np.exp(mu * t) * sum(p * t**k / math.factorial(k) for k, p in enumerate(powers))
            got = _expm(m)
            _assert_close(got, scipy_expm(m), 1e-13)
            _assert_close(got, exact, 1e-13)


def test_expm_stack_squares_each_matrix_its_own_number_of_times():
    rng = np.random.default_rng(5)
    basis = generate_gell_mann(3)
    aug = _augmented(forward_map(random_meq(3, rng, psd=True), basis))
    stack = aug * np.geomspace(1e-3, 30.0, 40)[:, None, None]
    stacked = _expm(stack)
    for m, e in zip(stack, stacked):
        _assert_close(e, _expm(m), 1e-14)
    assert _expm(stack[:, :0, :0]).shape == (40, 0, 0)
    # a stack that needs no squaring skips the clip, scaling and refusal passes, with the same bits
    unsquared = odesolve._norm1(stack) <= odesolve._THETA13
    assert 0 < unsquared.sum() < len(stack)
    assert _expm(stack[unsquared]).tobytes() == stacked[unsquared].tobytes()


def test_expm_exact_cases():
    aug = _augmented_generators(3)[0]
    assert np.array_equal(_expm(aug * 0.0), np.eye(aug.shape[0]))
    assert np.array_equal(_expm(np.zeros((5, 4, 4))), np.broadcast_to(np.eye(4), (5, 4, 4)))
    assert _expm(np.zeros((0, 0))).shape == (0, 0)
    assert _expm(np.array([[-0.7]]))[0, 0] == pytest.approx(np.exp(-0.7), rel=1e-15)
    # no correct digit is left after more than 52 squarings: nan, as for a non-finite entry
    assert np.isnan(_expm(np.array([[0.0, 1e17], [-1e17, 0.0]]))).all()
    assert np.isnan(_expm(np.array([[np.inf]]))).all()


@pytest.mark.parametrize(
    "g, v0, t",
    [
        (np.eye(3), np.ones(3), 1e4),  # invertible G: the deviation from v_inf
        (np.diag([0.0, 1.0, 1.0]), np.ones(3), 1e4),  # singular G: the augmented matrix
        (np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]), np.array([1.0, 0.0, 0.0]), 1e300),
    ],
    ids=["spectral-overflow", "propagator-overflow", "propagator-huge-time"],
)
def test_non_finite_solution_raises(g, v0, t):
    sol = solve(OdePair(G=g, c=np.zeros(3)), v0)
    with pytest.raises(ValueError, match=re.escape(f"not finite at t = {t:g}")):
        sol.trajectory([0.0, t])
    with pytest.raises(ValueError, match="not finite"):
        sol.at(t)
    np.testing.assert_allclose(sol.at(0.0), v0, atol=1e-15)


def _propagator_solutions(d):
    """solve on the CP, non-CP and Hamiltonian-only generators of _augmented_generators(d).

    The first two have an invertible G and step the deviation from v_inf, the third steps
    the augmented matrix.
    """
    rng = np.random.default_rng(110 + d)
    sols = []
    for aug in _augmented_generators(d)[:3]:
        j = aug.shape[0] - 1
        sols.append(solve(OdePair(G=aug[:j, :j], c=aug[:j, j]), rng.normal(size=j)))
    assert [s.kind for s in sols] == ["diagonalizable_invertible", "diagonalizable_invertible", "general"]
    return sols


def _per_time(sol, times):
    """The solution with one exponential of the solver's own generator per time."""
    return per_time_trajectory(sol._generator, sol._x0, times)[:, : len(sol.v0)] + sol._shift


def _assert_rows_close(got, ref, rtol):
    err = np.abs(got - ref).max(axis=1)
    assert np.all(err <= rtol * np.maximum(1.0, np.abs(ref).max(axis=1)))


_EXTENDED = np.finfo(np.longdouble).eps <= 1e-18


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize(
    "times, rtol",
    [
        # unsorted, a repeated time, 0 and -0.0, negative times next to positive ones
        ([2.0, 0.0, 1.3, -0.0, -1.0, 1.3, 0.25, -2.0, 3.0, -0.25, 0.7, -1.0], 1e-13),
        (np.linspace(0.0, 30.0, 64), 1e-13),
        (np.linspace(0.0, 30.0, 1000), 1e-12),
    ],
    ids=["mixed", "grid64", "grid1000"],
)
def test_propagator_trajectory_matches_per_time_forms(d, times, rtol):
    # the rounding of every earlier step on a side stays in a row, so a long grid gets a wider bound
    for sol in _propagator_solutions(d):
        traj = sol.trajectory(times)
        _assert_rows_close(traj, _per_time(sol, times), rtol)
        if _EXTENDED:
            x0 = np.append(sol.v0, 1.0)
            extended = np.array([expm_extended(_augmented(sol) * t) @ x0 for t in times])
            _assert_rows_close(traj, extended[:, :-1], rtol)


def test_propagator_trajectory_takes_one_exponential_per_distinct_step(monkeypatch):
    sol = _propagator_solutions(3)[2]
    stacks = []

    def counting_expm(m):
        stacks.append(len(m))
        return _expm(m)

    monkeypatch.setattr(odesolve, "_expm", counting_expm)
    grid = np.linspace(0.0, 2.0, 64)
    assert len(np.unique(np.diff(grid, prepend=0.0))) == 4
    for times in (grid, np.random.default_rng(3).permutation(grid)):
        stacks.clear()
        sol.trajectory(times)
        assert stacks == [4]
    # one call for each side of t = 0
    stacks.clear()
    sol.trajectory(np.concatenate([-grid[1:], grid]))
    assert stacks == [4, len(np.unique(np.diff(-grid[1:], prepend=0.0)))]


_GRID = np.linspace(0.0, 2.0, 64)
_ODD_GRIDS = {
    "unsorted": [2.0, 0.5, 1.5, 0.25, 1.0, 0.75],
    "repeated": [0.5, 0.5, 1.0, 0.5, 1.0, 1.0, 0.0, 0.0],
    "negative": [-1.0, 0.5, -0.25, -2.0, 1.0, -0.25, -1.0],
    "signed zeros": [0.0, -0.0, 0.5, -0.0, -0.5, 0.0, -0.0],
    "nan": [0.5, np.nan, -0.5, 1.0, np.nan, 0.0, -np.nan],
    "both sides, shuffled": np.random.default_rng(5).permutation(np.concatenate([-_GRID, _GRID])),
}


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("grid", list(_ODD_GRIDS))
def test_stepping_equals_the_unique_form_bit_for_bit(d, grid):
    times = np.array(_ODD_GRIDS[grid], dtype=float)
    for sol in _propagator_solutions(d):
        want = unique_step_outward(sol._generator, sol._x0, times)
        assert odesolve._step_outward(sol._generator, sol._x0, times).tobytes() == want.tobytes()
        if grid == "nan":
            with pytest.raises(ValueError, match="not finite at t = nan"):
                sol.trajectory(times)
        else:
            assert sol.trajectory(times).tobytes() == (want[:, : len(sol.v0)] + sol._shift).tobytes()


def test_trajectory_refuses_times_of_two_or_more_dimensions():
    for sol in _propagator_solutions(2)[1:]:
        for times in ([[0.0, 1.0], [2.0, 3.0]], np.zeros((1, 1, 1))):
            with pytest.raises(ValueError, match=re.escape(f"got an array of shape {np.shape(times)}")):
                sol.trajectory(times)
        # a scalar is one row, a 1-d array one row per time
        np.testing.assert_array_equal(sol.trajectory(0.5), [sol.at(0.5)])
        assert sol.trajectory(np.array([0.0, 1.0, 2.0, 3.0])).shape == (4, len(sol.v0))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_propagator_at_is_one_exponential_applied_to_the_initial_state(d):
    for sol in _propagator_solutions(d):
        for t in (0.0, -0.0, 0.3, 2.0, 30.0, -0.7):
            expected = (propagator(sol._generator, t) @ sol._x0)[: len(sol.v0)] + sol._shift
            np.testing.assert_array_equal(sol.at(t), expected)


def test_propagator_trajectory_refuses_the_times_the_direct_form_refuses():
    # a rotation, ||M||_1 = 1: every step below the limit is finite, but M t is refused from |t| > limit on
    sol = solve(OdePair(G=np.array([[0.0, 1.0], [-1.0, 0.0]]), c=np.zeros(2)), np.array([1.0, 0.0]))
    limit = odesolve._MAX_NORM
    above = np.nextafter(limit, np.inf)
    times = np.array([limit / 2, -above, limit, above, 0.25, -limit, 2 * limit, -0.75 * limit, np.nan])
    refused = np.isnan(_per_time(sol, times)).any(axis=1)
    np.testing.assert_array_equal(refused, [False, True, False, True, False, False, True, False, True])
    stepped = odesolve._step_outward(sol._generator, sol._x0, times)
    np.testing.assert_array_equal(np.isnan(stepped).any(axis=1), refused)
    assert np.isfinite(sol.trajectory(times[~refused])).all()
    with pytest.raises(ValueError, match=re.escape(f"not finite at t = {2 * limit:g}")):
        sol.trajectory([limit / 2, limit, 2 * limit, 3 * limit])


def test_zero_coefficient_modes_contribute_zero():
    # v0 = v_inf puts no weight on the growing mode, so v(t) = 1 at every t
    sol = solve(OdePair(G=np.eye(1), c=-np.ones(1)), np.ones(1))
    assert sol.kind == "diagonalizable_invertible"
    np.testing.assert_array_equal(sol.trajectory([0.0, 800.0, 1e300]), [[1.0], [1.0], [1.0]])
    # a decaying mode next to a growing one with coefficient 0: e^{800} overflows and
    # inf * 0 = nan, which only an unstable, non-Lindblad G can produce
    sol = solve(OdePair(G=np.diag([1.0, -1.0]), c=np.array([-1.0, 0.0])), np.array([1.0, 2.0]))
    v = sol.at(700.0)
    assert v[0] == 1.0
    assert v[1] == pytest.approx(2 * np.exp(-700.0), rel=1e-12)
    with pytest.raises(ValueError, match="not finite at t = 800"):
        sol.trajectory([800.0])
    with pytest.raises(ValueError, match="not finite at t = 800"):
        solve(OdePair(G=np.eye(1), c=-np.ones(1)), np.full(1, 1.5)).trajectory([800.0])


@pytest.mark.parametrize("eps", [1e-10, 1e-14, 1e-15])
def test_near_defective_generator_matches_closed_form(eps):
    # cond(X) is 1e5 to 3e7 here, so an eigenvector form loses up to seven digits
    g = np.array([[-1.0, 1.0, 0.0], [eps, -1.0, 0.0], [0.0, 0.0, -2.0]])
    v0 = np.array([1.0, 2.0, 3.0])
    times = np.linspace(0.0, 10.0, 41)
    r = np.sqrt(eps)
    cosh, sinh = np.cosh(r * times), np.sinh(r * times)
    exact = np.column_stack([
        np.exp(-times) * (cosh * v0[0] + sinh / r * v0[1]),
        np.exp(-times) * (r * sinh * v0[0] + cosh * v0[1]),
        np.exp(-2 * times) * v0[2],
    ])
    _assert_rows_close(solve(OdePair(G=g, c=np.zeros(3)), v0).trajectory(times), exact, 1e-14)


@pytest.mark.skipif(not _EXTENDED, reason="long double is not extended precision here")
def test_unstable_invertible_generator():
    # v = 1 is the fixed point of v' = v - 1: exact at every time, however fast e^t grows
    sol = solve(OdePair(G=np.eye(1), c=-np.ones(1)), np.ones(1))
    np.testing.assert_array_equal(sol.trajectory([0.0, 30.0, 800.0, 1e300]), np.ones((4, 1)))
    rng = np.random.default_rng(3)
    times = np.linspace(0.0, 10.0, 21)
    for _ in range(3):
        g = rng.normal(size=(5, 5))
        g += (0.5 - np.linalg.eigvals(g).real.max()) * np.eye(5)  # max Re lambda = 0.5
        pair = OdePair(G=g, c=rng.normal(size=5))
        sol = solve(pair, rng.normal(size=5))
        assert sol.kind == "diagonalizable_invertible"
        x0 = np.append(sol.v0, 1.0)
        extended = np.array([expm_extended(_augmented(pair) * t) @ x0 for t in times])[:, :-1]
        _assert_rows_close(sol.trajectory(times), extended, 1e-13)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_spectral_trajectory_is_the_plain_modal_sum(d):
    # within 1e-14 max(1, |v|) of sum_k s_k e^{lambda_k t} x^(k) + v_inf
    rng = np.random.default_rng(90 + d)
    basis = generate_gell_mann(d)
    sol = solve(forward_map(random_meq(d, rng, psd=True), basis), rng.normal(size=basis.J) * 0.1)
    assert sol.kind == "diagonalizable_invertible"
    times = rng.uniform(0.0, 4.0, size=16)
    _assert_rows_close(sol.trajectory(times), modal_trajectory(sol.G, sol.c, sol.v0, times), 1e-14)


@pytest.mark.parametrize("s", [1.0, 1e-6, 1e-14])
def test_frozen_consistency_does_not_depend_on_scale(s):
    # G and [G c] have rank 2 at every scale when c lies in the range of G, rank 2 and 3 when it does not
    g = s * np.diag([1.0, 2.0, 0.0])
    consistent = solve(OdePair(G=g, c=s * np.array([1.0, 1.0, 0.0])), np.zeros(3))
    assert consistent.frozen_consistent is True
    inconsistent = solve(OdePair(G=g, c=s * np.array([1.0, 1.0, 1.0])), np.zeros(3))
    assert inconsistent.frozen_consistent is False


def test_evolve_density_golden(basis2):
    gamma = 0.6
    dep = MasterEqParams(hamiltonian=np.zeros((2, 2)), rates=dephasing_a(gamma))
    rho0 = 0.5 * np.array([[1.0, 1.0], [1.0, 1.0]])
    rhos = evolve_density(dep, rho0, [0.0, 20.0], basis2)
    np.testing.assert_allclose(rhos[0], rho0, atol=1e-12)
    np.testing.assert_allclose(rhos[1], np.eye(2) / 2, atol=1e-9)
    ad = MasterEqParams(hamiltonian=amplitude_damping_h(), rates=amplitude_damping_a())
    excited = np.diag([0.0, 1.0]).astype(complex)
    final = evolve_density(ad, excited, [25.0], basis2)[0]
    np.testing.assert_allclose(final, np.diag([1.0, 0.0]), atol=1e-9)


def test_hamiltonian_only_preserves_purity(basis2):
    p = MasterEqParams(hamiltonian=amplitude_damping_h(1.0), rates=np.zeros((3, 3)))
    rho0 = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    for rho in evolve_density(p, rho0, np.linspace(0, 5, 8), basis2):
        assert np.trace(rho @ rho).real == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("d", [2, 3])
def test_physicality_under_evolution(d):
    rng = np.random.default_rng(40 + d)
    basis = generate_gell_mann(d)
    times = np.linspace(0.0, 3.0, 10)
    for _ in range(10):
        p = random_meq(d, rng, psd=True)
        assert check_lindblad(forward_map(p, basis), basis).is_lindblad
        rho0 = random_density(d, rng)
        for rho in evolve_density(p, rho0, times, basis):
            assert np.trace(rho).real == pytest.approx(1.0, abs=1e-10)
            np.testing.assert_allclose(rho, rho.conj().T, atol=1e-10)
            assert np.min(np.linalg.eigvalsh(rho)) >= -1e-8
            v = coherence_vector(rho, basis)
            assert np.linalg.norm(v) <= np.sqrt(1 - 1 / d) + 1e-8


def test_evolve_rejects_invalid_state(basis2):
    p = MasterEqParams(hamiltonian=np.zeros((2, 2)), rates=dephasing_a())
    with pytest.raises(ValueError):
        evolve_density(p, np.diag([2.0, 1.0]), [0.0], basis2)  # trace 3
    with pytest.raises(ValueError):
        evolve_density(p, np.diag([1.5, -0.5]), [0.0], basis2)  # not PSD
