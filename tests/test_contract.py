"""The input contract of the exported names: a malformed input raises ValueError with its message and
emits no warning, and a value the package derives cannot be passed in."""
import dataclasses
import re
import warnings

import numpy as np
import pytest

import lindblad_ode as lo
from lindblad_ode import basis, core, cp, forward, inverse, odesolve

GM2 = lo.generate_gell_mann(2)
SOLUTION = lo.solve(lo.OdePair(G=-np.eye(3), c=np.zeros(3)), np.zeros(3))
PARAMS = lo.MasterEqParams(np.zeros((2, 2)), np.eye(3))
RHO = np.diag([1.0, 0.0])


def _full(shape, bad):
    return np.full(shape, bad, dtype=complex)


# name: (call, message); nothing is computed before the call
MALFORMED = {
    # the Gell-Mann traceless elements scaled by 2 gave G = -32 I for a = I, where -2 I is right
    "basis-scaled-by-2": (
        lambda: lo.NiceBasis(np.concatenate([GM2.elements[:1], 2 * GM2.traceless])),
        "orthonormality violated by 3.000e+00, beyond the tolerance 1e-12",
    ),
    # (I, sigma_x, sigma_y) / sqrt 2 meets every axiom, but is one element short
    "basis-short": (lambda: lo.NiceBasis(GM2.elements[:3]), "3 elements, a basis of dimension 2 has 4"),
    "basis-not-matrices": (
        lambda: lo.NiceBasis(GM2.elements.reshape(4, 4)),
        "basis elements must be n x n matrices with n >= 1, got shape (4, 4)",
    ),
    "times-bool-among-numbers": (
        lambda: SOLUTION.trajectory([True, 1]), "times must be integers or floats, got a bool"
    ),
    "times-string": (lambda: SOLUTION.trajectory(["1"]), "times must be integers or floats, got dtype <U1"),
    "at-bool": (lambda: SOLUTION.at(True), "times must be integers or floats, got a bool"),
    "at-string": (lambda: SOLUTION.at("1"), "times must be integers or floats, got dtype <U1"),
    "evolve-bool-time": (
        lambda: lo.evolve_density(PARAMS, RHO, [0.0, True], GM2), "times must be integers or floats, got a bool"
    ),
    # an operand that is not one matrix reached numpy: an IndexError, or a message about broadcasting
    "q-from-h-vector": (lambda: lo.q_from_h(np.zeros(4), GM2), "Hamiltonian H must have shape (n, n), got (4,)"),
    "q-from-h-not-square": (
        lambda: lo.q_from_h(np.zeros((2, 3)), GM2), "Hamiltonian H must have shape (n, n), got (2, 3)"
    ),
    "r-from-a-stack": (
        lambda: lo.r_from_a(np.zeros((2, 3, 3)), GM2), "rate matrix a must have shape (n, n), got (2, 3, 3)"
    ),
    "c-from-a-stack": (
        lambda: lo.c_from_a(np.zeros((2, 3, 3)), GM2), "rate matrix a must have shape (n, n), got (2, 3, 3)"
    ),
    "apply-dissipator-stack": (
        lambda: lo.apply_dissipator(np.zeros((2, 3, 3)), np.eye(2), GM2),
        "rate matrix a must have shape (n, n), got (2, 3, 3)",
    ),
    "superop-matrix-not-square": (
        lambda: lo.SuperopMatrix(np.zeros((2, 3))), "matrix must have shape (n, n), got (2, 3)"
    ),
    "diagonalize-dissipator-stack": (
        lambda: lo.diagonalize_dissipator(np.zeros((2, 3, 3)), GM2),
        "rate matrix a must have shape (n, n), got (2, 3, 3)",
    ),
    # each said "(G, c) of the superoperator has imaginary residue ...", naming neither operand nor condition
    "q-from-h-not-hermitian": (lambda: lo.q_from_h([[0, 1], [0, 0]], GM2), "Hamiltonian is not Hermitian"),
    "r-from-a-not-hermitian": (lambda: lo.r_from_a(1j * np.eye(3), GM2), "rate matrix is not Hermitian"),
    "c-from-a-not-hermitian": (lambda: lo.c_from_a(1j * np.eye(3), GM2), "rate matrix is not Hermitian"),
}

PAIR = lo.OdePair(G=-np.eye(3), c=np.zeros(3))

# name: (call on an operand of the wrong shape, message); each operand's shape is stated once, in the input gate,
# where thirteen checks stated it in eight wordings ("Hamiltonian must be square", "v0 must have length 3", ...).
# A named length, n, is shared by every axis of that name; an int is fixed by the basis or by another operand.
WRONG_SHAPE = {
    "params-h-0d": (lambda: lo.MasterEqParams(5.0, np.zeros((3, 3))), "Hamiltonian H must have shape (n, n), got ()"),
    "params-h-1d": (
        lambda: lo.MasterEqParams(np.zeros(2), np.zeros((3, 3))), "Hamiltonian H must have shape (n, n), got (2,)"
    ),
    "params-h-2x3": (
        lambda: lo.MasterEqParams(np.zeros((2, 3)), np.zeros((3, 3))),
        "Hamiltonian H must have shape (n, n), got (2, 3)",
    ),
    "params-a-stack": (
        lambda: lo.MasterEqParams(np.zeros((2, 2)), np.zeros((2, 3, 3))),
        "rate matrix a must have shape (3, 3), got (2, 3, 3)",
    ),
    "rate-matrix-stack": (
        lambda: lo.diagonalize_dissipator(np.zeros((2, 3, 3)), GM2),
        "rate matrix a must have shape (n, n), got (2, 3, 3)",
    ),
    "ode-pair-g": (lambda: lo.OdePair(np.zeros((3, 2)), np.zeros(3)), "G must have shape (n, n), got (3, 2)"),
    "ode-pair-c": (lambda: lo.OdePair(-np.eye(3), np.zeros(2)), "c must have shape (3,), got (2,)"),
    "tensor-3-axes": (lambda: lo.Tensor4(np.zeros((2, 2, 2))), "tensor must have shape (n, n, n, n), got (2, 2, 2)"),
    "tensor-unequal-axes": (
        lambda: lo.SuperopTensor(np.zeros((2, 2, 2, 3))), "tensor must have shape (n, n, n, n), got (2, 2, 2, 3)"
    ),
    "faf-not-square": (lambda: lo.FAFRep(np.zeros((4, 3))), "coefficient matrix must have shape (n, n), got (4, 3)"),
    "h-from-g": (lambda: lo.h_from_g(np.zeros((3, 2)), GM2), "G must have shape (n, n), got (3, 2)"),
    "r-image-check": (lambda: lo.r_image_check(np.zeros(3), GM2), "R must have shape (n, n), got (3,)"),
    "rho": (lambda: lo.coherence_vector(np.eye(3) / 3, GM2), "density matrix must have shape (2, 2), got (3, 3)"),
    "evolve-rho0": (
        lambda: lo.evolve_density(PARAMS, np.eye(3) / 3, [0.0], GM2),
        "density matrix must have shape (2, 2), got (3, 3)",
    ),
    "coordinatize-x": (lambda: lo.coordinatize(np.zeros((2, 3)), GM2), "operator X must have shape (2, 2), got (2, 3)"),
    "apply-x": (lambda: lo.apply(PARAMS, np.zeros((3, 3)), GM2), "operator X must have shape (2, 2), got (3, 3)"),
    "extreme-ray-b": (lambda: lo.sample_extreme_ray(np.zeros((3, 3)), GM2), "B must have shape (2, 2), got (3, 3)"),
    "coordinates": (lambda: lo.decoordinatize(np.zeros(3), GM2), "coordinates must have shape (4,), got (3,)"),
    "solve-v0": (lambda: lo.solve(PAIR, np.zeros(2)), "v0 must have shape (3,), got (2,)"),
    "propagator-g": (lambda: lo.propagator(np.zeros((2, 3)), 1.0), "propagator G must have shape (n, n), got (2, 3)"),
    "propagator-t": (lambda: lo.propagator(np.eye(2), [1.0]), "propagator t must have shape (), got (1,)"),
}

HUGE_PAIR = lo.OdePair(1e308 * np.ones((3, 3)), np.ones(3))
HUGE_PARAMS = lo.MasterEqParams(np.zeros((2, 2)), 1e308 * np.eye(3))
HUGE_FAF = lo.FAFRep(1e308 * np.ones((4, 4)))
HUGE_MATRIX = lo.SuperopMatrix(1e308 * np.ones((4, 4)))
GM3 = lo.generate_gell_mann(3)
HUGE_G3 = 1.7e308 * np.ones((8, 8))
# the H and Q of this G are finite, and one entry of R = G - Q is 5/3 of 1.2e308
R_OVERFLOWS = np.zeros((8, 8))
R_OVERFLOWS[[0, 1, 2, 4, 5, 6], [6, 2, 1, 5, 4, 0]] = 1.2e308 * np.array([1, -1, 1, -1, 1, 1])
# a = ones - diag(0, 0, 2) has the eigenvalues -1.56, 0 and 2.56. Scaled by 7.2e307, its (G, c) and a are finite, but
# the largest eigenvalue of a is inf: the CP threshold became -inf, and check_lindblad called the pair CP
NON_CP = lo.forward_map(lo.MasterEqParams(np.zeros((2, 2)), np.ones((3, 3)) - np.diag([0, 0, 2])), GM2)
HUGE_NON_CP = lo.OdePair(7.2e307 * NON_CP.G, 7.2e307 * NON_CP.c)

# name: (call, message) on finite input whose result overflows; inverse_map returned rates holding inf+nanj
# with a RuntimeWarning, and forward_map said "(G, c) of the superoperator has imaginary residue nan"
OVERFLOW = {
    "inverse-map": (lambda: lo.inverse_map(HUGE_PAIR, GM2), "(H, a) of the superoperator is not finite"),
    "phi-6-1": (lambda: lo.phi(6, 1, HUGE_PAIR, GM2), "(H, a) of the superoperator is not finite"),
    "forward-map": (lambda: lo.forward_map(HUGE_PARAMS, GM2), "(G, c) of the superoperator is not finite"),
    "q-from-h": (
        lambda: lo.q_from_h(1e308 * np.diag([1.0, -1.0]), GM2), "(G, c) of the superoperator is not finite"
    ),
    "r-from-a": (lambda: lo.r_from_a(1e308 * np.eye(3), GM2), "(G, c) of the superoperator is not finite"),
    "phi-1-2": (lambda: lo.phi(1, 2, HUGE_PARAMS, GM2), "tensor of the superoperator is not finite"),
    "phi-1-4": (lambda: lo.phi(1, 4, HUGE_PARAMS, GM2), "tensor of the superoperator is not finite"),
    "superop-matrix": (
        lambda: lo.superop_matrix(lo.SuperopTensor(1e308 * np.ones((2,) * 4)), GM2),
        "matrix E is not finite",
    ),
    # the superoperator maps warned and then blamed their own result as a bad operand, "tensor must be finite"
    "phi-7-4": (lambda: lo.phi(7, 4, HUGE_MATRIX, GM2), "tensor of the superoperator is not finite"),
    # the generator check read the overflowed S: "flavor-x_tilde invariants violated by nan"
    "phi-7-6": (lambda: lo.phi(7, 6, HUGE_MATRIX, GM2), "tensor of the superoperator is not finite"),
    "phi-4-8": (
        lambda: lo.phi(4, 8, lo.SuperopTensor(1e308 * np.ones((2,) * 4)), GM2), "coefficient matrix c is not finite"
    ),
    "phi-8-4": (lambda: lo.phi(8, 4, HUGE_FAF, GM2), "tensor of the superoperator is not finite"),
    # each returned inf or nan with a RuntimeWarning, "overflow encountered in matmul", "... in add"
    "apply-faf": (lambda: lo.apply(HUGE_FAF, np.eye(2), GM2), "L(X) is not finite"),
    "apply-tensor": (
        lambda: lo.apply(lo.SuperopTensor(1e308 * np.ones((2,) * 4)), 1e308 * np.eye(2), GM2), "L(X) is not finite"
    ),
    "apply-params": (lambda: lo.apply(HUGE_PARAMS, 1e308 * np.eye(2), GM2), "L(X) is not finite"),
    "apply-dissipator": (
        lambda: lo.apply_dissipator(1e308 * np.eye(3), 1e308 * np.eye(2), GM2), "L(X) is not finite"
    ),
    # is_lindblad was True for this non-CP pair, and CLI check-cp failed to write the inf eigenvalue as JSON
    "check-lindblad-spectrum": (
        lambda: lo.check_lindblad(HUGE_NON_CP, GM2), "eigenvalue of the rate matrix a of (G, c) is not finite"
    ),
    # the cut ROUNDING * max|w| was inf, and every rate came back as 0
    "diagonalize-dissipator": (
        lambda: lo.diagonalize_dissipator(1.7e308 * np.ones((3, 3)), GM2),
        "eigenvalue of the rate matrix a is not finite",
    ),
    # check-cp warned eight times and then failed in eigvalsh with "Eigenvalues did not converge"
    "check-lindblad": (
        lambda: lo.check_lindblad(lo.OdePair(HUGE_G3, np.zeros(8)), GM3), "rate matrix a of (G, c) is not finite"
    ),
    "a-from-gc": (lambda: lo.a_from_gc(HUGE_G3, np.zeros(8), GM3), "rate matrix a of (G, c) is not finite"),
    # decompose_g warned ten times and then blamed the H it had computed, "Hamiltonian H must be finite"
    "decompose-g": (lambda: lo.decompose_g(HUGE_G3, GM3), "H of G is not finite"),
    "decompose-g-r": (lambda: lo.decompose_g(R_OVERFLOWS, GM3), "R = G - Q is not finite"),
    "h-from-g": (lambda: lo.h_from_g(HUGE_G3, GM3), "H of G is not finite"),
    "r-image-check": (lambda: lo.r_image_check(HUGE_G3, GM3), "H of R is not finite"),
}

# name: (call on a non-finite entry, message)
NON_FINITE = {
    "basis": (lambda bad: lo.NiceBasis(_full((4, 2, 2), bad)), "basis elements must be finite"),
    "verify": (lambda bad: lo.verify_nice_basis(_full((4, 2, 2), bad)), "basis elements must be finite"),
    "superop-tensor": (
        lambda bad: lo.superop_matrix(lo.SuperopTensor(_full((2,) * 4, bad)), GM2), "tensor must be finite"
    ),
    "tensor4": (lambda bad: lo.Tensor4(_full((2,) * 4, bad)), "tensor must be finite"),
    "superop-matrix": (lambda bad: lo.SuperopMatrix(_full((4, 4), bad)), "matrix must be finite"),
    "faf": (lambda bad: lo.FAFRep(_full((4, 4), bad)), "coefficient matrix must be finite"),
    "apply-dissipator-a": (
        lambda bad: lo.apply_dissipator(_full((3, 3), bad), np.eye(2), GM2), "rate matrix a must be finite"
    ),
    "apply-dissipator-x": (
        lambda bad: lo.apply_dissipator(np.eye(3), _full((2, 2), bad), GM2), "operator X must be finite"
    ),
    "apply-x": (lambda bad: lo.apply(PARAMS, _full((2, 2), bad), GM2), "operator X must be finite"),
    "coordinatize": (lambda bad: lo.coordinatize(_full((2, 2), bad), GM2), "operator X must be finite"),
    "decoordinatize": (lambda bad: lo.decoordinatize(_full(4, bad), GM2), "coordinates must be finite"),
    "q-from-h": (lambda bad: lo.q_from_h(_full((2, 2), bad), GM2), "Hamiltonian H must be finite"),
    "r-from-a": (lambda bad: lo.r_from_a(_full((3, 3), bad), GM2), "rate matrix a must be finite"),
    "c-from-a": (lambda bad: lo.c_from_a(_full((3, 3), bad), GM2), "rate matrix a must be finite"),
    "extreme-ray": (lambda bad: lo.sample_extreme_ray(_full((2, 2), bad), GM2), "B must be finite"),
}


def _not_numbers(shape, bad):
    """The entries of each NOT_NUMBERS case at a shape: every entry bad, or one bad entry among floats."""
    if bad == "bool array":
        return np.zeros(shape, dtype=bool)
    if bad == "none":
        return None
    x = np.zeros(shape, dtype=object)
    x.flat[0] = True if bad == "bool among numbers" else "1"
    return x.tolist()


# the refusals and the end of their messages; a string entry makes a list of numbers a string array
NOT_NUMBERS = {
    "bool array": "got a bool",
    "bool among numbers": "got a bool",
    "string among numbers": "got dtype <U",
    "none": "got dtype object",
}

# name: (call, shape of the operand, start of the message); a real operand takes integers or floats
OPERANDS = {
    "ode-pair-g": (lambda x: lo.OdePair(x, np.zeros(3)), (3, 3), "G must be integers or floats"),
    "ode-pair-c": (lambda x: lo.OdePair(-np.eye(3), x), (3,), "c must be integers or floats"),
    "params-h": (lambda x: lo.MasterEqParams(x, np.zeros((3, 3))), (2, 2), "Hamiltonian H must be numbers"),
    "params-a": (lambda x: lo.MasterEqParams(np.zeros((2, 2)), x), (3, 3), "rate matrix a must be numbers"),
    "solve-v0": (lambda x: lo.solve(PAIR, x), (3,), "v0 must be integers or floats"),
    "propagator-g": (lambda x: lo.propagator(x, 1.0), (2, 2), "propagator G must be integers or floats"),
    "propagator-t": (lambda x: lo.propagator(np.eye(2), x), (), "propagator t must be integers or floats"),
    "coherence-vector": (lambda x: lo.coherence_vector(x, GM2), (2, 2), "density matrix must be numbers"),
    "evolve-rho0": (lambda x: lo.evolve_density(PARAMS, x, [0.0], GM2), (2, 2), "density matrix must be numbers"),
    "decompose-g": (lambda x: lo.decompose_g(x, GM2), (3, 3), "G must be integers or floats"),
    "r-image-check": (lambda x: lo.r_image_check(x, GM2), (3, 3), "R must be integers or floats"),
    "h-from-g": (lambda x: lo.h_from_g(x, GM2), (3, 3), "G must be integers or floats"),
    "basis": (lambda x: lo.NiceBasis(x), (4, 2, 2), "basis elements must be numbers"),
    "verify": (lambda x: lo.verify_nice_basis(x), (4, 2, 2), "basis elements must be numbers"),
    "superop-tensor": (lambda x: lo.SuperopTensor(x), (2,) * 4, "tensor must be numbers"),
    "tensor4": (lambda x: lo.Tensor4(x), (2,) * 4, "tensor must be numbers"),
    "superop-matrix": (lambda x: lo.SuperopMatrix(x), (4, 4), "matrix must be numbers"),
    "faf": (lambda x: lo.FAFRep(x), (4, 4), "coefficient matrix must be numbers"),
    "apply-dissipator-a": (lambda x: lo.apply_dissipator(x, np.eye(2), GM2), (3, 3), "rate matrix a must be numbers"),
    "apply-dissipator-x": (lambda x: lo.apply_dissipator(np.eye(3), x, GM2), (2, 2), "operator X must be numbers"),
    "apply-x": (lambda x: lo.apply(PARAMS, x, GM2), (2, 2), "operator X must be numbers"),
    "coordinatize": (lambda x: lo.coordinatize(x, GM2), (2, 2), "operator X must be numbers"),
    "decoordinatize": (lambda x: lo.decoordinatize(x, GM2), (4,), "coordinates must be numbers"),
    "q-from-h": (lambda x: lo.q_from_h(x, GM2), (2, 2), "Hamiltonian H must be numbers"),
    "r-from-a": (lambda x: lo.r_from_a(x, GM2), (3, 3), "rate matrix a must be numbers"),
    "c-from-a": (lambda x: lo.c_from_a(x, GM2), (3, 3), "rate matrix a must be numbers"),
    "extreme-ray": (lambda x: lo.sample_extreme_ray(x, GM2), (2, 2), "B must be numbers"),
}

# name: (call, message); a real operand is read as OdePair reads G: a negligible imaginary part is dropped
IMAGINARY = {
    "decompose-g": (lambda: lo.decompose_g(-np.eye(3) * (1 + 1e-3j), GM2), "G has imaginary residue 1.000e-03"),
    "r-image-check": (lambda: lo.r_image_check(np.eye(3) * (1 + 1e-3j), GM2), "R has imaginary residue 1.000e-03"),
    "solve-v0": (lambda: lo.solve(PAIR, [1j, 0, 0]), "v0 has imaginary residue 1.000e+00"),
    "propagator-g": (lambda: lo.propagator(np.eye(2) * 1j, 1.0), "propagator G has imaginary residue 1.000e+00"),
    "propagator-t": (lambda: lo.propagator(np.eye(2), 1j), "propagator t has imaginary residue 1.000e+00"),
}


def _raises_without_a_warning(call, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()


@pytest.mark.parametrize("name", MALFORMED)
def test_malformed_input_raises_its_message_without_a_warning(name):
    _raises_without_a_warning(*MALFORMED[name])


@pytest.mark.parametrize("name", WRONG_SHAPE)
def test_an_operand_of_the_wrong_shape_raises_one_message_without_a_warning(name):
    _raises_without_a_warning(*WRONG_SHAPE[name])


@pytest.mark.parametrize(
    "got, shape, fits",
    [
        ((2, 2), ("n", "n"), True),
        ((0, 0), ("n", "n"), True),
        ((2, 3), ("n", "n"), False),
        ((2, 2, 2), ("n", "n"), False),
        ((2, 3), ("n", 3), True),
        ((2, 3), ("n", "m"), True),
        ((2, 3, 2), ("n", "m", "n"), True),
        ((2, 3, 3), ("n", "m", "n"), False),
        ((3,), (3,), True),
        ((), (), True),
        ((1,), (), False),
    ],
)
def test_the_gate_reads_a_shape_of_fixed_and_named_lengths(got, shape, fits):
    assert basis._fits(got, shape) is fits


@pytest.mark.parametrize("name", OVERFLOW)
def test_a_result_that_overflows_raises_its_message_without_a_warning(name):
    _raises_without_a_warning(*OVERFLOW[name])


@pytest.fixture
def gate_calls(monkeypatch):
    """The operand names that basis._numbers is called with from here on, in every module that calls it."""
    calls = []
    gate = basis._numbers

    def counting_gate(*args, **kwargs):
        calls.append(args[1])
        return gate(*args, **kwargs)

    for module in (basis, core, cp, forward, inverse, odesolve):
        monkeypatch.setattr(module, "_numbers", counting_gate)
    return calls


def test_the_conversions_do_not_pass_their_own_results_through_the_input_gate(gate_calls):
    # every value they build from checked data was scanned again by the constructor of its type
    rng = np.random.default_rng(11)
    for d in (2, 3):
        b = lo.generate_gell_mann(d)
        h, m = rng.normal(size=(d, d)), rng.normal(size=(d * d - 1,) * 2)
        params = lo.MasterEqParams(h + h.T, m @ m.T)
        gate_calls.clear()
        pair = lo.forward_map(params, b)
        lo.inverse_map(pair, b)
        tensor = lo.phi(1, 4, params, b)
        lo.phi(4, 6, tensor, b)
        lo.superop_matrix(tensor, b)
        assert gate_calls == []


def test_an_input_passes_the_gate_once(gate_calls):
    # NiceBasis, then verify_nice_basis, scanned the elements; evolve_density, then coherence_vector, rho0;
    # and solve scanned the v0 that coherence_vector had built, which recorded ["density matrix", "v0", "times"]
    lo.NiceBasis(GM2.elements)
    assert gate_calls == ["basis elements"]
    gate_calls.clear()
    lo.evolve_density(PARAMS, RHO, [0.0, 1.0], GM2)
    assert gate_calls == ["density matrix", "times"]
    # decompose_g scanned G twice and then the H it had computed; r_image_check recorded ["R", "G", "c"]
    gate_calls.clear()
    lo.decompose_g(-np.eye(8), GM3)
    assert gate_calls.count("G") == 1 and "Hamiltonian H" not in gate_calls
    gate_calls.clear()
    lo.r_image_check(np.eye(8), GM3)
    assert gate_calls == ["R"]


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)], ids=["nan", "inf", "imag-inf"])
@pytest.mark.parametrize("name", NON_FINITE)
def test_non_finite_input_raises_its_message_without_a_warning(name, bad):
    call, message = NON_FINITE[name]
    _raises_without_a_warning(lambda: call(bad), message)


def test_the_trace_shift_is_derived_and_cannot_be_passed():
    # a trace_shift passed in used to be overwritten without a word
    with pytest.raises(TypeError, match="trace_shift"):
        lo.MasterEqParams(np.diag([2.0, 0.0]), np.zeros((3, 3)), trace_shift=7.0)
    assert lo.MasterEqParams(np.diag([2.0, 0.0]), np.zeros((3, 3))).trace_shift == 1.0


def test_an_ode_pair_is_g_and_c_alone():
    # Q and R were fields that any caller could set without a check: OdePair(-I, 0, Q="junk", R=[1]) passed
    for extra in ({"Q": np.zeros((3, 3))}, {"R": np.zeros((3, 3))}):
        with pytest.raises(TypeError, match="|".join(extra)):
            lo.OdePair(-np.eye(3), np.zeros(3), **extra)
    assert [f.name for f in dataclasses.fields(lo.OdePair)] == ["G", "c"]


def test_a_basis_derives_its_dimension_from_its_elements():
    assert lo.generate_gell_mann(3).dim == 3
    with pytest.raises(TypeError, match="dim"):
        lo.NiceBasis(dim=2, elements=GM2.elements)


@pytest.mark.parametrize("bad", NOT_NUMBERS)
@pytest.mark.parametrize("name", OPERANDS)
def test_input_that_is_not_numbers_raises_and_names_its_operand_without_a_warning(name, bad):
    # each was coerced by numpy: [True, "1", 0] gave v0 = [1, 1, 0], and a string R passed r_image_check
    call, shape, start = OPERANDS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{re.escape(f'{start}, {NOT_NUMBERS[bad]}')}"):
            call(_not_numbers(shape, bad))


@pytest.mark.parametrize("name", IMAGINARY)
def test_a_real_operand_refuses_an_imaginary_part_and_names_it(name):
    _raises_without_a_warning(*IMAGINARY[name])


def test_a_real_operand_drops_a_negligible_imaginary_part_without_a_warning():
    # decompose_g and r_image_check cast to float with a ComplexWarning, and r_image_check judged Re R alone
    g = -np.eye(3) + np.diag([0.0, 0.0, 0.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        q, r = lo.decompose_g(g * (1 + 1e-15j), GM2)
        np.testing.assert_array_equal(q, lo.decompose_g(g, GM2)[0])
        np.testing.assert_array_equal(r, lo.decompose_g(g, GM2)[1])
        assert lo.r_image_check(g * (1 + 1e-15j), GM2)
        np.testing.assert_array_equal(lo.propagator(g * (1 + 1e-15j), 1.0), lo.propagator(g, 1.0))
        np.testing.assert_array_equal(lo.solve(PAIR, [1 + 1e-15j, 0, 0]).v0, [1.0, 0.0, 0.0])
