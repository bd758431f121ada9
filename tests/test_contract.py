"""The input contract of the exported names: a malformed input raises ValueError with its message and
emits no warning, and a value the package derives cannot be passed in."""
import re
import warnings

import numpy as np
import pytest

import lindblad_ode as lo

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
}

# name: (call on a non-finite entry, message)
NON_FINITE = {
    "basis": (lambda bad: lo.NiceBasis(_full((4, 2, 2), bad)), "basis elements must be finite"),
    "verify": (lambda bad: lo.verify_nice_basis(_full((4, 2, 2), bad)), "basis elements must be finite"),
    "superop-tensor": (
        lambda bad: lo.superop_matrix(lo.SuperopTensor(_full((2,) * 4, bad)), GM2), "tensor must be finite"
    ),
    "tensor4": (lambda bad: lo.Tensor4(_full((2,) * 4, bad), "x"), "tensor must be finite"),
    "superop-matrix": (lambda bad: lo.SuperopMatrix(_full((4, 4), bad), GM2), "matrix must be finite"),
    "faf": (lambda bad: lo.tensor_from_faf(lo.FAFRep(_full((4, 4), bad)), GM2), "coefficient matrix must be finite"),
    "apply-dissipator-a": (
        lambda bad: lo.apply_dissipator(_full((3, 3), bad), np.eye(2), GM2), "rate matrix a must be finite"
    ),
    "apply-dissipator-x": (
        lambda bad: lo.apply_dissipator(np.eye(3), _full((2, 2), bad), GM2), "operator X must be finite"
    ),
    "apply-liouvillian-x": (
        lambda bad: lo.apply_liouvillian(PARAMS, _full((2, 2), bad), GM2), "operator X must be finite"
    ),
    "coordinatize": (lambda bad: lo.coordinatize(_full((2, 2), bad), GM2), "operator X must be finite"),
    "decoordinatize": (lambda bad: lo.decoordinatize(_full(4, bad), GM2), "coordinates must be finite"),
    "q-from-h": (lambda bad: lo.q_from_h(_full((2, 2), bad), GM2), "Hamiltonian H must be finite"),
    "r-from-a": (lambda bad: lo.r_from_a(_full((3, 3), bad), GM2), "rate matrix a must be finite"),
    "c-from-a": (lambda bad: lo.c_from_a(_full((3, 3), bad), GM2), "rate matrix a must be finite"),
    "extreme-ray": (lambda bad: lo.sample_extreme_ray(_full((2, 2), bad), GM2), "B must be finite"),
}

PAIR = lo.OdePair(G=-np.eye(3), c=np.zeros(3))


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
    "tensor4": (lambda x: lo.Tensor4(x, "x"), (2,) * 4, "tensor must be numbers"),
    "superop-matrix": (lambda x: lo.SuperopMatrix(x, GM2), (4, 4), "matrix must be numbers"),
    "faf": (lambda x: lo.FAFRep(x), (4, 4), "coefficient matrix must be numbers"),
    "apply-dissipator-a": (lambda x: lo.apply_dissipator(x, np.eye(2), GM2), (3, 3), "rate matrix a must be numbers"),
    "apply-dissipator-x": (lambda x: lo.apply_dissipator(np.eye(3), x, GM2), (2, 2), "operator X must be numbers"),
    "apply-liouvillian-x": (lambda x: lo.apply_liouvillian(PARAMS, x, GM2), (2, 2), "operator X must be numbers"),
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
