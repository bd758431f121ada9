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
