import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import lindblad_ode as lo
from lindblad_ode.cli import _COMMANDS, _COMPLEX_FIELDS, main


def _run(argv, out_path):
    code = main(list(argv) + ["--out", str(out_path)])
    return code, out_path.read_bytes()


def _write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def _mat(m):
    return [[[float(np.real(x)), float(np.imag(x))] for x in row] for row in m]


DEPHASING_MEQ = {"H": _mat(np.zeros((2, 2))), "a": _mat(np.diag([0.0, 0.0, 2.0]))}


def test_basis_command_reruns_byte_identical(tmp_path):
    code1, b1 = _run(["basis", "--dim", "3"], tmp_path / "a.json")
    code2, b2 = _run(["basis", "--dim", "3"], tmp_path / "b.json")
    assert code1 == code2 == 0
    assert b1 == b2
    data = json.loads(b1)
    assert data["dim"] == 3
    assert len(data["elements"]) == 9


def test_verify_command(tmp_path):
    code, out = _run(["verify", "--dim", "4"], tmp_path / "v.json")
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_verify_rejects_bad_basis(tmp_path):
    # a single identity element is not an orthonormal traceless completion
    inp = _write_json(tmp_path / "bad.json", {"elements": [_mat(np.eye(2))]})
    code = main(["verify", "--dim", "2", "--in", inp, "--out", str(tmp_path / "o.json")])
    assert code == 1


def test_verify_rejects_a_basis_that_is_one_element_short(tmp_path, capsys):
    # (I, sigma_x, sigma_y) / sqrt 2 meets every axiom, but a basis of dimension 2 has four elements
    s = 1 / np.sqrt(2)
    elements = [s * np.eye(2), s * np.array([[0, 1], [1, 0]]), s * np.array([[0, -1j], [1j, 0]])]
    inp = _write_json(tmp_path / "short.json", {"elements": [_mat(m) for m in elements]})
    code, out = _run(["verify", "--dim", "2", "--in", inp], tmp_path / "o.json")
    assert code == 1
    report = json.loads(out)
    assert report["passed"] is False and report["orthonormality_violation"] <= 1e-15
    assert capsys.readouterr().err == "verify: 3 elements, a basis of dimension 2 has 4\n"


def test_forward_inverse_pipeline(tmp_path):
    inp = _write_json(tmp_path / "meq.json", DEPHASING_MEQ)
    code, fwd_bytes = _run(["forward", "--dim", "2", "--in", inp], tmp_path / "f.json")
    assert code == 0
    fwd = json.loads(fwd_bytes)
    np.testing.assert_allclose(fwd["G"], np.diag([-2.0, -2.0, 0.0]), atol=1e-12)
    np.testing.assert_allclose(fwd["c"], 0.0, atol=1e-12)

    inv_in = _write_json(tmp_path / "gc.json", {"G": fwd["G"], "c": fwd["c"]})
    code, inv_bytes = _run(["inverse", "--dim", "2", "--in", inv_in], tmp_path / "i.json")
    assert code == 0
    inv = json.loads(inv_bytes)
    a = np.array([[complex(re, im) for re, im in row] for row in inv["a"]])
    np.testing.assert_allclose(a, np.diag([0.0, 0.0, 2.0]), atol=1e-10)


def test_roundtrip_command_small_error(tmp_path):
    rng = np.random.default_rng(8)
    h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    h = (h + h.conj().T) / 2
    b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    a = b @ b.conj().T
    inp = _write_json(tmp_path / "m.json", {"H": _mat(h), "a": _mat(a)})
    code, out = _run(["roundtrip", "--dim", "2", "--in", inp], tmp_path / "r.json")
    assert code == 0
    data = json.loads(out)
    assert data["max_error_a"] < 1e-10
    assert data["max_error_H"] < 1e-10


def test_check_cp_exit_codes(tmp_path):
    inp = _write_json(tmp_path / "ok.json", DEPHASING_MEQ)
    code, fwd = _run(["forward", "--dim", "2", "--in", inp], tmp_path / "f.json")
    gc = json.loads(fwd)
    ok_in = _write_json(tmp_path / "gc.json", {"G": gc["G"], "c": gc["c"]})
    code, out = _run(["check-cp", "--dim", "2", "--in", ok_in], tmp_path / "cp.json")
    assert code == 0
    assert json.loads(out)["is_lindblad"] is True

    # a pure rotation plus a negative-rate dissipator is not completely positive
    bad_g = (np.diag([-2.0, -2.0, 0.0]) * -1.0).tolist()
    bad_in = _write_json(tmp_path / "bad.json", {"G": bad_g, "c": [0.0, 0.0, 0.0]})
    code, out = _run(["check-cp", "--dim", "2", "--in", bad_in], tmp_path / "cp2.json")
    assert code == 3
    assert json.loads(out)["is_lindblad"] is False


def test_decompose_command(tmp_path):
    g = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    inp = _write_json(tmp_path / "g.json", {"G": g.tolist()})
    code, out = _run(["decompose", "--dim", "2", "--in", inp], tmp_path / "d.json")
    assert code == 0
    data = json.loads(out)
    np.testing.assert_allclose(data["Q"], g, atol=1e-12)
    np.testing.assert_allclose(data["R"], 0.0, atol=1e-12)
    assert data["r_image_condition"] is True


def test_solve_command(tmp_path):
    payload = {
        "G": np.diag([-1.0, -1.0, -2.0]).tolist(),
        "c": [0.0, 0.0, 1.0],
        "v0": [0.5, 0.0, 0.0],
        "times": [0.0, 1.0],
    }
    inp = _write_json(tmp_path / "s.json", payload)
    code, out = _run(["solve", "--dim", "2", "--in", inp], tmp_path / "sol.json")
    assert code == 0
    data = json.loads(out)
    traj = np.array(data["trajectory"])
    np.testing.assert_allclose(traj[0], [0.5, 0.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(traj[1], [0.5 * np.exp(-1.0), 0.0, 0.5 * (1 - np.exp(-2.0))], atol=1e-10)
    np.testing.assert_allclose(data["v_infinity"], [0.0, 0.0, 0.5], atol=1e-12)


def test_evolve_command(tmp_path):
    payload = dict(DEPHASING_MEQ)
    payload["rho0"] = _mat(0.5 * np.array([[1.0, 1.0], [1.0, 1.0]]))
    payload["times"] = [0.0, 10.0]
    inp = _write_json(tmp_path / "e.json", payload)
    code, out = _run(["evolve", "--dim", "2", "--in", inp], tmp_path / "ev.json")
    assert code == 0
    states = json.loads(out)["states"]
    late = np.array([[complex(re, im) for re, im in row] for row in states[1]])
    np.testing.assert_allclose(late, np.eye(2) / 2, atol=1e-8)


def test_rarity_reruns_byte_identical(tmp_path):
    argv = ["rarity", "--dim", "2", "--seed", "12", "--samples", "2000"]
    code1, b1 = _run(argv, tmp_path / "r1.json")
    code2, b2 = _run(argv, tmp_path / "r2.json")
    assert code1 == code2 == 0
    assert b1 == b2
    data = json.loads(b1)
    assert data["n_positive"] <= data["n_spectrum_stable"]


def test_rarity_gue_ensemble(tmp_path):
    argv = ["rarity", "--ensemble", "gue", "--dim", "1", "--seed", "3", "--samples", "4000"]
    code, out = _run(argv, tmp_path / "g.json")
    assert code == 0
    data = json.loads(out)
    assert data["ci_low"] <= 0.5 <= data["ci_high"]


def test_config_file_with_flag_override(tmp_path):
    cfg = _write_json(tmp_path / "cfg.json", {"dim": 3, "seed": 5, "samples": 1000})
    out1 = tmp_path / "c1.json"
    code = main(["--config", cfg, "rarity", "--dim", "2", "--out", str(out1)])
    assert code == 0
    data = json.loads(out1.read_bytes())
    assert data["dim"] == 2  # explicit flag beats the config value
    assert data["seed"] == 5
    assert data["n_samples"] == 1000


def test_config_rejects_unknown_keys(tmp_path, capsys):
    cfg = _write_json(tmp_path / "cfg.json", {"dim": 2, "bogus": 1})
    code = main(["--config", cfg, "basis"])
    assert code == 1
    assert "bogus" in capsys.readouterr().err


def test_malformed_input_fails_cleanly(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = main(["forward", "--dim", "2", "--in", str(bad)])
    assert code == 1
    assert capsys.readouterr().err.strip() != ""


def test_missing_dim_is_an_error(tmp_path, capsys):
    inp = _write_json(tmp_path / "m.json", DEPHASING_MEQ)
    code = main(["forward", "--in", inp])
    assert code == 1



def _tolerance_used(tmp_path, argv):
    gc = _write_json(tmp_path / "gc.json", {"G": np.diag([-2.0, -2.0, 0.0]).tolist()})
    out = tmp_path / "cp.json"
    assert main(argv + ["--in", gc, "--out", str(out)]) == 0
    return json.loads(out.read_bytes())["tolerance_used"]


def test_check_cp_tolerance_resolution(tmp_path):
    assert _tolerance_used(tmp_path, ["check-cp", "--dim", "2"]) == 1e-9
    assert _tolerance_used(tmp_path, ["check-cp", "--dim", "2", "--tol", "0"]) == 0.0
    cfg = _write_json(tmp_path / "cfg.json", {"tol": 0.25})
    assert _tolerance_used(tmp_path, ["--config", cfg, "check-cp", "--dim", "2"]) == 0.25
    # an explicit flag still beats the config file
    assert _tolerance_used(tmp_path, ["--config", cfg, "check-cp", "--dim", "2", "--tol", "1e-6"]) == 1e-6


def test_one_tolerance_prints_one_way(tmp_path, capsys):
    # the flag 0 printed 0.0, the flag -0.0 printed -0.0 (and verify's stderr "beyond the tolerance -0"),
    # and a config's int 0 printed 0; verify fails at tol 0, so its stderr is compared as well
    gc = _write_json(tmp_path / "gc.json", {"G": np.diag([-2.0, -2.0, 0.0]).tolist()})
    cfg = _write_json(tmp_path / "cfg.json", {"tol": 0})
    for command in (["check-cp", "--dim", "2", "--in", gc], ["verify", "--dim", "2"]):
        runs = []
        for argv in (command + ["--tol", "0"], command + ["--tol", "-0.0"], ["--config", cfg] + command):
            code = main(argv)
            runs.append((code, *capsys.readouterr()))
        assert runs[0] == runs[1] == runs[2]


_G3 = "[[-1, 0, 0], [0, -1, 0], [0, 0, -2]]"
_ZERO_MEQ = '"H": [[0, 0], [0, 0]], "a": [[0, 0, 0], [0, 0, 0], [0, 0, 0]]'
# a valid d=3 master equation, given with --dim 2
_ZERO_MEQ_D3 = '"H": %s, "a": %s' % ([[0] * 3] * 3, [[0] * 8] * 8)
# a JSON integer beyond the range of a float
_HUGE_INT = "1" + "0" * 400

# name: (argv, input JSON or None, text the error line must contain)
MALFORMED = {
    "decompose-without-G": (["decompose", "--dim", "2"], '{"c": [0, 0, 0]}', "must contain G"),
    "verify-without-elements": (["verify", "--dim", "2"], "{}", "must contain elements"),
    "verify-elements-not-an-array": (["verify", "--dim", "2"], '{"elements": 3}', "elements"),
    "verify-elements-wrong-size": (
        ["verify", "--dim", "2"], '{"elements": [[[1, 0, 0], [0, 1, 0], [0, 0, 1]]]}', "2x2"
    ),
    "check-cp-without-G": (["check-cp", "--dim", "2"], "{}", "must contain G"),
    "solve-nan-time": (["solve", "--dim", "2"], '{"G": %s, "times": [0, NaN]}' % _G3, "finite"),
    "solve-overflowing-time": (["solve", "--dim", "2"], '{"G": %s, "times": [0, 1e400]}' % _G3, "finite"),
    "solve-infinite-v0": (["solve", "--dim", "2"], '{"G": %s, "v0": [Infinity, 0, 0]}' % _G3, "finite"),
    "solve-boolean-entry": (["solve", "--dim", "2"], '{"G": [[true, 0, 0], [0, -1, 0], [0, 0, -2]]}', "number"),
    "evolve-nan-time": (
        ["evolve", "--dim", "2"], '{%s, "rho0": [[1, 0], [0, 0]], "times": [NaN]}' % _ZERO_MEQ, "finite"
    ),
    "forward-nan-rate": (
        ["forward", "--dim", "2"], '{"H": [[0, 0], [0, 0]], "a": [[NaN, 0, 0], [0, 0, 0], [0, 0, 0]]}', "finite"
    ),
    "check-cp-negative-tol": (["check-cp", "--dim", "2", "--tol", "-1"], '{"G": %s}' % _G3, "--tol"),
    "check-cp-nan-tol": (["check-cp", "--dim", "2", "--tol", "nan"], '{"G": %s}' % _G3, "--tol"),
    "rarity-ginoe-dim-1": (["rarity", "--dim", "1", "--samples", "10"], None, "d >= 2"),
    "rarity-negative-seed": (["rarity", "--dim", "2", "--samples", "10", "--seed", "-1"], None, "--seed"),
    "config-tol-not-a-number": (["--config", '{"tol": "x"}', "check-cp", "--dim", "2"], '{"G": %s}' % _G3, "tol"),
    "config-dim-not-an-integer": (["--config", '{"dim": "x"}', "basis"], None, "dim"),
    "bad-dim": (["basis", "--dim", "x"], None, "invalid int value"),
    "unknown-subcommand": (["transmogrify", "--dim", "2"], None, "invalid choice"),
    "check-cp-complex-G": (
        ["check-cp", "--dim", "2"], '{"G": [[[-1, 2], 0, 0], [0, -1, 0], [0, 0, -2]]}', "G must be real"
    ),
    # a finite G whose rate matrix overflows: RuntimeWarnings, then numpy's "Eigenvalues did not converge"
    "check-cp-overflowing-G": (
        ["check-cp", "--dim", "3"], '{"G": %s}' % ([[1.7e308] * 8] * 8), "rate matrix a of (G, c) is not finite"
    ),
    "check-cp-complex-c": (["check-cp", "--dim", "2"], '{"G": %s, "c": [[0.0, 3.0], 0, 1]}' % _G3, "c must be real"),
    "solve-complex-c": (["solve", "--dim", "2"], '{"G": %s, "c": [[0.0, 3.0], 0, 1]}' % _G3, "c must be real"),
    "solve-complex-v0": (["solve", "--dim", "2"], '{"G": %s, "v0": [1, [0, -2], 0]}' % _G3, "v0 must be real"),
    "solve-complex-time": (["solve", "--dim", "2"], '{"G": %s, "times": [[1.0, 7.0]]}' % _G3, "times must be real"),
    "evolve-complex-time": (
        ["evolve", "--dim", "2"],
        '{%s, "rho0": [[1, 0], [0, 0]], "times": [[2, 1e-300]]}' % _ZERO_MEQ,
        "times must be real",
    ),
    "solve-spectral-overflow": (
        ["solve", "--dim", "2"],
        '{"G": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "v0": [1, 0, 0], "times": [1e4]}',
        "not finite at t = 10000",
    ),
    "solve-propagator-overflow": (
        ["solve", "--dim", "2"], '{"G": [[0, 0, 0], [0, 1, 0], [0, 0, 1]], "times": [1e4]}', "not finite at t = 10000"
    ),
    "solve-hamiltonian-only-huge-time": (
        ["solve", "--dim", "2"],
        '{"G": [[0, 1, 0], [-1, 0, 0], [0, 0, 0]], "v0": [1, 0, 0], "times": [1e300]}',
        "not finite at t = 1e+300",
    ),
    "evolve-propagator-overflow": (
        ["evolve", "--dim", "2"],
        '{"H": [[0, 0], [0, 0]], "a": [[0, 0, 0], [0, 0, 0], [0, 0, -2]], "rho0": [[1, 0], [0, 0]], "times": [1e4]}',
        "not finite at t = 10000",
    ),
    "evolve-hamiltonian-only-huge-time": (
        ["evolve", "--dim", "2"],
        '{"H": [[1, 0], [0, -1]], "a": [[0, 0, 0], [0, 0, 0], [0, 0, 0]], "rho0": [[0.5, 0.5], [0.5, 0.5]], '
        '"times": [1e300]}',
        "not finite at t = 1e+300",
    ),
    "check-cp-huge-int-in-G": (
        ["check-cp", "--dim", "2"],
        '{"G": [[%s, 0, 0], [0, -1, 0], [0, 0, -2]]}' % _HUGE_INT,
        "expected a finite number",
    ),
    "config-tol-huge-int": (
        ["--config", '{"tol": %s}' % _HUGE_INT, "check-cp", "--dim", "2"], '{"G": %s}' % _G3, "tol"
    ),
    "evolve-H-larger-than-dim": (
        ["evolve", "--dim", "2"], '{%s, "rho0": [[1, 0], [0, 0]], "times": [0, 1]}' % _ZERO_MEQ_D3, "does not match --dim"
    ),
    "roundtrip-H-larger-than-dim": (["roundtrip", "--dim", "2"], "{%s}" % _ZERO_MEQ_D3, "does not match --dim"),
    # a flag the subcommand does not read is a usage error, not silently ignored
    "solve-tol-not-read": (["solve", "--dim", "2", "--tol", "1e-6"], '{"G": %s}' % _G3, "unrecognized arguments"),
    "forward-seed-not-read": (["forward", "--dim", "2", "--seed", "3"], "{%s}" % _ZERO_MEQ, "unrecognized arguments"),
    "config-unknown-ensemble": (
        ["--config", '{"ensemble": "goe"}', "rarity", "--dim", "2", "--samples", "10"], None, "ensemble"
    ),
    # at d = 1 the library refuses every rate matrix, G, c and v0 that is not empty, and an empty H or rho0
    "forward-dim-1-a-of-one-empty-row": (
        ["forward", "--dim", "1"], '{"H": [[0]], "a": [[]]}', "rate matrix a must have shape (0, 0), got (1, 0)"
    ),
    "roundtrip-dim-1-a-1x1": (
        ["roundtrip", "--dim", "1"], '{"H": [[0]], "a": [[1]]}', "rate matrix a must have shape (0, 0), got (1, 1)"
    ),
    "forward-empty-H": (
        ["forward", "--dim", "1"], '{"H": [], "a": []}', "Hamiltonian H must have shape (n, n) with n >= 1, got (0, 0)"
    ),
    "check-cp-dim-1-G-1x1": (["check-cp", "--dim", "1"], '{"G": [[0]]}', "G size 1 does not match --dim 1"),
    "inverse-dim-1-c-of-one": (["inverse", "--dim", "1"], '{"G": [], "c": [1]}', "c must have shape (0,), got (1,)"),
    "solve-dim-1-v0-of-one": (["solve", "--dim", "1"], '{"G": [], "v0": [1]}', "v0 must have shape (0,), got (1,)"),
    "evolve-dim-1-empty-rho0": (
        ["evolve", "--dim", "1"],
        '{"H": [[0]], "a": [], "rho0": [], "times": [0]}',
        "density matrix must have shape (1, 1), got (0, 0)",
    ),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_input_exits_1_without_traceback(name, tmp_path, capsys):
    argv, payload, needle = MALFORMED[name]
    argv = list(argv)
    if argv[0] == "--config":
        cfg = tmp_path / "cfg.json"
        cfg.write_text(argv[1])
        argv[1] = str(cfg)
    if payload is not None:
        inp = tmp_path / "in.json"
        inp.write_text(payload)
        argv += ["--in", str(inp)]
    code = main(argv + ["--out", str(tmp_path / "out.json")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and needle in err
    assert "Traceback" not in err and err.count("\n") == 1


_D1_MEQ = {"H": [[0]], "a": []}
_D1_PAIR = {"G": [], "c": []}
# subcommand: (its other flags, its input or None, fields of its output); at d = 1, J = 0, so a, G, c and v0 are
# empty, and [] is read as the 0 x 0 matrix. Every call but basis, verify and rarity used to exit 1 with
# "must be a non-empty nested array"
DIM_ONE = {
    "basis": ([], None, {"elements": [[[[1.0, 0.0]]]], "structure_constants": []}),
    "verify": ([], None, {"passed": True}),
    "forward": ([], _D1_MEQ, {"G": [], "c": [], "Q": [], "R": []}),
    "inverse": ([], _D1_PAIR, {"H": [[[0.0, 0.0]]], "a": []}),
    "decompose": ([], {"G": []}, {"Q": [], "R": [], "H": [[[0.0, 0.0]]], "r_image_condition": True}),
    "check-cp": ([], _D1_PAIR, {"is_lindblad": True, "a": [], "eigenvalues": []}),
    "solve": ([], {**_D1_PAIR, "v0": [], "times": [0, 1]}, {"times": [0.0, 1.0], "trajectory": [[], []]}),
    "evolve": ([], {**_D1_MEQ, "rho0": [[1]], "times": [0, 1]}, {"states": [[[[1.0, 0.0]]]] * 2}),
    "rarity": (["--ensemble", "gue", "--samples", "16"], None, {"ensemble": "GUE", "dim": 1, "n_samples": 16}),
    "roundtrip": ([], _D1_MEQ, {"a_recovered": [], "max_error_H": 0.0, "max_error_a": 0.0}),
}


@pytest.mark.parametrize("command", sorted(DIM_ONE))
def test_every_subcommand_runs_at_dimension_one(command, tmp_path):
    args, payload, fields = DIM_ONE[command]
    argv = [command, "--dim", "1", *args]
    if payload is not None:
        argv += ["--in", _write_json(tmp_path / "in.json", payload)]
    code, out = _run(argv, tmp_path / "out.json")
    assert code == 0
    out = json.loads(out)
    assert {name: out[name] for name in fields} == fields


def test_config_keys_are_shared_and_ignored_where_unread(tmp_path, capsys):
    inp = _write_json(tmp_path / "meq.json", DEPHASING_MEQ)
    cfg = _write_json(tmp_path / "cfg.json", {"seed": 5, "tol": 0.25})
    assert main(["forward", "--dim", "2", "--in", inp]) == 0
    plain = capsys.readouterr().out
    assert main(["--config", cfg, "forward", "--dim", "2", "--in", inp]) == 0
    assert capsys.readouterr().out == plain


def test_usage_errors_exit_1_and_help_exits_0(capsys):
    assert main([]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "required" in err and err.count("\n") == 1
    for argv in (["--help"], ["rarity", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "usage:" in capsys.readouterr().out


def test_config_ensemble_is_applied(tmp_path):
    cfg = _write_json(tmp_path / "cfg.json", {"ensemble": "gue", "dim": 1, "samples": 100})
    out = tmp_path / "r.json"
    assert main(["--config", cfg, "rarity", "--out", str(out)]) == 0
    assert json.loads(out.read_bytes())["ensemble"] == "GUE"


def test_real_fields_accept_pairs_with_zero_imaginary_part(tmp_path):
    plain = {"G": json.loads(_G3), "c": [0, 0, 1], "v0": [0.5, 0, 0], "times": [0, 1]}
    pairs = {"G": json.loads(_G3), "c": [[0, 0], 0, [1, -0.0]], "v0": [[0.5, 0], 0, 0], "times": [0, [1, 0]]}
    outs = []
    for name, payload in (("plain", plain), ("pairs", pairs)):
        inp = _write_json(tmp_path / f"{name}.json", payload)
        code, out = _run(["solve", "--dim", "2", "--in", inp], tmp_path / f"{name}.out")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


# runs in a fresh interpreter, so only what these calls import is loaded
_COLD_PROCESS = textwrap.dedent(
    """
    import json, sys
    import lindblad_ode
    from lindblad_ode.cli import main

    work = sys.argv[1]
    assert "scipy" not in sys.modules

    def run(argv, payload):
        with open(f"{work}/in.json", "w") as fh:
            json.dump(payload, fh)
        assert main(argv + ["--dim", "2", "--in", f"{work}/in.json", "--out", f"{work}/out.json"]) == 0, argv
        assert "scipy" not in sys.modules, argv
        with open(f"{work}/out.json") as fh:
            return json.load(fh)

    fwd = run(["forward"], {"H": [[0, 0], [0, 0]], "a": [[0, 0, 0], [0, 0, 0], [0, 0, 2]]})
    run(["inverse"], {"G": fwd["G"], "c": fwd["c"]})
    run(["check-cp"], {"G": fwd["G"], "c": fwd["c"]})
    spectral = run(["solve"], {"G": [[-1, 0, 0], [0, -1, 0], [0, 0, -2]], "c": [0, 0, 1], "times": [0, 1]})
    assert spectral["solver"] == "diagonalizable_invertible"
    # a Hamiltonian-only G is singular, so solve takes the propagator branch
    general = run(["solve"], {"G": [[0, 1, 0], [-1, 0, 0], [0, 0, 0]], "v0": [1, 0, 0], "times": [0, 1]})
    assert general["solver"] == "general"
    run(["evolve"], {"H": [[1, 0], [0, -1]], "a": [[0, 0, 0], [0, 0, 0], [0, 0, 0]], "rho0": [[1, 0], [0, 0]], "times": [0, 1]})
    print("ok")
    """
)


def test_no_cli_path_loads_scipy(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", _COLD_PROCESS, str(tmp_path)], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"


def _field_inputs():
    """subcommand -> (its arguments, its input or None) at d = 3, where no real array field has a last axis of 2."""
    h, a = np.diag([1.0, 0.0, -1.0]), np.eye(8) + 0.5j * (np.eye(8, k=1) - np.eye(8, k=-1))
    pair = lo.forward_map(lo.MasterEqParams(h, a), lo.generate_gell_mann(3))
    meq = {"H": _mat(h), "a": _mat(a)}
    gc = {"G": pair.G.tolist(), "c": pair.c.tolist()}
    return {
        "basis": ([], None),
        "verify": ([], {"elements": [_mat(f) for f in lo.generate_gell_mann(3).elements]}),
        "forward": ([], meq),
        "inverse": ([], gc),
        "decompose": ([], gc),
        "check-cp": ([], gc),
        "solve": ([], {**gc, "v0": [0.1] * 8, "times": [0, 0.5, 1]}),
        "evolve": ([], {**meq, "rho0": _mat(np.diag([1.0, 0.0, 0.0])), "times": [0, 0.5, 1]}),
        "rarity": (["--samples", "16"], None),
        "roundtrip": ([], meq),
    }


@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_an_array_field_is_written_as_pairs_exactly_when_it_is_complex(command, tmp_path):
    # at d = 3 a real array ends in an axis of length 3, 8 or 9, so a last axis of 2 marks [re, im] pairs
    args, payload = _field_inputs()[command]
    argv = [command, "--dim", "3", *args]
    if payload is not None:
        argv += ["--in", _write_json(tmp_path / "in.json", payload)]
    code, out = _run(argv, tmp_path / "out.json")
    assert code == 0
    for name, value in json.loads(out).items():
        if isinstance(value, list):
            entries = np.array(value)
            assert entries.dtype == float, name
            assert (entries.ndim > 1 and entries.shape[-1] == 2) == (name in _COMPLEX_FIELDS), name
