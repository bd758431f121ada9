"""JSON command-line front end.

Subcommands: basis, verify, forward, inverse, decompose, check-cp, solve,
evolve, rarity, roundtrip. Each option is declared once, in _OPTIONS, and
_COMMANDS names the options each subcommand reads; any other flag is a usage
error. A JSON config file (--config) may set any option: a key that the
subcommand does not read is ignored, and explicit flags win.
Machine-readable JSON goes to --out (or stdout); human diagnostics go to
stderr. Exit codes: 0 success, 3 Markovian-but-not-CP (check-cp only), 1 any
error, usage errors included.

Complex fields are encoded entrywise as [re, im], real fields as plain
numbers; _COMPLEX_FIELDS names the complex ones, in input and output alike.
"""
from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import tolerance
from .basis import NiceBasis, generate_gell_mann, structure_constants, verify_nice_basis
from .cp import check_lindblad
from .forward import MasterEqParams, OdePair, forward_map, q_from_h, r_from_a
from .inverse import decompose_g, h_from_g, inverse_map, r_image_check
from .odesolve import evolve_density, solve
from .rarity import estimate_p_gue, estimate_p_lindblad_ginoe


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as CliError, so they print one error line and exit with 1."""

    def error(self, message):
        raise CliError(message)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_real(x) -> bool:
    """An int or float within the finite range of a float."""
    if _is_int(x):
        return abs(x) <= sys.float_info.max
    return isinstance(x, float) and math.isfinite(x)


def _parse_number(v) -> complex:
    if _is_real(v):
        return complex(v)
    if isinstance(v, list) and len(v) == 2 and all(_is_real(x) for x in v):
        return complex(v[0], v[1])
    raise CliError(f"expected a finite number or [re, im] pair, got {v!r}")


def _parse_matrix(rows, name: str) -> np.ndarray:
    if not isinstance(rows, list) or not rows or not all(isinstance(r, list) for r in rows):
        raise CliError(f"{name} must be a non-empty nested array")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise CliError(f"{name} must be rectangular")
    m = np.array([[_parse_number(v) for v in r] for r in rows])
    return m if name in _COMPLEX_FIELDS else _real(m, name)


def _parse_vector(vals, name: str) -> np.ndarray:
    if not isinstance(vals, list):
        raise CliError(f"{name} must be an array")
    return _real(np.array([_parse_number(v) for v in vals], dtype=complex), name)


def _real(m: np.ndarray, name: str) -> np.ndarray:
    if np.max(np.abs(m.imag), initial=0.0) > 0:
        raise CliError(f"{name} must be real")
    return m.real.copy()


def _load_input(path: str) -> dict:
    if path is None:
        raise CliError("this subcommand requires --in FILE")
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read input {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise CliError("input JSON must be an object")
    return data


def _emit(payload: dict, out_path: str | None) -> None:
    for name, value in payload.items():  # an array: entrywise [re, im] in _COMPLEX_FIELDS, else plain numbers
        if isinstance(value, np.ndarray):
            value = np.stack([value.real, value.imag], -1) if name in _COMPLEX_FIELDS else value.astype(float)
            payload[name] = value.tolist()
    text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _require_dim(args) -> int:
    if args.dim is None:
        raise CliError("this subcommand requires --dim")
    return args.dim


def _basis(args) -> NiceBasis:
    return generate_gell_mann(_require_dim(args))


def _require(data: dict, key: str):
    if key not in data:
        raise CliError(f"input must contain {key}")
    return data[key]


def _tol(args) -> float:
    return tolerance.check_rtol(tolerance.DATA if args.tol is None else args.tol, "--tol")


def _pair_from_input(data: dict, basis) -> OdePair:
    g = _parse_matrix(_require(data, "G"), "G")
    c = np.zeros(len(g)) if data.get("c") is None else _parse_vector(data["c"], "c")
    if g.shape[0] != basis.J:
        raise CliError(f"G size {g.shape[0]} does not match --dim {basis.dim} (expected {basis.J})")
    return OdePair(G=g, c=c)


def _meq_from_input(data: dict, basis) -> MasterEqParams:
    h = _parse_matrix(_require(data, "H"), "H")
    a = _parse_matrix(_require(data, "a"), "a")
    params = MasterEqParams(hamiltonian=h, rates=a)
    if params.dim != basis.dim:
        raise CliError(f"H size {params.dim} does not match --dim {basis.dim}")
    return params


# --- subcommands: each returns its JSON payload and its exit code ---------


def cmd_basis(args) -> tuple[dict, int]:
    basis = _basis(args)
    return {"dim": basis.dim, "elements": basis.elements, "structure_constants": structure_constants(basis).f}, 0


def cmd_verify(args) -> tuple[dict, int]:
    d = _require_dim(args)
    if args.input:
        elements = _require(_load_input(args.input), "elements")
        if not isinstance(elements, list) or not elements:
            raise CliError("elements must be a non-empty array of matrices")
        elements = [_parse_matrix(m, "element") for m in elements]
        if any(m.shape != (d, d) for m in elements):
            raise CliError(f"every basis element must be {d}x{d}")
    else:
        elements = generate_gell_mann(d).elements
    report = verify_nice_basis(elements, tol=_tol(args))
    if not report.passed:
        print(f"verify: {report.failure}", file=sys.stderr)
    return {
        "dim": d,
        "passed": bool(report.passed),
        "identity_violation": report.identity_violation,
        "hermiticity_violation": report.hermiticity_violation,
        "trace_violation": report.trace_violation,
        "orthonormality_violation": report.orthonormality_violation,
        "tolerance": report.tolerance,
    }, 0 if report.passed else 1


def cmd_forward(args) -> tuple[dict, int]:
    basis = _basis(args)
    params = _meq_from_input(_load_input(args.input), basis)
    pair = forward_map(params, basis)
    return {"G": pair.G, "c": pair.c, "Q": q_from_h(params.hamiltonian, basis), "R": r_from_a(params.rates, basis)}, 0


def cmd_inverse(args) -> tuple[dict, int]:
    basis = _basis(args)
    params = inverse_map(_pair_from_input(_load_input(args.input), basis), basis)
    return {"H": params.hamiltonian, "a": params.rates}, 0


def cmd_decompose(args) -> tuple[dict, int]:
    basis = _basis(args)
    g = _pair_from_input(_load_input(args.input), basis).G
    q, r = decompose_g(g, basis)
    return {"Q": q, "R": r, "H": h_from_g(g, basis), "r_image_condition": bool(r_image_check(r, basis))}, 0


def cmd_check_cp(args) -> tuple[dict, int]:
    basis = _basis(args)
    pair = _pair_from_input(_load_input(args.input), basis)
    report = check_lindblad(pair, basis, tol=_tol(args))
    payload = {
        "is_lindblad": bool(report.is_lindblad),
        "marginal": bool(report.marginal),
        "a": report.a,
        "eigenvalues": report.eigenvalues,
        "min_eigenvalue": report.min_eigenvalue,
        "tolerance_used": report.tolerance_used,
    }
    if report.diagonal_form is not None:
        payload["gamma"] = report.diagonal_form.gamma
    return payload, 0 if report.is_lindblad else 3


def cmd_solve(args) -> tuple[dict, int]:
    basis = _basis(args)
    data = _load_input(args.input)
    pair = _pair_from_input(data, basis)
    v0 = _parse_vector(data.get("v0", [0.0] * basis.J), "v0")
    times = _parse_vector(data.get("times", [0.0]), "times")
    sol = solve(pair, v0)
    payload = {"solver": sol.kind, "times": times, "trajectory": sol.trajectory(times), "v_infinity": sol.v_infinity}
    if sol.kind == "general":
        payload["frozen_consistent"] = sol.frozen_consistent
    return payload, 0


def cmd_evolve(args) -> tuple[dict, int]:
    basis = _basis(args)
    data = _load_input(args.input)
    params = _meq_from_input(data, basis)
    rho0 = _parse_matrix(_require(data, "rho0"), "rho0")
    times = _parse_vector(data.get("times", [0.0]), "times")
    rhos = evolve_density(params, rho0, times, basis)
    return {"times": times, "states": np.array(rhos)}, 0


def cmd_rarity(args) -> tuple[dict, int]:
    if args.samples is None or args.samples < 1:
        raise CliError("--samples must be a positive integer")
    seed = args.seed if args.seed is not None else 0
    if not 0 <= seed < 2**64:
        raise CliError(f"--seed must be an integer in [0, 2^64), got {seed}")
    estimate = estimate_p_gue if args.ensemble == "gue" else estimate_p_lindblad_ginoe
    est = estimate(_require_dim(args), args.samples, seed)
    payload = {
        "ensemble": est.ensemble,
        "dim": est.dim_d,
        "n_samples": est.n_samples,
        "n_positive": est.n_positive,
        "p_hat": est.p_hat,
        "ci_low": est.ci_low,
        "ci_high": est.ci_high,
        "seed": est.seed,
    }
    if est.n_spectrum_stable is not None:
        payload["n_spectrum_stable"] = est.n_spectrum_stable
    return payload, 0


def cmd_roundtrip(args) -> tuple[dict, int]:
    basis = _basis(args)
    params = _meq_from_input(_load_input(args.input), basis)
    pair = forward_map(params, basis)
    back = inverse_map(pair, basis)
    return {
        "G": pair.G, "c": pair.c, "H_recovered": back.hamiltonian, "a_recovered": back.rates,
        "max_error_H": float(np.max(np.abs(back.hamiltonian - params.hamiltonian), initial=0.0)),
        "max_error_a": float(np.max(np.abs(back.rates - params.rates), initial=0.0)),
    }, 0


# the fields written, and read, entrywise as [re, im]; every other array field is real
_COMPLEX_FIELDS = {"elements", "element", "H", "a", "rho0", "states", "H_recovered", "a_recovered"}
_ENSEMBLES = ("ginoe", "gue")
# option -> (its add_argument keywords, the check of its value in a config file)
_OPTIONS = {
    "dim": ({"type": int, "help": "Hilbert space dimension (matrix size for gue)"}, _is_int),
    "tol": ({"type": float, "help": "tolerance (default 1e-9)"}, _is_real),
    "seed": ({"type": int}, _is_int),
    "samples": ({"type": int}, _is_int),
    "ensemble": ({"choices": _ENSEMBLES, "help": "default: ginoe"}, lambda v: v in _ENSEMBLES),
    "in": ({"dest": "input", "help": "input JSON file"}, lambda v: isinstance(v, str)),
    "out": ({"help": "output JSON file (default: stdout)"}, lambda v: isinstance(v, str)),
}
# subcommand -> (handler, the options it reads)
_COMMANDS = {
    "basis": (cmd_basis, ("dim", "out")),
    "verify": (cmd_verify, ("dim", "tol", "in", "out")),
    "forward": (cmd_forward, ("dim", "in", "out")),
    "inverse": (cmd_inverse, ("dim", "in", "out")),
    "decompose": (cmd_decompose, ("dim", "in", "out")),
    "check-cp": (cmd_check_cp, ("dim", "tol", "in", "out")),
    "solve": (cmd_solve, ("dim", "in", "out")),
    "evolve": (cmd_evolve, ("dim", "in", "out")),
    "rarity": (cmd_rarity, ("dim", "seed", "samples", "ensemble", "out")),
    "roundtrip": (cmd_roundtrip, ("dim", "in", "out")),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lindblad-ode",
        description="Convert between Markovian master equations and coherence-vector ODEs.",
    )
    parser.add_argument("--config", help="optional JSON config file; explicit flags win")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, options) in _COMMANDS.items():
        p = sub.add_parser(name)
        for option in options:
            p.add_argument(f"--{option}", **_OPTIONS[option][0])
    return parser


def _apply_config(args) -> None:
    if not args.config:
        return
    try:
        with open(args.config, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read config: {exc}") from exc
    if not isinstance(cfg, dict):
        raise CliError("config must be a JSON object")
    unknown = set(cfg) - set(_OPTIONS)
    if unknown:
        raise CliError(f"unknown config keys: {sorted(unknown)}")
    for key, value in cfg.items():
        if not _OPTIONS[key][1](value):
            raise CliError(f"config value for {key} is invalid: {value!r}")
    # keys the subcommand does not read are ignored; an explicit flag has
    # already set its attribute, so it wins over the config
    for key in _COMMANDS[args.command][1]:
        dest = _OPTIONS[key][0].get("dest", key)
        if key in cfg and getattr(args, dest) is None:
            setattr(args, dest, cfg[key])


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        _apply_config(args)
        payload, code = _COMMANDS[args.command][0](args)
        _emit(payload, args.out)
        return code
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
