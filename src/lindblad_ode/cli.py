"""JSON command-line front end.

Subcommands: basis, verify, forward, inverse, decompose, check-cp, solve,
evolve, rarity, roundtrip. Machine-readable JSON goes to --out (or stdout);
human diagnostics go to stderr. Exit codes: 0 success, 3 Markovian-but-not-CP
(check-cp only), 1 any error.

Complex-typed fields (H, a, rho, basis elements) are encoded entrywise as
[re, im]; real fields (G, c, Q, R, v) as plain numbers.
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
from .forward import MasterEqParams, OdePair, forward_map
from .inverse import decompose_g, h_from_g, inverse_map, r_image_check
from .odesolve import evolve_density, solve
from .rarity import estimate_p_gue, estimate_p_lindblad_ginoe


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as CliError, so they print one error line and exit with 1."""

    def error(self, message):
        raise CliError(message)


def _complex_out(m: np.ndarray):
    m = np.asarray(m, dtype=complex)
    return np.stack([m.real, m.imag], -1).tolist()


def _real_out(m: np.ndarray):
    return np.asarray(m, dtype=float).tolist()


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
    return np.array([[_parse_number(v) for v in r] for r in rows])


def _parse_vector(vals, name: str) -> np.ndarray:
    if not isinstance(vals, list):
        raise CliError(f"{name} must be an array")
    v = np.array([_parse_number(v) for v in vals], dtype=complex)
    if np.max(np.abs(v.imag), initial=0.0) > 0:
        raise CliError(f"{name} must be real")
    return v.real.copy()


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
    text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _require_dim(args) -> int:
    if args.dim is None:
        raise CliError("this subcommand requires --dim")
    if args.dim < 1:
        raise CliError("--dim must be a positive integer")
    return args.dim


def _require(data: dict, key: str):
    if key not in data:
        raise CliError(f"input must contain {key}")
    return data[key]


def _tol(args, default: float) -> float:
    tol = default if args.tol is None else args.tol
    if not _is_real(tol) or tol < 0:
        raise CliError(f"--tol must be a finite non-negative number, got {tol!r}")
    return tol


def _pair_from_input(data: dict, basis) -> OdePair:
    g = _parse_matrix(_require(data, "G"), "G")
    if np.max(np.abs(g.imag), initial=0.0) > 0:
        raise CliError("G must be real")
    g = g.real
    if "c" in data and data["c"] is not None:
        c = _parse_vector(data["c"], "c")
    else:
        c = np.zeros(g.shape[0])
    if g.shape[0] != basis.J:
        raise CliError(f"G size {g.shape[0]} does not match --dim {basis.dim} (expected {basis.J})")
    return OdePair(G=g, c=c)


def _meq_from_input(data: dict, basis) -> MasterEqParams:
    h = _parse_matrix(_require(data, "H"), "H")
    a = _parse_matrix(_require(data, "a"), "a")
    return MasterEqParams(hamiltonian=h, rates=a)


# --- subcommands -----------------------------------------------------------


def cmd_basis(args) -> int:
    d = _require_dim(args)
    basis = generate_gell_mann(d)
    f = structure_constants(basis).f
    _emit(
        {
            "dim": d,
            "elements": _complex_out(basis.elements),
            "structure_constants": _real_out(f),
        },
        args.out,
    )
    return 0


def cmd_verify(args) -> int:
    d = _require_dim(args)
    if args.input:
        elements = _require(_load_input(args.input), "elements")
        if not isinstance(elements, list) or not elements:
            raise CliError("elements must be a non-empty array of matrices")
        elements = [_parse_matrix(m, "element") for m in elements]
        if any(m.shape != (d, d) for m in elements):
            raise CliError(f"every basis element must be {d}x{d}")
        basis = NiceBasis(dim=d, elements=np.array(elements))
    else:
        basis = generate_gell_mann(d)
    report = verify_nice_basis(basis, tol=_tol(args, tolerance.DATA))
    _emit(
        {
            "dim": d,
            "passed": bool(report.passed),
            "identity_violation": report.identity_violation,
            "hermiticity_violation": report.hermiticity_violation,
            "trace_violation": report.trace_violation,
            "orthonormality_violation": report.orthonormality_violation,
            "tolerance": report.tolerance,
        },
        args.out,
    )
    return 0 if report.passed else 1


def cmd_forward(args) -> int:
    d = _require_dim(args)
    basis = generate_gell_mann(d)
    params = _meq_from_input(_load_input(args.input), basis)
    if params.dim != d:
        raise CliError(f"H size {params.dim} does not match --dim {d}")
    pair = forward_map(params, basis)
    _emit(
        {
            "G": _real_out(pair.G),
            "c": _real_out(pair.c),
            "Q": _real_out(pair.Q),
            "R": _real_out(pair.R),
        },
        args.out,
    )
    return 0


def cmd_inverse(args) -> int:
    d = _require_dim(args)
    basis = generate_gell_mann(d)
    pair = _pair_from_input(_load_input(args.input), basis)
    params = inverse_map(pair, basis)
    _emit({"H": _complex_out(params.hamiltonian), "a": _complex_out(params.rates)}, args.out)
    return 0


def cmd_decompose(args) -> int:
    d = _require_dim(args)
    basis = generate_gell_mann(d)
    g = _pair_from_input(_load_input(args.input), basis).G
    q, r = decompose_g(g, basis)
    _emit(
        {
            "Q": _real_out(q),
            "R": _real_out(r),
            "H": _complex_out(h_from_g(g, basis)),
            "r_image_condition": bool(r_image_check(r, basis)),
        },
        args.out,
    )
    return 0


def cmd_check_cp(args) -> int:
    d = _require_dim(args)
    basis = generate_gell_mann(d)
    pair = _pair_from_input(_load_input(args.input), basis)
    report = check_lindblad(pair, basis, tol=_tol(args, tolerance.DATA))
    payload = {
        "is_lindblad": bool(report.is_lindblad),
        "marginal": bool(report.marginal),
        "a": _complex_out(report.a),
        "eigenvalues": _real_out(report.eigenvalues),
        "min_eigenvalue": report.min_eigenvalue,
        "tolerance_used": report.tolerance_used,
    }
    if report.diagonal_form is not None:
        payload["gamma"] = _real_out(report.diagonal_form.gamma)
    _emit(payload, args.out)
    return 0 if report.is_lindblad else 3


def cmd_solve(args) -> int:
    d = _require_dim(args)
    basis = generate_gell_mann(d)
    data = _load_input(args.input)
    pair = _pair_from_input(data, basis)
    v0 = _parse_vector(data.get("v0", [0.0] * basis.J), "v0")
    times = _parse_vector(data.get("times", [0.0]), "times")
    sol = solve(pair, v0)
    payload = {
        "solver": sol.kind,
        "times": _real_out(times),
        "trajectory": _real_out(sol.trajectory(times)),
        "v_infinity": None if sol.v_infinity is None else _real_out(sol.v_infinity),
    }
    if sol.kind == "general":
        payload["frozen_consistent"] = sol.frozen_consistent
    _emit(payload, args.out)
    return 0


def cmd_evolve(args) -> int:
    d = _require_dim(args)
    basis = generate_gell_mann(d)
    data = _load_input(args.input)
    params = _meq_from_input(data, basis)
    rho0 = _parse_matrix(_require(data, "rho0"), "rho0")
    times = _parse_vector(data.get("times", [0.0]), "times")
    rhos = evolve_density(params, rho0, times, basis)
    _emit(
        {"times": _real_out(times), "states": [_complex_out(r) for r in rhos]},
        args.out,
    )
    return 0


def cmd_rarity(args) -> int:
    if args.samples is None or args.samples < 1:
        raise CliError("--samples must be a positive integer")
    seed = args.seed if args.seed is not None else 0
    if not 0 <= seed < 2**64:
        raise CliError(f"--seed must be an integer in [0, 2^64), got {seed}")
    if args.ensemble == "gue":
        est = estimate_p_gue(_require_dim(args), args.samples, seed)
    else:
        est = estimate_p_lindblad_ginoe(_require_dim(args), args.samples, seed)
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
    _emit(payload, args.out)
    return 0


def cmd_roundtrip(args) -> int:
    d = _require_dim(args)
    basis = generate_gell_mann(d)
    params = _meq_from_input(_load_input(args.input), basis)
    pair = forward_map(params, basis)
    back = inverse_map(pair, basis)
    _emit(
        {
            "G": _real_out(pair.G),
            "c": _real_out(pair.c),
            "H_recovered": _complex_out(back.hamiltonian),
            "a_recovered": _complex_out(back.rates),
            "max_error_H": float(np.max(np.abs(back.hamiltonian - params.hamiltonian), initial=0.0)),
            "max_error_a": float(np.max(np.abs(back.rates - params.rates), initial=0.0)),
        },
        args.out,
    )
    return 0


_COMMANDS = {
    "basis": cmd_basis,
    "verify": cmd_verify,
    "forward": cmd_forward,
    "inverse": cmd_inverse,
    "decompose": cmd_decompose,
    "check-cp": cmd_check_cp,
    "solve": cmd_solve,
    "evolve": cmd_evolve,
    "rarity": cmd_rarity,
    "roundtrip": cmd_roundtrip,
}

_ENSEMBLES = ("ginoe", "gue")
# config key -> check of its value
_CONFIG_KEYS = {
    "dim": _is_int,
    "tol": _is_real,
    "seed": _is_int,
    "samples": _is_int,
    "ensemble": lambda v: v in _ENSEMBLES,
    "in": lambda v: isinstance(v, str),
    "out": lambda v: isinstance(v, str),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lindblad-ode",
        description="Convert between Markovian master equations and coherence-vector ODEs.",
    )
    parser.add_argument("--config", help="optional JSON config file; explicit flags win")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--dim", type=int, default=None, help="Hilbert space dimension (matrix size for gue)")
        p.add_argument("--tol", type=float, default=None, help="tolerance (verify, check-cp)")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--samples", type=int, default=None)
        p.add_argument("--in", dest="input", default=None, help="input JSON file")
        p.add_argument("--out", default=None, help="output JSON file (default: stdout)")
        if name == "rarity":
            p.add_argument("--ensemble", choices=_ENSEMBLES, default=None, help="default: ginoe")
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
    unknown = set(cfg) - set(_CONFIG_KEYS)
    if unknown:
        raise CliError(f"unknown config keys: {sorted(unknown)}")
    for key, value in cfg.items():
        if not _CONFIG_KEYS[key](value):
            raise CliError(f"config value for {key} is invalid: {value!r}")
    # an explicit flag has already set its attribute, so it wins over the config
    mapping = {"in": "input"}
    for key, value in cfg.items():
        attr = mapping.get(key, key)
        if getattr(args, attr, None) is None:
            setattr(args, attr, value)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        _apply_config(args)
        return _COMMANDS[args.command](args)
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
