"""The benchmark's three workloads.

Each workload makes all of its inputs from the seed at set-up and then runs
one op at a time: a closed loop with one client, where the next op starts
when the previous one has returned. ``run`` performs one op and returns what
the library produced; ``check`` returns the op's failed checks as messages,
an empty list when the op is correct. Why each workload exists, and what a
change to each layer should move on it, is written down in README.md.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

import numpy as np

import lindblad_ode as lo
from lindblad_ode import cli as lo_cli

# Times at which every convert op evaluates the trajectory (t = 0 first).
TIMES = np.linspace(0.0, 2.0, 64)
# Share of generator kinds in every round: completely positive, Markovian
# but not CP, and Hamiltonian-only (a = 0, so G is singular).
KIND_WEIGHTS = {"cp": 2, "noncp": 1, "ham": 1}
# Lowest eigenvalue given to the rate matrix of a non-CP generator.
NONCP_MIN_EIG = -0.5
# Checks compare with a bound of CHECK_TOL times the largest entry of the
# reference data (or CHECK_TOL when that is below 1).
CHECK_TOL = 1e-9
SPECTRAL = "diagonalizable_invertible"


def _max_abs(x) -> float:
    return float(np.max(np.abs(x), initial=0.0))


def _close(x, ref) -> bool:
    return _max_abs(np.asarray(x) - np.asarray(ref)) <= CHECK_TOL * max(1.0, _max_abs(ref))


def _seed_for(*keys: int) -> int:
    """A fresh 32-bit seed derived from the workload seed and an op index."""
    return int(np.random.SeedSequence(list(keys)).generate_state(1)[0])


def random_hamiltonian(rng: np.random.Generator, d: int) -> np.ndarray:
    h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (h + h.conj().T) / 2


def random_rates(rng: np.random.Generator, d: int, kind: str) -> np.ndarray:
    """Rate matrix a for a generator of the given kind.

    cp: a = B B^dag / J, positive semidefinite. noncp: the same a shifted so
    that its lowest eigenvalue is NONCP_MIN_EIG. ham: a = 0.
    """
    j = d * d - 1
    if kind == "ham":
        return np.zeros((j, j), dtype=complex)
    b = rng.standard_normal((j, j)) + 1j * rng.standard_normal((j, j))
    a = b @ b.conj().T / j
    if kind == "noncp":
        a -= (np.linalg.eigvalsh(a)[0] - NONCP_MIN_EIG) * np.eye(j)
    return a


def random_pure_state(rng: np.random.Generator, d: int) -> np.ndarray:
    psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    psi /= np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


def random_params(rng: np.random.Generator, d: int, kind: str) -> lo.MasterEqParams:
    return lo.MasterEqParams(hamiltonian=random_hamiltonian(rng, d), rates=random_rates(rng, d, kind))


class Workload:
    """Defaults shared by the workloads; each subclass sets ``warmup`` and
    implements ``round``, ``run`` and ``check``."""

    def __init__(self) -> None:
        self.warmup: list = []
        self.setup_failures: list[str] = []

    def samples(self, item) -> int:
        """Monte Carlo samples drawn by one op."""
        return 0

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def layer_metrics(self, tr) -> dict[str, float]:
        """Per-layer figures measured outside the timed loop."""
        return {}

    def close(self) -> None:
        pass


# --- convert ----------------------------------------------------------------


@dataclass(frozen=True)
class ConvertInput:
    d: int
    kind: str
    params: lo.MasterEqParams
    rho0: np.ndarray


@dataclass(frozen=True)
class ConvertResult:
    v0: np.ndarray
    pair: lo.OdePair
    report: lo.CPReport
    trajectory: np.ndarray
    recovered: lo.MasterEqParams
    pair_via_superop: lo.OdePair
    matrix: lo.SuperopMatrix


class ConvertWorkload(Workload):
    """The whole conversion pipeline on one random generator per op.

    ``dims`` maps each dimension to its weight in a round; every (d, kind)
    slot appears weight(d) * weight(kind) times per round, in an order the
    seed shuffles, so each round has the same mix.
    """

    def __init__(self, dims: dict[int, int], seed: int, pool_rounds: int):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.bases = {d: lo.generate_gell_mann(d) for d in dims}
        slots = [
            (d, kind)
            for d, wd in dims.items()
            for kind, wk in KIND_WEIGHTS.items()
            for _ in range(wd * wk)
        ]
        self.pool = [
            [self._make(rng, *slots[i]) for i in rng.permutation(len(slots))]
            for _ in range(pool_rounds)
        ]
        # Every (d, kind) once, then the propagator branch twice more: its
        # first calls are several hundred ms slower than later ones.
        self.warmup = [self._make(rng, d, kind) for d in dims for kind in KIND_WEIGHTS]
        self.warmup += [self._make(rng, min(dims), "ham") for _ in range(2)]

    @staticmethod
    def _make(rng, d: int, kind: str) -> ConvertInput:
        return ConvertInput(d, kind, random_params(rng, d, kind), random_pure_state(rng, d))

    def round(self, k: int) -> list[ConvertInput]:
        return self.pool[k % len(self.pool)]

    def run(self, item: ConvertInput, tr) -> ConvertResult:
        basis = self.bases[item.d]
        tag = f"d{item.d}"
        with tr.span("basis.coherence_vector", tag):
            v0 = lo.coherence_vector(item.rho0, basis)
        with tr.span("forward.forward_map", tag):
            pair = lo.forward_map(item.params, basis)
        with tr.span("cp.check_lindblad", tag):
            report = lo.check_lindblad(pair, basis)
        with tr.span("odesolve.solve", tag):
            solution = lo.solve(pair, v0)
        with tr.span("odesolve.trajectory", tag):
            trajectory = solution.trajectory(TIMES)
        with tr.span("inverse.inverse_map", tag):
            recovered = lo.inverse_map(pair, basis)
        with tr.span("inverse.phi", tag):
            tensor = lo.phi(1, 4, item.params, basis)
            pair_via_superop = lo.phi(4, 6, tensor, basis)
        with tr.span("superop.superop_matrix", tag):
            matrix = lo.superop_matrix(tensor, basis)
        tr.count("cp.checks")
        tr.count("cp.lindblad", int(report.is_lindblad))
        tr.count("odesolve.solves")
        tr.count("odesolve.spectral", int(solution.kind == SPECTRAL))
        return ConvertResult(v0, pair, report, trajectory, recovered, pair_via_superop, matrix)

    def check(self, item: ConvertInput, out: ConvertResult, tr) -> list[str]:
        bad = []
        params, pair = item.params, out.pair
        err_h = _max_abs(out.recovered.hamiltonian - params.hamiltonian)
        err_a = _max_abs(out.recovered.rates - params.rates)
        tr.gauge_max("inverse.roundtrip_err", max(err_h, err_a))
        if not (_close(out.recovered.hamiltonian, params.hamiltonian) and _close(out.recovered.rates, params.rates)):
            bad.append(f"round trip off: |dH| = {err_h:.3e}, |da| = {err_a:.3e}")
        if not (_close(out.pair_via_superop.G, pair.G) and _close(out.pair_via_superop.c, pair.c)):
            bad.append("phi(4, 6) differs from forward_map's (G, c)")
        e = out.matrix.entries
        if not (_close(e[1:, 1:], pair.G) and _close(e[1:, 0], np.sqrt(item.d) * pair.c)):
            bad.append("superop_matrix blocks differ from (G, sqrt(d) c)")
        if out.report.is_lindblad != (item.kind != "noncp"):
            bad.append(f"CP verdict {out.report.is_lindblad} for a {item.kind} generator")
        if not _close(out.trajectory[0], out.v0):
            bad.append("trajectory at t = 0 differs from v0")
        return bad


# --- rarity -----------------------------------------------------------------

# One round: (call, size, samples). GinOE at d = 2, 3, 4 spans two chunks.
# GinOE at d = 3 runs three times a round, so that it holds the middle
# three of seven op times and p50 is a d = 3 call. GinOE d = 2 and GUE take
# almost as long; a p50 that fell between those overlapping clusters would
# jump from run to run.
RARITY_ROTATION = (
    ("ginoe", 2, 8192),
    ("ginoe", 3, 8192),
    ("ginoe", 4, 8192),
    ("ginoe", 3, 8192),
    ("gue", 8, 8192),
    ("ginoe", 3, 8192),
    ("covariance", 3, 4096),
)
# Warm-up: the same calls at small sizes with pinned seeds. Whatever the
# workload seed, their results must equal those recorded at the commit
# that defined the benchmark.
RARITY_PINNED_SEED = 20230118
RARITY_PINNED = (
    (("ginoe", 2, 8192), (2, 797)),
    (("ginoe", 3, 1024), (0, 0)),
    (("ginoe", 4, 512), (0, 0)),
    (("gue", 2, 1024), (107, None)),
    (("covariance", 3, 512), True),
)


@dataclass(frozen=True)
class RarityItem:
    call: str
    size: int
    samples: int
    seed: int
    expected: object = None  # pinned result, or None when only invariants apply


class RarityWorkload(Workload):
    """A fixed rotation of the Monte Carlo calls, each with a fresh seed."""

    def __init__(self, seed: int):
        super().__init__()
        self.seed = seed
        self.warmup = [
            RarityItem(call, size, n, _seed_for(RARITY_PINNED_SEED, i), expected)
            for i, ((call, size, n), expected) in enumerate(RARITY_PINNED)
        ]

    def round(self, k: int) -> list[RarityItem]:
        return [
            RarityItem(call, size, n, _seed_for(self.seed, k, i))
            for i, (call, size, n) in enumerate(RARITY_ROTATION)
        ]

    def run(self, item: RarityItem, tr):
        tag = f"j{item.size}" if item.call == "gue" else f"d{item.size}"
        with tr.span(f"rarity.{item.call}", tag):
            if item.call == "ginoe":
                return lo.estimate_p_lindblad_ginoe(item.size, item.samples, item.seed)
            if item.call == "gue":
                return lo.estimate_p_gue(item.size, item.samples, item.seed)
            return lo.ginoe_induced_a_covariance(item.size, item.samples, item.seed)

    def check(self, item: RarityItem, out, tr) -> list[str]:
        bad = []
        if out.n_samples != item.samples:
            bad.append(f"{item.call}: n_samples {out.n_samples} != {item.samples}")
        if item.call == "covariance":
            if not out.passed:
                bad.append(f"covariance failed: {out.max_deviation_in_stderr:.2f} stderr")
            got = out.passed
        else:
            stable = out.n_samples if out.n_spectrum_stable is None else out.n_spectrum_stable
            if not 0 <= out.n_positive <= stable <= out.n_samples:
                bad.append(
                    f"{item.call} d={item.size}: counts out of order "
                    f"({out.n_positive}, {out.n_spectrum_stable}, {out.n_samples})"
                )
            got = (out.n_positive, out.n_spectrum_stable)
        if item.expected is not None and got != item.expected:
            bad.append(f"{item.call} size {item.size}: pinned result {got} != recorded {item.expected}")
        return bad

    def samples(self, item: RarityItem) -> int:
        return item.samples


# --- cli --------------------------------------------------------------------


@dataclass(frozen=True)
class CliCall:
    command: str  # CLI subcommand
    tag: str
    args: tuple[str, ...]
    expected_code: int
    expected_stdout: bytes = b""


def _complex_json(m) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m, dtype=complex)]


def _capture_main(args) -> tuple[int, bytes]:
    """Run the CLI's main in this process; return its exit code and stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = lo_cli.main(list(args))
    return code, buf.getvalue().encode("utf-8")


class CliWorkload(Workload):
    """Cold CLI processes, one at a time, on JSON inputs written at set-up.

    Every call's stdout must be byte-identical to what ``main(argv)``
    printed in this process at set-up, with the same exit code.
    """

    # In-process repeats behind the traced cli.* figures.
    LAYER_REPEATS = 5
    IMPORT_PROBE = (
        "import time; t = time.perf_counter(); import lindblad_ode; "
        "print(time.perf_counter() - t)"
    )

    def __init__(self, seed: int, root: str):
        super().__init__()
        self.root = root
        os.makedirs(os.path.join(root, ".bench_work"), exist_ok=True)
        self.workdir = tempfile.mkdtemp(prefix="cli-", dir=os.path.join(root, ".bench_work"))
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        self.child_peak_kb = 0
        self.calls = [self._reference(call) for call in self._write_inputs(np.random.default_rng(seed))]
        self.warmup = self.calls[:1]

    def _write(self, name: str, payload: dict) -> str:
        path = os.path.join(self.workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        return path

    def _write_inputs(self, rng) -> list[CliCall]:
        b2, b3 = lo.generate_gell_mann(2), lo.generate_gell_mann(3)
        calls = []
        for d in (2, 3):
            p = random_params(rng, d, "cp")
            path = self._write(f"meq_d{d}.json", {"H": _complex_json(p.hamiltonian), "a": _complex_json(p.rates)})
            calls.append(CliCall("forward", f"d{d}", ("forward", "--dim", str(d), "--in", path), 0))
        gc_files = {}
        for kind, code in (("cp", 0), ("noncp", 3)):
            pair = lo.forward_map(random_params(rng, 3, kind), b3)
            gc_files[kind] = self._write(f"gc_d3_{kind}.json", {"G": pair.G.tolist(), "c": pair.c.tolist()})
            calls.append(CliCall("check-cp", kind, ("check-cp", "--dim", "3", "--in", gc_files[kind]), code))
        for kind, tag in (("cp", "spectral"), ("ham", "propagator")):
            pair = lo.forward_map(random_params(rng, 2, kind), b2)
            v0 = lo.coherence_vector(random_pure_state(rng, 2), b2)
            path = self._write(
                f"solve_d2_{tag}.json",
                {"G": pair.G.tolist(), "c": pair.c.tolist(), "v0": v0.tolist(), "times": TIMES.tolist()},
            )
            calls.append(CliCall("solve", tag, ("solve", "--dim", "2", "--in", path), 0))
        calls.append(CliCall("inverse", "d3", ("inverse", "--dim", "3", "--in", gc_files["cp"]), 0))
        return calls

    def _reference(self, call: CliCall) -> CliCall:
        code, out = _capture_main(call.args)
        if code != call.expected_code:
            self.setup_failures.append(f"in-process {call.command} {call.tag}: exit {code}, expected {call.expected_code}")
        if call.command == "solve":
            solver = json.loads(out)["solver"]
            if (solver == SPECTRAL) != (call.tag == "spectral"):
                self.setup_failures.append(f"solve {call.tag} input took the {solver} branch")
        return CliCall(call.command, call.tag, call.args, call.expected_code, out)

    def round(self, k: int) -> list[CliCall]:
        return self.calls

    def _cold(self, argv: list[str]) -> tuple[int, bytes, bytes]:
        """Run one child to completion; record its peak RSS."""
        err_path = os.path.join(self.workdir, "stderr.txt")
        with open(err_path, "wb") as err:
            proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=self.env, cwd=self.root)
            with proc.stdout:
                out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.child_peak_kb = max(self.child_peak_kb, usage.ru_maxrss)
        with open(err_path, "rb") as err:
            return proc.returncode, out, err.read()

    def run(self, call: CliCall, tr) -> tuple[int, bytes, bytes]:
        with tr.span(f"cli.{call.command}", call.tag):
            return self._cold([sys.executable, "-m", "lindblad_ode.cli", *call.args])

    def check(self, call: CliCall, out: tuple[int, bytes, bytes], tr) -> list[str]:
        code, stdout, stderr = out
        bad = []
        if code != call.expected_code:
            tail = stderr[-300:].decode("utf-8", "replace")
            bad.append(f"{call.command} {call.tag}: exit {code}, expected {call.expected_code}: {tail}")
        if stdout != call.expected_stdout:
            bad.append(f"{call.command} {call.tag}: stdout differs from in-process main(argv)")
        return bad

    def peak_rss_kb(self) -> int:
        return self.child_peak_kb

    def layer_metrics(self, tr) -> dict[str, float]:
        """Cold interpreter and import times, and in-process main(argv) per subcommand."""
        interpreter, imports = [], []
        for _ in range(self.LAYER_REPEATS):
            start = time.perf_counter()
            self._cold([sys.executable, "-c", "pass"])
            interpreter.append(time.perf_counter() - start)
            code, out, _ = self._cold([sys.executable, "-c", self.IMPORT_PROBE])
            if code == 0:
                imports.append(float(out))
        for _ in range(self.LAYER_REPEATS):
            for call in self.calls:
                with tr.span("cli.main", call.command):
                    _capture_main(call.args)
        return {
            "cli.interpreter_ms": float(np.median(interpreter)) * 1e3,
            "cli.import_ms": float(np.median(imports)) * 1e3 if imports else 0.0,
        }

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def make(name: str, seed: int, root: str):
    """Set up the named workload: bases, inputs and references, no warm-up yet."""
    if name == "convert":
        return ConvertWorkload({2: 1, 3: 1, 4: 1, 5: 5}, seed, pool_rounds=4)
    if name == "rarity":
        return RarityWorkload(seed)
    if name == "cli":
        return CliWorkload(seed, root)
    raise ValueError(f"unknown workload {name!r}")

