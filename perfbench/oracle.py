"""Independent reference values for the CSVs that ``zenolab run`` writes.

Nothing here imports zenolab.  Each config is read with :mod:`configparser`
and the documented defaults; states, channels and generators are rebuilt
from their definitions with numpy, and every limit map is evaluated another
way than zenolab evaluates it:

* mixing: the closed-form attenuator Kraus sum at ``eta**n``, applied along
  the diagonals of the state, plus the theorem
  ``error <= 4 |eta|^n Tr((N+1) rho)``;
* zeno: ``M @ scipy.linalg.expm(t L / n)`` applied ``n`` times to the state
  vectors, one step after another;
* damping: ``scipy.linalg.expm(t (gamma K + L))``;
* binomial: ``(M + L/n)`` applied ``n`` times, against ``scipy.linalg.expm``;
* simplex: exact rational arithmetic.

Every row's error must agree with the reference to ``ABS_TOL`` where a
reference is computed (all grid points for the cheap kinds, the first and
the last for zeno and damping).  The ``wall_time_ms`` column is never read.
"""

from __future__ import annotations

import configparser
import csv
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from scipy.linalg import expm

CSV_HEADER = [
    "experiment_id",
    "kind",
    "parameter",
    "state_id",
    "error",
    "bound",
    "fitted_C",
    "fitted_p",
    "wall_time_ms",
]
ABS_TOL = 1e-10

_STREAM_CHANNEL = 1
_STREAM_GENERATOR = 2
_STREAM_BINOMIAL = 3
_STATE_STREAM_BASE = 1000


@dataclass(frozen=True)
class Spec:
    """The parameters of one config file, with zenolab's documented defaults."""

    kind: str
    experiment_id: str
    dimension: int
    t: float
    eta: complex
    channel_type: str
    delta: float
    system_dim: int
    generator_type: str
    hamiltonian: str
    scale: float | None
    rate: float
    binomial_mode: str
    binomial_system_dim: int
    k_max: int
    grid_start: float
    grid_factor: float
    grid_count: int
    states: tuple

    def grid(self) -> list:
        raw = [self.grid_start * self.grid_factor**j for j in range(self.grid_count)]
        if self.kind == "damping":
            return [float(g) for g in raw]
        return [int(round(g)) for g in raw]

    def state_dim(self) -> int:
        if self.kind == "binomial":
            return self.binomial_system_dim
        if self.kind == "zeno" and self.channel_type == "gapped":
            return self.system_dim
        return self.dimension


def read_config(path: str) -> Spec:
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    with open(path, encoding="utf-8") as handle:
        parser.read_string(handle.read())

    def get(section, key, cast, default):
        if parser.has_option(section, key):
            return cast(parser.get(section, key))
        return default

    kind = get("experiment", "kind", str, None)
    system_dim = get("channel", "system_dim", int, 2)
    specs = get("states", "specs", str, "fock:1")
    return Spec(
        kind=kind,
        experiment_id=get("experiment", "id", str, kind),
        dimension=get("experiment", "dimension", int, 24),
        t=get("experiment", "t", float, 1.0),
        eta=complex(get("channel", "eta_re", float, 0.5), get("channel", "eta_im", float, 0.0)),
        channel_type=get("channel", "type", str, "attenuator"),
        delta=get("channel", "delta", float, 0.5),
        system_dim=system_dim,
        generator_type=get("generator", "type", str, "hamiltonian"),
        hamiltonian=get("generator", "hamiltonian", str, "quadrature"),
        scale=get("generator", "scale", float, None),
        rate=get("generator", "rate", float, 0.1),
        binomial_mode=get("binomial", "mode", str, "exp-limit"),
        binomial_system_dim=get("binomial", "system_dim", int, system_dim),
        k_max=get("simplex", "k_max", int, 8),
        grid_start=get("grid", "start", float, 8.0),
        grid_factor=get("grid", "factor", float, 2.0),
        grid_count=get("grid", "count", int, 10),
        states=tuple(s.strip() for s in specs.split(",") if s.strip()),
    )


def expected_keys(spec: Spec) -> list:
    """The (parameter, state_id) pairs the CSV must hold, one row each."""
    if spec.kind == "simplex":
        return [(float(n), f"k={k}") for n in spec.grid() for k in range(1, spec.k_max + 1) if n >= k]
    return [(float(x), s) for x in spec.grid() for s in spec.states]


# ----------------------------------------------------------------------------
# states, channels and generators, rebuilt from their definitions


def _stream(seed: int, index: int) -> np.random.Generator:
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _ginibre(dim: int, rng) -> np.ndarray:
    real = rng.normal(size=(dim, dim))
    return real + 1j * rng.normal(size=(dim, dim))


def _random_density(dim: int, rng) -> np.ndarray:
    g = _ginibre(dim, rng)
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _random_unitary(dim: int, rng) -> np.ndarray:
    q, r = np.linalg.qr(_ginibre(dim, rng))
    phases = np.diag(r) / np.abs(np.diag(r))
    return q * phases


def state(spec_text: str, dim: int, seed: int) -> np.ndarray:
    name, _, value = spec_text.partition(":")
    if name == "fock":
        rho = np.zeros((dim, dim), dtype=complex)
        rho[int(value), int(value)] = 1.0
        return rho
    if name == "coherent":
        alpha = complex(value)
        c = np.array(
            [np.exp(-abs(alpha) ** 2 / 2) * alpha**k / math.sqrt(math.factorial(k)) for k in range(dim)]
        )
        return np.outer(c, c.conj())
    if name == "random":
        return _random_density(dim, _stream(seed, _STATE_STREAM_BASE + int(value)))
    raise ValueError(f"oracle has no state kind {name!r}")


def _vec(x: np.ndarray) -> np.ndarray:
    return x.reshape(-1, order="F")


def _unvec(v: np.ndarray) -> np.ndarray:
    d = math.isqrt(v.size)
    return v.reshape((d, d), order="F")


def _trace_norm(x: np.ndarray) -> float:
    return float(np.linalg.svd(x, compute_uv=False).sum())


def _lift(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Superoperator of x -> left @ x @ right for column-stacked vectors."""
    return np.kron(right.T, left)


def _attenuator_weights(eta: complex, dim: int) -> np.ndarray:
    """w[l, m] = sqrt(C(m+l, m) (1-|eta|^2)^l) eta^m, the Kraus entry (m, m+l)."""
    loss = max(1.0 - abs(eta) ** 2, 0.0)
    w = np.zeros((dim, dim), dtype=complex)
    for l in range(dim):
        for m in range(dim - l):
            w[l, m] = math.sqrt(math.comb(m + l, m) * loss**l) * eta**m
    return w


def attenuator_apply(eta: complex, rho: np.ndarray) -> np.ndarray:
    """(Phi rho)_{mn} = sum_l w_{m,l} conj(w_{n,l}) rho_{m+l, n+l}."""
    dim = rho.shape[0]
    w = _attenuator_weights(eta, dim)
    out = np.zeros_like(rho)
    for l in range(dim):
        wl = w[l, : dim - l]
        out[: dim - l, : dim - l] += np.outer(wl, wl.conj()) * rho[l:, l:]
    return out


def _attenuator_superop(eta: complex, dim: int) -> np.ndarray:
    w = _attenuator_weights(eta, dim)
    mat = np.zeros((dim * dim, dim * dim), dtype=complex)
    for l in range(dim):
        kraus = np.zeros((dim, dim), dtype=complex)
        kraus[np.arange(dim - l), np.arange(l, dim)] = w[l, : dim - l]
        mat += _lift(kraus, kraus.conj().T)
    return mat


def _vacuum_projection(dim: int) -> np.ndarray:
    vac = np.zeros((dim, dim), dtype=complex)
    vac[0, 0] = 1.0
    return np.outer(_vec(vac), _vec(np.eye(dim)).conj())


def _ladder(dim: int):
    a = np.diag(np.sqrt(np.arange(1, dim, dtype=float)), k=1).astype(complex)
    return a, np.diag(np.arange(dim, dtype=float)).astype(complex)


def _generator(spec: Spec, dim: int, seed: int) -> np.ndarray:
    eye = np.eye(dim, dtype=complex)
    if spec.generator_type == "none":
        return np.zeros((dim * dim, dim * dim), dtype=complex)
    a, n_op = _ladder(dim)
    if spec.generator_type == "dephasing":
        n_sq = n_op @ n_op
        return spec.rate * (_lift(n_op, n_op) - 0.5 * (_lift(n_sq, eye) + _lift(eye, n_sq)))
    scale = spec.scale if spec.scale is not None else 1.0 / dim
    if spec.hamiltonian == "quadrature":
        h = (a + a.conj().T) * scale
    elif spec.hamiltonian == "number":
        h = n_op * scale
    else:
        g = _ginibre(dim, _stream(seed, _STREAM_GENERATOR))
        h = (g + g.conj().T) / 2
        h = h / np.linalg.norm(h, 2) * scale
    return -1j * (_lift(h, eye) - _lift(eye, h))


def _gapped_channel(system_dim: int, seed: int, delta: float):
    """(M, P) of x -> delta U x U^dag + (1 - delta) Tr(x) sigma."""
    rng = _stream(seed, _STREAM_CHANNEL)
    u = _random_unitary(system_dim, rng)
    sigma = _random_density(system_dim, rng)
    conj_u = _lift(u, u.conj().T)
    trace_row = _vec(np.eye(system_dim, dtype=complex)).conj()
    m = delta * conj_u + (1 - delta) * np.outer(_vec(sigma), trace_row)
    fixed = np.linalg.solve(np.eye(system_dim**2) - delta * conj_u, (1 - delta) * _vec(sigma))
    return m, np.outer(fixed, trace_row)


def _random_operator(dim: int, seed: int, norm: float) -> np.ndarray:
    g = _ginibre(dim, _stream(seed, _STREAM_BINOMIAL))
    return g / np.linalg.norm(g, 2) * norm


# ----------------------------------------------------------------------------
# reference errors


@dataclass
class Reference:
    """Reference errors and theorem bounds, keyed by (parameter, state_id)."""

    keys: list
    errors: dict = field(default_factory=dict)
    theorem_bounds: dict = field(default_factory=dict)


def _endpoints(grid: list) -> list:
    return sorted({grid[0], grid[-1]})


def _power_errors(step: np.ndarray, n: int, target: np.ndarray, states: list) -> list:
    """||step^n x - target x||_1 for each state, applying step n times."""
    vecs = np.stack([_vec(rho) for _, rho in states], axis=1)
    goal = target @ vecs
    for _ in range(n):
        vecs = step @ vecs
    return [_trace_norm(_unvec(vecs[:, i] - goal[:, i])) for i in range(len(states))]


def reference(spec: Spec, seed: int) -> Reference:
    ref = Reference(keys=expected_keys(spec))
    grid = spec.grid()
    if spec.kind == "simplex":
        for n in grid:
            for k in range(1, spec.k_max + 1):
                if n < k:
                    continue
                exact = abs(Fraction(math.comb(n, k), n**k) - Fraction(1, math.factorial(k)))
                ref.errors[(float(n), f"k={k}")] = float(exact)
                ref.theorem_bounds[(float(n), f"k={k}")] = float(
                    Fraction(2**k, math.factorial(k - 1) * n)
                )
        return ref

    dim = spec.state_dim()
    states = [(s, state(s, dim, seed)) for s in spec.states]
    if spec.kind == "mixing":
        number = np.arange(dim, dtype=float) + 1.0
        for n in grid:
            for sid, rho in states:
                out = attenuator_apply(spec.eta**n, rho)
                out[0, 0] -= np.trace(rho)
                ref.errors[(float(n), sid)] = _trace_norm(out)
                weight = float(number @ np.real(np.diag(rho)))
                ref.theorem_bounds[(float(n), sid)] = 4.0 * abs(spec.eta) ** n * weight
        return ref

    if spec.kind == "binomial":
        s2 = dim * dim
        if spec.binomial_mode == "exp-limit":
            m = np.eye(s2, dtype=complex)
            l_mat = _random_operator(s2, seed, 0.9)
            target = expm(l_mat)
        else:
            m, p = _gapped_channel(dim, seed, spec.delta)
            l_mat = _random_operator(s2, seed, 0.5)
            target = expm(p @ l_mat @ p) @ p
        for n in grid:
            for (sid, _), err in zip(states, _power_errors(m + l_mat / n, n, target, states)):
                ref.errors[(float(n), sid)] = err
        return ref

    if spec.kind == "zeno":
        if spec.channel_type == "attenuator":
            m, p = _attenuator_superop(spec.eta, dim), _vacuum_projection(dim)
        else:
            m, p = _gapped_channel(dim, seed, spec.delta)
        l_mat = _generator(spec, dim, seed)
        effective = expm(spec.t * (p @ l_mat @ p)) @ p
        for n in _endpoints(grid):
            step = m @ expm((spec.t / n) * l_mat)
            for (sid, _), err in zip(states, _power_errors(step, n, effective, states)):
                ref.errors[(float(n), sid)] = err
        return ref

    if spec.kind == "damping":
        a, n_op = _ladder(dim)
        eye = np.eye(dim, dtype=complex)
        k_mat = 2 * _lift(a, a.conj().T) - _lift(n_op, eye) - _lift(eye, n_op)
        p = _vacuum_projection(dim)
        l_mat = _generator(spec, dim, seed)
        effective = expm(spec.t * (p @ l_mat @ p)) @ p
        for gamma in _endpoints(grid):
            total = expm(spec.t * (gamma * k_mat + l_mat))
            for (sid, _), err in zip(states, _power_errors(total, 1, effective, states)):
                ref.errors[(float(gamma), sid)] = err
        return ref

    raise ValueError(f"oracle has no kind {spec.kind!r}")


# ----------------------------------------------------------------------------
# checking one CSV


@dataclass
class Check:
    attempted: int = 0
    failed: int = 0
    max_deviation: float = 0.0  # largest |error - reference| among rows that passed
    problems: list = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)


def check_csv(path: str, spec: Spec, ref: Reference, exit_code: int) -> Check:
    """Count the grid points of one run that are missing or disagree with ``ref``."""
    check = Check(attempted=len(ref.keys))
    if exit_code != 0:
        check.failed = check.attempted
        check.problems.append(f"{path}: exit code {exit_code}")
        return check
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            table = list(csv.reader(handle))
    except OSError as exc:
        check.failed = check.attempted
        check.problems.append(f"{path}: {exc}")
        return check
    if not table or table[0] != CSV_HEADER:
        check.failed = check.attempted
        check.problems.append(f"{path}: header {table[:1]} != {CSV_HEADER}")
        return check

    expected = set(ref.keys)
    rows = {}
    for line in table[1:]:
        try:
            key = (float(line[2]), line[3])
        except (IndexError, ValueError):
            check.attempted += 1
            check.fail(f"{path}: malformed row {line}")
            continue
        if key in rows or key not in expected:
            check.attempted += 1
            check.fail(f"{path}: unexpected or repeated row {key}")
            continue
        rows[key] = line
    for key in ref.keys:
        line = rows.get(key)
        if line is None:
            check.fail(f"{path}: missing row {key}")
            continue
        problem = _row_problem(line, spec, ref, key)
        if problem:
            check.fail(f"{path}: row {key}: {problem}")
        elif key in ref.errors:
            check.max_deviation = max(check.max_deviation, abs(float(line[4]) - ref.errors[key]))
    return check


def _row_problem(line: list, spec: Spec, ref: Reference, key) -> str | None:
    if len(line) != len(CSV_HEADER):
        return f"has {len(line)} fields"
    if line[0] != spec.experiment_id or line[1] != spec.kind:
        return f"labelled {line[0]!r}/{line[1]!r}"
    try:
        error = float(line[4])
    except ValueError:
        return f"error {line[4]!r} is not a number"
    if not math.isfinite(error) or error < 0:
        return f"error {error!r} is not a finite nonnegative number"
    expected = ref.errors.get(key)
    if expected is not None and abs(error - expected) > ABS_TOL:
        return f"error {error!r} differs from the oracle's {expected!r} by {abs(error - expected):.3e}"
    bound = ref.theorem_bounds.get(key)
    if bound is not None:
        if error > bound * (1 + 1e-12) + 1e-15:
            return f"error {error!r} exceeds the theorem's bound {bound!r}"
        try:
            reported = float(line[5])
        except ValueError:
            return f"bound {line[5]!r} is not a number"
        if abs(reported - bound) > 1e-9 * max(1.0, bound):
            return f"bound {reported!r} differs from the theorem's {bound!r}"
    return None
