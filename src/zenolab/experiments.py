"""Declarative experiments: config parsing, presets, sweeps and CSV output.

Config files use INI sections (parsed with :mod:`configparser`); the exact
grammar is documented in the README.  All randomness is derived from one
64-bit seed through counter-based Philox streams, so a sweep produces
byte-identical CSV output (wall-time column aside) on every run.
"""

from __future__ import annotations

import cmath
import configparser
import csv
import io
import math
import os
import time
from dataclasses import dataclass, replace

import numpy as np

from . import binomial as bn
from .channels import (
    Attenuator,
    Generator,
    Superoperator,
    _hermitian_batch,
    damped_action,
    damping_substeps,
    zeno_action,
)
from .fock import annihilation, coherent_vector, number_operator, particle_number
from .linalg import devectorize, trace_norm, vectorize
from .sampling import (
    random_density_matrix,
    random_gapped_channel,
    random_hermitian,
    random_operator,
    stream,
)
from .zeno import GappedChannel, effective_dynamics, fit_log_envelope, fit_rate

__all__ = [
    "ConfigError",
    "InvariantViolation",
    "ExperimentConfig",
    "ReportRow",
    "CSV_HEADER",
    "PRESETS",
    "list_presets",
    "parse_config",
    "parse_config_text",
    "preset_config",
    "build_states",
    "generator_norm",
    "run_experiment",
    "write_csv",
    "rows_to_csv_text",
    "emit_plot_script",
]

CSV_HEADER = (
    "experiment_id",
    "kind",
    "parameter",
    "state_id",
    "error",
    "bound",
    "fitted_C",
    "fitted_p",
    "wall_time_ms",
)

KINDS = ("mixing", "zeno", "damping", "binomial", "simplex")
# Kinds whose grid points are rounded to integer n.
_ROUNDED_KINDS = ("mixing", "zeno", "binomial", "simplex")

# Philox stream indices, each < 2^64; state i gets 1000 + i, so i >= 0 keeps it off these three.
_STREAM_CHANNEL = 1
_STREAM_GENERATOR = 2
_STREAM_BINOMIAL = 3
_STATE_STREAM_BASE = 1000

# A sweep hands its kernel, and then trace_norm, consecutive grid points in
# groups whose images, 16 d^2 bytes per state and point, fit in this many
# bytes, at least one point per group.  With 3 states that is ten points at
# d = 16, four at d = 24, two at d = 32 and one from d = 48.  Zeno sweeps
# (3 states, n = 8 to 4096, 1 BLAS thread) ran fastest with groups of 96 to
# 128 KiB: at d = 24 in 34 to 37 ms, against 44 to 46 ms with all ten points
# in one group and 48 ms with one point per group; the step's dozen live
# arrays of a larger group leave the cache.
_GROUP_BYTES = 128 * 2**10
# The size check charges each run for the complex entries (16 bytes each)
# it holds at once, from tracemalloc peaks, plus a fixed allowance for what
# does not grow with d: runs at d = 2 to 8 peaked up to 23 KiB above their
# arrays (a zeno run at d = 2 with one state).
_FIXED_BYTES = 64 * 2**10
# The gapped zeno channel and the binomial kind hold dense d^2 x d^2
# matrices: at most 9, from peaks at d = 12 to 20 of 7.0 for zeno and 8.0
# to 8.1 for the binomial kind in either mode.
_LIVE_MATRICES = 9
# Every other kind holds d x d arrays only.  The sweep stacks a group's
# images, which trace_norm copies: up to 3 arrays per state and point of a
# group (mixing peaked at 2.0 to 3.0 per state and point plus one).
_LIVE_IMAGES = 3
# Mixing's kernel holds the states, their images, its charge diagonals and
# temporaries, and its plan (the Toeplitz matrix and the scales, about two
# arrays).  The most it holds at once, per test state plus one, from peaks
# at d = 16 to 200 with 1, 4 and 8 states: 3.7 to 6.0.
_LIVE_MIXING_ARRAYS = 7
# An attenuator zeno run steps every state of its group at once: the states,
# the limits, the step's temporaries and the group's images, per state and
# point plus one, and each point's e^{tL/n} and its adjoint, twice while the
# group shrinks.  Peaks at d = 8 to 64 with 1 to 8 states and groups of 1 to
# 10 points held 8.3 to 10.0 arrays per state and point plus one, once the
# points' own are taken off, with the kernel's index tables already built.
# Built in the run, those take one more: a gather and a scatter index of 8
# bytes per entry of each state and point (peaks of up to 1.004 times the
# charge with 10).
_LIVE_ZENO_ARRAYS = 11
_ZENO_POINT_ARRAYS = 4
# A damping run holds damped_action's four work buffers over its 24 contour
# nodes (96 per state) and the coefficients of one substep length (about 50).
# Peaks at d = 16 to 128 with 1 to 24 states, with and without halving, and
# at the halving cap for d = 16 to 64, held 76 to 102 such arrays per state
# plus one (129 at d = 8).
_LIVE_DAMPING_ARRAYS = 128
# The most grid points a run lists, zeno_action's steps over a grid, and
# damped_action's substeps over a grid.
_GRID_POINTS = 10_000
_STEP_BUDGET = 1_000_000
_SUBSTEP_BUDGET = 100_000


class ConfigError(Exception):
    """Invalid configuration; ``field`` names the offending key."""

    def __init__(self, field_name: str, message: str):
        self.field = field_name
        super().__init__(f"{field_name}: {message}")


class InvariantViolation(Exception):
    """A validated runtime contract was breached during the run."""

    def __init__(self, field_name: str, message: str):
        self.field = field_name
        super().__init__(f"{field_name}: {message}")


@dataclass(frozen=True)
class ExperimentConfig:
    """A parsed config; :data:`_KEYS` holds each field's key, readers, default and range check."""

    kind: str
    experiment_id: str
    seed: int
    dimension: int
    t: float
    eta: complex
    channel_type: str
    gapped_delta: float
    system_dim: int
    generator_type: str
    hamiltonian_kind: str
    generator_scale: float | None
    dephasing_rate: float
    binomial_mode: str
    k_max: int
    grid_start: float
    grid_factor: float
    grid_count: int
    state_specs: tuple
    tail_budget: float
    output_path: str | None

    def grid(self) -> list:
        """``start * factor^j`` for ``j < count``, rounded to integers for ``_ROUNDED_KINDS``."""
        points = [self.grid_start * self.grid_factor**j for j in range(self.grid_count)]
        if self.kind in _ROUNDED_KINDS:
            return [int(round(x)) for x in points]
        return points


@dataclass(frozen=True)
class ReportRow:
    experiment_id: str
    kind: str
    parameter: float
    state_id: str
    error: float
    bound: float | None
    fitted_c: float | None
    fitted_p: float | None
    wall_time_ms: float

    def __post_init__(self):
        if self.error < 0:
            raise ValueError("error must be nonnegative")
        if self.bound is not None and self.bound < 0:
            raise ValueError("bound must be nonnegative when present")


def _specs(raw: str) -> tuple:
    return tuple(s.strip() for s in raw.split(",") if s.strip())


_REQUIRED = object()

# The readers of a key: the kinds that read it, with zeno split by
# channel.type into its two channels, "zeno/attenuator" and "zeno/gapped".
_EVERY = ("mixing", "zeno/attenuator", "zeno/gapped", "damping", "binomial", "simplex")
_ZENO = _EVERY[1:3]
_STATES = _EVERY[:-1]  # the kinds with test states
_EVOLVED = (*_ZENO, "damping")  # the kinds with a time t and a generator L
_FOCK = ("mixing", "zeno/attenuator", "damping")  # on the Fock truncation
_ETA = ("mixing", "zeno/attenuator")

# Every config key, once: (section, key, readers, field, cast, default, rule,
# message).  A present value is cast, refused if a non-finite float, refused
# with ``message.format(v=value)`` unless ``rule(value)``, and then refused if
# the config's reader does not read it.  The two system_dim keys write one
# field, each for its own reader.  The rules that read several keys, ``eta``
# from its parts and the id that defaults to the kind, follow the loop.
_KEYS = (
    ("experiment", "kind", _EVERY, "kind", str, _REQUIRED, lambda v: v in KINDS, f"must be one of {KINDS}, got {{v!r}}"),
    ("experiment", "id", _EVERY, "experiment_id", str, None, None, None),
    ("experiment", "seed", _EVERY, "seed", int, 0, None, None),
    ("experiment", "dimension", _FOCK, "dimension", int, 24, lambda v: v >= 2, "must be >= 2, got {v}"),
    ("experiment", "t", _EVOLVED, "t", float, 1.0, lambda v: v > 0, "must be positive, got {v}"),
    ("channel", "eta_re", _ETA, "eta_re", float, 0.5, None, None),
    ("channel", "eta_im", _ETA, "eta_im", float, 0.0, None, None),
    ("channel", "type", _ZENO, "channel_type", str, "attenuator",
     lambda v: v in ("attenuator", "gapped"), "must be attenuator or gapped, got {v!r}"),
    ("channel", "delta", ("zeno/gapped", "binomial"), "gapped_delta", float, 0.5,
     lambda v: 0 < v < 1, "must lie in (0, 1), got {v}"),
    ("channel", "system_dim", ("zeno/gapped",), "system_dim", int, 2, lambda v: v >= 2, "must be >= 2, got {v}"),
    ("generator", "type", _EVOLVED, "generator_type", str, "hamiltonian",
     lambda v: v in ("hamiltonian", "dephasing", "none"), "unknown generator type {v!r}"),
    ("generator", "hamiltonian", _EVOLVED, "hamiltonian_kind", str, "quadrature",
     lambda v: v in ("quadrature", "number", "random"), "unknown hamiltonian {v!r}"),
    ("generator", "scale", _EVOLVED, "generator_scale", float, None, None, None),
    ("generator", "rate", _EVOLVED, "dephasing_rate", float, 0.1, lambda v: v >= 0, "must be nonnegative"),
    ("binomial", "mode", ("binomial",), "binomial_mode", str, "exp-limit",
     lambda v: v in ("exp-limit", "gapped"), "unknown mode {v!r}"),
    ("binomial", "system_dim", ("binomial",), "system_dim", int, 2, lambda v: v >= 2, "must be >= 2, got {v}"),
    ("simplex", "k_max", ("simplex",), "k_max", int, 8, lambda v: 1 <= v <= 16, "must lie in [1, 16], got {v}"),
    ("grid", "start", _EVERY, "grid_start", float, 8.0, lambda v: v >= 1, "must be >= 1, got {v}"),
    ("grid", "factor", _EVERY, "grid_factor", float, 2.0, None, None),
    ("grid", "count", _EVERY, "grid_count", int, 10,
     lambda v: 1 <= v <= _GRID_POINTS, f"must lie in [1, {_GRID_POINTS}], got {{v}}"),
    ("states", "specs", _STATES, "state_specs", _specs, ("fock:1",),
     lambda v: v and len(set(v)) == len(v), "must list at least one state, each once, got {v}"),
    ("tolerances", "tail_mass", _STATES, "tail_budget", float, 1e-12, lambda v: v > 0, "must be positive"),
    ("output", "path", _EVERY, "output_path", str, None, None, None),
)


def parse_config_text(text: str) -> ExperimentConfig:
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=(";", "#"))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError("config", f"malformed file: {exc}") from exc
    if not parser.has_section("experiment"):
        raise ConfigError("experiment", "missing [experiment] section")
    known = {(section, key) for section, key, *_ in _KEYS}
    unknown = [f"{s}.{k}" for s in parser.sections() for k in parser.options(s) if (s, k) not in known]
    if unknown:
        raise ConfigError(unknown[0], "unknown key")

    values, present = {}, []
    for section, key, readers, field, cast, default, rule, message in _KEYS:
        name = f"{section}.{key}"
        if not parser.has_option(section, key):
            if default is _REQUIRED:
                raise ConfigError(name, "missing required key")
            values.setdefault(field, default)
            continue
        raw = parser.get(section, key)
        try:
            value = cast(raw)
        except (TypeError, ValueError) as exc:
            raise ConfigError(name, f"cannot parse {raw!r}: {exc}") from exc
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(name, f"must be finite, got {raw!r}")
        if rule is not None and not rule(value):
            raise ConfigError(name, message.format(v=value))
        values[field] = value
        present.append((name, readers))
    reader = f"zeno/{values['channel_type']}" if values["kind"] == "zeno" else values["kind"]
    for name, readers in present:
        if reader not in readers:
            raise ConfigError(name, f"not read by a {reader} run")

    if values["experiment_id"] is None:
        values["experiment_id"] = values["kind"]
    eta = values["eta"] = complex(values.pop("eta_re"), values.pop("eta_im"))
    if abs(eta) > 1:
        raise ConfigError("channel.eta_re", f"|eta| must be <= 1, got {abs(eta):.6f}")
    if values["grid_count"] > 1 and values["grid_factor"] <= 1:
        raise ConfigError("grid.factor", f"must be > 1 for an increasing grid, got {values['grid_factor']}")

    cfg = ExperimentConfig(**values)
    _check_grid(cfg)
    _check_work(cfg)
    _check_size(cfg)
    return cfg


def _check_grid(cfg: ExperimentConfig) -> None:
    """The grid's last point is finite, checked before the grid is listed; rounded grids have no repeats."""
    try:
        last = cfg.grid_start * cfg.grid_factor ** (cfg.grid_count - 1)
    except OverflowError:  # float ** int
        last = math.inf
    if not math.isfinite(last):
        raise ConfigError(
            "grid.count",
            f"start * factor^(count-1) = {cfg.grid_start} * {cfg.grid_factor}^{cfg.grid_count - 1} "
            "overflows float64",
        )
    grid = cfg.grid()
    if cfg.kind in _ROUNDED_KINDS and len(set(grid)) < len(grid):
        raise ConfigError(
            "grid.factor",
            f"the {cfg.kind} grid is rounded to integers, which repeats points: {grid}",
        )


def _check_work(cfg: ExperimentConfig) -> None:
    """A zeno grid takes at most ``_STEP_BUDGET`` steps, a damping grid ``_SUBSTEP_BUDGET`` substeps.

    A zeno point ``n`` takes at most ``n`` steps, all of them when ``M`` does
    not mix.  A damping point takes the most substeps at the smallest
    ``gamma``; ``||H||_2`` is bounded without building ``H``: ``scale`` for
    a random ``H``, ``(d - 1) scale`` for ``N`` and ``2 sqrt(d - 1) scale``
    for ``a + a^dag``.
    """
    if cfg.kind == "zeno":
        steps = sum(cfg.grid())
        if steps > _STEP_BUDGET:
            raise ConfigError("grid.start", f"{steps:.3g} steps over the grid, past {_STEP_BUDGET}")
        return
    if cfg.kind != "damping" or cfg.generator_type != "hamiltonian":
        return
    d = cfg.dimension
    norm = abs(_scale(cfg, d)) * {"random": 1.0, "number": d - 1.0, "quadrature": 2.0 * math.sqrt(d - 1)}[cfg.hamiltonian_kind]
    steps = cfg.grid_count * damping_substeps(cfg.grid_start, cfg.t, norm)
    if steps > _SUBSTEP_BUDGET:
        field = "generator.scale" if cfg.generator_scale is not None else "experiment.t"
        raise ConfigError(field, f"{steps:.3g} substeps, past {_SUBSTEP_BUDGET}, at t ||H||_2 <= {cfg.t * norm:.3g}")


def _charge(cfg: ExperimentConfig) -> tuple:
    """``(bytes, what)``: the most memory a zeno, damping, mixing or binomial run holds at once."""
    _, d = _state_dim(cfg)
    states = len(cfg.state_specs)
    group = min(_group_points(d, states), cfg.grid_count)
    if cfg.kind == "zeno" and cfg.channel_type == "attenuator":
        count = _LIVE_ZENO_ARRAYS * (group * states + 1) + _ZENO_POINT_ARRAYS * group
    elif cfg.kind in ("mixing", "damping"):
        live = _LIVE_MIXING_ARRAYS if cfg.kind == "mixing" else _LIVE_DAMPING_ARRAYS
        count = live * (states + 1) + _LIVE_IMAGES * group * states
    else:
        return _FIXED_BYTES + 16 * _LIVE_MATRICES * d**4, f"{_LIVE_MATRICES} dense complex {d * d}x{d * d} matrices"
    return _FIXED_BYTES + 16 * count * d**2, f"{count} complex {d}x{d} arrays"


def _check_size(cfg: ExperimentConfig) -> None:
    """The run's arrays fit in physical memory; simplex holds none."""
    if cfg.kind == "simplex":
        return
    field, d = _state_dim(cfg)
    need, held = _charge(cfg)
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise ConfigError(
            field,
            f"d = {d} needs about {need / 2**30:.3g} GiB for {held}, "
            f"more than the {have / 2**30:.3g} GiB of physical memory",
        )


def parse_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError("config", f"cannot read {path!r}: {exc}") from exc
    return parse_config_text(text)


# ----------------------------------------------------------------------------
# state construction


def _fock_projector(level: int, dim: int) -> np.ndarray:
    rho = np.zeros((dim, dim), dtype=np.complex128)
    rho[level, level] = 1.0
    return rho


def build_states(cfg: ExperimentConfig, dim: int) -> list:
    """Resolve state specs into (state_id, density matrix) pairs."""
    states = []
    for spec in cfg.state_specs:
        if ":" not in spec:
            raise ConfigError("states.specs", f"malformed spec {spec!r} (expected kind:value)")
        name, _, value = spec.partition(":")
        if name == "fock":
            try:
                level = int(value)
            except ValueError as exc:
                raise ConfigError("states.specs", f"bad fock level in {spec!r}") from exc
            if not 0 <= level < dim:
                raise ConfigError("states.specs", f"fock level {level} outside [0, {dim - 1}]")
            states.append((spec, _fock_projector(level, dim)))
        elif name == "coherent":
            try:
                alpha = complex(value)
                finite = math.isfinite(abs(alpha) ** 2)
            except OverflowError:
                finite = False
            except ValueError as exc:
                raise ConfigError("states.specs", f"bad coherent amplitude in {spec!r}") from exc
            if not finite:
                raise ConfigError("states.specs", f"coherent amplitude in {spec!r} needs a finite z and |z|^2")
            vec = coherent_vector(alpha, dim)
            if vec.tail_mass > cfg.tail_budget:
                raise InvariantViolation(
                    "states.specs",
                    f"{spec!r} has tail_mass {vec.tail_mass:.3e} above budget "
                    f"{cfg.tail_budget:.1e} at dimension {dim}",
                )
            states.append((spec, vec.projector()))
        elif name == "random":
            try:
                offset = int(value)
            except ValueError as exc:
                raise ConfigError("states.specs", f"bad random index in {spec!r}") from exc
            if not 0 <= offset < 2**64 - _STATE_STREAM_BASE:
                raise ConfigError("states.specs", f"random index {offset} outside [0, 2^64 - {_STATE_STREAM_BASE + 1}] in {spec!r}")
            states.append((spec, random_density_matrix(dim, stream(cfg.seed, _STATE_STREAM_BASE + offset))))
        else:
            raise ConfigError("states.specs", f"unknown state kind {name!r} in {spec!r}")
    return states


def _scale(cfg: ExperimentConfig, dim: int) -> float:
    """``generator.scale``, or its default ``1/dim`` for a Hamiltonian on ``dim`` levels."""
    return cfg.generator_scale if cfg.generator_scale is not None else 1.0 / dim


def _generator(cfg: ExperimentConfig, dim: int) -> Generator:
    """The run's generator ``L``: none, dephasing at ``generator.rate``, or ``-i[H, .]`` for the configured ``H``."""
    if cfg.generator_type == "none":
        return Generator()
    if cfg.generator_type == "dephasing":
        return Generator(dephasing_rate=cfg.dephasing_rate)
    scale = _scale(cfg, dim)
    if cfg.hamiltonian_kind == "quadrature":
        a = annihilation(dim)
        h = (a + a.conj().T) * scale
    elif cfg.hamiltonian_kind == "number":
        h = number_operator(dim) * scale
    else:  # random
        h = random_hermitian(dim, stream(cfg.seed, _STREAM_GENERATOR), norm=scale)
    return Generator(hamiltonian=h)


def _state_dim(cfg: ExperimentConfig) -> tuple:
    """``(field, d)``: the config key that sets the dimension ``d`` of a run's states.

    The gapped zeno channel acts on ``channel.system_dim`` and the binomial
    kind on ``binomial.system_dim`` (each defaults to 2); every other kind on
    the Fock truncation ``experiment.dimension``.
    """
    if cfg.kind == "binomial":
        return "binomial.system_dim", cfg.system_dim
    if cfg.kind == "zeno" and cfg.channel_type != "attenuator":
        return "channel.system_dim", cfg.system_dim
    return "experiment.dimension", cfg.dimension


def generator_norm(cfg: ExperimentConfig) -> float:
    """The exact 1->1 norm of a run's generator ``L``.

    The fitted rate constants of the zeno and damping kinds scale with
    ``||L||``, so the CLI reports it next to them.  For ``L = -i[H, .]`` it
    is ``lambda_max(H) - lambda_min(H)``: an inner derivation has norm
    ``2 inf_c ||H - c||`` on bounded operators (Stampfli, Pacific J. Math.
    33, 1970), which duality carries to the 1->1 norm, attained at
    ``|u><v|`` for eigenvectors ``u``, ``v`` of the extreme eigenvalues.
    At dephasing rate ``r``, ``L = -(r/2)[N, [N, .]]``, so its norm is at most
    ``(r/2)(d - 1)^2`` by the same result for ``N``, and it multiplies
    ``|0><d-1|`` by exactly that.
    """
    _, d = _state_dim(cfg)
    generator = _generator(cfg, d)
    if generator.hamiltonian is None:
        return 0.5 * generator.dephasing_rate * (d - 1) ** 2
    spectrum = np.linalg.eigvalsh(generator.hamiltonian)
    return float(spectrum[-1] - spectrum[0])


# ----------------------------------------------------------------------------
# the sweep engine and the per-kind runners


def _group_points(d: int, states: int) -> int:
    """How many consecutive grid points a sweep group takes: as many as ``_GROUP_BYTES`` of images hold, at least one."""
    return max(1, _GROUP_BYTES // (16 * d * d * states))


def _sweep(cfg: ExperimentConfig, act, states) -> list:
    """``||act(points, batch)||_1`` for every grid point and state, as ``ReportRow``s.

    ``act(points, batch)`` returns a ``(K, S, d, d)`` stack: for each of the
    ``K`` grid points of ``points``, the images of the ``S`` state matrices
    ``batch`` under the map at that point minus its limit.  The grid runs in
    order, in groups of :func:`_group_points` consecutive points, each group
    one ``act`` call and one stacked ``trace_norm``.  A row's
    ``wall_time_ms`` is an even share of its group's time, so a run's rows
    sum to its sweep.  No row has a bound or a fit yet.
    """
    batch = np.stack([rho for _, rho in states])
    d = batch.shape[1]
    grid = cfg.grid()
    size = _group_points(d, len(states))
    rows = []
    for start in range(0, len(grid), size):
        points = grid[start : start + size]
        started = time.perf_counter()
        errors = trace_norm(act(points, batch).reshape(-1, d, d)).reshape(len(points), len(states)).tolist()
        share = (time.perf_counter() - started) * 1000.0 / (len(points) * len(states))
        for x, own in zip(points, errors):
            for (state_id, _), err in zip(states, own):
                rows.append(ReportRow(cfg.experiment_id, cfg.kind, float(x), state_id, err, None, None, None, share))
    return rows


def _fitted(rows, fit_model: str) -> list:
    """The rows with the fitted columns of their state, grouped by state in parameter order.

    Each state of at least four rows, all errors positive and all parameters
    above 1, gets a ``fit_rate`` fit and the bound ``C log(x)/x`` with ``C``
    pinned at its first point (``fit_log_envelope``); other states keep
    their rows as they are.
    """
    by_state = {}
    for row in rows:
        by_state.setdefault(row.state_id, []).append(row)
    out = []
    for own in by_state.values():
        own.sort(key=lambda r: r.parameter)
        if len(own) >= 4 and all(r.error > 0 for r in own) and own[0].parameter > 1:
            fit = fit_rate(own, model=fit_model)
            envelope, _ = fit_log_envelope(own)
            own = [
                replace(
                    r,
                    bound=envelope * float(np.log(r.parameter)) / r.parameter,
                    fitted_c=fit.constant,
                    fitted_p=fit.exponent,
                )
                for r in own
            ]
        out.extend(own)
    return out


def _run_mixing(cfg: ExperimentConfig) -> list:
    # The kernel reads lower triangles only: the batch is checked Hermitian
    # once, before the sweep, and every grid point takes the unchecked kernel.
    _, d = _state_dim(cfg)
    states = build_states(cfg, d)
    _hermitian_batch([rho for _, rho in states], "attenuator_deviation")

    def act(points, batch):
        # Phi^n is the channel at eta^n (semigroup property).  The polar form
        # keeps |eta^n| to about an ulp; ``eta**n`` squares its way to n/2 ulp.
        return np.stack([Attenuator(cmath.rect(abs(cfg.eta) ** n, n * cmath.phase(cfg.eta)), d).deviation(batch) for n in points])

    # attenuator_mixing_bound's 4 |eta|^n Tr((N + 1) rho), in its order, with Tr((N + 1) rho) once per state
    weights = {state_id: particle_number(rho) + float(np.trace(rho).real) for state_id, rho in states}
    return [
        replace(r, bound=4.0 * abs(cfg.eta) ** int(r.parameter) * weights[r.state_id])
        for r in _sweep(cfg, act, states)
    ]


def _channel(cfg: ExperimentConfig, d: int):
    """The zeno run's mixing map ``M`` on ``d`` levels, by ``channel.type``: the attenuator at ``eta`` or a random gapped channel."""
    if cfg.channel_type == "gapped":
        m, p, _ = random_gapped_channel(d, stream(cfg.seed, _STREAM_CHANNEL), cfg.gapped_delta)
        return GappedChannel(matrix=m.matrix, p=p)
    return Attenuator(cfg.eta, d)


def _run_zeno(cfg: ExperimentConfig) -> list:
    # Each grid point iterates the step M exp(tL/n) on the states (zeno_action).
    _, d = _state_dim(cfg)
    states = build_states(cfg, d)
    generator = _generator(cfg, d)
    channel = _channel(cfg, d)
    limits = channel.limit(states, generator, cfg.t)

    def act(points, batch):
        images = zeno_action(points, cfg.t, batch, channel, generator)
        for image in images:  # one point at a time: numpy copies a broadcast in-place operand
            image -= limits
        return images

    return _fitted(_sweep(cfg, act, states), "power_log")


def _run_damping(cfg: ExperimentConfig) -> list:
    # Each grid point applies exp(t (gamma K + L)) to the states matrix-free (damped_action).
    # exp(sK) is the attenuator at eta = e^{-s}, so its closed-form checks run at s = 0.1, 1
    # and 10, and the limit is |0><0| Tr x: no d^2 x d^2 matrix is built.
    _, d = _state_dim(cfg)
    states = build_states(cfg, d)
    generator = _generator(cfg, d)
    for s in (0.1, 1.0, 10.0):
        limits = Attenuator(math.exp(-s), d).limit(states, label=f"exp({s} K)")

    def act(points, batch):
        images = np.stack([damped_action(gamma, cfg.t, batch, generator) for gamma in points])
        for image in images:  # one point at a time: numpy copies a broadcast in-place operand
            image -= limits
        return images

    return _fitted(_sweep(cfg, act, states), "power_log")


def _run_binomial(cfg: ExperimentConfig) -> list:
    # The target is the limit e^{PLP} P: with M = P = I it is e^L.
    _, s = _state_dim(cfg)
    states = build_states(cfg, s)
    if cfg.binomial_mode == "exp-limit":
        m = p = Superoperator(matrix=np.eye(s * s, dtype=np.complex128))
        norm, fit_model = 0.9, "pure_power"
    else:
        m, p, _ = random_gapped_channel(s, stream(cfg.seed, _STREAM_CHANNEL), cfg.gapped_delta)
        norm, fit_model = 0.5, "power_log"
    l_mat = random_operator(s * s, stream(cfg.seed, _STREAM_BINOMIAL), norm=norm)
    target = effective_dynamics(p, Superoperator(matrix=l_mat), 1.0).matrix

    def act(points, batch):
        images = []
        for n in points:
            diff = bn.binomial_product(m.matrix, l_mat, n) - target
            # one product per state: a batched product would sum in another order
            images.append([devectorize(diff @ vectorize(rho)) for rho in batch])
        return np.array(images)

    return _fitted(_sweep(cfg, act, states), fit_model)


def _run_simplex(cfg: ExperimentConfig) -> list:
    rows = []
    for n in cfg.grid():
        for k in range(1, min(n, cfg.k_max) + 1):
            started = time.perf_counter()
            check = bn.simplex_ratio_bound_check(n, k)
            error = abs(check.ratio - check.limit)
            wall = time.perf_counter() - started
            rows.append(
                ReportRow(cfg.experiment_id, cfg.kind, float(n), f"k={k}", error, check.bound, None, None, wall * 1000.0)
            )
    return rows


_RUNNERS = {
    "mixing": _run_mixing,
    "zeno": _run_zeno,
    "damping": _run_damping,
    "binomial": _run_binomial,
    "simplex": _run_simplex,
}


def run_experiment(cfg: ExperimentConfig) -> list:
    """Execute the sweep; rows come back sorted by (parameter, state_id)."""
    try:
        rows = _RUNNERS[cfg.kind](cfg)
    except ValueError as exc:
        # engine-level contract breaches surface as invariant violations
        raise InvariantViolation(cfg.kind, str(exc)) from exc
    return sorted(rows, key=lambda r: (r.parameter, r.state_id))


# ----------------------------------------------------------------------------
# CSV and plot-script output


def _fmt(value) -> str:
    if value is None:
        return ""
    f = float(value)
    if f == int(f) and abs(f) < 1e15:
        return str(int(f))
    return repr(f)


def rows_to_csv_text(rows) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for r in rows:
        writer.writerow(
            [
                r.experiment_id,
                r.kind,
                _fmt(r.parameter),
                r.state_id,
                repr(float(r.error)),
                _fmt(r.bound) if r.bound is not None else "",
                _fmt(r.fitted_c) if r.fitted_c is not None else "",
                _fmt(r.fitted_p) if r.fitted_p is not None else "",
                repr(float(r.wall_time_ms)),
            ]
        )
    return buffer.getvalue()


def write_csv(rows, path: str) -> str:
    text = rows_to_csv_text(rows)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)
    return path


_PLOT_TEMPLATE = '''#!/usr/bin/env python3
"""Auto-generated plot script: error and bound vs parameter, log-log."""
import csv
from collections import defaultdict

import matplotlib
matplotlib.use("Agg")
import matplotlib.pyplot as plt

CSV_PATH = {csv_path!r}
OUT_PATH = {png_path!r}

series = defaultdict(lambda: {{"parameter": [], "error": [], "bound": []}})
with open(CSV_PATH, newline="") as handle:
    for row in csv.DictReader(handle):
        s = series[row["state_id"]]
        s["parameter"].append(float(row["parameter"]))
        s["error"].append(float(row["error"]))
        s["bound"].append(float(row["bound"]) if row["bound"] else None)

fig, ax = plt.subplots(figsize=(7, 5))
for state_id, s in sorted(series.items()):
    ax.loglog(s["parameter"], s["error"], "o-", label=f"error {{state_id}}")
    pairs = [(p, b) for p, b in zip(s["parameter"], s["bound"]) if b is not None and b > 0]
    if pairs:
        ax.loglog([p for p, _ in pairs], [b for _, b in pairs], "--", label=f"bound {{state_id}}")
ax.set_xlabel("parameter")
ax.set_ylabel("trace-norm error")
ax.grid(True, which="both", alpha=0.3)
ax.legend(fontsize=8)
fig.tight_layout()
fig.savefig(OUT_PATH, dpi=150)
print(f"wrote {{OUT_PATH}}")
'''


def emit_plot_script(csv_path: str) -> str:
    """Write ``<stem>_plot.py``, a self-contained matplotlib script, next to the CSV."""
    if not os.path.exists(csv_path):
        raise ConfigError("plot.csv", f"no such CSV file: {csv_path!r}")
    stem = os.path.splitext(csv_path)[0]
    out_path = stem + "_plot.py"
    with open(out_path, "w", encoding="utf-8", newline="") as handle:
        handle.write(_PLOT_TEMPLATE.format(csv_path=csv_path, png_path=stem + ".png"))
    return out_path


# ----------------------------------------------------------------------------
# presets

PRESETS = {
    "attenuator-mixing": (
        "photon-loss mixing error vs the 4|eta|^n Tr((N+1)rho) bound",
        """\
[experiment]
kind = mixing
id = attenuator-mixing
seed = 11
dimension = 16

[channel]
eta_re = 0.8

[grid]
start = 1
factor = 2
count = 7

[states]
specs = fock:1, coherent:0.8, random:0, random:1
""",
    ),
    "attenuator-zeno": (
        "Zeno sweep of the attenuator with a quadrature-Hamiltonian perturbation",
        """\
[experiment]
kind = zeno
id = attenuator-zeno
seed = 11
dimension = 16
t = 1.0

[channel]
eta_re = 0.5

[generator]
type = hamiltonian
hamiltonian = quadrature

[grid]
start = 8
factor = 2
count = 10

[states]
specs = fock:1, coherent:0.8
""",
    ),
    "attenuator-damping": (
        "strong-damping sweep of the attenuator semigroup",
        """\
[experiment]
kind = damping
id = attenuator-damping
seed = 11
dimension = 16
t = 1.0

[generator]
type = hamiltonian
hamiltonian = quadrature

[grid]
start = 8
factor = 2
count = 9

[states]
specs = fock:1, coherent:0.8
""",
    ),
    "uniform-zeno": (
        "Zeno sweep for a random gapped (uniformly mixing) channel",
        """\
[experiment]
kind = zeno
id = uniform-zeno
seed = 424242
t = 1.0

[channel]
type = gapped
delta = 0.5
system_dim = 2

[generator]
type = hamiltonian
hamiltonian = random
scale = 0.5

[grid]
start = 8
factor = 2
count = 10

[states]
specs = random:0, random:1
""",
    ),
    "binomial-limit": (
        "classic (I + L/n)^n -> exp(L) operator limit",
        """\
[experiment]
kind = binomial
id = binomial-limit
seed = 7

[binomial]
mode = exp-limit
system_dim = 2

[grid]
start = 8
factor = 2
count = 10

[states]
specs = random:0, random:1
""",
    ),
    "simplex-bounds": (
        "discrete-simplex cardinality ratios against the exact bounds",
        """\
[experiment]
kind = simplex
id = simplex-bounds

[simplex]
k_max = 8

[grid]
start = 8
factor = 2
count = 8
""",
    ),
}


def list_presets() -> list:
    return [(name, desc) for name, (desc, _) in PRESETS.items()]


def preset_config(name: str) -> ExperimentConfig:
    if name not in PRESETS:
        raise ConfigError("preset", f"unknown preset {name!r}; see `zenolab presets`")
    return parse_config_text(PRESETS[name][1])
