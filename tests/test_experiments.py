import cmath
import configparser
import math
import os
import subprocess
import sys
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from zenolab import channels, experiments, zeno
from zenolab.channels import (
    Generator,
    Superoperator,
    apply,
    attenuator_deviation,
    attenuator_generator,
    attenuator_kraus,
    to_superoperator,
    vacuum_projection_superop,
    zeno_action,
)
from zenolab.experiments import (
    CSV_HEADER,
    ConfigError,
    InvariantViolation,
    PRESETS,
    _generator,
    build_states,
    emit_plot_script,
    generator_norm,
    list_presets,
    parse_config_text,
    preset_config,
    rows_to_csv_text,
    run_experiment,
    write_csv,
)
from zenolab.fock import number_operator
from zenolab.linalg import trace_norm
from zenolab.sampling import random_gapped_channel, random_operator, stream
from zenolab.zeno import ZenoConfig, effective_dynamics

from dense_reference import damped_evolution, damped_evolution_sparse, zeno_product

MINI_ZENO = """
[experiment]
kind = zeno
id = mini-zeno
seed = 3
dimension = 10

[channel]
eta_re = 0.5

[generator]
type = hamiltonian
hamiltonian = quadrature

[grid]
start = 8
factor = 2
count = 5

[states]
specs = fock:1, coherent:0.5
"""

MINI_MIXING = """
[experiment]
kind = mixing
id = mini-mixing
seed = 5
dimension = 8

[channel]
eta_re = 0.7

[grid]
start = 1
factor = 2
count = 5

[states]
specs = fock:1, random:0
"""


# ---------------------------------------------------------------------------
# parsing and validation


def test_parse_minimal_config():
    cfg = parse_config_text(MINI_ZENO)
    assert cfg.kind == "zeno"
    assert cfg.dimension == 10
    assert cfg.eta == 0.5
    assert cfg.grid() == [8, 16, 32, 64, 128]
    assert cfg.state_specs == ("fock:1", "coherent:0.5")


def test_parse_rejects_bad_grid_factor():
    bad = MINI_ZENO.replace("factor = 2", "factor = 0.9")
    with pytest.raises(ConfigError) as err:
        parse_config_text(bad)
    assert err.value.field == "grid.factor"


@pytest.mark.parametrize(
    "old, new, field",
    [
        ("start = 8", "start = inf", "grid.start"),
        ("factor = 2", "factor = inf", "grid.factor"),
        ("dimension = 10", "dimension = 10\nt = nan", "experiment.t"),
        ("eta_re = 0.5", "eta_re = nan", "channel.eta_re"),
        ("quadrature", "quadrature\nscale = -inf", "generator.scale"),
        ("factor = 2", "factor = 1e200", "grid.count"),
    ],
)
def test_parse_rejects_non_finite_values(old, new, field):
    for kind in ("zeno", "damping"):
        text = MINI_ZENO.replace("kind = zeno", f"kind = {kind}").replace(old, new)
        with pytest.raises(ConfigError) as err:
            parse_config_text(text)
        assert err.value.field == field


def test_parse_rejects_grid_that_rounds_to_repeats():
    text = MINI_ZENO.replace("start = 8", "start = 1").replace("factor = 2", "factor = 1.01")
    for kind in ("mixing", "zeno", "binomial", "simplex"):
        with pytest.raises(ConfigError) as err:
            parse_config_text(text.replace("kind = zeno", f"kind = {kind}"))
        assert err.value.field == "grid.factor"
    # damping keeps gamma as a float, so the same grid stays distinct
    assert len(set(parse_config_text(text.replace("kind = zeno", "kind = damping")).grid())) == 5


def test_grid_is_integer_only_for_rounded_kinds():
    text = MINI_ZENO.replace("start = 8", "start = 1").replace("factor = 2", "factor = 3.3")
    for kind in ("mixing", "zeno", "binomial", "simplex"):
        grid = parse_config_text(text.replace("kind = zeno", f"kind = {kind}")).grid()
        assert grid == [1, 3, 11, 36, 119] and all(type(n) is int for n in grid)
    assert parse_config_text(text.replace("kind = zeno", "kind = damping")).grid()[1] == 3.3


def test_size_check_counts_live_dense_matrices(monkeypatch):
    # physical memory of exactly nine 100 x 100 complex matrices admits a
    # gapped zeno channel of system_dim = 10, not 11
    pages = {"SC_PAGE_SIZE": 16, "SC_PHYS_PAGES": experiments._LIVE_MATRICES * 10**4}
    monkeypatch.setattr(os, "sysconf", pages.__getitem__)
    gapped = MINI_ZENO.replace("eta_re = 0.5", "type = gapped\nsystem_dim = 10")
    assert parse_config_text(gapped).system_dim == 10
    with pytest.raises(ConfigError) as err:
        parse_config_text(gapped.replace("system_dim = 10", "system_dim = 11"))
    assert err.value.field == "channel.system_dim"
    simplex = MINI_ZENO.replace("kind = zeno", "kind = simplex").replace("= 10", "= 4000")
    assert parse_config_text(simplex).dimension == 4000  # holds no dense matrix


def test_size_check_estimates_mixing_by_its_state_arrays(monkeypatch):
    # memory for exactly _LIVE_MIXING_ARRAYS (S + 1) d x d complex arrays at
    # d = 100 and S = 2 admits d = 100, not d = 101 or a third state; a zeno
    # run of that size holds more arrays per state, so it is charged more
    pages = {"SC_PAGE_SIZE": 16, "SC_PHYS_PAGES": experiments._LIVE_MIXING_ARRAYS * 3 * 100**2}
    monkeypatch.setattr(os, "sysconf", pages.__getitem__)
    mixing = MINI_MIXING.replace("dimension = 8", "dimension = 100")
    assert parse_config_text(mixing).dimension == 100
    for text in (
        mixing.replace("= 100", "= 101"),
        mixing.replace("random:0", "random:0, random:1"),
        MINI_ZENO.replace("dimension = 10", "dimension = 100"),
    ):
        with pytest.raises(ConfigError) as err:
            parse_config_text(text)
        assert err.value.field == "experiment.dimension"


@pytest.mark.parametrize("kind", ["zeno", "damping"])
def test_size_check_charges_attenuator_runs_by_representation(monkeypatch, kind):
    # memory for exactly what an attenuator run holds at d = 100 with two
    # states admits d = 100, not d = 101 or a third state: zeno some d x d
    # arrays per state plus one (its kernel's plan among them), damping the
    # work buffers and coefficients of its 24 nodes, d x d arrays per state
    # plus one
    d = 100
    live = experiments._LIVE_ZENO_ARRAYS if kind == "zeno" else experiments._LIVE_DAMPING_ARRAYS
    entries = live * 3 * d**2
    pages = {"SC_PAGE_SIZE": 16, "SC_PHYS_PAGES": entries}
    monkeypatch.setattr(os, "sysconf", pages.__getitem__)
    text = MINI_ZENO.replace("kind = zeno", f"kind = {kind}").replace("dimension = 10", f"dimension = {d}")
    assert parse_config_text(text).dimension == d
    for bad in (text.replace(f"= {d}", f"= {d + 1}"), text.replace("coherent:0.5", "coherent:0.5, random:0")):
        with pytest.raises(ConfigError) as err:
            parse_config_text(bad)
        assert err.value.field == "experiment.dimension"


def test_parse_rejects_unknown_kind():
    with pytest.raises(ConfigError) as err:
        parse_config_text(MINI_ZENO.replace("kind = zeno", "kind = warp"))
    assert err.value.field == "experiment.kind"


def test_parse_rejects_eta_outside_disc():
    with pytest.raises(ConfigError) as err:
        parse_config_text(MINI_ZENO.replace("eta_re = 0.5", "eta_re = 1.5"))
    assert err.value.field == "channel.eta_re"


def test_parse_rejects_missing_experiment_section():
    with pytest.raises(ConfigError):
        parse_config_text("[grid]\nstart = 8\n")


def test_parse_rejects_negative_dimension():
    with pytest.raises(ConfigError) as err:
        parse_config_text(MINI_ZENO.replace("dimension = 10", "dimension = 1"))
    assert err.value.field == "experiment.dimension"


@pytest.mark.parametrize(
    "section, key, cast",
    [pytest.param(s, k, cast, id=f"{s}.{k}") for s, k, _, cast, _, rule, _ in experiments._KEYS if cast is not str or rule],
)
def test_each_config_key_names_itself_when_its_value_is_refused(section, key, cast):
    # an unparsable value, or nan for a float, fails with the key's own field;
    # a string key with a rule refuses ",", and experiment.id and output.path
    # take any string
    bad = {int: ["x", "2.5"], float: ["x", "nan"]}.get(cast, [","])
    for value in bad:
        sections = {"experiment": {"kind": "simplex"}}
        sections.setdefault(section, {})[key] = value
        text = "\n".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items()) for name, keys in sections.items())
        with pytest.raises(ConfigError) as err:
            parse_config_text(text)
        assert err.value.field == f"{section}.{key}"


def test_readme_config_grammar_lists_every_key_and_parses():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("### Config grammar", 1)[1].split("```ini\n", 1)[1].split("```", 1)[0]
    parse_config_text(block)
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=(";", "#"))
    parser.read_string(block)
    listed = {(section, key) for section in parser.sections() for key in parser.options(section)}
    assert listed == {(section, key) for section, key, *_ in experiments._KEYS}


def test_parse_refuses_an_unknown_key():
    with pytest.raises(ConfigError) as err:
        parse_config_text(MINI_ZENO.replace("count = 5", "cuont = 3"))
    assert err.value.field == "grid.cuont"
    assert str(err.value) == "grid.cuont: unknown key"


# Every section and key the parser reads, each with values it accepts.
CONFIG_KEYS = {
    "experiment": {
        "kind": experiments.KINDS, "id": ("x",), "seed": ("3",), "dimension": ("6", "16"), "t": ("0.5",),
    },
    "channel": {
        "eta_re": ("0.5", "-0.8"), "eta_im": ("0.3",), "type": ("attenuator", "gapped"), "delta": ("0.5",),
        "system_dim": ("2", "3"),
    },
    "generator": {
        "type": ("hamiltonian", "dephasing", "none"), "hamiltonian": ("quadrature", "number", "random"),
        "scale": ("0.4",), "rate": ("0.2",),
    },
    "binomial": {"mode": ("exp-limit", "gapped"), "system_dim": ("2",)},
    "simplex": {"k_max": ("4",)},
    "grid": {"start": ("8", "2.5"), "factor": ("2", "1.5"), "count": ("1", "5")},
    "states": {"specs": ("fock:1", "fock:1, coherent:0.5, random:0")},
    "tolerances": {"tail_mass": ("1e-12",)},
    "output": {"path": ("out.csv",)},
}
CONFIG_WORDS = ("nan", "-inf", "1e400", "", "%", "[x]", "fock:99", "0", "-1")


@st.composite
def config_texts(draw):
    # Three keys in four are present, and three values in four are ones the
    # parser accepts, so examples reach every check; the rest are anything.
    # Integers run past every cap (grid.count's 10**4 included): each cap is
    # checked in O(1), before anything of that size is listed or built.
    anything = st.one_of(
        st.sampled_from(CONFIG_WORDS),
        st.integers(min_value=-10, max_value=10**12).map(str),
        st.floats(allow_nan=True, allow_infinity=True).map(repr),
        st.text(st.characters(blacklist_categories=("Cc", "Cs")), max_size=12),
    )
    others = st.lists(st.sampled_from(sorted(CONFIG_KEYS.keys() - {"experiment"})), unique=True)
    lines = []
    for section in ["experiment", *draw(others)]:
        lines.append(f"[{section}]")
        for key, accepted in CONFIG_KEYS[section].items():
            if draw(st.integers(0, 3)):
                good = draw(st.integers(0, 3))
                lines.append(f"{key} = {draw(st.sampled_from(accepted) if good else anything)}")
    return "\n".join(lines)


@settings(max_examples=200, deadline=None)
@given(text=config_texts())
def test_parse_raises_only_config_error(text):
    try:
        parse_config_text(text)
    except ConfigError:
        pass


def test_build_states_fock_out_of_range():
    cfg = parse_config_text(MINI_ZENO.replace("fock:1", "fock:12"))
    with pytest.raises(ConfigError) as err:
        build_states(cfg, cfg.dimension)
    assert err.value.field == "states.specs"


@pytest.mark.parametrize(
    "spec",
    ["coherent:nan", "coherent:inf", "coherent:1e200", "coherent:1e308+1e308j",
     "random:-999", "random:-2000", f"random:{2**64 - 1000}", "random:99999999999999999999999"],
)
def test_build_states_refuses_non_finite_amplitudes_and_indices_off_the_state_streams(spec):
    # random:i draws from Philox stream 1000 + i: i = -999 would share the
    # channel's stream, and 1000 + i must fit in 64 bits
    cfg = parse_config_text(MINI_MIXING.replace("random:0", spec))
    with pytest.raises(ConfigError) as err:
        build_states(cfg, cfg.dimension)
    assert err.value.field == "states.specs"


def test_build_states_accepts_the_last_state_stream():
    cfg = parse_config_text(MINI_MIXING.replace("random:0", f"random:{2**64 - 1001}"))
    (_, _), (_, rho) = build_states(cfg, cfg.dimension)
    assert abs(np.trace(rho) - 1) < 1e-12


def test_build_states_tail_budget_violation():
    cfg = parse_config_text(MINI_ZENO.replace("coherent:0.5", "coherent:2.4"))
    with pytest.raises(InvariantViolation) as err:
        build_states(cfg, cfg.dimension)
    assert err.value.field == "states.specs"


def test_build_states_deterministic():
    cfg = parse_config_text(MINI_MIXING)
    first = build_states(cfg, cfg.dimension)
    second = build_states(cfg, cfg.dimension)
    for (id_a, rho_a), (id_b, rho_b) in zip(first, second):
        assert id_a == id_b
        assert np.array_equal(rho_a, rho_b)


# ---------------------------------------------------------------------------
# running


def test_run_mixing_rows_respect_bound():
    rows = run_experiment(parse_config_text(MINI_MIXING))
    assert len(rows) == 5 * 2
    for row in rows:
        assert row.bound is not None
        assert row.error <= row.bound + 1e-15
    # sorted by (parameter, state_id)
    keys = [(r.parameter, r.state_id) for r in rows]
    assert keys == sorted(keys)


@pytest.mark.parametrize("d", [32, 128])
@pytest.mark.parametrize("eta", ["eta_re = 0.8", "eta_re = 0.6\neta_im = -0.5"])
def test_mixing_fock_rows_match_closed_form(d, eta):
    # ||Phi_{eta^n}(|k><k|) - |0><0|||_1 = 2(1 - (1 - |eta|^{2n})^k); at n = 64
    # it is near 1e-12, where rounding 1 - |eta|^2 first would cost 1e-4 of it,
    # and up to n = 100 eta^n must keep its modulus to an ulp or two
    for grid in ("start = 1\nfactor = 2\ncount = 7", "start = 100\nfactor = 2\ncount = 1"):
        text = (
            MINI_MIXING.replace("dimension = 8", f"dimension = {d}")
            .replace("eta_re = 0.7", eta)
            .replace("start = 1\nfactor = 2\ncount = 5", grid)
            .replace("fock:1, random:0", f"fock:1, fock:2, fock:7, fock:{d - 1}")
        )
        cfg = parse_config_text(text)
        rows = run_experiment(cfg)
        assert len(rows) == cfg.grid_count * 4
        for row in rows:
            k, n = int(row.state_id.partition(":")[2]), int(row.parameter)
            exact = -2.0 * np.expm1(k * np.log1p(-abs(cfg.eta) ** (2 * n)))
            assert abs(row.error - exact) <= 1e-14 * exact, row


def test_mixing_fock_row_at_d200_matches_closed_form():
    # past the overflow of sqrt(j!) at j = 170 the kernel runs on two blocks
    # of levels; ||Phi_{eta^n}(|1><1|) - |0><0|||_1 = 2 |eta|^{2n}
    text = MINI_MIXING.replace("dimension = 8", "dimension = 200").replace("fock:1, random:0", "fock:1")
    cfg = parse_config_text(text)
    rows = run_experiment(cfg)
    assert len(rows) == cfg.grid_count
    for row in rows:
        assert abs(row.error - 2 * abs(cfg.eta) ** (2 * row.parameter)) <= 1e-13, row


def test_mixing_runs_without_a_superoperator(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the mixing run built a superoperator")

    monkeypatch.setattr(channels, "to_superoperator", refuse)
    d = 40
    cfg = parse_config_text(MINI_MIXING.replace("dimension = 8", f"dimension = {d}"))
    tracemalloc.start()
    try:
        rows = run_experiment(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rows) == 5 * 2
    assert peak <= 16 * d**4 / 10  # a tenth of one d^2 x d^2 complex matrix


def test_run_zeno_produces_fits_and_envelope():
    rows = run_experiment(parse_config_text(MINI_ZENO))
    assert len(rows) == 5 * 2
    for row in rows:
        assert row.fitted_p is not None and row.fitted_p >= 0.9
        assert row.bound is not None
        assert row.error <= row.bound + 1e-15


def test_run_damping_small():
    text = MINI_ZENO.replace("kind = zeno", "kind = damping").replace("id = mini-zeno", "id = mini-damp")
    rows = run_experiment(parse_config_text(text))
    assert len(rows) == 10
    errs = [r.error for r in rows if r.state_id == "fock:1"]
    assert all(b < a for a, b in zip(errs, errs[1:]))


@pytest.mark.parametrize("kind", ["zeno", "damping"])
def test_attenuator_runs_build_no_dense_matrix(monkeypatch, kind):
    # validate() and the limit |0><0| Tr x are closed forms and both kernels
    # act on the states, so nothing exponentiates or builds a d^2 x d^2
    # matrix.  With the kernel held back, the run peaks at a tenth of one such
    # matrix; whole, within the size check's charge.
    def refuse(*args, **kwargs):
        raise AssertionError("an attenuator run built a dense matrix")

    for owner, name in (
        (zeno, "matrix_exp"),
        (channels, "to_superoperator"),
        (channels, "attenuator_generator"),
        (channels, "vacuum_projection_superop"),
        (Generator, "superoperator"),
        (experiments, "effective_dynamics"),
    ):
        monkeypatch.setattr(owner, name, refuse)
    d = 16
    text = (
        MINI_ZENO.replace("kind = zeno", f"kind = {kind}")
        .replace("dimension = 10", f"dimension = {d}")
        .replace("quadrature", "random\nscale = 0.4")
    )
    cfg = parse_config_text(text)

    def peak():
        run_experiment(cfg)  # lazy imports and caches settle first
        tracemalloc.start()
        try:
            assert len(run_experiment(cfg)) == 5 * 2
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak() <= experiments._charge(cfg)[0]
    # both kernels take the batch of states third; the stand-in returns it
    kernel = "zeno_action" if kind == "zeno" else "damped_action"
    monkeypatch.setattr(experiments, kernel, lambda *args: np.asarray(args[2]))
    assert peak() <= 16 * d**4 / 10


def test_damping_with_a_dense_hamiltonian_at_d64_matches_expm():
    # a random H at d = 64 and gamma = 2: the fixed-point iteration diverges
    # at the far contour nodes, where the long jump chains make (z_k - T)^{-1}
    # large, so the substeps are halved.  Against scipy's expm_multiply on
    # the sparse generator, gamma (2 a x a^dag - N x - x N) - i [H, x]
    d = 64
    text = (
        MINI_ZENO.replace("kind = zeno", "kind = damping")
        .replace("dimension = 10", f"dimension = {d}")
        .replace("hamiltonian = quadrature", "hamiltonian = random\nscale = 0.25")
        .replace("start = 8", "start = 2")
        .replace("count = 5", "count = 1")
        .replace("fock:1, coherent:0.5", "random:0")
    )
    cfg = parse_config_text(text)
    (row,) = run_experiment(cfg)
    (_, x), = build_states(cfg, d)
    exact = damped_evolution_sparse(_generator(cfg, d).hamiltonian, cfg.t, row.parameter, x)
    exact[0, 0] -= np.trace(x)
    assert abs(row.error - trace_norm(exact)) <= 1e-10


def test_damping_at_d128_parses_on_8_gib_and_matches_closed_form(monkeypatch):
    # the split solve holds a few (d, 24, S, d) arrays, so d = 128 fits an
    # 8 GiB host.  -i[sN, .] commutes with K: the row is
    # ||Phi_{e^{-gamma t}}(U_t x U_t^dag) - |0><0| Tr x||_1, where U_t
    # multiplies entry (m, n) by e^{-i t s (m - n)}
    d, t, s = 128, 1.0, 0.01  # t ||H||_2 = 1.27: two substeps
    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 8 * 2**30 // 4096}
    monkeypatch.setattr(os, "sysconf", pages.__getitem__)
    text = (
        MINI_ZENO.replace("kind = zeno", "kind = damping")
        .replace("dimension = 10", f"dimension = {d}")
        .replace("hamiltonian = quadrature", f"hamiltonian = number\nscale = {s}")
        .replace("count = 5", "count = 1")
        .replace("fock:1, coherent:0.5", "random:0")
    )
    cfg = parse_config_text(text)
    monkeypatch.undo()
    run_experiment(cfg)  # lazy imports and caches settle first
    tracemalloc.start()
    try:
        (row,) = run_experiment(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= experiments._charge(cfg)[0]
    (_, x), = build_states(cfg, d)
    charge = np.subtract.outer(np.arange(d), np.arange(d))
    exact = attenuator_deviation(np.exp(-row.parameter * t), (x * np.exp(-1j * t * s * charge))[None])
    assert abs(row.error - trace_norm(exact[0])) <= 1e-12


@pytest.mark.parametrize("d, specs", [(8, "random:0"), (24, "fock:1, coherent:0.5, random:0")])
def test_damping_run_at_the_halving_cap_stays_within_its_charge(monkeypatch, d, specs):
    # no node ever settles, so every substep is halved up to the cap, each
    # length with its own coefficients: the most a damping run can hold
    text = (
        MINI_ZENO.replace("kind = zeno", "kind = damping")
        .replace("dimension = 10", f"dimension = {d}")
        .replace("hamiltonian = quadrature", "hamiltonian = random")
        .replace("count = 5", "count = 1")
        .replace("fock:1, coherent:0.5", specs)
    )
    cfg = parse_config_text(text)
    monkeypatch.setattr(channels, "_RESIDUAL", -1.0)
    monkeypatch.setattr(channels, "_RESIDUAL_FLOOR", -1.0)
    tracemalloc.start()
    try:
        with pytest.raises(InvariantViolation, match=f"after {channels._HALVINGS} halvings"):
            run_experiment(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= experiments._charge(cfg)[0]


@pytest.mark.parametrize(
    "old, new, field",
    [
        ("dimension = 10", "dimension = 10\nt = 1e6", "experiment.t"),
        ("dimension = 10", "dimension = 10\nt = 1e300", "experiment.t"),
        ("hamiltonian = quadrature", "hamiltonian = random\nscale = 1e200", "generator.scale"),
        ("hamiltonian = quadrature", "hamiltonian = number\nscale = -1e5", "generator.scale"),
    ],
)
def test_damping_substeps_are_bounded_at_parse_time(monkeypatch, old, new, field):
    # each would ask damped_action for ceil(t ||H||_2) substeps per grid point;
    # the parser bounds ||H||_2 without building H and never runs the case
    def refuse(*args, **kwargs):
        raise AssertionError("the parser built the Hamiltonian")

    monkeypatch.setattr(experiments, "_generator", refuse)
    text = MINI_ZENO.replace("kind = zeno", "kind = damping").replace(old, new)
    with pytest.raises(ConfigError) as err:
        parse_config_text(text)
    assert err.value.field == field and "substeps" in str(err.value)


@pytest.mark.parametrize("kind", ["quadrature", "number", "random"])
@pytest.mark.parametrize("d", [2, 5, 24, 100])
def test_damping_substep_estimate_bounds_the_kernel(monkeypatch, kind, d):
    # with the budget one below the substeps damped_action takes over the
    # grid, the parse-time estimate must refuse the run, at a set scale and
    # at the default one, which the estimate and the run's H share
    for scale, field in (("\nscale = 0.9", "generator.scale"), ("", "experiment.t")):
        text = (
            MINI_ZENO.replace("kind = zeno", "kind = damping")
            .replace("dimension = 10", f"dimension = {d}\nt = 3.7")
            .replace("hamiltonian = quadrature", f"hamiltonian = {kind}{scale}")
            .replace("fock:1, coherent:0.5", "fock:1")
        )
        cfg = parse_config_text(text)
        h = _generator(cfg, d).hamiltonian
        taken = sum(channels.damping_substeps(gamma, cfg.t, np.linalg.norm(h, 2)) for gamma in cfg.grid())
        monkeypatch.setattr(experiments, "_SUBSTEP_BUDGET", taken - 1)
        with pytest.raises(ConfigError) as err:
            parse_config_text(text)
        assert err.value.field == field
        monkeypatch.undo()


def test_zeno_step_estimate_bounds_the_kernel(monkeypatch):
    # eta = 1 does not mix, so zeno_action takes all n steps at every grid
    # point; with the budget one below those steps the parser refuses the run
    text = MINI_ZENO.replace("eta_re = 0.5", "eta_re = 1.0").replace("fock:1, coherent:0.5", "fock:1")
    cfg = parse_config_text(text)
    steps = []
    apply_once = channels._attenuator_apply

    def counted(products, x):
        steps.append(len(x))
        return apply_once(products, x)

    monkeypatch.setattr(channels, "_attenuator_apply", counted)
    generator = _generator(cfg, cfg.dimension)
    states = np.stack([rho for _, rho in build_states(cfg, cfg.dimension)])
    for n in cfg.grid():
        zeno_action(n, cfg.t, states, cfg.eta, generator)
    assert len(steps) == sum(cfg.grid())
    monkeypatch.setattr(experiments, "_STEP_BUDGET", len(steps) - 1)
    with pytest.raises(ConfigError) as err:
        parse_config_text(text)
    assert err.value.field == "grid.start" and "steps" in str(err.value)
    # at n = 1e12 the kernel's rounding-floor exit would end the run early
    # with a wrong row; the shipped budget refuses it
    monkeypatch.undo()
    with pytest.raises(ConfigError) as err:
        parse_config_text(text.replace("start = 8", "start = 1e12").replace("count = 5", "count = 1"))
    assert err.value.field == "grid.start"


def test_shipped_configs_fit_the_step_budget():
    # n = 8 .. 4096 takes at most 8184 steps, far inside the budget
    root = Path(__file__).resolve().parent.parent
    texts = [text for _, text in PRESETS.values()]
    texts += [path.read_text() for path in sorted((root / "perfbench" / "configs").glob("*.ini"))]
    zeno_steps = [sum(cfg.grid()) for cfg in map(parse_config_text, texts) if cfg.kind == "zeno"]
    assert zeno_steps and max(zeno_steps) == 8184 <= experiments._STEP_BUDGET


def test_huge_grid_count_fails_before_listing_the_grid():
    # a factor near 1 keeps every point finite, so only the count can refuse it
    text = (
        MINI_ZENO.replace("kind = zeno", "kind = damping")
        .replace("factor = 2", "factor = 1.0000001")
        .replace("count = 5", f"count = {10**9}")
    )
    started = time.perf_counter()
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError) as err:
            parse_config_text(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert err.value.field == "grid.count"
    assert time.perf_counter() - started < 1.0 and peak < 2**20
    cfg = parse_config_text(text.replace(f"count = {10**9}", f"count = {experiments._GRID_POINTS}"))
    assert cfg.grid_count == experiments._GRID_POINTS


def test_damping_run_leaves_scipy_unimported(tmp_path):
    # scipy is a test-only dependency; importing it would cost the CLI time and memory
    root = Path(__file__).resolve().parent.parent
    code = (
        "import sys; from zenolab.cli import main; "
        f"assert main(['--out', {str(tmp_path)!r}, 'run', 'attenuator-damping']) == 0; "
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"
    )
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[]"


def test_run_binomial_exp_limit():
    text = """
[experiment]
kind = binomial
id = mini-bin
seed = 9

[binomial]
mode = exp-limit
system_dim = 2

[grid]
start = 8
factor = 2
count = 6

[states]
specs = random:0
"""
    rows = run_experiment(parse_config_text(text))
    errs = [r.error for r in rows]
    assert all(b < a for a, b in zip(errs, errs[1:]))
    assert rows[-1].error <= 1e-2


def test_run_binomial_gapped():
    text = """
[experiment]
kind = binomial
id = mini-gap
seed = 10

[channel]
type = gapped
delta = 0.5

[binomial]
mode = gapped
system_dim = 2

[grid]
start = 8
factor = 2
count = 6

[states]
specs = random:0, random:1
"""
    rows = run_experiment(parse_config_text(text))
    assert all(r.fitted_p is not None and r.fitted_p >= 0.9 for r in rows)


def test_run_simplex_all_hold():
    text = """
[experiment]
kind = simplex
id = mini-simplex

[simplex]
k_max = 6

[grid]
start = 8
factor = 4
count = 4
"""
    rows = run_experiment(parse_config_text(text))
    assert rows
    for row in rows:
        assert row.error <= row.bound


def test_wall_time_covers_each_grid_point(monkeypatch):
    # each zeno grid point takes one zeno_action call; slowing it by 20 ms
    # shows in every row, an even share of it per state, and the rows never
    # add up to more than the run
    def slow_action(*args, **kwargs):
        time.sleep(0.02)
        return zeno_action(*args, **kwargs)

    monkeypatch.setattr(experiments, "zeno_action", slow_action)
    started = time.perf_counter()
    rows = run_experiment(parse_config_text(MINI_ZENO))
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    assert all(row.wall_time_ms >= 10.0 for row in rows)
    assert sum(row.wall_time_ms for row in rows) <= elapsed_ms


# Hermiticity-preserving maps of each kind the matrix-free runners meet, at d = 10.
AGREEMENT_CASES = {
    "zeno-complex-eta": MINI_ZENO.replace("eta_re = 0.5", "eta_re = 0.5\neta_im = 0.3"),
    "zeno-dephasing": MINI_ZENO.replace("type = hamiltonian", "type = dephasing\nrate = 0.2"),
    "damping-random-hamiltonian": MINI_ZENO.replace("kind = zeno", "kind = damping").replace(
        "quadrature", "random\nscale = 0.4"
    ),
    "damping-dephasing": MINI_ZENO.replace("kind = zeno", "kind = damping").replace(
        "type = hamiltonian", "type = dephasing\nrate = 0.3"
    ),
}


def _complex_path_errors(cfg):
    """Per-(parameter, state) errors from the dense complex engine."""
    if cfg.kind == "zeno":
        if cfg.channel_type == "attenuator":
            dim = cfg.dimension
            m, p = to_superoperator(attenuator_kraus(cfg.eta, dim)), vacuum_projection_superop(dim)
        else:
            dim = cfg.system_dim
            m, p, _ = random_gapped_channel(dim, stream(cfg.seed, experiments._STREAM_CHANNEL), cfg.gapped_delta)
        l = _generator(cfg, dim).superoperator(dim)
        states = build_states(cfg, dim)
        engine = ZenoConfig(m=m, l=l, p=p, t=cfg.t, test_states=states)

        def evolve(n, rho):
            return zeno_product(engine, n, rho)

    else:
        dim = cfg.dimension
        l = _generator(cfg, dim).superoperator(dim)
        p = vacuum_projection_superop(dim)
        states = build_states(cfg, dim)
        k = attenuator_generator(dim)

        def evolve(gamma, rho):
            return damped_evolution(k, l, cfg.t, gamma, rho)

    eff = effective_dynamics(p, l, cfg.t)
    return {
        (float(x), sid): trace_norm(evolve(x, rho) - apply(eff, rho))
        for x in cfg.grid()
        for sid, rho in states
    }


@pytest.mark.parametrize("case", [*AGREEMENT_CASES, "uniform-zeno"])
def test_real_runners_agree_with_complex_engine(case):
    cfg = preset_config(case) if case in PRESETS else parse_config_text(AGREEMENT_CASES[case])
    expected = _complex_path_errors(cfg)
    rows = run_experiment(cfg)
    assert len(rows) == len(expected)
    for row in rows:
        assert abs(row.error - expected[(row.parameter, row.state_id)]) <= 1e-12, row


def test_runner_rejects_generator_that_breaks_hermiticity(monkeypatch):
    # the gapped zeno channel is the run that still builds L as a matrix
    def skewed(generator, dim):
        return Superoperator(matrix=random_operator(dim * dim, stream(424242, 99), norm=0.1))

    monkeypatch.setattr(Generator, "superoperator", skewed)
    with pytest.raises(InvariantViolation, match="L: map is not Hermiticity-preserving"):
        run_experiment(preset_config("uniform-zeno"))


def _probe_loop(l):
    """max ||L(x)||_1 / ||x||_1 over probes: a lower bound on the 1->1 norm.

    The probes are the d^2 matrix units ``E_ij``, then Hermitian pairs
    ``g + g^H`` and ``g g^H`` of complex Gaussian ``g``, at least 200 in all.
    """
    d = l.dim
    probes = []
    for i in range(d):
        for j in range(d):
            unit = np.zeros((d, d), dtype=complex)
            unit[i, j] = 1.0
            probes.append(unit)
    rng = np.random.default_rng(np.random.Philox(key=np.array([0, 0x1111], dtype=np.uint64)))
    while len(probes) < max(200, d * d + 128):
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        probes.append(g + g.conj().T)
        probes.append(g @ g.conj().T)
    best = 0.0
    for x in probes:
        denom = trace_norm(x)
        if denom >= 1e-14:
            best = max(best, trace_norm(apply(l, x)) / denom)
    return best


@settings(max_examples=40, deadline=None)
@given(
    d=st.integers(min_value=2, max_value=8),
    kind=st.sampled_from(["quadrature", "number", "random", "dephasing"]),
    scale=st.floats(min_value=0.01, max_value=3.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_generator_norm_is_exact(d, kind, scale, seed):
    # the probe's lower bound never exceeds the exact norm, which is attained
    # at |u><v| for eigenvectors u, v of the extreme eigenvalues of H (|0>
    # and |d-1> of N for dephasing)
    if kind == "dephasing":
        generator = f"type = dephasing\nrate = {scale!r}"
    else:
        generator = f"type = hamiltonian\nhamiltonian = {kind}\nscale = {scale!r}"
    text = (
        MINI_ZENO.replace("seed = 3", f"seed = {seed}")
        .replace("dimension = 10", f"dimension = {d}")
        .replace("type = hamiltonian\nhamiltonian = quadrature", generator)
        .replace("fock:1, coherent:0.5", "fock:1")
    )
    cfg = parse_config_text(text)
    norm = generator_norm(cfg)
    generator = _generator(cfg, d)
    l = generator.superoperator(d)
    assert _probe_loop(l) <= norm * (1 + 1e-12)
    h = generator.hamiltonian
    _, vectors = np.linalg.eigh(number_operator(d) if h is None else h)
    unit = np.outer(vectors[:, -1], vectors[:, 0].conj())
    assert abs(trace_norm(apply(l, unit)) - norm) <= 1e-12 * max(norm, 1.0)


@pytest.mark.parametrize("kind", ["zeno", "damping"])
def test_attenuator_runs_at_d64_match_closed_forms(kind):
    # no dense setup runs at d = 64.  -i[sN, .] and dephasing commute with the
    # attenuator: a zeno row is ||Phi_{eta^n}(U_t x U_t^dag) - |0><0| Tr x||_1
    # and a damping row ||Phi_{e^{-gamma t}}(e^{tL} x) - |0><0| Tr x||_1, where
    # e^{tL} multiplies entry (m, n) by e^{-t r (m - n)^2 / 2}
    d, t = 64, 1.0
    if kind == "zeno":
        s = 0.05
        generator = f"type = hamiltonian\nhamiltonian = number\nscale = {s}"
    else:
        r = 0.3
        generator = f"type = dephasing\nrate = {r}"
    text = (
        MINI_ZENO.replace("kind = zeno", f"kind = {kind}")
        .replace("dimension = 10", f"dimension = {d}")
        .replace("eta_re = 0.5", "eta_re = 0.45\neta_im = 0.2")
        .replace("type = hamiltonian\nhamiltonian = quadrature", generator)
        .replace("count = 5", "count = 3")
        .replace("fock:1, coherent:0.5", f"fock:{d - 1}, coherent:1.5, random:0")
    )
    cfg = parse_config_text(text)
    states = dict(build_states(cfg, d))
    charge = np.subtract.outer(np.arange(d), np.arange(d))
    rows = run_experiment(cfg)
    assert len(rows) == 3 * 3
    for row in rows:
        x = states[row.state_id][None]
        if kind == "zeno":
            n = int(row.parameter)
            eta_n = cmath.rect(abs(cfg.eta) ** n, n * cmath.phase(cfg.eta))
            exact = attenuator_deviation(eta_n, x * np.exp(-1j * t * s * charge))
        else:
            exact = attenuator_deviation(np.exp(-row.parameter * t), x * np.exp(-t * r * charge**2 / 2))
        assert abs(row.error - trace_norm(exact[0])) <= 1e-12, row


@pytest.mark.parametrize("kind", ["zeno", "damping"])
def test_quadrature_runs_at_d128_match_displaced_coherent_states(kind):
    # H = s(a + a^dag) at the default s = 1/d: e^{-i tau H} is the displacement
    # D(-i tau s), and Phi_eta D(g) = D(eta g) Phi_eta, so a coherent |alpha>
    # leaves each map as a coherent |b> and its row is
    # || |b><b| - |0><0| ||_1 = 2 sqrt(1 - e^{-|b|^2})
    d, t = 128, 1.0
    s = 1.0 / d
    grid = "start = 8\nfactor = 8\ncount = 3" if kind == "zeno" else "start = 8\nfactor = 4\ncount = 3"
    text = (
        MINI_ZENO.replace("kind = zeno", f"kind = {kind}")
        .replace("dimension = 10", f"dimension = {d}")
        .replace("eta_re = 0.5", "eta_re = 0.6\neta_im = 0.3")
        .replace("start = 8\nfactor = 2\ncount = 5", grid)
        .replace("fock:1, coherent:0.5", "coherent:0.8, coherent:1.5-0.7j")
    )
    cfg = parse_config_text(text)
    rows = run_experiment(cfg)
    assert len(rows) == 3 * 2
    for row in rows:
        alpha = complex(row.state_id.partition(":")[2])
        if kind == "zeno":
            n, eta = int(row.parameter), cfg.eta
            b = eta**n * alpha - 1j * (t / n) * s * eta * (1 - eta**n) / (1 - eta)
        else:
            decay = math.exp(-row.parameter * t)
            b = decay * alpha - 1j * s / row.parameter * (1 - decay)
        assert abs(row.error - 2 * math.sqrt(-math.expm1(-abs(b) ** 2))) <= 1e-13, row


# ---------------------------------------------------------------------------
# CSV and plotting


def _strip_wall(text: str) -> str:
    return "\n".join(",".join(line.split(",")[:-1]) for line in text.splitlines())


def test_csv_schema_and_determinism(tmp_path):
    cfg = parse_config_text(MINI_MIXING)
    first = rows_to_csv_text(run_experiment(cfg))
    second = rows_to_csv_text(run_experiment(cfg))
    header = first.splitlines()[0]
    assert header == ",".join(CSV_HEADER)
    assert _strip_wall(first) == _strip_wall(second)
    assert "\r" not in first  # LF endings only
    path = tmp_path / "out.csv"
    write_csv(run_experiment(cfg), str(path))
    assert path.read_text().splitlines()[0] == header


def test_emit_plot_script(tmp_path):
    cfg = parse_config_text(MINI_MIXING)
    csv_path = tmp_path / "mini.csv"
    write_csv(run_experiment(cfg), str(csv_path))
    script_path = emit_plot_script(str(csv_path))
    text = open(script_path).read()
    # the script may only reference CSV schema columns
    import re

    for column in re.findall(r'row\["([^"]+)"\]', text):
        assert column in CSV_HEADER
    assert "loglog" in text


def test_emit_plot_script_missing_csv():
    with pytest.raises(ConfigError):
        emit_plot_script("/nonexistent/file.csv")


# ---------------------------------------------------------------------------
# presets


def test_six_presets_listed():
    names = [name for name, _ in list_presets()]
    assert len(names) == 6
    assert names == [
        "attenuator-mixing",
        "attenuator-zeno",
        "attenuator-damping",
        "uniform-zeno",
        "binomial-limit",
        "simplex-bounds",
    ]


def test_report_row_guards():
    row = experiments.ReportRow("x", "zeno", 8.0, "fock:1", 0.1, None, None, None, 0.0)
    with pytest.raises(ValueError):
        replace(row, error=-0.1)
    with pytest.raises(ValueError):
        replace(row, bound=-1.0)
    assert replace(row, error=0.0, bound=0.0).bound == 0.0


def test_preset_configs_parse():
    for name in PRESETS:
        cfg = preset_config(name)
        assert cfg.experiment_id == name


def test_every_preset_runs_and_respects_its_bounds():
    for name in PRESETS:
        rows = run_experiment(preset_config(name))
        assert rows, name
        keys = [(r.parameter, r.state_id) for r in rows]
        assert keys == sorted(keys), name
        for row in rows:
            if row.bound is not None:
                assert row.error <= row.bound + 1e-15, (name, row)


def test_unknown_preset():
    with pytest.raises(ConfigError):
        preset_config("does-not-exist")
