import csv
import os

import pytest

from zenolab import channels, cli, experiments
from zenolab.cli import main

GOOD = """
[experiment]
kind = mixing
id = cli-mixing
seed = 4
dimension = 6

[channel]
eta_re = 0.6

[grid]
start = 1
factor = 2
count = 4

[states]
specs = fock:1, random:0
"""


def test_presets_listing(capsys):
    assert main(["presets"]) == 0
    out = capsys.readouterr().out
    assert "attenuator-zeno" in out and "simplex-bounds" in out


def test_run_config_file(tmp_path, capsys):
    cfg = tmp_path / "mix.ini"
    cfg.write_text(GOOD)
    assert main(["--out", str(tmp_path), "run", str(cfg)]) == 0
    out_path = tmp_path / "cli-mixing.csv"
    assert out_path.exists()
    with open(out_path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 8
    assert all(float(r["error"]) <= float(r["bound"]) + 1e-15 for r in rows)


def test_run_preset_by_name(tmp_path):
    assert main(["--out", str(tmp_path), "run", "simplex-bounds"]) == 0
    assert (tmp_path / "simplex-bounds.csv").exists()


def test_seed_override_changes_random_states(tmp_path):
    cfg = tmp_path / "mix.ini"
    cfg.write_text(GOOD)
    assert main(["--out", str(tmp_path / "a"), "run", str(cfg)]) == 0
    assert main(["--out", str(tmp_path / "b"), "--seed", "99", "run", str(cfg)]) == 0
    rows_a = open(tmp_path / "a" / "cli-mixing.csv").read()
    rows_b = open(tmp_path / "b" / "cli-mixing.csv").read()

    def errs(text, state):
        return [
            line.split(",")[4]
            for line in text.splitlines()[1:]
            if line.split(",")[3] == state
        ]

    assert errs(rows_a, "fock:1") == errs(rows_b, "fock:1")  # seed-independent state
    assert errs(rows_a, "random:0") != errs(rows_b, "random:0")


def test_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text(GOOD.replace("factor = 2", "factor = 1"))
    assert main(["--out", str(tmp_path), "run", str(bad)]) == 2
    assert "grid.factor" in capsys.readouterr().err


def test_invariant_violation_exit_code(tmp_path, capsys):
    # coherent:2.5 leaves 6 levels a tail of 0.59; at |z| = 40 every
    # coefficient underflows, so the state holds no mass and all of it is tail
    for spec, tail in (("coherent:2.5", "5.936e-01"), ("coherent:40", "1.000e+00")):
        bad = tmp_path / "tail.ini"
        bad.write_text(GOOD.replace("fock:1, random:0", spec))
        assert main(["--out", str(tmp_path), "run", str(bad)]) == 3
        assert f"invariant violation: states.specs: '{spec}' has tail_mass {tail}" in capsys.readouterr().err
        assert not (tmp_path / "cli-mixing.csv").exists()


@pytest.mark.parametrize("spec", ["coherent:1e200", "random:-999"])
def test_bad_state_spec_exits_2(tmp_path, capsys, spec):
    bad = tmp_path / "spec.ini"
    bad.write_text(GOOD.replace("random:0", spec))
    assert main(["--out", str(tmp_path), "run", str(bad)]) == 2
    assert "config error: states.specs:" in capsys.readouterr().err
    assert not (tmp_path / "cli-mixing.csv").exists()


def test_unknown_config_exit_code(tmp_path):
    assert main(["--out", str(tmp_path), "run", "no-such-preset"]) == 2


def test_plot_missing_csv_exit_code():
    assert main(["plot", "/nonexistent.csv"]) == 2


def test_plot_emits_script(tmp_path):
    cfg = tmp_path / "mix.ini"
    cfg.write_text(GOOD)
    main(["--out", str(tmp_path), "run", str(cfg)])
    csv_path = tmp_path / "cli-mixing.csv"
    assert main(["plot", str(csv_path)]) == 0
    assert os.path.exists(tmp_path / "cli-mixing_plot.py")


def test_zeno_run_reports_generator_probe(tmp_path, capsys):
    cfg = tmp_path / "zeno.ini"
    cfg.write_text(
        GOOD.replace("kind = mixing", "kind = zeno").replace("start = 1", "start = 8")
    )
    assert main(["--out", str(tmp_path), "run", str(cfg)]) == 0
    # lambda_max - lambda_min of (a + a^dag)/6 at d = 6: 2 sqrt(2) 2.350604973674492 / 6
    assert "  ||L|| (exact 1->1 norm): 1.10809\n" in capsys.readouterr().out


@pytest.mark.parametrize("kind, label", [("zeno", "M"), ("damping", "exp(0.1 K)")])
def test_defective_attenuator_weights_exit_3(tmp_path, capsys, monkeypatch, kind, label):
    # the closed-form validate() reads the weight table and the kernel that
    # zeno_action shares; a defect in either ends the run with exit 3 and the
    # failed check, before any row is written
    weights = channels._attenuator_weights
    apply_once = channels._attenuator_apply
    path = tmp_path / "run.ini"
    path.write_text(GOOD.replace("kind = mixing", f"kind = {kind}").replace("start = 1", "start = 8"))
    monkeypatch.setattr(channels, "_attenuator_weights", lambda eta, d: 1.001 * weights(eta, d))
    assert main(["--out", str(tmp_path), "run", str(path)]) == 3
    assert f"invariant violation: {kind}: P {label} != P within 1e-9" in capsys.readouterr().err
    monkeypatch.setattr(channels, "_attenuator_weights", weights)
    monkeypatch.setattr(channels, "_attenuator_apply", lambda products, x: 1.1 * apply_once(products, x))
    assert main(["--out", str(tmp_path), "run", str(path)]) == 3
    assert f"invariant violation: {kind}: {label} is not trace-norm contractive on state 'fock:1'" in capsys.readouterr().err
    assert not (tmp_path / "cli-mixing.csv").exists()


@pytest.mark.parametrize(
    "text, field",
    [
        ("[experiment]\nkind = zeno\ndimension = 100000\n", "experiment.dimension"),
        ("[experiment]\nkind = damping\ndimension = 100000\n", "experiment.dimension"),
        ("[experiment]\nkind = binomial\n[binomial]\nsystem_dim = 300\n", "binomial.system_dim"),
        (
            "[experiment]\nkind = zeno\n[channel]\ntype = gapped\nsystem_dim = 300\n",
            "channel.system_dim",
        ),
    ],
    ids=["dimension", "damping", "binomial", "gapped"],
)
def test_oversized_config_exits_2_before_running(tmp_path, capsys, monkeypatch, text, field):
    def refuse(*args, **kwargs):
        raise AssertionError("an oversized config reached the run")

    monkeypatch.setattr(cli, "run_experiment", refuse)
    path = tmp_path / "big.ini"
    path.write_text(text)
    assert main(["--out", str(tmp_path), "run", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"config error: {field}:" in err and "physical memory" in err


def test_mixing_at_dimension_128_runs(tmp_path):
    # the dense estimate charged 9 * 16 * 128^4 bytes (38 GiB); mixing holds no superoperator
    cfg = tmp_path / "mix128.ini"
    cfg.write_text(GOOD.replace("dimension = 6", "dimension = 128"))
    assert main(["--out", str(tmp_path), "run", str(cfg)]) == 0
    with open(tmp_path / "cli-mixing.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 8
    assert all(float(r["error"]) <= float(r["bound"]) + 1e-15 for r in rows)


def test_oversized_mixing_config_exits_2_before_running(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an oversized config reached the run")

    # one byte less than the mixing estimate at d = 128 with GOOD's two states
    need = experiments._LIVE_MIXING_ARRAYS * (2 + 1) * 16 * 128**2
    pages = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": need - 1}
    monkeypatch.setattr(os, "sysconf", pages.__getitem__)
    monkeypatch.setattr(cli, "run_experiment", refuse)
    path = tmp_path / "big-mixing.ini"
    path.write_text(GOOD.replace("dimension = 6", "dimension = 128"))
    assert main(["--out", str(tmp_path), "run", str(path)]) == 2
    err = capsys.readouterr().err
    assert "config error: experiment.dimension:" in err and "physical memory" in err


def test_damping_solve_at_its_halving_cap_exits_3(tmp_path, capsys, monkeypatch):
    # a substep that still does not settle after the most halvings ends the
    # run with exit 3 naming the kernel and the substep's length, before any
    # row is written
    path = tmp_path / "damping.ini"
    path.write_text(
        GOOD.replace("kind = mixing", "kind = damping").replace("id = cli-mixing", "id = cli-damping")
        .replace("start = 1", "start = 8")
        + "\n[generator]\ntype = hamiltonian\nhamiltonian = random\nscale = 0.4\n"
    )
    monkeypatch.setattr(channels, "_RESIDUAL", -1.0)
    monkeypatch.setattr(channels, "_RESIDUAL_FLOOR", -1.0)
    assert main(["--out", str(tmp_path), "run", str(path)]) == 3
    err = capsys.readouterr().err
    length = 1.0 / 2**channels._HALVINGS  # t = 1 is one substep at gamma = 8
    assert (
        "invariant violation: damping: damped_action: the fixed-point iteration does not settle "
        f"on a substep of length {length:.6g}, after {channels._HALVINGS} halvings"
    ) in err
    assert not (tmp_path / "cli-damping.csv").exists()
    monkeypatch.undo()
    assert main(["--out", str(tmp_path), "run", str(path)]) == 0
    assert (tmp_path / "cli-damping.csv").exists()


def test_binomial_system_dim_below_two_exits_2(tmp_path, capsys):
    path = tmp_path / "tiny.ini"
    path.write_text("[experiment]\nkind = binomial\n[binomial]\nsystem_dim = 1\n[states]\nspecs = random:0\n")
    assert main(["--out", str(tmp_path), "run", str(path)]) == 2
    assert "config error: binomial.system_dim:" in capsys.readouterr().err
    assert not (tmp_path / "binomial.csv").exists()


@pytest.mark.parametrize("exp_id", ["run-50%", "%(kind)s-x"])
def test_percent_in_a_config_value_is_literal(tmp_path, exp_id):
    path = tmp_path / "percent.ini"
    path.write_text(f"[experiment]\nkind = simplex\nid = {exp_id}\n")
    assert main(["--out", str(tmp_path), "run", str(path)]) == 0
    with open(tmp_path / f"{exp_id}.csv", newline="") as handle:
        assert {r["experiment_id"] for r in csv.DictReader(handle)} == {exp_id}


def test_threads_flag_is_gone(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["--out", str(tmp_path), "--threads", "2", "run", "attenuator-mixing"])
    assert exc.value.code == 2
    assert not (tmp_path / "attenuator-mixing.csv").exists()
