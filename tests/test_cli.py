import csv
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from darkstate import cli
from darkstate.cli import ConfigError, main, parse_config
from darkstate.experiments import NoiseParams, ScenarioConfig, config_to_dict
from darkstate.qmath import BASIS_LABELS


def write(path, text):
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def run_python(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter with this package's sources on its path."""
    src = Path(cli.__file__).parents[1]
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)})


def test_cli_import_skips_the_optical_gate():
    # the sweeps need only the gate's success rate, which lives in protocol;
    # the stage-by-stage gate realization is imported by selftest alone
    out = run_python("-c", "import sys, darkstate.cli; "
                           "print('darkstate.optical_gate' in sys.modules)")
    assert out.stdout.strip() == "False"


def test_module_entry_exit_codes():
    out = run_python("-m", "darkstate", "protocol", "--set", "nosuchkey=1")
    assert out.returncode == 2 and "config error" in out.stderr
    assert run_python("-m", "darkstate", "--help").returncode == 0


def test_entry_runs_main_with_the_import_graph_frozen():
    # the process entry freezes what importing the CLI made and turns the GC back
    # on before main runs; a library import of the CLI freezes nothing
    code = ("import gc, darkstate.cli\n"
            "seen = []\n"
            "darkstate.cli.main = lambda: seen.append((gc.isenabled(), gc.get_freeze_count()))\n"
            "import darkstate.__main__\n"
            "try:\n"
            "    darkstate.__main__.run()\n"
            "except SystemExit:\n"
            "    enabled, frozen = seen[0]\n"
            "    print(enabled, frozen > 0)\n")
    out = run_python("-c", code)
    assert out.returncode == 0 and out.stdout.split() == ["True", "True"]
    out = run_python("-c", "import gc, darkstate.cli; print(gc.get_freeze_count())")
    assert out.stdout.strip() == "0"


# ---------------------------------------------------------------------------
# config parsing


def test_empty_config_gives_defaults(tmp_path):
    cfg = parse_config(write(tmp_path / "empty.cfg", ""))
    assert cfg.mode == "protocol"
    assert cfg.rate == 300.0
    assert cfg.bootstrap_samples == 1000
    assert cfg.signal_states == BASIS_LABELS
    assert cfg.env_state == "maximally_mixed"
    assert cfg.noise.herald_error == 0.0


def test_missing_config_path_gives_defaults():
    cfg = parse_config(None)
    assert cfg.rate == 300.0


def test_unknown_key_reports_line(tmp_path):
    path = write(tmp_path / "bad.cfg", "rate = 300\nbogus_key = 1\n")
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    assert ":2:" in str(err.value)
    assert "bogus_key" in str(err.value)


def test_out_of_range_noise_rejected(tmp_path):
    path = write(tmp_path / "bad.cfg", "[noise]\nherald_error = 1.5\n")
    with pytest.raises(ConfigError):
        parse_config(path)


def test_dotted_noise_key(tmp_path):
    path = write(tmp_path / "n.cfg", "noise.herald_error = 0.05\n")
    assert parse_config(path).noise.herald_error == 0.05


def test_plus_environment_selected(tmp_path):
    path = write(tmp_path / "s1.cfg", "env_state = plus\n")
    assert parse_config(path).env_state == "plus"


def test_pi_expressions(tmp_path):
    path = write(tmp_path / "grid.cfg", "phi_grid = pi/6, pi, 2*pi - pi/6\n")
    grid = parse_config(path).phi_grid
    assert grid[0] == pytest.approx(math.pi / 6.0)
    assert grid[2] == pytest.approx(2.0 * math.pi - math.pi / 6.0)


def test_malformed_expression(tmp_path):
    path = write(tmp_path / "g.cfg", "phi_grid = pi/6; import os\n")
    with pytest.raises(ConfigError):
        parse_config(path)


def test_malformed_line(tmp_path):
    path = write(tmp_path / "g.cfg", "just some words\n")
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    assert ":1:" in str(err.value)


def test_repeated_key_is_a_config_error(tmp_path, capsys):
    # the second line used to replace the first unchecked, so a bad first value ran
    path = write(tmp_path / "r.cfg", "rate = -1\nrate = 300\n")
    assert main(["protocol", "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert f"config error: {path}:2: key 'rate' repeats line 1" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
    # a [noise] section key and its dotted spelling are one key
    path = write(tmp_path / "n.cfg", "noise.herald_error = 0.1\n[noise]\nherald_error = 0.05\n")
    with pytest.raises(ConfigError, match="n.cfg:3: key 'noise.herald_error' repeats line 1$"):
        parse_config(path)


def test_overrides():
    cfg = parse_config(None, ["noise.herald_error=0.02", "seed=9", "shot_noise=false"])
    assert cfg.noise.herald_error == 0.02
    assert cfg.seed == 9
    assert cfg.shot_noise is False
    with pytest.raises(ConfigError):
        parse_config(None, ["nope=1"])
    with pytest.raises(ConfigError):
        parse_config(None, ["rate"])


def test_bad_bool_and_int():
    with pytest.raises(ConfigError):
        parse_config(None, ["shot_noise=maybe"])
    with pytest.raises(ConfigError):
        parse_config(None, ["seed=1.5"])


def test_config_keys_have_one_schema():
    # a dataclass field without a parser, a manifest key without a field, or a
    # key the README does not document fails here
    scenario = {f.name for f in dataclasses.fields(ScenarioConfig)} - {"noise"}
    noise = {f.name for f in dataclasses.fields(NoiseParams)}
    assert set(cli._PARSERS) == scenario | {f"noise.{name}" for name in noise}
    manifest = config_to_dict(ScenarioConfig())
    assert set(manifest) == scenario | {"noise"}
    assert set(manifest["noise"]) == noise
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    for key in cli._PARSERS:
        assert re.search(rf"\b{key.removeprefix('noise.')}\b", section), key


# ---------------------------------------------------------------------------
# command dispatch


IDEAL_CFG = (
    "mode = protocol\n"
    "phi_grid = pi/2, pi\n"
    "shot_noise = false\n"
)


def test_protocol_command_ideal(tmp_path, capsys):
    cfg = write(tmp_path / "ideal.cfg", IDEAL_CFG)
    out = tmp_path / "out"
    assert main(["protocol", "--config", cfg, "--out", str(out)]) == 0
    rows = read_csv(out / "fig3_purity_fidelity_success.csv")
    assert rows, "fig3 CSV is empty"
    for row in rows:
        value = float(row["value"])
        std = float(row["std"])
        assert 0.0 <= value <= 1.0 + 1e-12
        assert std >= 0.0
        if row["metric"] in ("purity", "fidelity"):
            assert value == pytest.approx(1.0, abs=1e-10)
    assert (out / "fig4_population.csv").exists()
    assert (out / "fig5_channel.csv").exists()
    assert (out / "manifest.json").exists()
    assert "phi=" in capsys.readouterr().out


def test_analytic_environment_population_at_pi_is_not_negative(tmp_path, capsys):
    # E's |1> population after a success herald is 0 up to roundoff, and the declared
    # state builds it from squared moduli: no cell below 0, and no "-0.0000" on stdout
    out = tmp_path / "out"
    assert main(["protocol", "--set", "shot_noise=false", "--set", "phi_grid=pi/2,pi",
                 "--out", str(out)]) == 0
    rows = [row for row in read_csv(out / "fig4_population.csv")
            if row["phi"] == "3.14159265359"]
    assert len(rows) == 7 and all(float(row["value"]) >= 0.0 for row in rows)
    assert "phi=3.1416  F_S=1.0000  P_S=1.0000  Ptilde=1.0000  p1E=0.0000\n" \
        in capsys.readouterr().out


def test_reference_command_pi_row(tmp_path):
    cfg = write(tmp_path / "ref.cfg", "phi_grid = pi\nshot_noise = false\n")
    out = tmp_path / "out"
    assert main(["reference", "--config", cfg, "--out", str(out)]) == 0
    rows = read_csv(out / "fig3_purity_fidelity_success.csv")
    purities = {row["state_label"]: float(row["value"])
                for row in rows if row["metric"] == "purity"}
    assert purities["+"] == pytest.approx(0.5, abs=1e-10)
    assert purities["0"] == pytest.approx(1.0, abs=1e-10)


def test_channel_command_writes_fig5_only(tmp_path):
    cfg = write(tmp_path / "c.cfg", "phi_grid = pi\nshot_noise = false\n")
    out = tmp_path / "chan"
    assert main(["channel", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "fig5_channel.csv").exists()
    assert not (out / "fig3_purity_fidelity_success.csv").exists()
    rows = read_csv(out / "fig5_channel.csv")
    ef = next(float(r["value"]) for r in rows if r["metric"] == "entanglement_of_formation")
    assert ef == pytest.approx(1.0, abs=1e-10)   # protocol mode default: protected


def test_channel_command_reconstructs_no_state(tmp_path, record_calls):
    # fig5 needs only the channel MLE: no per-state reconstruction may run
    from darkstate import experiments
    calls = record_calls(experiments, ("mle_state", "mle_process"))
    assert main(["channel", "--set", "phi_grid=pi/2,pi", "--bootstrap", "3",
                 "--out", str(tmp_path / "chan")]) == 0
    assert {name: len(out) for name, out in calls.items()} == {
        "mle_state": 0, "mle_process": 1}   # both points and their replicas in one call


def test_channel_command_draws_replicas_per_state_not_per_point(tmp_path, record_calls):
    # fig5 reads the six states' signal replicas: one resample of each state's 12
    # marginal counts at each phi, and none of a grid point's channel tomogram
    from darkstate import experiments
    calls = record_calls(experiments, ("resample_counts",))
    assert main(["channel", "--set", "phi_grid=pi/2,pi", "--bootstrap", "3",
                 "--out", str(tmp_path / "chan")]) == 0
    assert [reps.shape for reps in calls["resample_counts"]] == [(3, 12)] * (2 * 6)


@pytest.mark.parametrize("mode,grid", [("protocol", "pi/2,pi"), ("reference", "0,pi/2")])
def test_channel_and_sweep_write_identical_fig5(tmp_path, mode, grid):
    # each grid includes its mode's anchor phi, whose sample both commands reuse
    common = ["--set", f"phi_grid={grid}", "--seed", "5", "--bootstrap", "4"]
    assert main([mode, *common, "--out", str(tmp_path / "sweep")]) == 0
    assert main(["channel", "--set", f"mode={mode}", *common,
                 "--out", str(tmp_path / "chan")]) == 0
    sweep = (tmp_path / "sweep" / "fig5_channel.csv").read_bytes()
    assert sweep == (tmp_path / "chan" / "fig5_channel.csv").read_bytes()
    assert len(sweep.splitlines()) == 1 + 2 * 2


def test_channel_command_requires_full_alphabet(tmp_path):
    cfg = write(tmp_path / "c.cfg", "signal_states = 0,+\nshot_noise = false\n")
    assert main(["channel", "--config", cfg, "--out", str(tmp_path / "x")]) == 2


def test_channel_command_rejects_gate_mode(tmp_path, capsys):
    assert main(["channel", "--set", "mode=gate_tomography", "--out", str(tmp_path / "x")]) == 2
    assert "config error: channel analysis applies to protocol or reference sweeps" \
        in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_gate_command_analytic(tmp_path):
    cfg = write(tmp_path / "g.cfg", "phi_grid = pi/2\nshot_noise = false\n")
    out = tmp_path / "gate"
    assert main(["gate-tomo", "--config", cfg, "--out", str(out)]) == 0
    rows = read_csv(out / "fig7_gate.csv")
    values = {row["metric"]: float(row["value"]) for row in rows}
    assert values["gate_fidelity"] == pytest.approx(1.0, abs=1e-10)
    assert values["gate_purity"] == pytest.approx(1.0, abs=1e-10)


def test_gate_budget_flag_has_no_effect(tmp_path):
    # --full-3q-tomo is still accepted; the shot-noise gate point runs without it
    argv = ["gate-tomo", "--set", "phi_grid=pi", "--bootstrap", "0"]
    assert main([*argv, "--out", str(tmp_path / "plain")]) == 0
    assert main([*argv, "--full-3q-tomo", "--out", str(tmp_path / "flag")]) == 0
    assert ((tmp_path / "plain" / "fig7_gate.csv").read_bytes()
            == (tmp_path / "flag" / "fig7_gate.csv").read_bytes())


def test_exit_code_config_error(tmp_path, capsys):
    # a config file is input: a missing one is a config error (exit 2), like a malformed one
    missing = str(tmp_path / "missing.cfg")
    assert main(["protocol", "--config", missing, "--out", str(tmp_path / "o")]) == 2
    assert f"config error: cannot read config file {missing}" in capsys.readouterr().err
    binary = tmp_path / "binary.cfg"
    binary.write_bytes(b"rate = 3\xf5\n")
    assert main(["protocol", "--config", str(binary), "--out", str(tmp_path / "o")]) == 2
    assert f"cannot read config file {binary}: 'utf-8' codec" in capsys.readouterr().err
    bad = write(tmp_path / "bad.cfg", "bogus = 1\n")
    assert main(["protocol", "--config", bad, "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv,message", [
    (["--seed", "-1"], "seed must be nonnegative"),
    (["--bootstrap", "-1"], "bootstrap sample counts must be nonnegative"),
    (["--set", "bootstrap_samples=-1"], "bootstrap sample counts must be nonnegative"),
])
def test_negative_seed_and_bootstrap_are_config_errors(tmp_path, capsys, argv, message):
    # the --seed and --bootstrap flags are validated as config overrides
    assert main(["protocol", *argv, "--out", str(tmp_path / "o")]) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_gate_mle_max_iters_must_be_positive(tmp_path, capsys):
    # zero iterations would write the maximally mixed start (1/64) as every fig7 value
    assert main(["gate-tomo", "--full-3q-tomo", "--set", "phi_grid=pi",
                 "--set", "gate_mle_max_iters=0", "--out", str(tmp_path / "o")]) == 2
    assert "gate_mle_max_iters must be at least 1" in capsys.readouterr().err
    with pytest.raises(ConfigError):
        parse_config(None, ["gate_mle_max_iters=-3"])
    assert parse_config(None, ["gate_mle_max_iters=2"]).gate_mle_max_iters == 2


@pytest.mark.parametrize("command", ["protocol", "reference", "channel"])
@pytest.mark.parametrize("override,message", [
    ("rate=1/0", "cannot evaluate '1/0': float division by zero"),
    ("rate=1" + "0" * 400, "int too large to convert to float"),
    ("rate=1e308*10", "rate inf must be finite and positive"),
    ("noise.phase_jitter_std=1e308*10-1e308*10", "phase_jitter_std nan must be finite"),
    ("rate=True", "unsupported expression 'True'"),          # bool is an int subclass
    ("phi_grid=False", "unsupported expression 'False'"),
    # numpy draws no Poisson mean above about 9.2e18; this ended in its bare
    # "lam value too large"
    ("rate=9e18", "rate 9e+18 must be at most 1e+18"),
], ids=["zero-division", "int-overflow", "inf", "nan", "bool-rate", "bool-grid", "huge-rate"])
def test_nonfinite_numbers_are_config_errors(tmp_path, capsys, command, override, message):
    assert main([command, "--set", override, "--out", str(tmp_path / "o")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["protocol", "gate-tomo"])
def test_rate_at_its_bound_runs(tmp_path, command):
    # a gate setting's Poisson mean reaches 8 rate, still below numpy's limit at 1e18
    assert main([command, "--set", "phi_grid=pi", "--set", "rate=1e18", "--bootstrap", "3",
                 "--out", str(tmp_path / "o")]) == 0


def test_huge_phase_jitter_dephases_fully(tmp_path):
    # exp(-40^2 / 2) is already 0.0, so every larger finite jitter writes the same CSVs,
    # also one whose square overflows a float (above about 1.34e154)
    outs = [tmp_path / "40", tmp_path / "1e200"]
    for out in outs:
        assert main(["reference", "--set", "phi_grid=0", "--set",
                     f"noise.phase_jitter_std={out.name}", "--bootstrap", "0",
                     "--out", str(out)]) == 0
    for name in ("fig3_purity_fidelity_success.csv", "fig4_population.csv", "fig5_channel.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_duplicate_signal_states_are_config_errors(tmp_path, capsys):
    # a sweep keys its fig5 samples by label, so a repeated label would drop one silently
    assert main(["protocol", "--set", "signal_states=+,+", "--out", str(tmp_path / "o")]) == 2
    assert "config error: signal_states ('+', '+') repeat a label" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["protocol", "gate-tomo"])
def test_duplicate_phi_grid_values_are_config_errors(tmp_path, capsys, command):
    # each grid index draws its own counts, so a repeated phi would write two rows for one
    # point; the error names the first repeated value, not the grid, however long it is
    for grid, value in (("pi/2,pi/2", "1.5707963267948966"),
                        (",".join(["1", "2"] + ["3"] * 4998), "3.0")):
        assert main([command, "--set", f"phi_grid={grid}", "--out", str(tmp_path / "o")]) == 2
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("config error:")]
        assert errors == [f"config error: phi_grid repeats the value {value}"]


@pytest.mark.parametrize("command", ["protocol", "gate-tomo"])
def test_zero_phi_outside_reference_is_a_config_error(tmp_path, capsys, command):
    # the protocol herald never fires at phi = 0, and the gate is not realizable there
    assert main([command, "--set", "phi_grid=0,pi", "--set", "shot_noise=false",
                 "--out", str(tmp_path / "o")]) == 2
    mode = "protocol" if command == "protocol" else "gate_tomography"
    assert f"config error: phi = 0 cannot appear in a {mode} grid" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
    assert main(["reference", "--set", "phi_grid=0,pi", "--set", "shot_noise=false",
                 "--out", str(tmp_path / "r")]) == 0


@pytest.mark.parametrize("argv", [
    ["protocol", "--bootstrap", "1"],
    ["reference", "--set", "bootstrap_samples=1"],
    ["gate-tomo", "--full-3q-tomo", "--set", "gate_bootstrap_samples=1"],
    ["gate-tomo", "--full-3q-tomo", "--bootstrap", "1"],
])
def test_bootstrap_of_one_is_a_config_error(tmp_path, capsys, argv):
    # one replica has no spread: every std would read 0, as if no bootstrap ran
    assert main([*argv, "--out", str(tmp_path / "o")]) == 2
    assert "config error: a bootstrap needs at least 2 samples" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_flags_override_config_and_set(tmp_path):
    cfg = write(tmp_path / "t.cfg", "seed = 4\nbootstrap_samples = 9\n")
    out = tmp_path / "o"
    assert main(["reference", "--config", cfg, "--set", "seed=5", "--seed", "6",
                 "--bootstrap", "0", "--set", "phi_grid=pi", "--set", "signal_states=0",
                 "--out", str(out)]) == 0
    manifest = (out / "manifest.json").read_text()
    assert '"seed": 6' in manifest
    assert '"bootstrap_samples": 0' in manifest


def test_gate_bootstrap_flag_sets_the_gate_bootstrap(tmp_path):
    out = tmp_path / "o"
    assert main(["gate-tomo", "--full-3q-tomo", "--set", "phi_grid=pi", "--bootstrap", "3",
                 "--out", str(out)]) == 0
    config = json.loads((out / "manifest.json").read_text())["config"]
    assert (config["gate_bootstrap_samples"], config["bootstrap_samples"]) == (3, 1000)
    rows = read_csv(out / "fig7_gate.csv")
    assert len(rows) == 3 and all(float(row["std"]) > 0.0 for row in rows)


@pytest.mark.parametrize("text, argv, message", [
    ("rate = 300\nseed = -1\n", ["protocol", "--seed", "3"], "{cfg}:2: seed must be nonnegative"),
    ("mode = bogus\n", ["protocol"], "{cfg}:1: unknown mode 'bogus'"),
    ("seed = x\n", ["reference", "--set", "seed=3"], "{cfg}:1: key seed: expected an integer"),
    ("", ["protocol", "--set", "mode=bogus"], "override mode=bogus: unknown mode 'bogus'"),
], ids=["seed-flag", "mode-command", "set-parser", "set-mode-command"])
def test_overridden_values_are_still_checked(tmp_path, capsys, text, argv, message):
    cfg = write(tmp_path / "t.cfg", text)
    assert main([*argv, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert message.format(cfg=cfg) in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_overridden_file_value_is_checked_alone(tmp_path):
    # phi = 0 suits the reference command's mode; the file alone, in the
    # default protocol mode, would not be a valid config
    cfg = write(tmp_path / "t.cfg", "phi_grid = 0, pi/2\n")
    for extra in ([], ["--set", "phi_grid=pi"]):
        out = tmp_path / f"o{len(extra)}"
        assert main(["reference", "--config", cfg, "--bootstrap", "0", *extra,
                     "--out", str(out)]) == 0
    assert '"mode": "reference"' in (out / "manifest.json").read_text()


def test_exit_code_unwritable_output(tmp_path):
    cfg = write(tmp_path / "ok.cfg", IDEAL_CFG)
    blocker = write(tmp_path / "blocker", "not a directory")
    code = main(["protocol", "--config", cfg, "--out", os.path.join(blocker, "sub")])
    assert code == 3


def test_failed_write_leaves_no_temporary_file(tmp_path):
    # the rename onto a directory fails after the temporary file is written
    out = tmp_path / "o"
    (out / "fig5_channel.csv").mkdir(parents=True)
    assert main(["channel", "--set", "phi_grid=pi", "--bootstrap", "0", "--out", str(out)]) == 3
    assert not list(out.glob("*.tmp"))


def test_seed_and_bootstrap_flags(tmp_path):
    cfg = write(tmp_path / "t.cfg", "phi_grid = pi\nsignal_states = +\n")
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["protocol", "--config", cfg, "--out", str(out_a),
                 "--seed", "3", "--bootstrap", "5"]) == 0
    assert main(["protocol", "--config", cfg, "--out", str(out_b),
                 "--seed", "3", "--bootstrap", "5"]) == 0
    with open(out_a / "fig3_purity_fidelity_success.csv", "rb") as fa, \
            open(out_b / "fig3_purity_fidelity_success.csv", "rb") as fb:
        assert fa.read() == fb.read()


def test_selftest_single_criterion(capsys):
    assert main(["selftest", "--criteria", "1,4"]) == 0
    out = capsys.readouterr().out
    assert "PASS  criterion 1" in out
    assert "PASS  criterion 4" in out


@pytest.mark.parametrize("criteria", ["0,99", "abc", "1,x", ","])
def test_selftest_rejects_unknown_criteria(capsys, criteria):
    assert main(["selftest", "--criteria", criteria]) == 2
    captured = capsys.readouterr()
    assert "expected criterion numbers 1-10" in captured.err
    assert "criteria passed" not in captured.out


def test_selftest_reports_wall_time_per_criterion(capsys):
    assert main(["selftest", "--criteria", "1,4"]) == 0
    captured = capsys.readouterr()
    timings = captured.err.splitlines()
    assert [line.split(" took ")[0] for line in timings] == ["criterion 1", "criterion 4"]
    for line in timings:
        assert line.endswith(" s")
        assert float(line.split(" took ")[1][:-2]) >= 0.0
    assert " took " not in captured.out


def anchor_reports(err_lines):
    """States the sweep reports on stderr: (anchor without counts, anchor replicas without counts).

    Checks the wording of every such line.
    """
    empty, partial = set(), set()
    for line in err_lines:
        if not line.startswith("state "):
            continue
        state, _, tail = line.removeprefix("state ").partition(": ")
        head = "anchor at phi = 3.14159 drew no counts"
        if tail == f"{head}, success_norm is nan":
            empty.add(state)
        else:
            missing, _, total = tail.removeprefix(f"{head} in ").partition(" of ")
            assert total.endswith(" bootstrap replicas, success_norm std is nan"), line
            assert 0 < int(missing) <= int(total.split()[0])
            partial.add(state)
    return empty, partial


PI_CELL = f"{math.pi:.12g}"   # phi = pi as the CSV writes it


def check_success_rows(rows, empty_anchors, partial_anchors):
    """success_norm is nan for an anchor without counts; with some anchor replicas
    empty, the value is finite and the std nan, except at the anchor itself (1, std 0)."""
    for r in rows:
        value, std = float(r["value"]), float(r["std"])
        if r["state_label"] in empty_anchors:
            assert math.isnan(value) and math.isnan(std)
        elif r["state_label"] in partial_anchors and r["phi"] != PI_CELL:
            assert math.isfinite(value) and math.isnan(std)
        else:
            assert math.isfinite(value) and math.isfinite(std)


@pytest.mark.parametrize("bootstrap", [0, 30])
def test_zero_count_points_are_nan_not_fatal(tmp_path, capsys, bootstrap):
    # at this rate most grid points draw no counts at all
    out = tmp_path / "out"
    assert main(["protocol", "--set", "rate=0.05", "--bootstrap", str(bootstrap),
                 "--out", str(out)]) == 0
    assert sorted(os.listdir(out)) == ["fig3_purity_fidelity_success.csv",
                                       "fig4_population.csv", "fig5_channel.csv",
                                       "manifest.json"]
    fig3 = read_csv(out / "fig3_purity_fidelity_success.csv")
    fig4 = read_csv(out / "fig4_population.csv")
    fig5 = read_csv(out / "fig5_channel.csv")

    def is_nan(row):
        return math.isnan(float(row["value"])) and math.isnan(float(row["std"]))

    def finite(row):
        return math.isfinite(float(row["value"])) and math.isfinite(float(row["std"]))

    empty = {(r["phi"], r["state_label"]) for r in fig4
             if r["state_label"] != "mean" and is_nan(r)}
    assert 0 < len(empty) < 6 * 13
    # one stderr line per empty point, naming phi and the state; the lines
    # on empty anchors are checked by test_zero_count_anchor_makes_success_nan
    err = capsys.readouterr().err.splitlines()
    empty_anchors, partial_anchors = anchor_reports(err)
    reports = [line for line in err if not line.startswith("state ")]
    assert len(reports) == len(empty)
    named = []
    for line in reports:
        head, _, tail = line.partition(": ")
        assert tail == "no counts, estimates are nan"
        phi, state = head.removeprefix("phi = ").split(", state ")
        named.append((float(phi), state))
    for phi, state in empty:
        assert sum(s == state and abs(p - float(phi)) < 1e-5 for p, s in named) == 1
    empty_phis = {phi for phi, _ in empty}
    check_success_rows([r for r in fig3 if r["metric"] == "success_norm"],
                       empty_anchors, partial_anchors)
    for r in fig3:
        if r["metric"] != "success_norm":
            assert is_nan(r) if (r["phi"], r["state_label"]) in empty else finite(r)
    for r in fig4:
        if r["state_label"] == "mean":
            assert is_nan(r) if r["phi"] in empty_phis else finite(r)
        else:
            assert finite(r) or (r["phi"], r["state_label"]) in empty
    for r in fig5:
        assert is_nan(r) if r["phi"] in empty_phis else finite(r)


def test_zero_count_anchor_makes_success_nan(tmp_path, capsys):
    # at this rate and seed the phi = pi anchors of several states draw no
    # counts, while state - draws one count at each of phi = 2.269, 2.705 and
    # 4.887, and state 1 one at phi = 4.014: their success ratios have no
    # denominator, so they must read nan rather than a raw count.  The anchor
    # of state 0 drew one count, so some of its replicas drew none: their
    # ratios, and so the std, are nan too
    out = tmp_path / "out"
    assert main(["protocol", "--set", "rate=0.05", "--bootstrap", "5", "--seed", "3",
                 "--out", str(out)]) == 0
    reports = [line for line in capsys.readouterr().err.splitlines()
               if line.startswith("state ")]
    empty_anchors, partial_anchors = anchor_reports(reports)
    assert len(reports) == len(empty_anchors) + len(partial_anchors)
    assert {"1", "-"} <= empty_anchors < set(BASIS_LABELS)
    assert partial_anchors == {"0"}
    rows = [r for r in read_csv(out / "fig3_purity_fidelity_success.csv")
            if r["metric"] == "success_norm"]
    assert len(rows) == 6 * 13
    check_success_rows(rows, empty_anchors, partial_anchors)
    at_anchor = next(r for r in rows if r["state_label"] == "0" and r["phi"] == PI_CELL)
    assert (at_anchor["value"], at_anchor["std"]) == ("1", "0")


@pytest.mark.parametrize("argv", [
    ["protocol", "--bootstrap", "2", "--set", "phi_grid=pi/2,pi"],
    ["gate-tomo", "--set", "phi_grid=pi"]], ids=["protocol", "gate-tomo"])
def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path, argv):
    # every row is solved on its own, with no gemm whose row count is the batch
    # size, so no output byte may move with the number of OpenBLAS threads
    src = Path(cli.__file__).parents[1]
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        subprocess.run([sys.executable, "-m", "darkstate", *argv, "--seed", "0", "--out", str(out)],
                       capture_output=True, check=True,
                       env={**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": threads})
        outputs.append({p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()})
    assert outputs[0] and outputs[0] == outputs[1]
