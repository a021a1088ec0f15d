"""End-to-end tests of the command line driver (in-process)."""

import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest

import zenojump as zj
from zenojump.cli import ResultTable, _frame_setup, main, oracle_compare, parse_echo, run_scenario


PULSED_SWEEP = """
[scenario]
type = pulsed

[pulsed]
trace_factor = 1.0
coupling = 10.0
tau_free = 0.5

[sweep]
parameter = tau
start = 0.5
stop = 0.9
count = 3
"""

CHAIN_RUN = """
[scenario]
type = spinchain

[spinchain]
h = 5
T = 1

[grid]
intervals = 512
"""

CHAIN_SWEEP = CHAIN_RUN + """
[sweep]
parameter = h
start = 5
stop = 7
count = 3

[quadrature]
rel_tol = 1e-5
"""

CUSTOM_COMPARE = """
[scenario]
type = custom-matrix

[custom-matrix]
h0 = [[0, 0, 0], [0, 0, 0], [0, 0, 0]]
h_meas = [[-1, 0, 0], [0, 0, 0], [0, 0, 1]]
coupling = 5
level_to = 2

[grid]
intervals = 64
"""


def write(tmp_path, text, name="cfg.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_info_lists_schemas(capsys):
    assert main(["info"]) == 0
    out = capsys.readouterr().out
    assert "scenario keys" in out
    assert "[pulsed]" in out
    assert "ZENO_NUM_POLICY" in out
    assert "exit codes" in out


def test_info_lists_every_shared_key_with_its_default(capsys):
    assert main(["info"]) == 0
    out = capsys.readouterr().out
    assert "  [grid] intervals (2048)\n" in out
    assert "  [quadrature] rel_tol (1e-06), abs_floor (1e-12)\n" in out
    assert "  [compare] bound (0.1), transport ('measurement'), exact_tol (1e-08)\n" in out
    assert "  [output] path ('-')\n" in out
    defaults = zj.NumericPolicy()
    for name in zj.NumericPolicy.field_names():
        assert f"{name} ({getattr(defaults, name)!r})" in out


def test_bad_quadrature_value_exits_2_naming_the_key(tmp_path, capsys):
    cfg_path = write(tmp_path, "[scenario]\ntype = continuous\n[quadrature]\nabs_floor = -1\n")
    assert main(["run", "--config", cfg_path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: [quadrature] abs_floor: must be non-negative")


def test_version_and_usage_errors(capsys):
    assert main(["--version"]) == 0
    assert "zenojump" in capsys.readouterr().out
    assert main([]) == 2
    assert main(["run"]) == 2
    assert main(["run", "--config", "x.ini", "--jobs", "0"]) == 2


def test_config_is_refused_by_info_and_required_by_every_other_command(tmp_path, capsys):
    assert main(["info", "--config", "x.ini"]) == 2
    assert main(["info", "--strict", "--emit-plot", "--out", str(tmp_path / "x.csv")]) == 0
    assert not (tmp_path / "x.csv").exists()
    capsys.readouterr()
    for command in ("run", "compare", "decompose"):
        assert main([command]) == 2
        assert "--config" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--help"], ["run", "--help"], ["info"]], ids=["help", "run-help", "info"])
def test_help_shows_the_schema_once(capsys, monkeypatch, argv):
    from zenojump import cli

    calls = _counting(monkeypatch, cli, "_schema_help")
    assert main(argv) == 0
    assert capsys.readouterr().out.count("scenario keys") == 1
    assert len(calls) == 1


def test_options_may_come_before_the_command(tmp_path, capsys):
    cfg_path = write(tmp_path, PULSED_SWEEP)
    assert main(["--strict", "run", "--config", cfg_path]) == 0
    before = capsys.readouterr().out
    assert main(["run", "--config", cfg_path, "--strict"]) == 0
    assert before == capsys.readouterr().out and before.count("\n") > 40


def test_run_pulsed_sweep_matches_closed_form(tmp_path, capsys):
    cfg_path = write(tmp_path, PULSED_SWEEP)
    assert main(["run", "--config", cfg_path]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert lines[0] == "tau,w,est_error,adiabaticity_ratio,adiabatic,flags"
    assert lines[1] == "0.5,0.25,0,0,true,none"
    for line, tau in zip(lines[2:], (0.7, 0.9)):
        cells = line.split(",")
        assert float(cells[0]) == pytest.approx(tau)
        assert float(cells[1]) == pytest.approx(zj.pulsed_jump(1.0, 10.0, tau, 0.5), rel=1e-15)
        assert cells[4:] == ["true", "none"]
    # The echoed header recovers the resolved configuration.
    cfg = zj.parse_config(PULSED_SWEEP)
    assert parse_echo(out) == cfg


def test_run_continuous_single_point(tmp_path, capsys):
    cfg_path = write(tmp_path, "[scenario]\ntype = continuous\n")
    assert main(["run", "--config", cfg_path]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert lines[0].startswith("coupling,")
    assert len(lines) == 2
    cells = lines[1].split(",")
    assert float(cells[0]) == 10.0
    assert float(cells[1]) == pytest.approx(zj.continuous_jump(1.0, 10.0, 1.0, 1.0), rel=1e-15)


def test_out_file_and_jobs_are_byte_identical(tmp_path):
    cfg_path = write(tmp_path, CHAIN_SWEEP)
    out_1 = tmp_path / "serial.csv"
    out_4 = tmp_path / "threads.csv"
    assert main(["run", "--config", cfg_path, "--out", str(out_1), "--jobs", "1"]) == 0
    assert main(["run", "--config", cfg_path, "--out", str(out_4), "--jobs", "4"]) == 0
    data_1 = out_1.read_bytes()
    data_4 = out_4.read_bytes()
    # Identical except for the echoed output path inside the header.
    assert data_1.replace(b"serial.csv", b"") == data_4.replace(b"threads.csv", b"")
    rows = [l for l in data_1.decode().splitlines() if not l.startswith("#")][1:]
    assert len(rows) == 3
    # Each point agrees with the independent schedule-integral route.
    for row, h in zip(rows, (5.0, 6.0, 7.0)):
        w = float(row.split(",")[1])
        assert w == pytest.approx(zj.two_qubit_rotation_jump(h, 1.0).to_opposite, rel=1e-3)


def test_out_flag_overrides_config_echo(tmp_path):
    cfg_path = write(tmp_path, PULSED_SWEEP + "\n[output]\npath = orig.csv\n")
    target = tmp_path / "override.csv"
    assert main(["run", "--config", cfg_path, "--out", str(target)]) == 0
    echoed = parse_echo(target.read_text())
    assert echoed.output_path == str(target)


def test_compare_custom_matrix_zero_perturbation(tmp_path, capsys):
    cfg_path = write(tmp_path, CUSTOM_COMPARE)
    assert main(["compare", "--config", cfg_path, "--strict"]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert lines[0] == (
        "coupling,w_perturbative,w_exact,abs_gap,rel_gap,status,adiabaticity_ratio,adiabatic,"
        "exact_steps,exact_est_error"
    )
    cells = lines[1].split(",")
    assert cells[0] == "5"
    assert cells[1] == "0"
    assert float(cells[2]) == pytest.approx(0.0, abs=1e-10)
    assert cells[5] == "pass"
    assert cells[7] == "true"


def test_compare_csv_ends_with_the_oracle_diagnostics():
    cfg = zj.parse_config(CHAIN_RUN)
    table = oracle_compare(cfg)
    assert table.columns[-2:] == ("exact_steps", "exact_est_error")
    parameter, value = table.columns[0], table.rows[0][0]
    model, frame, rho0, n, m, _extra = _frame_setup(cfg.with_param(parameter, value))
    comp = zj.compare_jump(
        model, rho0, n, m, frame,
        bound=cfg.compare_bound, transport=cfg.compare_transport,
        exact_tol=cfg.compare_exact_tol, quad=cfg.quadrature, policy=cfg.policy,
    )
    assert table.rows[0][-2:] == (comp.exact_steps, comp.exact_est_error)
    header, row = [l for l in table.csv_text().splitlines() if not l.startswith("#")]
    assert header.split(",")[-2:] == ["exact_steps", "exact_est_error"]
    steps, est_error = row.split(",")[-2:]
    assert (int(steps), float(est_error)) == (comp.exact_steps, comp.exact_est_error)
    assert comp.exact_steps > 0 and 0.0 < comp.exact_est_error < cfg.compare_exact_tol


def test_decompose_levels_csv(tmp_path, capsys):
    cfg_path = write(tmp_path, CHAIN_RUN.replace("h = 5", "h = 9"))
    assert main(["decompose", "--config", cfg_path]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert lines[0] == "level,eigenvalue,rank"
    assert lines[1] == "0,-18,1"
    assert lines[2] == "1,0,2"
    assert lines[3] == "2,18,1"


def test_config_errors_exit_2(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "missing.ini")]) == 2
    assert "cannot read" in capsys.readouterr().err
    bad = write(tmp_path, "[scenario]\ntype = pulsed\n[pulsed]\nomega = 1\n")
    assert main(["run", "--config", bad]) == 2
    assert "[pulsed] omega" in capsys.readouterr().err
    same_levels = write(
        tmp_path, CHAIN_RUN.replace("T = 1", "T = 1\nlevel_from = 0\nlevel_to = 0"), "lv.ini"
    )
    assert main(["run", "--config", same_levels]) == 2
    assert "same level" in capsys.readouterr().err
    outside = write(
        tmp_path, CHAIN_RUN.replace("T = 1", "T = 1\nlevel_to = 5"), "lv2.ini"
    )
    assert main(["run", "--config", outside]) == 2
    assert "outside" in capsys.readouterr().err


def test_undersampled_grid_exits_3(tmp_path, capsys):
    cfg_path = write(
        tmp_path, CHAIN_RUN.replace("h = 5", "h = 30").replace("512", "64")
    )
    assert main(["run", "--config", cfg_path]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:")
    assert "undersamples" in err


def test_a_spectrum_wider_than_float_range_exits_3(tmp_path, capsys):
    cfg_path = write(tmp_path, CUSTOM_TWO_LEVEL.replace("[1, 0], [0, -1]", "[1e308, 0], [0, -1e308]"))
    assert main(["run", "--config", cfg_path]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: spectral range from -1e+308 to 1e+308 is not finite")


def test_an_overflowing_transition_rate_exits_3_without_a_traceback(tmp_path, capsys):
    text = CUSTOM_TWO_LEVEL.replace("[1, 0], [0, -1]", "[-1e10, 0], [0, 1e10]").replace("coupling = 5", "coupling = 1e300")
    cfg_path = write(tmp_path, text.replace("256", "64"))
    assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "o.csv")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: transition rate leaves floating-point range")
    assert "Traceback" not in err


def test_a_huge_field_names_its_node_estimate_in_three_digits(tmp_path, capsys):
    cfg_path = write(tmp_path, CHAIN_RUN.replace("h = 5", "h = 1e300"))
    assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "o.csv")]) == 3
    err = capsys.readouterr().err
    assert "(about 6.37e+300 nodes over the span)" in err and "Traceback" not in err


CUSTOM_RANK_TWO = """
[scenario]
type = custom-matrix

[custom-matrix]
h0 = [[0, 0, 1], [0, 0, 0.5], [1, 0.5, 0]]
h_meas = [[-1, 0, 0], [0, -1, 0], [0, 0, 1]]
coupling = 5
tau = 1
level_from = 0
level_to = 1

[grid]
intervals = 256
"""


def test_a_config_rho0_is_the_initial_state_of_a_run(tmp_path, capsys):
    def w(text, name):
        out = tmp_path / f"{name}.csv"
        assert main(["run", "--config", write(tmp_path, text, f"{name}.ini"), "--out", str(out)]) == 0
        return float(out.read_text().splitlines()[-1].split(",")[1])

    pure = np.diag([1.0, 0.0, 0.0]).astype(complex)
    model = zj.time_independent_model(
        [[0, 0, 1], [0, 0, 0.5], [1, 0.5, 0]], np.diag([-1.0, -1.0, 1.0]), 5.0, 1.0
    )
    frame = zj.time_independent_frame(model, 256)
    expected = zj.general_jump(model, pure, 0, 1, frame).value
    config_state = w(CUSTOM_RANK_TWO.replace("tau = 1", "tau = 1\nrho0 = [[1, 0, 0], [0, 0, 0], [0, 0, 0]]"), "pure")
    assert config_state == expected
    # the default is the level's mixture, which |<2|h0|1>|^2 = 1/4 pulls below the pure state's
    assert w(CUSTOM_RANK_TWO, "mixed") == pytest.approx(0.625 * expected, rel=1e-9)
    outside = CUSTOM_RANK_TWO.replace("tau = 1", "tau = 1\nrho0 = [[0, 0, 0], [0, 0, 0], [0, 0, 1]]")
    assert main(["run", "--config", write(tmp_path, outside, "out.ini"), "--out", str(tmp_path / "o.csv")]) == 2
    assert capsys.readouterr().err.startswith("config error: initial state is not confined to level n")


def test_strict_flags_exit_4(tmp_path, capsys):
    # h = 0.1 trips both chain guideline flags; --strict turns them into rc 4.
    cfg_path = write(tmp_path, CHAIN_RUN.replace("h = 5", "h = 0.1"))
    assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "o.csv")]) == 0
    assert main(
        ["run", "--config", cfg_path, "--strict", "--out", str(tmp_path / "o.csv")]
    ) == 4
    err = capsys.readouterr().err
    assert "strict: h = 0.1" in err


CUSTOM_TWO_LEVEL = """
[scenario]
type = custom-matrix

[custom-matrix]
h0 = [[0, 1], [1, 0]]
h_meas = [[1, 0], [0, -1]]
coupling = 5
tau = 1

[grid]
intervals = 256
"""


def test_strict_exits_4_on_a_failed_comparison(tmp_path, capsys):
    # No second-order value meets a 1e-12 relative bound against the oracle.
    cfg_path = write(tmp_path, CUSTOM_TWO_LEVEL + "\n[compare]\nbound = 1e-12\n")
    out = str(tmp_path / "o.csv")
    assert main(["compare", "--config", cfg_path, "--out", out]) == 0
    assert main(["compare", "--config", cfg_path, "--strict", "--out", out]) == 4
    assert capsys.readouterr().err == "strict: coupling = 5: status fail\n"


def test_strict_exits_4_on_a_flagged_adiabatic_run(tmp_path, capsys):
    # A static measurement is adiabatic; W > 0.5 is flagged all the same.
    cfg_path = write(tmp_path, CUSTOM_TWO_LEVEL.replace("coupling = 5", "coupling = 0.5"))
    out = tmp_path / "o.csv"
    assert main(["run", "--config", cfg_path, "--strict", "--out", str(out)]) == 4
    row = out.read_text().splitlines()[-1].split(",")
    assert float(row[1]) > 0.5 and row[4] == "true"
    err = capsys.readouterr().err
    assert err.startswith("strict: coupling = 0.5: perturbation theory unreliable: ")


def test_a_non_hermitian_h0_exits_2_under_run_and_compare(tmp_path, capsys):
    cfg_path = write(tmp_path, CUSTOM_TWO_LEVEL.replace("h0 = [[0, 1], [1, 0]]", "h0 = [[0, 1], [0, 0]]"))
    for command in ("run", "compare"):
        out = tmp_path / f"{command}.csv"
        assert main([command, "--config", cfg_path, "--strict", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            "config error: [custom-matrix] h0: matrix is not Hermitian: defect 1.000e+00 exceeds "
        )
        assert not out.exists()


@pytest.mark.parametrize(
    "key, line",
    [
        ("h0", "h0 = [[0, 1], [0, 0]]"),
        ("h_meas", "h_meas = [[1, 0.5], [0, -1]]"),
        ("rho0", "rho0 = [[1, [0, 1]], [[0, 1], 0]]"),
    ],
)
def test_a_non_hermitian_matrix_is_named_by_its_key(tmp_path, capsys, key, line):
    text = CUSTOM_TWO_LEVEL.replace("tau = 1", "tau = 1\nrho0 = [[1, 0], [0, 0]]")
    old = next(row for row in text.splitlines() if row.startswith(f"{key} = "))
    cfg_path = write(tmp_path, text.replace(old, line))
    for command in ("run", "compare", "decompose"):
        assert main([command, "--config", cfg_path, "--out", str(tmp_path / "o.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: [custom-matrix] {key}: matrix is not Hermitian: "), err
    # the config's own hermitian_tol decides
    loose = write(tmp_path, text.replace(old, line) + "\n[tolerances]\nhermitian_tol = 10\n", "loose.ini")
    assert main(["decompose", "--config", loose, "--out", str(tmp_path / "o.csv")]) == 0


@pytest.mark.parametrize("command", ["compare", "decompose"])
def test_a_pulsed_config_has_no_matrix_model(tmp_path, capsys, command):
    cfg_path = write(tmp_path, PULSED_SWEEP)
    assert main([command, "--config", cfg_path, "--out", str(tmp_path / "o.csv")]) == 2
    err = capsys.readouterr().err
    assert err == (
        f"config error: scenario 'pulsed' has no matrix model; "
        f"{command} needs 'spinchain' or 'custom-matrix'\n"
    )
    assert not (tmp_path / "o.csv").exists()


def test_decompose_a_custom_matrix(tmp_path, capsys):
    cfg_path = write(tmp_path, CUSTOM_COMPARE)
    assert main(["decompose", "--config", cfg_path]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
    assert lines == ["level,eigenvalue,rank", "0,-5,1", "1,0,1", "2,5,1"]


def test_emit_plot(tmp_path):
    cfg_path = write(tmp_path, PULSED_SWEEP)
    out_csv = tmp_path / "sweep.csv"
    assert main(["run", "--config", cfg_path, "--out", str(out_csv), "--emit-plot"]) == 0
    script = (tmp_path / "sweep.gp").read_text()
    assert str(out_csv) in script
    assert 'using 1:2' in script
    compare_csv = tmp_path / "cmp.csv"
    cmp_cfg = write(tmp_path, CUSTOM_COMPARE, "cmp.ini")
    assert main(["compare", "--config", cmp_cfg, "--out", str(compare_csv), "--emit-plot"]) == 0
    cmp_script = (tmp_path / "cmp.gp").read_text()
    assert "using 1:3" in cmp_script


def test_emit_plot_needs_file_output(tmp_path, capsys):
    cfg_path = write(tmp_path, PULSED_SWEEP)
    assert main(["run", "--config", cfg_path, "--emit-plot"]) == 2
    assert "--emit-plot" in capsys.readouterr().err


def test_emit_plot_refuses_an_output_its_script_would_overwrite(tmp_path, capsys):
    cfg_path = write(tmp_path, PULSED_SWEEP)
    out = tmp_path / "res.gp"
    assert main(["run", "--config", cfg_path, "--out", str(out), "--emit-plot"]) == 2
    assert "--emit-plot would write its script over the output" in capsys.readouterr().err
    assert not out.exists()


def test_parse_echo_requires_header():
    with pytest.raises(zj.ConfigError, match="no config echo"):
        parse_echo("a,b,c\n1,2,3\n")


def test_python_api_tables():
    cfg = zj.parse_config(PULSED_SWEEP)
    table = run_scenario(cfg)
    assert isinstance(table, ResultTable)
    assert table.columns[0] == "tau"
    assert len(table.rows) == 3
    text = table.csv_text()
    assert text.startswith("# [scenario]\n")
    assert parse_echo(text) == cfg


def test_python_m_zenojump_runs_the_cli():
    src = os.path.dirname(os.path.dirname(zj.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-m", "zenojump", "info"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == f"zenojump {zj.__version__}"


def test_unwritable_output_exits_2_without_traceback(tmp_path, capsys):
    cfg_path = write(tmp_path, "[scenario]\ntype = continuous\n")
    target = tmp_path / "no-such-dir" / "out.csv"
    assert main(["run", "--config", cfg_path, "--out", str(target)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot write {target}: ")
    assert "Traceback" not in err
    assert not target.exists()


def test_bad_policy_environment_exits_2_without_traceback(tmp_path, capsys, monkeypatch):
    cfg_path = write(tmp_path, "[scenario]\ntype = continuous\n")
    for value, needle in (
        ("bogus", "key=value"),
        ("frame_tol=abc", "expected a finite number"),
        ("frame_tol=nan", "expected a finite number"),
    ):
        monkeypatch.setenv("ZENO_NUM_POLICY", value)
        assert main(["run", "--config", cfg_path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and needle in err
        assert "Traceback" not in err


def test_a_removed_tolerance_exits_2_as_an_unknown_key(tmp_path, capsys, monkeypatch):
    # the policy has no unitary_tol, orthogonality_tol or completeness_tol: each is an unknown key
    for key in ("unitary_tol", "completeness_tol"):
        cfg_path = write(tmp_path, CHAIN_RUN + f"\n[tolerances]\n{key} = 1e-8\n")
        assert main(["run", "--config", cfg_path]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: [tolerances] {key}: unknown tolerance")
    for key in ("orthogonality_tol", "completeness_tol"):
        monkeypatch.setenv("ZENO_NUM_POLICY", f"{key}=1e-9")
        assert main(["run", "--config", write(tmp_path, CHAIN_RUN, "plain.ini")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: unknown policy key '{key}'")
        assert "Traceback" not in err


def test_a_policy_that_merges_every_chain_level_exits_3(tmp_path, capsys, monkeypatch):
    # the one-level site frame used to reach the sector rows as an IndexError
    monkeypatch.setenv("ZENO_NUM_POLICY", "degeneracy_rel=10")
    assert main(["run", "--config", write(tmp_path, CHAIN_RUN)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ") and "merges every level" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["run", "compare"])
def test_a_tolerance_that_merges_every_custom_matrix_level_exits_3(tmp_path, capsys, command):
    # it exited 2 blaming level_from and level_to, which resolved to the one merged level
    text = CUSTOM_COMPARE.replace("[[-1, 0, 0], [0, 0, 0], [0, 0, 1]]", "[[0, 0, 0], [0, 1, 0], [0, 0, 2.5]]")
    text = text.replace("level_to = 2\n", "") + "\n[tolerances]\ndegeneracy_rel = 10\n"
    assert main([command, "--config", write(tmp_path, text)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ") and "merges every level of a split spectrum" in err
    assert "Traceback" not in err


HUGE_LEVEL = """
[scenario]
type = custom-matrix

[custom-matrix]
h0 = [[0, 1, 0], [1, 0, 1], [0, 1, 0]]
h_meas = [[1.5e308, 0, 0], [0, 1.5e308, 0], [0, 0, 0]]
coupling = 1
"""


def test_a_level_summing_past_float_range_decomposes_to_its_finite_mean(tmp_path):
    out = tmp_path / "levels.csv"
    assert main(["decompose", "--config", write(tmp_path, HUGE_LEVEL), "--out", str(out)]) == 0
    rows = [l for l in out.read_text(encoding="utf-8").splitlines() if not l.startswith("#")]
    assert rows == ["level,eigenvalue,rank", "0,0,1", "1,1.5e+308,2"]


def test_a_level_summing_past_float_range_is_no_infinite_spectral_range(tmp_path, capsys):
    # the level's finite mean reaches the run, which refuses its grid instead
    assert main(["run", "--config", write(tmp_path, HUGE_LEVEL), "--out", str(tmp_path / "o.csv")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ") and "spectral range" not in err
    assert "Traceback" not in err


def test_a_phase_no_float_grid_resolves_names_no_infinite_node_count(tmp_path, capsys):
    # the node estimate overflowed: "0.00 nodes per oscillation period ... (about inf nodes ...)"
    assert main(["run", "--config", write(tmp_path, HUGE_LEVEL), "--out", str(tmp_path / "o.csv")]) == 3
    err = capsys.readouterr().err
    assert "nodes per oscillation period" in err and "no grid a float can count resolves the phase" in err
    assert "inf" not in err and "0.00" not in err


def _readme_configs():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(path, encoding="utf-8") as fh:
        blocks = fh.read().split("```ini\n")[1:]
    return [block.split("```")[0] for block in blocks]


@pytest.mark.parametrize("command", ["run", "compare"])
def test_every_readme_config_runs(tmp_path, command):
    configs = _readme_configs()
    assert configs
    for i, text in enumerate(configs):
        out = tmp_path / f"readme{i}.csv"
        assert main([command, "--config", write(tmp_path, text), "--out", str(out)]) == 0, i
        assert out.exists()


def test_non_finite_matrix_entry_exits_2_under_strict(tmp_path, capsys):
    cfg_path = write(
        tmp_path, CUSTOM_COMPARE.replace("h0 = [[0, 0, 0],", "h0 = [[0, NaN, 0],")
    )
    assert main(["run", "--config", cfg_path, "--strict"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: [custom-matrix] h0: ")
    assert "must be finite" in err


def test_cli_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(zj.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import sys, zenojump.cli; print([m for m in sys.modules if m.startswith('scipy')])"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_non_positive_tolerance_exits_2_naming_the_key(tmp_path, capsys, monkeypatch):
    cfg_path = write(tmp_path, CHAIN_RUN)
    monkeypatch.setenv("ZENO_NUM_POLICY", "frame_tol=-1")
    assert main(["run", "--config", cfg_path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: policy key 'frame_tol': must be positive")
    monkeypatch.delenv("ZENO_NUM_POLICY")
    cfg_path = write(tmp_path, CHAIN_RUN + "\n[tolerances]\nhermitian_tol = 0\n", "zero.ini")
    assert main(["run", "--config", cfg_path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: [tolerances] hermitian_tol: must be positive")


def test_overflowing_chain_coupling_exits_2_without_traceback(tmp_path, capsys):
    # h*T = inf: the chain spec rejects the product, naming both keys.
    cfg_path = write(tmp_path, "[scenario]\ntype = spinchain\n\n[spinchain]\nh = 1e300\nT = 1e10\n")
    target = tmp_path / "out.csv"
    assert main(["run", "--config", cfg_path, "--out", str(target)]) == 2
    err = capsys.readouterr().err
    assert err == "config error: coupling h * T leaves float range: h = 1e+300, T = 10000000000.0\n"
    assert "Traceback" not in err
    assert not target.exists()


@pytest.mark.parametrize(
    "scenario, settings, reason",
    [
        ("continuous", "coupling = 1e160", "Numerical result out of range"),
        ("continuous", "coupling = 1e200\ndelta_eps = 1e200", "math domain error"),
        ("pulsed", "coupling = 1e-200", "float division by zero"),
    ],
)
def test_closed_form_out_of_range_exits_3_without_traceback(
    tmp_path, capsys, scenario, settings, reason
):
    cfg_path = write(tmp_path, f"[scenario]\ntype = {scenario}\n\n[{scenario}]\n{settings}\n")
    target = tmp_path / "out.csv"
    assert main(["run", "--config", cfg_path, "--out", str(target)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"numerical failure: {scenario} jump probability left ")
    assert reason in err
    assert "Traceback" not in err
    assert not target.exists()


@pytest.mark.parametrize("jobs", [[], ["--jobs", "2"]])
def test_numerical_failure_names_the_sweep_point(tmp_path, capsys, jobs):
    sweep = "[sweep]\nparameter = coupling\nstart = 1\nstop = 1e160\ncount = 2\n"
    cfg_path = write(tmp_path, f"[scenario]\ntype = continuous\n\n{sweep}")
    assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "out.csv"), *jobs]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: continuous jump probability left ")
    assert err.endswith(" (at coupling = 1e+160)\n")
    assert "Traceback" not in err


# failing = how many of the sweep's points (tau = 0.5, 0.7, 0.9) raise; the
# error names the first of them and the sweep stops there.
@pytest.mark.parametrize("failing, threshold, first", [
    (1, 0.8, "0.90000000000000002"),
    (2, 0.6, "0.69999999999999996"),
], ids=["1", "2"])
def test_named_failure_keeps_its_class_and_last_result(monkeypatch, failing, threshold, first):
    from zenojump import cli

    calls = []

    def raising(*args):
        calls.append(args[2])
        if args[2] > threshold:
            raise zj.QuadratureError("not converged", last_result=0.25)
        return 0.1

    monkeypatch.setattr(cli, "pulsed_jump", raising)
    with pytest.raises(zj.QuadratureError) as info:
        run_scenario(zj.parse_config(PULSED_SWEEP))
    assert str(info.value) == f"not converged (at tau = {first})"
    assert len(calls) == 3 - failing + 1
    assert info.value.last_result == 0.25


def test_non_finite_output_cell_exits_3_naming_point_and_column(tmp_path, capsys, monkeypatch):
    from zenojump import cli

    monkeypatch.setattr(cli, "pulsed_jump", lambda *args: float("nan") if args[2] > 0.6 else 0.1)
    cfg_path = write(tmp_path, PULSED_SWEEP)
    target = tmp_path / "out.csv"
    assert main(["run", "--config", cfg_path, "--out", str(target)]) == 3
    err = capsys.readouterr().err
    assert err == "numerical failure: tau = 0.69999999999999996: w is not finite (nan)\n"
    assert not target.exists()


def _chain_sweep(n_sites, parameter, start, stop):
    return (
        f"[scenario]\ntype = spinchain\n\n[spinchain]\nn_sites = {n_sites}\nh = 10\n"
        f"level_to = 2\n\n[grid]\nintervals = 1024\n\n[sweep]\nparameter = {parameter}\n"
        f"start = {start}\nstop = {stop}\ncount = 3\n"
    )


def _row_lines(table):
    return [l for l in table.csv_text().splitlines() if not l.startswith("#")][1:]


@pytest.mark.parametrize("evaluate", [run_scenario, oracle_compare], ids=["run", "compare"])
@pytest.mark.parametrize("n_sites, parameter, start, stop", [
    (3, "h", 9, 11),
    (3, "T", 0.8, 1.2),
    (3, "lambda1", 0.5, 1.5),
    (4, "lambda3", 0.5, 1.5),
])
def test_chain_sweep_rows_equal_single_point_runs(evaluate, n_sites, parameter, start, stop):
    from zenojump.config import SweepSpec

    cfg = zj.parse_config(_chain_sweep(n_sites, parameter, start, stop))
    rows = _row_lines(evaluate(cfg))
    singles = [
        _row_lines(evaluate(dataclasses.replace(cfg, sweep=SweepSpec(parameter, v, v, 1))))
        for v in cfg.sweep.values()
    ]
    assert rows == [line for single in singles for line in single]


def _counting(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_a_chain_sweep_tracks_its_frame_once(monkeypatch):
    from zenojump import cli, models

    tracked = _counting(monkeypatch, models, "track_frame")
    framed = _counting(monkeypatch, cli, "spin_chain_frame")
    cfg = zj.parse_config(CHAIN_SWEEP)
    first = run_scenario(cfg)
    assert (len(tracked), len(framed)) == (1, 3)
    # Nothing outlives a sweep: the next call on the same config tracks again.
    assert run_scenario(cfg).rows == first.rows
    assert (len(tracked), len(framed)) == (2, 6)


def test_a_chain_sweep_decomposes_its_field_once(monkeypatch):
    # The frame's one pass is the only spectral work: the one-site field is a
    # linear 2 x 2 family, so its frame is a closed-form rotation and the pass
    # decomposes the 2049 nodes alone, in blocks of 512 (the 2 x 2 samples
    # that 2**11 matrix entries hold); every point's report reads the frame.
    from zenojump import decomposition

    passes = _counting(monkeypatch, decomposition, "_spectral_samples")
    solves = _counting(monkeypatch, decomposition, "eigh")
    sweep = "[sweep]\nparameter = h\nstart = 9\nstop = 9.5\ncount = 2\n"
    chain = CHAIN_RUN.replace("512", "2048").replace("T = 1", "T = 1\nn_sites = 4\nlevel_to = 2")
    assert len(run_scenario(zj.parse_config(chain + sweep)).rows) == 2
    assert (len(passes), len(solves)) == (1, 5)


def test_a_chain_sweep_builds_its_model_and_kernel_once(monkeypatch):
    from zenojump import cli, jump

    built = _counting(monkeypatch, cli, "spin_chain_model")
    kernels = _counting(monkeypatch, jump, "_separable_kernel")
    cfg = zj.parse_config(CHAIN_SWEEP)
    first = run_scenario(cfg)
    assert (len(built), len(kernels)) == (1, 1)
    # Nothing outlives a sweep: the next call on the same config builds them again.
    assert run_scenario(cfg).rows == first.rows
    assert (len(built), len(kernels)) == (2, 2)


def test_a_chain_compare_sweep_forms_its_kernel_once(monkeypatch):
    from zenojump import jump
    from zenojump.config import SweepSpec

    kernels = _counting(monkeypatch, jump, "_separable_kernel")
    cfg = zj.parse_config(_chain_sweep(2, "h", 9, 11).replace("count = 3", "count = 2"))
    rows = _row_lines(oracle_compare(cfg))
    assert len(kernels) == 1
    singles = [_row_lines(oracle_compare(dataclasses.replace(cfg, sweep=SweepSpec("h", v, v, 1)))) for v in (9.0, 11.0)]
    assert rows == singles[0] + singles[1] and len(kernels) == 3


@pytest.mark.parametrize("parameter, start, stop", [("T", 0.8, 1.2), ("lambda1", 0.5, 1.5)])
def test_a_sweep_that_changes_the_bond_forms_a_kernel_per_point(monkeypatch, parameter, start, stop):
    # its rows equal single-point runs (test_chain_sweep_rows_equal_single_point_runs)
    from zenojump import cli, jump

    built = _counting(monkeypatch, cli, "spin_chain_model")
    kernels = _counting(monkeypatch, jump, "_separable_kernel")
    run_scenario(zj.parse_config(_chain_sweep(3, parameter, start, stop)))
    assert (len(built), len(kernels)) == (3, 3)


def test_only_a_chain_point_keeps_a_kernel_for_the_sweep():
    from zenojump.cli import _run_point

    shared: dict = {}
    cfg = zj.parse_config(CUSTOM_COMPARE + "[sweep]\nparameter = tau\nstart = 1\nstop = 2\ncount = 3\n")
    for tau in cfg.sweep.values():
        _run_point(cfg.with_param("tau", float(tau)), shared)
    assert shared == {}
    _run_point(zj.parse_config(CHAIN_RUN), shared)
    assert sorted(str(key[0]) for key in shared) == ["2", "kernel", "model"]


def test_a_custom_matrix_sweep_builds_a_static_frame_per_point(monkeypatch):
    from zenojump import cli, models

    tracked = _counting(monkeypatch, models, "track_frame")
    framed = _counting(monkeypatch, cli, "time_independent_frame")
    sweep = "[sweep]\nparameter = coupling\nstart = 5\nstop = 7\ncount = 3\n"
    run_scenario(zj.parse_config(CUSTOM_COMPARE + sweep))
    assert (len(tracked), len(framed)) == (0, 3)


def test_a_frame_tol_below_the_site_residual_fails_at_the_first_point(tmp_path, capsys):
    # the closed-form site frame's residual is rounding, below 1e-15
    cfg_path = write(tmp_path, CHAIN_SWEEP + "\n[tolerances]\nframe_tol = 1e-16\n")
    assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "out.csv")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: frame residual ")
    assert err.endswith(" (at h = 5)\n")
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize(
    "intervals, message",
    [(64, "grid undersamples the transition phase: "), (256, "jump quadrature not converged: ")],
)
def test_a_coarse_grid_on_a_fast_turning_field_exits_3_at_the_quadrature(tmp_path, capsys, monkeypatch, intervals, message):
    # The one-site field swapped for Z -> -Z + 0.05 X, which turns by nearly pi
    # around s = 1/2.  Its frame is a closed-form rotation with a residual of
    # rounding, so the coarse grid is caught where the transition phase is
    # integrated (a QuadratureError), not by the frame residual.
    from zenojump import models

    field = models._field_direction
    fast = zj.TimeDependentOperator.linear(zj.SIGMA_Z, -zj.SIGMA_Z + 0.05 * zj.SIGMA_X, (0.0, 1.0))
    monkeypatch.setattr(models, "_field_direction", lambda n: fast if n == 1 else field(n))
    cfg_path = write(tmp_path, CHAIN_RUN.replace("h = 5", "h = 20").replace("512", str(intervals)))
    assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "out.csv")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: " + message)
    assert err.endswith(" (at h = 20)\n") and err.count("\n") == 1
    assert not (tmp_path / "out.csv").exists()


def test_a_sweep_point_with_an_invalid_coupling_fails_with_the_spec_message(tmp_path, capsys):
    sweep = "[sweep]\nparameter = T\nstart = 1\nstop = 1.7e308\ncount = 2\n"
    cfg_path = write(tmp_path, CHAIN_RUN + sweep)
    assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "out.csv")]) == 2
    err = capsys.readouterr().err
    assert err == "config error: coupling h * T leaves float range: h = 5.0, T = 1.7e+308\n"
    assert not (tmp_path / "out.csv").exists()


def test_a_stalled_oracle_ladder_exits_3_within_a_few_doublings(tmp_path, capsys):
    # Below about 1e-13 rounding outgrows the oracle's truncation error, so
    # exact_tol = 1e-15 is never met; the ladder stops once its change has
    # grown on two doublings in a row instead of running 20 of them.
    text = CHAIN_RUN.replace("h = 5", "h = 12.5").replace("512", "2048")
    cfg_path = write(tmp_path, text + "\n[compare]\nexact_tol = 1e-15\n")
    assert main(["compare", "--config", cfg_path, "--out", str(tmp_path / "out.csv")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: exact propagator did not converge below 1.0e-15 after ")
    assert err.endswith(" (at h = 12.5)\n")
    assert int(err.split(" after ")[1].split()[0]) <= 10
    assert "Traceback" not in err
    assert not (tmp_path / "out.csv").exists()


def test_four_site_oracle_keeps_its_fourth_order_value():
    # w_exact of the fourth-order two-node oracle on this configuration; the
    # sixth-order oracle must agree within 8 d exact_tol.
    text = CHAIN_RUN.replace("512", "2048").replace(
        "h = 5\nT = 1", "n_sites = 4\nh = 12.5\nT = 1\nlevel_to = 2"
    )
    cfg = zj.parse_config(text)
    table = oracle_compare(cfg)
    w_exact = table.rows[0][table.columns.index("w_exact")]
    assert abs(w_exact - 0.0021162151049753243) <= 8 * 16 * cfg.compare_exact_tol


CUSTOM_RUN = "[scenario]\ntype = custom-matrix\n\n[custom-matrix]\n{}\n\n[grid]\nintervals = 64\n"
PETABYTE_GRID = "[scenario]\ntype = spinchain\n\n[grid]\nintervals = 1000000000000000\n"
PETABYTE_SWEEP = (
    "[scenario]\ntype = continuous\n\n"
    "[sweep]\nparameter = tau\nstart = 1\nstop = 2\ncount = 1000000000000000\n"
)


@pytest.mark.parametrize(
    "command, text, code, needle",
    [
        ("run", CUSTOM_COMPARE.replace("h0 = [[0, 0, 0],", "h0 = [[0, NaN, 0],"), 2, "must be finite"),
        ("run", CUSTOM_TWO_LEVEL.replace("[[1, 0], [0, -1]]", "[[1, 0.5], [0, -1]]"), 2, "not Hermitian"),
        ("run", "[scenario]\ntype = pulsed\n\n[pulsed]\nbogus = 1\n", 2, "unknown key"),
        ("run", "[scenario]\ntype = pulsed\n\n[compare]\nexact_tol = -1\n", 2, "must be positive"),
        ("run", HUGE_LEVEL, 3, "undersamples"),
        # numpy refuses both arrays (7.11 PiB) before allocating anything
        ("run", PETABYTE_GRID, 3, "out of memory: Unable to allocate 7.11 PiB"),
        ("run", PETABYTE_SWEEP, 3, "out of memory: Unable to allocate 7.11 PiB"),
        # a derived scale out of float range: each ended in a traceback, or in a
        # false message after a numpy RuntimeWarning (an error in this suite)
        ("run", CHAIN_RUN.replace("h = 5", "h = 1e-308"), 2, "square of the coupling h * T underflows to 0: h = 1e-308"),
        ("compare", CHAIN_RUN.replace("T = 1", "T = 1e-308"), 2, "square of the coupling h * T underflows to 0"),
        (
            "run",
            CHAIN_RUN.replace("T = 1", "T = 1\nn_sites = 3\nlambda3 = -1e308"),
            2,
            "exchange Hamiltonian leaves float range",
        ),
        (
            "decompose",
            CUSTOM_RUN.format("h0 = [[0, 1], [1, 0]]\nh_meas = [[1e308, 0], [0, -1e308]]\ncoupling = 10"),
            3,
            "coupling * h_meas leaves float range at coupling = 10",
        ),
        (
            "compare",
            CUSTOM_RUN.format("h0 = [[1e308, 0], [0, -1e308]]\nh_meas = [[0, 0], [0, 1]]\ncoupling = 10"),
            3,
            "Magnus exponent leaves float range",
        ),
        (
            "run",
            CUSTOM_RUN.format("h0 = [[0, 1], [1, 0]]\nh_meas = [[0, 1e200], [1e200, 0]]\ncoupling = 1\ntau = 1e308"),
            3,
            "level phase eps * (t - t0) leaves float range: max|eps| = 1e+200, span 1e+308",
        ),
        (
            "run",
            CUSTOM_RUN.format("h0 = [[0, 1e308], [-1e308, 0]]\nh_meas = [[0, 0], [0, 1]]\ncoupling = 1"),
            2,
            "h0: matrix is not Hermitian: defect inf",
        ),
        (
            "run",
            CUSTOM_RUN.format(
                "h0 = [[0, 1], [1, 0]]\nh_meas = [[0, 0], [0, 1]]\ncoupling = 1\n"
                "rho0 = [[1.7e308, 0, 0], [0, 1.7e308, 0], [0, 0, -1.7e308]]"
            ),
            2,
            "density matrix trace (inf+0j) differs from 1",
        ),
        (
            "run",
            "[scenario]\ntype = continuous\n\n[sweep]\nparameter = tau\nstart = -1e308\nstop = 1e308\ncount = 2\n",
            2,
            "[sweep] stop: span from -1e+308 to 1e+308 leaves float range",
        ),
        # decompose printed the one merged level and exited 0, where run exits 3
        (
            "decompose",
            CUSTOM_TWO_LEVEL + "\n[tolerances]\ndegeneracy_rel = 1.5\n",
            3,
            "degeneracy tolerance 1.500e+01 merges every level of a split spectrum",
        ),
    ],
    ids=[
        "nan-entry", "non-hermitian", "unknown-key", "exact-tol", "huge-rate", "pb-grid", "pb-sweep",
        "h-square", "T-square", "exchange", "scaled-h-meas", "magnus", "phase", "anti-hermitian",
        "rho0-trace", "sweep-span", "decompose-merge",
    ],
)
def test_a_hostile_config_exits_with_a_one_line_message(tmp_path, capsys, command, text, code, needle):
    target = tmp_path / "out.csv"
    assert main([command, "--config", write(tmp_path, text), "--out", str(target)]) == code
    err = capsys.readouterr().err
    assert err.startswith("config error: " if code == 2 else "numerical failure: ")
    assert needle in err and err.count("\n") == 1 and "Traceback" not in err
    assert not target.exists()


@pytest.mark.parametrize(
    "scenario, settings, w",
    [("continuous", "trace_factor = 20", "0.736"), ("pulsed", "trace_factor = 5", "0.842")],
)
def test_a_closed_form_row_above_one_half_takes_the_validity_flag(tmp_path, capsys, scenario, settings, w):
    # Only the quadrature route used to flag w > 0.5: these rows read flags = none and passed --strict.
    cfg_path = write(tmp_path, f"[scenario]\ntype = {scenario}\n\n[{scenario}]\n{settings}\n")
    assert main(["run", "--config", cfg_path, "--strict"]) == 4
    out, err = capsys.readouterr()
    flag = f"perturbation theory unreliable: jump probability {w} > 0.5"
    assert out.splitlines()[-1].endswith(f",0,0,true,{flag}")
    assert err.endswith(f": {flag}\n") and err.startswith("strict: ")
    # an ordinary closed-form row keeps no flag
    assert main(["run", "--config", write(tmp_path, f"[scenario]\ntype = {scenario}\n"), "--strict"]) == 0
    assert capsys.readouterr().out.splitlines()[-1].endswith(",0,0,true,none")


@pytest.mark.parametrize(
    "text, w",
    [
        ("[scenario]\ntype = continuous\n\n[continuous]\ntrace_factor = 1e3\n", "36.7814"),
        ("[scenario]\ntype = pulsed\n\n[pulsed]\ntrace_factor = 1e308\n", "1.68434e+307"),
        (CUSTOM_RUN.format("h0 = [[0, 30], [30, 0]]\nh_meas = [[0, 0], [0, 1]]\ncoupling = 10").replace("64", "512"), "33.1033"),
    ],
    ids=["continuous", "pulsed", "quadrature"],
)
def test_a_jump_probability_above_one_exits_3_on_every_route(tmp_path, capsys, text, w):
    # These rows used to print w > 1 with the > 0.5 flag (closed forms: with no flag) and exit 0.
    target = tmp_path / "out.csv"
    assert main(["run", "--config", write(tmp_path, text), "--out", str(target)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"numerical failure: jump probability {w}") and "lies outside [0, 1]" in err
    assert err.count("\n") == 1 and not target.exists()


@pytest.mark.parametrize("command", ["run", "compare"])
def test_a_coupling_whose_square_overflows_runs_without_a_traceback(tmp_path, capsys, command):
    # the report's coupling**2 raised OverflowError out of main
    text = CUSTOM_RUN.format("h0 = [[0, 1], [1, 0]]\nh_meas = [[1, 0], [0, -1]]\ncoupling = 1e200\ntau = 1e-200")
    assert main([command, "--config", write(tmp_path, text), "--out", str(tmp_path / "o.csv"), "--strict"]) == 0
    assert capsys.readouterr().err == ""
