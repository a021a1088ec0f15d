"""End-to-end tests of the command line driver (in-process)."""

import os
import subprocess
import sys

import numpy as np
import pytest

import zenojump as zj
from zenojump.cli import ResultTable, main, oracle_compare, parse_echo, run_scenario


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
        "coupling,w_perturbative,w_exact,abs_gap,rel_gap,status,adiabaticity_ratio,adiabatic"
    )
    cells = lines[1].split(",")
    assert cells[0] == "5"
    assert cells[1] == "0"
    assert float(cells[2]) == pytest.approx(0.0, abs=1e-10)
    assert cells[5] == "pass"
    assert cells[7] == "true"


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


def test_strict_flags_exit_4(tmp_path, capsys):
    # h = 0.1 trips both chain guideline flags; --strict turns them into rc 4.
    cfg_path = write(tmp_path, CHAIN_RUN.replace("h = 5", "h = 0.1"))
    assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "o.csv")]) == 0
    assert main(
        ["run", "--config", cfg_path, "--strict", "--out", str(tmp_path / "o.csv")]
    ) == 4
    err = capsys.readouterr().err
    assert "strict: h = 0.1" in err


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


def test_parse_echo_requires_header():
    with pytest.raises(zj.ConfigError, match="no config echo"):
        parse_echo("a,b,c\n1,2,3\n")


def test_python_api_tables():
    cfg = zj.parse_config(PULSED_SWEEP)
    table = run_scenario(cfg, jobs=1)
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
    # h*T = inf: the model rejects the coupling before any frame is built.
    cfg_path = write(tmp_path, "[scenario]\ntype = spinchain\n\n[spinchain]\nh = 1e300\nT = 1e10\n")
    target = tmp_path / "out.csv"
    assert main(["run", "--config", cfg_path, "--out", str(target)]) == 2
    err = capsys.readouterr().err
    assert err == "config error: coupling must be positive and finite, got inf\n"
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


@pytest.mark.parametrize("jobs", [1, 2])
def test_named_failure_keeps_its_class_and_last_result(monkeypatch, jobs):
    from zenojump import cli

    def failing(*args):
        if args[2] > 0.6:
            raise zj.QuadratureError("not converged", last_result=0.25)
        return 0.1

    monkeypatch.setattr(cli, "pulsed_jump", failing)
    with pytest.raises(zj.QuadratureError) as info:
        run_scenario(zj.parse_config(PULSED_SWEEP), jobs=jobs)
    assert str(info.value) == "not converged (at tau = 0.69999999999999996)"
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
