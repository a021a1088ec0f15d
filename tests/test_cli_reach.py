"""Every ``src/`` function has a reader: a CLI path, or the one named in ``CLI_UNREACHED``.

The test runs :func:`zenojump.cli.main` over every command, every scenario and
both transports, ``--strict``, ``--emit-plot`` and one config each that exits 2,
3 and 4, with a profile hook that records each package function it enters.  The
functions it never enters, by qualified name, must be exactly the listed ones,
so new library-only code fails here until a CLI path reads it or it is listed
with its reader.
"""

import ast
import pathlib
import sys

import zenojump as zj
from zenojump.cli import main

PACKAGE = pathlib.Path(zj.__file__).parent

#: ``module.qualname`` of each function no CLI path enters, with its reader
CLI_UNREACHED = {
    # the command line outside main
    "cli.console_entry": "the console script and python -m zenojump (test_cli.py::test_python_m_zenojump_runs_the_cli)",
    "cli.parse_echo": "perfbench/check.py; test_cli.py::test_run_pulsed_sweep_matches_closed_form",
    # the chain's closed form
    "models.two_qubit_rotation_jump": "criteria 7 and 11; ROADMAP item 18",
    "models.two_qubit_rotation_jump.<locals>.value_at": "criteria 7 and 11; ROADMAP item 18",
    "models.cumulative_field_strength": "criteria 7 and 9; ROADMAP item 18",
    "models._field_antiderivative": "criterion 9, through cumulative_field_strength; ROADMAP item 18",
    "models.field_strength": "test_models.py::test_field_strength_symmetry; ROADMAP item 18",
    # the pulsed scenario's matrix route
    "models.pulsed_measurement_model": "criterion 4; ROADMAP item 11",
    "models.pulsed_measurement_model.<locals>.switched": "criterion 4; ROADMAP item 11",
    "models.pulsed_frame": "criterion 4; ROADMAP item 11",
    "operators.check_projector": "criterion 4, through the pulsed route; ROADMAP item 11",
    # rates and survival
    "jump.SpectralDensity.__post_init__": "criterion 7; ROADMAP item 13",
    "jump.SpectralDensity.from_transitions": "test_jump.py::test_spectral_density_from_transitions; ROADMAP item 13",
    "jump.SpectralDensity.total_weight": "test_jump.py::test_spectral_density_validation_and_moments; ROADMAP item 13",
    "jump.SpectralDensity.center": "test_jump.py::test_spectral_density_validation_and_moments; ROADMAP item 13",
    "jump.SpectralDensity.width": "test_jump.py::test_spectral_density_validation_and_moments; ROADMAP item 13",
    "jump.spectral_overlap": "criterion 7; ROADMAP item 13",
    "jump.decay_rate": "criterion 7; ROADMAP item 13",
    "jump._check_rate_inputs": "criterion 7, through decay_rate; ROADMAP item 13",
    "jump._filter_function": "criterion 7, through decay_rate; ROADMAP item 13",
    "jump.survival_power": "criterion 7; ROADMAP item 13",
    "jump.survival_exponential": "criterion 7; ROADMAP item 13",
    # other formulas of the paper
    "jump.transition_weight": "criteria 4 and 5; perfbench/check.py",
    "jump.zeno_time": "criterion 5",
    "models.free_flip_probability": "criterion 2",
    "models.build_chain_h0": "criteria 1 and 5",
    # the general frame route
    "decomposition._rk4_steps": "test_spectral_pass.py; ROADMAP item 15",
    "decomposition._prefix_products": "test_spectral_pass.py, through _rk4_steps; ROADMAP item 15",
    "decomposition.TimeDependentOperator.derivative": "test_decomposition.py::test_derivative_is_one_sided_at_breakpoints",
    # accessors the tests read
    "compare.JumpComparison.within_bound": "test_compare.py::test_vanishing_perturbation_agrees_exactly",
    "decomposition.AdiabaticFrame.__repr__": "test_models.py::test_spin_chain_frame_keeps_its_site_frame_and_no_dense_stack",
    "decomposition.AdiabaticFrame.n_nodes": "test_decomposition.py::test_static_frame_phases_exact_for_switched_eigenvalue",
    "decomposition.AdiabaticFrame.ranks": "test_jump.py::test_general_jump_allocates_less_than_one_full_node_stack",
    "decomposition.AdiabaticityReport.threshold": "test_decomposition.py::test_adiabaticity_ratio_scales_inverse_square_in_coupling",
    "decomposition.ZenoDecomposition.dim": "test_decomposition.py::test_decomposing_a_nine_site_chain_field_forms_no_projector_stack",
    "decomposition.ZenoDecomposition.level_basis": "test_decomposition.py::test_decompose_groups_degenerate_eigenvalues",
}

CHAIN = "[scenario]\ntype = spinchain\n\n[spinchain]\nh = 5\n\n[grid]\nintervals = 512\n"
CUSTOM = (
    "[scenario]\ntype = custom-matrix\n\n[custom-matrix]\n"
    "h0 = [[0, 0.1, 0], [0.1, 0, 0.1], [0, 0.1, 0]]\nh_meas = [[-1, 0, 0], [0, 0, 0], [0, 0, 1]]\n"
    "coupling = 5\nlevel_to = 2\n\n[grid]\nintervals = 64\n"
)
PULSED_SWEEP = "[scenario]\ntype = pulsed\n\n[sweep]\nparameter = tau\nstart = 0.6\nstop = 0.9\ncount = 2\n"

#: (command, config, options, exit code): every command, scenario and transport, both flags, exits 2, 3 and 4
INVOCATIONS = (
    ("info", None, (), 0),
    ("run", PULSED_SWEEP, ("--emit-plot",), 0),
    ("run", "[scenario]\ntype = continuous\n", ("--strict",), 0),
    ("run", CHAIN, ("--strict",), 0),
    ("run", CUSTOM, (), 0),
    ("compare", CHAIN + "\n[compare]\ntransport = instantaneous\n", (), 0),
    ("compare", CUSTOM, ("--strict",), 4),
    ("decompose", CHAIN, (), 0),
    ("decompose", CUSTOM, (), 0),
    ("run", "[scenario]\ntype = pulsed\n\n[pulsed]\nomega = 1\n", (), 2),
    ("run", CHAIN.replace("h = 5", "h = 30").replace("512", "64"), (), 3),
)


def _functions() -> set[str]:
    """``module.qualname`` of every ``def`` in the package, nested ones included, as ``co_qualname`` spells it."""
    names = set()

    def walk(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(f"{module}.{prefix}{child.name}")
                walk(child, module, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, module, f"{prefix}{child.name}.")
            else:
                walk(child, module, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), path.stem, "")
    return names


def test_every_function_the_cli_never_enters_is_listed_with_its_reader(tmp_path, capsys):
    entered = set()
    root = str(PACKAGE)

    def hook(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(root):
            entered.add(f"{pathlib.Path(frame.f_code.co_filename).stem}.{frame.f_code.co_qualname}")

    codes = []
    for k, (command, text, options, _code) in enumerate(INVOCATIONS):
        argv = [command, *options]
        if text is not None:
            config = tmp_path / f"c{k}.ini"
            config.write_text(text, encoding="utf-8")
            argv += ["--config", str(config), "--out", str(tmp_path / f"c{k}.csv")]
        previous = sys.getprofile()
        sys.setprofile(hook)
        try:
            codes.append(main(argv))
        finally:
            sys.setprofile(previous)
    capsys.readouterr()
    assert codes == [code for *_, code in INVOCATIONS]
    unreached = _functions() - entered
    assert sorted(unreached - CLI_UNREACHED.keys()) == [], "no CLI path enters these: route them or list them with a reader"
    assert sorted(CLI_UNREACHED.keys() - unreached) == [], "a CLI path enters these now: take them off the list"
