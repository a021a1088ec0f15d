"""The package namespace: one export list per module, re-exported as a whole."""

import dataclasses
import importlib
import pathlib
import re

import zenojump as zj

EXPORTED = {
    "AdiabaticFrame", "adiabaticity_report", "AdiabaticityReport",
    "build_chain_h0", "chain_validity_flags", "check_density",
    "check_hermitian", "check_projector", "compare_jump", "ConfigError",
    "continuous_jump", "cumulative_field_strength", "decay_rate", "decompose", "default_policy",
    "eigh", "exact_propagator", "field_strength", "FrameResidualError",
    "free_flip_probability", "general_jump", "JumpComparison", "JumpResult", "LevelCrossingError",
    "load_config", "matrix_exp_unitary", "max_norm", "MeasurementModel", "NumericalError",
    "NumericPolicy", "parse_config", "PropagatorResult", "pulsed_frame",
    "pulsed_jump", "pulsed_measurement_model", "QuadratureError", "QuadraturePolicy",
    "resolved_text", "ScenarioConfig", "SCENARIOS", "SIGMA_X", "SIGMA_Y", "SIGMA_Z",
    "spectral_overlap", "SpectralDensity", "SpectralOverlap", "spin_chain_frame",
    "spin_chain_model", "SpinChainSpec", "survival_exponential", "survival_power",
    "sweepable_parameters", "SweepSpec", "time_independent_frame",
    "time_independent_model", "TimeDependentOperator", "track_frame", "transition_weight",
    "two_qubit_rotation_jump", "TwoQubitJump", "ValidationError", "zeno_time", "ZenoDecomposition",
    "ZenoJumpError",
}
MODULES = ("policy", "errors", "operators", "decomposition", "propagators", "jump", "compare", "config", "models")


def test_every_exported_name_is_listed_once_and_resolves():
    assert len(zj.__all__) == len(set(zj.__all__))
    for name in zj.__all__:
        assert getattr(zj, name) is not None


def test_the_exported_set_is_the_public_api():
    assert set(zj.__all__) == EXPORTED
    assert not hasattr(zj, "as_square_matrix") and not hasattr(zj, "trace_product")


def test_the_package_exports_each_module_list_in_module_order():
    lists = [importlib.import_module(f"zenojump.{m}").__all__ for m in MODULES]
    assert zj.__all__ == [name for names in lists for name in names]
    for m, names in zip(MODULES, lists):
        module = importlib.import_module(f"zenojump.{m}")
        assert all(getattr(zj, name) is getattr(module, name) for name in names)


def test_every_policy_field_has_a_reader_outside_the_policy_and_config_modules():
    # a field only policy.py and config.py touch is a knob that changes nothing
    package = pathlib.Path(zj.__file__).parent
    sources = "".join(
        path.read_text(encoding="utf-8")
        for path in sorted(package.glob("*.py"))
        if path.name not in ("policy.py", "config.py")
    )
    for policy in (zj.NumericPolicy, zj.QuadraturePolicy):
        for field in dataclasses.fields(policy):
            assert re.search(rf"\.{field.name}\b", sources), f"{policy.__name__}.{field.name} has no reader"


#: the source size cap, in lines over src/zenojump/*.py; lower it as the package shrinks
SOURCE_LINE_CAP = 3533


def test_the_package_source_stays_within_its_line_cap():
    package = pathlib.Path(zj.__file__).parent
    lines = sum(len(path.read_text(encoding="utf-8").splitlines()) for path in package.glob("*.py"))
    assert lines <= SOURCE_LINE_CAP, f"src/zenojump holds {lines} lines, above the cap of {SOURCE_LINE_CAP}"
