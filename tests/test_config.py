"""Unit tests for config parsing, validation and canonical echo."""

import inspect
import json

import pytest
from hypothesis import example, given, settings, strategies as st

import zenojump as zj
from zenojump.config import _REQUIRED, _SCHEMAS


MINIMAL = """
[scenario]
type = pulsed
"""

SPINCHAIN_SWEEP = """
[scenario]
type = spinchain

[spinchain]
h = 9
T = 1

[sweep]
parameter = h
start = 5
stop = 15
count = 3

[grid]
intervals = 1024

[compare]
bound = 0.2
transport = instantaneous
"""

CUSTOM = """
[scenario]
type = custom-matrix

[custom-matrix]
h0 = [[0, [0, -1]], [[0, 1], 0]]
h_meas = [[1, 0], [0, -1]]
coupling = 5
"""


def test_defaults_materialize():
    cfg = zj.parse_config(MINIMAL)
    assert cfg.scenario == "pulsed"
    assert cfg.param("trace_factor") == 1.0
    assert cfg.param("coupling") == 10.0
    assert cfg.param("tau") == 1.0
    assert cfg.param("tau_free") == 0.5
    assert cfg.sweep is None
    assert cfg.intervals == 2048
    assert cfg.quadrature == zj.QuadraturePolicy()
    assert cfg.compare_bound == 0.1
    assert cfg.compare_transport == "measurement"
    assert cfg.output_path == "-"
    # the [compare] defaults are the Python API's keyword defaults
    compare = inspect.signature(zj.compare_jump).parameters
    exact = inspect.signature(zj.exact_jump).parameters
    assert cfg.compare_bound == compare["bound"].default
    assert cfg.compare_transport == compare["transport"].default == exact["transport"].default
    assert cfg.compare_exact_tol == compare["exact_tol"].default == exact["tol"].default


def test_sweep_parsing():
    cfg = zj.parse_config(SPINCHAIN_SWEEP)
    assert cfg.sweep is not None
    assert cfg.sweep.parameter == "h"
    assert list(cfg.sweep.values()) == [5.0, 10.0, 15.0]
    assert cfg.intervals == 1024
    assert cfg.compare_bound == 0.2
    assert cfg.compare_transport == "instantaneous"
    assert cfg.param("n_sites") == 2
    assert cfg.param("boundary") == "open"
    assert cfg.param("level_to") == -1


def test_custom_matrix_parsing():
    cfg = zj.parse_config(CUSTOM)
    h0 = cfg.param("h0")
    assert h0 == ((0j, -1j), (1j, 0j))
    assert cfg.param("h_meas") == (((1 + 0j), 0j), (0j, (-1 + 0j)))
    assert cfg.param("rho0") is None


def test_param_accessors():
    cfg = zj.parse_config(MINIMAL)
    with pytest.raises(KeyError):
        cfg.param("no_such")
    bumped = cfg.with_param("tau", 2.0)
    assert bumped.param("tau") == 2.0
    assert cfg.param("tau") == 1.0
    with pytest.raises(KeyError):
        cfg.with_param("no_such", 1.0)


def test_sweepable_parameters():
    assert "tau" in zj.sweepable_parameters("pulsed")
    assert "h" in zj.sweepable_parameters("spinchain")
    assert "n_sites" not in zj.sweepable_parameters("spinchain")
    assert "boundary" not in zj.sweepable_parameters("spinchain")


@pytest.mark.parametrize(
    "text,needle",
    [
        ("", "[scenario]"),
        ("[scenario]\nname = pulsed\n", "type"),
        ("[scenario]\ntype = magic\n", "unknown scenario"),
        ("[scenario]\ntype = pulsed\n[continuous]\ntau = 1\n", "[continuous]"),
        ("[scenario]\ntype = pulsed\n[pulsed]\nomega = 3\n", "[pulsed] omega"),
        ("[scenario]\ntype = pulsed\n[pulsed]\ntau = fast\n", "[pulsed] tau"),
        ("[scenario]\ntype = pulsed\n[pulsed]\ntau = inf\n", "finite"),
        ("[scenario]\ntype = spinchain\n[spinchain]\nn_sites = 2.5\n", "integer"),
        ("[scenario]\ntype = custom-matrix\n", "[custom-matrix] h0"),
        (CUSTOM.replace("[[1, 0], [0, -1]]", "[[1, 0]]"), "square"),
        (CUSTOM.replace("[[1, 0], [0, -1]]", "[[1, \"x\"], [0, -1]]"), "pair"),
        (CUSTOM.replace("[[1, 0], [0, -1]]", "not json"), "JSON"),
        (CUSTOM.replace("[[1, 0], [0, -1]]", "[[0, NaN], [NaN, 0]]"), "must be finite"),
        (CUSTOM.replace("[[1, 0], [0, -1]]", "[[1, [0, Infinity]], [0, -1]]"), "must be finite"),
        ("[scenario]\ntype = pulsed\n[sweep]\nparameter = tau\n", "key is required"),
        (
            "[scenario]\ntype = pulsed\n[sweep]\nparameter = omega\nstart = 0\nstop = 1\ncount = 3\n",
            "not sweepable",
        ),
        (
            "[scenario]\ntype = pulsed\n[sweep]\nparameter = tau\nstart = 0\nstop = 1\ncount = 1\n",
            "at least 2",
        ),
        (
            "[scenario]\ntype = pulsed\n[sweep]\nparameter = tau\nstart = 2\nstop = 1\ncount = 3\n",
            "ordered",
        ),
        ("[scenario]\ntype = pulsed\n[grid]\nintervals = 100\n", "multiple of 8"),
        ("[scenario]\ntype = pulsed\n[grid]\nnodes = 100\n", "unknown key"),
        ("[scenario]\ntype = pulsed\n[quadrature]\nrel_tol = 0\n", "positive"),
        ("[scenario]\ntype = pulsed\n[quadrature]\nabs_floor = -1\n", "non-negative"),
        ("[scenario]\ntype = pulsed\n[tolerances]\nmagic_tol = 1\n", "unknown tolerance"),
        ("[scenario]\ntype = pulsed\n[compare]\nbound = -0.5\n", "positive"),
        ("[scenario]\ntype = pulsed\n[compare]\ntransport = sideways\n", "choose from"),
        ("[scenario]\ntype = pulsed\n[output]\npath =\n", "empty"),
        ("not an ini file", "not parseable"),
    ],
)
def test_rejects_bad_config(text, needle):
    with pytest.raises(zj.ConfigError) as exc:
        zj.parse_config(text)
    assert needle in str(exc.value)


def test_integer_matrix_entry_beyond_float_range_is_rejected():
    huge = "1" + "0" * 400  # JSON reads an integer, which complex() cannot convert
    for matrix in (f"[[{huge}, 0], [0, -1]]", f"[[1, [0, {huge}]], [0, -1]]"):
        with pytest.raises(zj.ConfigError, match=r"\[custom-matrix\] h_meas: entry .* must be finite"):
            zj.parse_config(CUSTOM.replace("[[1, 0], [0, -1]]", matrix))


def test_tolerances_override_policy():
    text = MINIMAL + "\n[tolerances]\nframe_tol = 1e-4\n"
    cfg = zj.parse_config(text)
    assert cfg.policy.frame_tol == 1e-4
    assert cfg.policy.unitary_tol == zj.NumericPolicy().unitary_tol
    # Base policy seeds the bundle before file overrides.
    seeded = zj.parse_config(MINIMAL, base_policy=zj.NumericPolicy(psd_tol=1e-5))
    assert seeded.policy.psd_tol == 1e-5


def test_config_error_is_a_value_error():
    with pytest.raises(ValueError):
        zj.parse_config("[scenario]\ntype = magic\n")


def test_resolved_text_round_trips():
    for text in (MINIMAL, SPINCHAIN_SWEEP, CUSTOM):
        cfg = zj.parse_config(text)
        echoed = zj.resolved_text(cfg)
        assert zj.parse_config(echoed) == cfg
        # The echo also survives a second round unchanged (canonical form).
        assert zj.resolved_text(zj.parse_config(echoed)) == echoed


# The echo heads every result file, so its exact text is pinned here.
SPINCHAIN_SWEEP_ECHO = """\
[scenario]
type = spinchain

[spinchain]
n_sites = 2
lambda1 = 1
lambda2 = 2
lambda3 = 1
h = 9
T = 1
boundary = open
level_from = 0
level_to = -1

[sweep]
parameter = h
start = 5
stop = 15
count = 3

[grid]
intervals = 1024

[quadrature]
rel_tol = 9.9999999999999995e-07
abs_floor = 9.9999999999999998e-13

[tolerances]
hermitian_tol = 1e-10
unitary_tol = 1e-08
projector_tol = 1e-10
rank_tol = 1e-08
trace_tol = 1e-10
psd_tol = 1e-10
completeness_tol = 1.0000000000000001e-09
orthogonality_tol = 1.0000000000000001e-09
frame_tol = 9.9999999999999995e-07
degeneracy_rel = 1e-08
adiabatic_margin = 0.01
qze_margin = 10
imag_residual_tol = 9.9999999999999995e-07

[compare]
bound = 0.20000000000000001
transport = instantaneous
exact_tol = 1e-08

[output]
path = -

"""

CUSTOM_ECHO = """\
[scenario]
type = custom-matrix

[custom-matrix]
h0 = [[0, [0, -1]], [[0, 1], 0]]
h_meas = [[1, 0], [0, -1]]
coupling = 5
tau = 1
level_from = 0
level_to = -1

[grid]
intervals = 2048

[quadrature]
rel_tol = 9.9999999999999995e-07
abs_floor = 9.9999999999999998e-13

[tolerances]
hermitian_tol = 1e-10
unitary_tol = 1e-08
projector_tol = 1e-10
rank_tol = 1e-08
trace_tol = 1e-10
psd_tol = 1e-10
completeness_tol = 1.0000000000000001e-09
orthogonality_tol = 1.0000000000000001e-09
frame_tol = 9.9999999999999995e-07
degeneracy_rel = 1e-08
adiabatic_margin = 0.01
qze_margin = 10
imag_residual_tol = 9.9999999999999995e-07

[compare]
bound = 0.10000000000000001
transport = measurement
exact_tol = 1e-08

[output]
path = -

"""


def test_resolved_text_is_the_pinned_echo():
    assert zj.resolved_text(zj.parse_config(SPINCHAIN_SWEEP)) == SPINCHAIN_SWEEP_ECHO
    assert zj.resolved_text(zj.parse_config(CUSTOM)) == CUSTOM_ECHO


def test_load_config(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(MINIMAL, encoding="utf-8")
    assert zj.load_config(str(path)) == zj.parse_config(MINIMAL)
    with pytest.raises(zj.ConfigError, match="cannot read"):
        zj.load_config(str(tmp_path / "missing.ini"))


# --- properties ----------------------------------------------------------------

FINITE = st.floats(allow_nan=False, allow_infinity=False)
POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
WORD = st.from_regex(r"[A-Za-z0-9_.-]{1,12}", fullmatch=True)


@st.composite
def config_texts(draw):
    """Valid config text over every scenario, section and key kind."""
    scenario = draw(st.sampled_from(zj.SCENARIOS))
    dim = draw(st.integers(1, 3))
    cell = st.one_of(FINITE, st.lists(FINITE, min_size=2, max_size=2))
    values = {
        "float": FINITE.map(repr),
        "int": st.integers(-5, 10).map(str),
        "str": WORD,
        "matrix": st.lists(st.lists(cell, min_size=dim, max_size=dim), min_size=dim, max_size=dim)
        .map(json.dumps),
    }
    lines = ["[scenario]", f"type = {scenario}", f"[{scenario}]"]
    for key, kind, default in _SCHEMAS[scenario]:
        if default is _REQUIRED or draw(st.booleans()):
            lines.append(f"{key} = {draw(values[kind.rstrip('?')])}")
    if draw(st.booleans()):
        start, stop = sorted(draw(st.lists(FINITE, min_size=2, max_size=2, unique=True)))
        parameter = draw(st.sampled_from(zj.sweepable_parameters(scenario)))
        count = draw(st.integers(2, 50))
        lines += ["[sweep]", f"parameter = {parameter}", f"start = {start!r}",
                  f"stop = {stop!r}", f"count = {count}"]
    lines += ["[grid]", f"intervals = {8 * draw(st.integers(1, 512))}"]
    lines += ["[quadrature]", f"rel_tol = {draw(POSITIVE)!r}",
              f"abs_floor = {draw(st.floats(min_value=0.0, allow_infinity=False))!r}"]
    lines.append("[tolerances]")
    for key in draw(st.lists(st.sampled_from(zj.NumericPolicy.field_names()), unique=True)):
        lines.append(f"{key} = {draw(POSITIVE)!r}")
    lines += ["[compare]", f"bound = {draw(POSITIVE)!r}",
              f"transport = {draw(st.sampled_from(['measurement', 'instantaneous']))}",
              f"exact_tol = {draw(POSITIVE)!r}"]
    lines += ["[output]", f"path = {draw(WORD)}"]
    return "\n".join(lines) + "\n"


@settings(max_examples=100, deadline=None)
@given(config_texts())
@example(CUSTOM.replace("h_meas = [[1, 0], [0, -1]]", "h_meas = [[-0.0, 1], [1, [-0.0, 1]]]"))
def test_resolved_text_round_trips_any_valid_config(text):
    cfg = zj.parse_config(text)
    echoed = zj.resolved_text(cfg)
    assert zj.parse_config(echoed) == cfg
    assert zj.resolved_text(zj.parse_config(echoed)) == echoed


@settings(max_examples=100, deadline=None)
@given(
    key=st.sampled_from(zj.NumericPolicy.field_names()),
    raw=st.one_of(st.floats(max_value=0.0).map(repr), st.sampled_from(["nan", "inf", "-inf"])),
)
def test_non_finite_or_non_positive_tolerance_is_rejected(key, raw):
    with pytest.raises(zj.ConfigError, match=f"\\[tolerances\\] {key}: must be"):
        zj.parse_config(MINIMAL + f"\n[tolerances]\n{key} = {raw}\n")
    with pytest.raises(zj.ConfigError, match=f"'{key}'"):
        zj.NumericPolicy.from_string(f"{key}={raw}")
