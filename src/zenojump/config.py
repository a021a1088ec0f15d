"""Scenario configuration: flat ``key = value`` text with INI section headers.

A config names one scenario (``pulsed``, ``continuous``, ``spinchain`` or
``custom-matrix``), its numeric parameters, an optional parameter sweep, and
the grid/quadrature/tolerance settings shared by every scenario.  Parsing
materializes every default, so the resolved config echoed into result files
re-parses to an equivalent configuration.

Matrices (``custom-matrix`` scenario) are JSON 2D arrays; a complex entry is
written as a two-element ``[real, imag]`` list.  Every matrix must be finite
and Hermitian within the config's ``hermitian_tol``; an error names its key.
"""

from __future__ import annotations

import cmath
import configparser
import dataclasses
import io
import json

import numpy as np

from .compare import _BOUND, _EXACT_TOL, _TRANSPORT, _TRANSPORTS
from .errors import ConfigError, ValidationError
from .jump import QuadraturePolicy
from .operators import check_hermitian
from .policy import NumericPolicy, default_policy

__all__ = [
    "SweepSpec",
    "ScenarioConfig",
    "SCENARIOS",
    "parse_config",
    "load_config",
    "resolved_text",
    "sweepable_parameters",
]

_REQUIRED = object()

# (key, kind, default); kind "matrix?" marks an optional matrix
_SCHEMAS: dict[str, tuple[tuple[str, str, object], ...]] = {
    "pulsed": (
        ("trace_factor", "float", 1.0),
        ("coupling", "float", 10.0),
        ("tau", "float", 1.0),
        ("tau_free", "float", 0.5),
    ),
    "continuous": (
        ("trace_factor", "float", 1.0),
        ("coupling", "float", 10.0),
        ("delta_eps", "float", 1.0),
        ("tau", "float", 1.0),
    ),
    "spinchain": (
        ("n_sites", "int", 2),
        ("lambda1", "float", 1.0),
        ("lambda2", "float", 2.0),
        ("lambda3", "float", 1.0),
        ("h", "float", 9.0),
        ("T", "float", 1.0),
        ("boundary", "str", "open"),
        ("level_from", "int", 0),
        ("level_to", "int", -1),
    ),
    "custom-matrix": (
        ("h0", "matrix", _REQUIRED),
        ("h_meas", "matrix", _REQUIRED),
        ("coupling", "float", _REQUIRED),
        ("tau", "float", 1.0),
        ("level_from", "int", 0),
        ("level_to", "int", -1),
        ("rho0", "matrix?", None),
    ),
}

SCENARIOS = tuple(_SCHEMAS)

_SCENARIO = (("type", "str", _REQUIRED),)


def _fields_schema(policy) -> tuple[tuple[str, str, object], ...]:
    """Float keys of a policy dataclass, defaulting to ``policy``'s values."""
    return tuple((f.name, "float", getattr(policy, f.name)) for f in dataclasses.fields(policy))


# Sections shared by every scenario; [tolerances] defaults to the base policy.
_SHARED: dict[str, tuple[tuple[str, str, object], ...]] = {
    "sweep": (
        ("parameter", "str", _REQUIRED),
        ("start", "float", _REQUIRED),
        ("stop", "float", _REQUIRED),
        ("count", "int", _REQUIRED),
    ),
    "grid": (("intervals", "int", 2048),),
    "quadrature": _fields_schema(QuadraturePolicy()),
    "tolerances": _fields_schema(NumericPolicy()),
    "compare": (
        ("bound", "float", _BOUND),
        ("transport", "str", _TRANSPORT),
        ("exact_tol", "float", _EXACT_TOL),
    ),
    "output": (("path", "str", "-"),),
}


@dataclasses.dataclass(frozen=True)
class SweepSpec:
    """Uniform sweep of one scenario parameter: ``count >= 2`` points from ``start`` up to ``stop``, a finite span."""

    parameter: str
    start: float
    stop: float
    count: int

    def __post_init__(self):
        if self.count < 2:
            raise ValidationError(f"count: need at least 2 points, got {self.count}")
        if not (self.start < self.stop):
            raise ValidationError(f"start: bounds must be ordered, got {self.start} >= {self.stop}")
        if not np.isfinite(float(self.stop) - float(self.start)):  # Python floats: inf, not a warning
            raise ValidationError(f"stop: span from {self.start} to {self.stop} leaves float range")

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.count)


@dataclasses.dataclass(frozen=True)
class ScenarioConfig:
    """One fully resolved run/compare configuration."""

    scenario: str
    params: tuple[tuple[str, object], ...]
    sweep: SweepSpec | None
    intervals: int
    quadrature: QuadraturePolicy
    policy: NumericPolicy
    compare_bound: float
    compare_transport: str
    compare_exact_tol: float
    output_path: str

    def param(self, key: str):
        for k, v in self.params:
            if k == key:
                return v
        raise KeyError(key)

    def with_param(self, key: str, value) -> "ScenarioConfig":
        if key not in {k for k, _ in self.params}:
            raise KeyError(key)
        new = tuple((k, value if k == key else v) for k, v in self.params)
        return dataclasses.replace(self, params=new)


def sweepable_parameters(scenario: str) -> tuple[str, ...]:
    """Scenario keys a [sweep] section may name (the scalar numeric ones)."""
    return tuple(k for k, kind, _ in _SCHEMAS[scenario] if kind == "float")


def _fail(section: str, key: str | None, msg: str) -> ConfigError:
    where = f"[{section}] {key}" if key else f"[{section}]"
    return ConfigError(f"{where}: {msg}")


def _parse_float(section: str, key: str, raw: str) -> float:
    try:
        val = float(raw)
    except ValueError:
        raise _fail(section, key, f"expected a number, got {raw!r}") from None
    if not np.isfinite(val):
        raise _fail(section, key, f"must be finite, got {raw!r}")
    return val


def _parse_int(section: str, key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise _fail(section, key, f"expected an integer, got {raw!r}") from None


def _parse_matrix(section: str, key: str, raw: str) -> tuple[tuple[complex, ...], ...]:
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise _fail(section, key, f"not valid JSON: {exc}") from None
    if not isinstance(data, list) or not data or not all(isinstance(r, list) for r in data):
        raise _fail(section, key, "expected a JSON 2D array")

    def entry(cell) -> complex:
        pair = cell if isinstance(cell, list) else [cell, 0]
        if len(pair) != 2 or not all(isinstance(p, (int, float)) for p in pair):
            raise _fail(section, key, f"entry {cell!r} is not a number or [re, im] pair")
        try:
            if cmath.isfinite(value := complex(*pair)):
                return value
        except OverflowError:  # a JSON integer beyond float range
            pass
        raise _fail(section, key, f"entry {cell!r} must be finite")

    rows = tuple(tuple(entry(cell) for cell in row) for row in data)
    if any(len(row) != len(rows) for row in rows):
        raise _fail(section, key, "matrix must be square")
    return rows


#: the one spelling of a float in result files: 17 significant digits round-trip
_FLOAT = "%.17g"
_ENTRY = {1: _FLOAT, 2: f"[{_FLOAT}, {_FLOAT}]"}  # a real entry, a [re, im] pair


def _format_float(x: float) -> str:
    return _FLOAT % x


def _format_matrix(mat: tuple[tuple[complex, ...], ...]) -> str:
    """JSON text of a matrix, formatted by one ``%`` over a template of its entries."""
    # JSON reads -0 back as the integer 0, so write it as 0 (equal anyway)
    parts = [[(c.real + 0.0,) if c.imag == 0.0 else (c.real + 0.0, c.imag) for c in row] for row in mat]
    template = ", ".join("[" + ", ".join(_ENTRY[len(e)] for e in row) + "]" for row in parts)
    return f"[{template}]" % tuple(x for row in parts for e in row for x in e)


# kind -> (parse(section, key, raw), format(value))
_KINDS = {
    "float": (_parse_float, _format_float),
    "int": (_parse_int, str),
    "str": (lambda section, key, raw: raw, str),
    "matrix": (_parse_matrix, _format_matrix),
    "matrix?": (_parse_matrix, _format_matrix),
}


def _read_ini(text: str) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(interpolation=None, delimiters=("=",))
    parser.optionxform = str  # keys are case-sensitive (T vs t)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config is not parseable: {exc}") from None
    return parser


def _section(parser, section: str, schema, noun: str = "key") -> dict[str, object]:
    """``key -> value`` of one section: present keys parsed by kind, the others
    defaulted; an unknown or a missing required key raises :class:`ConfigError`."""
    present = dict(parser.items(section)) if parser.has_section(section) else {}
    keys = tuple(key for key, _, _ in schema)
    for key in present:
        if key not in keys:
            raise _fail(section, key, f"unknown {noun}; known: {keys}")
    values: dict[str, object] = {}
    for key, kind, default in schema:
        if key in present:
            values[key] = _KINDS[kind][0](section, key, present[key].strip())
        elif default is _REQUIRED:
            raise _fail(section, key, "key is required")
        else:
            values[key] = default
    return values


def _validated(section: str, cls, values: dict[str, object]):
    """``cls(**values)``, its :class:`ValidationError` reported for ``section``."""
    try:
        return cls(**values)
    except ValidationError as exc:
        raise ConfigError(f"[{section}] {exc}") from None


def parse_config(text: str, base_policy: NumericPolicy | None = None) -> ScenarioConfig:
    """Parse and validate config text, materializing every default.

    ``base_policy`` seeds the [tolerances] defaults; pass
    ``NumericPolicy.from_env()`` to honor the environment.
    """
    parser = _read_ini(text)
    scenario = _section(parser, "scenario", _SCENARIO)["type"]
    if scenario not in _SCHEMAS:
        raise _fail("scenario", "type", f"unknown scenario {scenario!r}; choose from {SCENARIOS}")
    for section in parser.sections():
        if section not in ("scenario", scenario, *_SHARED):
            raise _fail(section, None, f"section not used by scenario {scenario!r}")
    params = _section(parser, scenario, _SCHEMAS[scenario])

    sweep: SweepSpec | None = None
    if parser.has_section("sweep"):
        values = _section(parser, "sweep", _SHARED["sweep"])
        if values["parameter"] not in (names := sweepable_parameters(scenario)):
            raise _fail("sweep", "parameter", f"{values['parameter']!r} is not sweepable for {scenario!r}; choose from {names}")
        sweep = _validated("sweep", SweepSpec, values)

    intervals = _section(parser, "grid", _SHARED["grid"])["intervals"]
    if intervals < 8 or intervals % 8 != 0:
        raise _fail("grid", "intervals", f"must be a positive multiple of 8, got {intervals}")
    quadrature = _validated(
        "quadrature", QuadraturePolicy, _section(parser, "quadrature", _SHARED["quadrature"])
    )
    tolerances = _fields_schema(default_policy(base_policy))
    policy = _validated(
        "tolerances", NumericPolicy, _section(parser, "tolerances", tolerances, "tolerance")
    )
    for key, kind, _ in _SCHEMAS[scenario]:
        if kind.startswith("matrix") and params[key] is not None:
            try:
                with np.errstate(over="ignore"):  # a defect beyond float range is inf, and fails
                    check_hermitian(np.array(params[key]), policy)
            except ValidationError as exc:
                raise _fail(scenario, key, str(exc)) from None
    compare = _section(parser, "compare", _SHARED["compare"])
    if not (compare["bound"] > 0):
        raise _fail("compare", "bound", "must be positive")
    if compare["transport"] not in _TRANSPORTS:
        raise _fail("compare", "transport", f"choose from {_TRANSPORTS}")
    if not (compare["exact_tol"] > 0):
        raise _fail("compare", "exact_tol", "must be positive")
    output_path = _section(parser, "output", _SHARED["output"])["path"]
    if not output_path:
        raise _fail("output", "path", "must not be empty")

    return ScenarioConfig(
        scenario=scenario,
        params=tuple(params.items()),
        sweep=sweep,
        intervals=intervals,
        quadrature=quadrature,
        policy=policy,
        compare_bound=compare["bound"],
        compare_transport=compare["transport"],
        compare_exact_tol=compare["exact_tol"],
        output_path=output_path,
    )


def load_config(path: str, base_policy: NumericPolicy | None = None) -> ScenarioConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from None
    return parse_config(text, base_policy)


def resolved_text(cfg: ScenarioConfig) -> str:
    """Canonical INI text of a resolved config; re-parses to an equal config."""
    schemas = {"scenario": _SCENARIO, cfg.scenario: _SCHEMAS[cfg.scenario], **_SHARED}
    sections = {
        "scenario": {"type": cfg.scenario},
        cfg.scenario: dict(cfg.params),
        "sweep": cfg.sweep and dataclasses.asdict(cfg.sweep),
        "grid": {"intervals": cfg.intervals},
        "quadrature": dataclasses.asdict(cfg.quadrature),
        "tolerances": dataclasses.asdict(cfg.policy),
        "compare": {
            "bound": cfg.compare_bound,
            "transport": cfg.compare_transport,
            "exact_tol": cfg.compare_exact_tol,
        },
        "output": {"path": cfg.output_path},
    }
    out = io.StringIO()
    for section, values in sections.items():
        if values is None:  # no sweep
            continue
        out.write(f"[{section}]\n")
        for key, kind, _ in schemas[section]:
            if values[key] is not None:  # an absent optional matrix
                out.write(f"{key} = {_KINDS[kind][1](values[key])}\n")
        out.write("\n")
    return out.getvalue()
