"""Scenario configuration: flat ``key = value`` text with INI section headers.

A config names one scenario (``pulsed``, ``continuous``, ``spinchain`` or
``custom-matrix``), its numeric parameters, an optional parameter sweep, and
the grid/quadrature/tolerance settings shared by every scenario.  Parsing
materializes every default, so the resolved config echoed into result files
re-parses to an equivalent configuration.

Matrices (``custom-matrix`` scenario) are JSON 2D arrays; a complex entry is
written as a two-element ``[real, imag]`` list.
"""

from __future__ import annotations

import cmath
import configparser
import dataclasses
import io
import json

import numpy as np

from .compare import _TRANSPORTS
from .errors import ConfigError
from .jump import QuadraturePolicy
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


@dataclasses.dataclass(frozen=True)
class SweepSpec:
    """Uniform sweep of one scenario parameter."""

    parameter: str
    start: float
    stop: float
    count: int

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
    rows: list[tuple[complex, ...]] = []
    for row in data:
        entries: list[complex] = []
        for cell in row:
            if isinstance(cell, (int, float)):
                value = complex(cell)
            elif (
                isinstance(cell, list)
                and len(cell) == 2
                and all(isinstance(p, (int, float)) for p in cell)
            ):
                value = complex(cell[0], cell[1])
            else:
                raise _fail(section, key, f"entry {cell!r} is not a number or [re, im] pair")
            if not cmath.isfinite(value):
                raise _fail(section, key, f"entry {cell!r} must be finite")
            entries.append(value)
        rows.append(tuple(entries))
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise _fail(section, key, "matrix must be square")
    return tuple(rows)


def _format_float(x: float) -> str:
    return format(float(x), ".17g")


def _format_matrix(mat: tuple[tuple[complex, ...], ...]) -> str:
    rows = []
    for row in mat:
        cells = []
        for c in row:
            # JSON reads -0 back as the integer 0, so write it as 0 (equal anyway)
            re = c.real + 0.0
            if c.imag == 0.0:
                cells.append(_format_float(re))
            else:
                cells.append(f"[{_format_float(re)}, {_format_float(c.imag)}]")
        rows.append("[" + ", ".join(cells) + "]")
    return "[" + ", ".join(rows) + "]"


def _read_ini(text: str) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(interpolation=None, delimiters=("=",))
    parser.optionxform = str  # keys are case-sensitive (T vs t)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config is not parseable: {exc}") from None
    return parser


def parse_config(text: str, base_policy: NumericPolicy | None = None) -> ScenarioConfig:
    """Parse and validate config text, materializing every default.

    ``base_policy`` seeds the tolerance bundle before [tolerances] overrides
    are applied; pass ``NumericPolicy.from_env()`` to honor the environment.
    """
    parser = _read_ini(text)
    if not parser.has_section("scenario"):
        raise ConfigError("[scenario]: section is required")
    scen_keys = set(parser.options("scenario"))
    if "type" not in scen_keys:
        raise _fail("scenario", "type", "key is required")
    extra = scen_keys - {"type"}
    if extra:
        raise _fail("scenario", sorted(extra)[0], "unknown key")
    scenario = parser.get("scenario", "type").strip()
    if scenario not in _SCHEMAS:
        raise _fail("scenario", "type", f"unknown scenario {scenario!r}; choose from {SCENARIOS}")

    allowed_sections = {
        "scenario", scenario, "sweep", "grid", "quadrature", "tolerances", "compare", "output",
    }
    for section in parser.sections():
        if section not in allowed_sections:
            raise _fail(section, None, f"section not used by scenario {scenario!r}")

    schema = _SCHEMAS[scenario]
    known = {k for k, _, _ in schema}
    if parser.has_section(scenario):
        for key in parser.options(scenario):
            if key not in known:
                raise _fail(scenario, key, "unknown key")
    params: list[tuple[str, object]] = []
    for key, kind, default in schema:
        if parser.has_section(scenario) and parser.has_option(scenario, key):
            raw = parser.get(scenario, key).strip()
            if kind == "float":
                params.append((key, _parse_float(scenario, key, raw)))
            elif kind == "int":
                params.append((key, _parse_int(scenario, key, raw)))
            elif kind == "str":
                params.append((key, raw))
            else:
                params.append((key, _parse_matrix(scenario, key, raw)))
        elif default is _REQUIRED:
            raise _fail(scenario, key, "key is required")
        else:
            params.append((key, default))

    sweep: SweepSpec | None = None
    if parser.has_section("sweep"):
        have = set(parser.options("sweep"))
        need = {"parameter", "start", "stop", "count"}
        for key in sorted(have - need):
            raise _fail("sweep", key, "unknown key")
        for key in sorted(need - have):
            raise _fail("sweep", key, "key is required")
        parameter = parser.get("sweep", "parameter").strip()
        if parameter not in sweepable_parameters(scenario):
            raise _fail(
                "sweep",
                "parameter",
                f"{parameter!r} is not sweepable for {scenario!r}; "
                f"choose from {sweepable_parameters(scenario)}",
            )
        start = _parse_float("sweep", "start", parser.get("sweep", "start"))
        stop = _parse_float("sweep", "stop", parser.get("sweep", "stop"))
        count = _parse_int("sweep", "count", parser.get("sweep", "count"))
        if count < 2:
            raise _fail("sweep", "count", f"need at least 2 points, got {count}")
        if not (start < stop):
            raise _fail("sweep", "start", f"bounds must be ordered, got {start} >= {stop}")
        sweep = SweepSpec(parameter=parameter, start=start, stop=stop, count=count)

    intervals = 2048
    if parser.has_section("grid"):
        for key in parser.options("grid"):
            if key != "intervals":
                raise _fail("grid", key, "unknown key")
        if parser.has_option("grid", "intervals"):
            intervals = _parse_int("grid", "intervals", parser.get("grid", "intervals"))
    if intervals < 8 or intervals % 8 != 0:
        raise _fail("grid", "intervals", f"must be a positive multiple of 8, got {intervals}")

    quad_kwargs = {"rel_tol": 1e-6, "abs_floor": 1e-12}
    if parser.has_section("quadrature"):
        for key in parser.options("quadrature"):
            if key not in quad_kwargs:
                raise _fail("quadrature", key, "unknown key")
            quad_kwargs[key] = _parse_float("quadrature", key, parser.get("quadrature", key))
    if not (quad_kwargs["rel_tol"] > 0):
        raise _fail("quadrature", "rel_tol", "must be positive")
    if quad_kwargs["abs_floor"] < 0:
        raise _fail("quadrature", "abs_floor", "must be non-negative")
    quadrature = QuadraturePolicy(**quad_kwargs)

    policy = default_policy(base_policy)
    if parser.has_section("tolerances"):
        overrides = {}
        fields = NumericPolicy.field_names()
        for key in parser.options("tolerances"):
            if key not in fields:
                raise _fail("tolerances", key, f"unknown tolerance; known: {fields}")
            value = _parse_float("tolerances", key, parser.get("tolerances", key))
            if not (value > 0):
                raise _fail("tolerances", key, f"must be positive, got {value!r}")
            overrides[key] = value
        policy = dataclasses.replace(policy, **overrides)

    compare_bound = 0.1
    compare_transport = "measurement"
    compare_exact_tol = 1e-8
    if parser.has_section("compare"):
        for key in parser.options("compare"):
            if key == "bound":
                compare_bound = _parse_float("compare", key, parser.get("compare", key))
            elif key == "transport":
                compare_transport = parser.get("compare", key).strip()
            elif key == "exact_tol":
                compare_exact_tol = _parse_float("compare", key, parser.get("compare", key))
            else:
                raise _fail("compare", key, "unknown key")
    if not (compare_bound > 0):
        raise _fail("compare", "bound", "must be positive")
    if compare_transport not in _TRANSPORTS:
        raise _fail("compare", "transport", f"choose from {_TRANSPORTS}")
    if not (compare_exact_tol > 0):
        raise _fail("compare", "exact_tol", "must be positive")

    output_path = "-"
    if parser.has_section("output"):
        for key in parser.options("output"):
            if key != "path":
                raise _fail("output", key, "unknown key")
        if parser.has_option("output", "path"):
            output_path = parser.get("output", "path").strip()
    if not output_path:
        raise _fail("output", "path", "must not be empty")

    return ScenarioConfig(
        scenario=scenario,
        params=tuple(params),
        sweep=sweep,
        intervals=intervals,
        quadrature=quadrature,
        policy=policy,
        compare_bound=compare_bound,
        compare_transport=compare_transport,
        compare_exact_tol=compare_exact_tol,
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
    out = io.StringIO()

    def emit(section: str, items: list[tuple[str, str]]):
        out.write(f"[{section}]\n")
        for key, val in items:
            out.write(f"{key} = {val}\n")
        out.write("\n")

    emit("scenario", [("type", cfg.scenario)])
    rows: list[tuple[str, str]] = []
    for (key, kind, _), (_, value) in zip(_SCHEMAS[cfg.scenario], cfg.params):
        if kind == "float":
            rows.append((key, _format_float(value)))
        elif kind == "int":
            rows.append((key, str(value)))
        elif kind == "str":
            rows.append((key, str(value)))
        elif value is not None:
            rows.append((key, _format_matrix(value)))
    emit(cfg.scenario, rows)
    if cfg.sweep is not None:
        emit(
            "sweep",
            [
                ("parameter", cfg.sweep.parameter),
                ("start", _format_float(cfg.sweep.start)),
                ("stop", _format_float(cfg.sweep.stop)),
                ("count", str(cfg.sweep.count)),
            ],
        )
    emit("grid", [("intervals", str(cfg.intervals))])
    emit(
        "quadrature",
        [
            ("rel_tol", _format_float(cfg.quadrature.rel_tol)),
            ("abs_floor", _format_float(cfg.quadrature.abs_floor)),
        ],
    )
    emit(
        "tolerances",
        [(name, _format_float(getattr(cfg.policy, name))) for name in NumericPolicy.field_names()],
    )
    emit(
        "compare",
        [
            ("bound", _format_float(cfg.compare_bound)),
            ("transport", cfg.compare_transport),
            ("exact_tol", _format_float(cfg.compare_exact_tol)),
        ],
    )
    emit("output", [("path", cfg.output_path)])
    return out.getvalue()
