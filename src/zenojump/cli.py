"""Command-line front end: scenario runs, oracle comparisons, CSV emission.

Subcommands
    run        evaluate the configured scenario (optionally over a sweep)
    compare    perturbative vs exact-propagator jump probability per point
    decompose  Zeno levels of the scenario's measurement operator at t=0
    info       version, schemas, tolerance defaults, exit codes

Every result file starts with the fully resolved configuration echoed as
``# ``-prefixed lines, followed by a CSV header row and one row per sweep
point.  Floats are written with 17 significant digits and ``\\n`` line
endings, so identical configurations produce byte-identical files for any
``--jobs`` value.

Exit codes: 0 success; 2 configuration error (including an output path that
cannot be written); 3 numerical failure (including a non-finite value in any
output cell, in which case nothing is written); 4 validity-diagnostics failure
under ``--strict``.  ``python -m zenojump`` runs :func:`main` as well.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import dataclasses
import math
import os
import sys

import numpy as np

from . import __version__
from .compare import STATUS_PASS, compare_jump
from .config import (
    SCENARIOS,
    ScenarioConfig,
    load_config,
    parse_config,
    resolved_text,
    sweepable_parameters,
    _SCHEMAS,
)
from .decomposition import decompose
from .errors import ConfigError, NumericalError, ValidationError
from .jump import MeasurementModel, continuous_jump, general_jump, pulsed_jump
from .models import (
    SpinChainSpec,
    chain_validity_flags,
    spin_chain_frame,
    spin_chain_model,
    time_independent_frame,
    time_independent_model,
)
from .policy import ENV_VAR, NumericPolicy

__all__ = [
    "ResultTable",
    "run_scenario",
    "oracle_compare",
    "decompose_levels",
    "parse_echo",
    "main",
    "console_entry",
]

_RUN_COLUMNS = ("w", "est_error", "adiabaticity_ratio", "adiabatic", "flags")
_COMPARE_COLUMNS = (
    "w_perturbative",
    "w_exact",
    "abs_gap",
    "rel_gap",
    "status",
    "adiabaticity_ratio",
    "adiabatic",
)
_DECOMPOSE_COLUMNS = ("level", "eigenvalue", "rank")

_PRIMARY_PARAMETER = {
    "pulsed": "tau",
    "continuous": "coupling",
    "spinchain": "h",
    "custom-matrix": "coupling",
}


@dataclasses.dataclass(frozen=True)
class ResultTable:
    """Rectangular result set plus the configuration that produced it."""

    columns: tuple[str, ...]
    rows: tuple[tuple[object, ...], ...]
    config: ScenarioConfig

    def csv_text(self) -> str:
        out = []
        for line in resolved_text(self.config).splitlines():
            out.append(("# " + line).rstrip() + "\n")
        out.append(",".join(self.columns) + "\n")
        for row in self.rows:
            out.append(",".join(_cell(v) for v in row) + "\n")
        return "".join(out)


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def parse_echo(csv_text: str, base_policy: NumericPolicy | None = None) -> ScenarioConfig:
    """Recover the resolved config from a result file's comment header."""
    lines = []
    for line in csv_text.splitlines():
        if line.startswith("# "):
            lines.append(line[2:])
        elif line == "#":
            lines.append("")
    if not lines:
        raise ConfigError("no config echo found in result text")
    return parse_config("\n".join(lines) + "\n", base_policy)


def _resolve_level(index: int, n_levels: int, key: str) -> int:
    resolved = index if index >= 0 else n_levels + index
    if not (0 <= resolved < n_levels):
        raise ValidationError(
            f"{key} = {index} is outside the {n_levels} decomposed levels"
        )
    return resolved


def _as_matrix(value) -> np.ndarray:
    return np.array(value, dtype=complex)


def _level_state(projector: np.ndarray) -> np.ndarray:
    # maximally mixed state on the level: valid and confined for any rank
    rank = float(np.trace(projector).real)
    return projector / rank


def _chain_spec(cfg: ScenarioConfig, overrides: dict[str, float]) -> SpinChainSpec:
    get = lambda key: overrides.get(key, cfg.param(key))
    return SpinChainSpec(
        n_sites=int(cfg.param("n_sites")),
        couplings=(float(get("lambda1")), float(get("lambda2")), float(get("lambda3"))),
        h=float(get("h")),
        T=float(get("T")),
        boundary=str(cfg.param("boundary")),
    )


def _custom_model(cfg: ScenarioConfig, overrides: dict[str, float]) -> MeasurementModel:
    params = {**dict(cfg.params), **overrides}
    return time_independent_model(
        _as_matrix(params["h0"]),
        _as_matrix(params["h_meas"]),
        float(params["coupling"]),
        float(params["tau"]),
    )


def _frame_setup(cfg: ScenarioConfig, parameter: str, value: float):
    """Model, frame, initial state and level pair for a matrix-backed point."""
    if cfg.scenario == "spinchain":
        spec = _chain_spec(cfg, {parameter: value})
        model = spin_chain_model(spec)
        frame = spin_chain_frame(spec, n_intervals=cfg.intervals, policy=cfg.policy)
        extra = chain_validity_flags(spec.h, spec.T, spec.n_sites)
    elif cfg.scenario == "custom-matrix":
        model = _custom_model(cfg, {parameter: value})
        frame = time_independent_frame(model, cfg.intervals, policy=cfg.policy)
        extra = ()
    else:
        raise ConfigError(
            f"scenario {cfg.scenario!r} has no matrix model; "
            "this operation needs 'spinchain' or 'custom-matrix'"
        )
    n = _resolve_level(int(cfg.param("level_from")), frame.n_levels, "level_from")
    m = _resolve_level(int(cfg.param("level_to")), frame.n_levels, "level_to")
    if n == m:
        raise ValidationError(f"level_from and level_to resolve to the same level {n}")
    if cfg.scenario == "custom-matrix" and dict(cfg.params).get("rho0") is not None:
        rho0 = _as_matrix(cfg.param("rho0"))
    else:
        rho0 = _level_state(frame.initial_projectors()[n])
    return model, frame, rho0, n, m, extra


def _run_point(cfg: ScenarioConfig, parameter: str, value: float) -> tuple:
    params = {**dict(cfg.params), parameter: value}
    if cfg.scenario == "pulsed":
        w = pulsed_jump(
            params["trace_factor"], params["coupling"], params["tau"], params["tau_free"]
        )
        return (value, w, 0.0, 0.0, True, "none")
    if cfg.scenario == "continuous":
        w = continuous_jump(
            params["trace_factor"], params["coupling"], params["delta_eps"], params["tau"]
        )
        return (value, w, 0.0, 0.0, True, "none")
    model, frame, rho0, n, m, extra = _frame_setup(cfg, parameter, value)
    res = general_jump(model, rho0, n, m, frame, quad=cfg.quadrature, policy=cfg.policy)
    flags = ";".join(extra + res.warnings) or "none"
    return (
        value,
        res.value,
        res.est_error,
        res.adiabaticity.ratio,
        res.adiabaticity.adiabatic,
        flags,
    )


def _compare_point(cfg: ScenarioConfig, parameter: str, value: float) -> tuple:
    model, frame, rho0, n, m, _extra = _frame_setup(cfg, parameter, value)
    comp = compare_jump(
        model,
        rho0,
        n,
        m,
        frame,
        bound=cfg.compare_bound,
        transport=cfg.compare_transport,
        exact_tol=cfg.compare_exact_tol,
        quad=cfg.quadrature,
        policy=cfg.policy,
    )
    return (
        value,
        comp.perturbative,
        comp.exact,
        comp.abs_gap,
        comp.rel_gap,
        comp.status,
        comp.adiabaticity.ratio,
        comp.adiabaticity.adiabatic,
    )


def _sweep_axis(cfg: ScenarioConfig) -> tuple[str, list[float]]:
    if cfg.sweep is not None:
        return cfg.sweep.parameter, [float(v) for v in cfg.sweep.values()]
    primary = _PRIMARY_PARAMETER[cfg.scenario]
    return primary, [float(cfg.param(primary))]


def _evaluate(cfg: ScenarioConfig, worker, jobs: int | None) -> tuple[str, tuple]:
    parameter, values = _sweep_axis(cfg)

    def point(value: float) -> tuple:
        try:
            return worker(cfg, parameter, value)
        except NumericalError as exc:
            exc.args = (f"{exc} (at {parameter} = {_cell(value)})",)
            raise

    max_workers = max(1, min(jobs or 1, len(values)))
    if max_workers == 1:
        rows = [point(v) for v in values]
    else:
        # Opt-in only: a point is many small numpy calls that hold the GIL, so
        # threads add contention and memory rather than speed on most machines.
        with concurrent.futures.ThreadPoolExecutor(max_workers=max_workers) as pool:
            rows = list(pool.map(point, values))
    return parameter, tuple(rows)


def run_scenario(cfg: ScenarioConfig, jobs: int | None = None) -> ResultTable:
    """Scenario table: one row per sweep point, columns ``w`` + diagnostics."""
    parameter, rows = _evaluate(cfg, _run_point, jobs)
    return ResultTable(columns=(parameter,) + _RUN_COLUMNS, rows=rows, config=cfg)


def oracle_compare(cfg: ScenarioConfig, jobs: int | None = None) -> ResultTable:
    """Perturbative vs exact-propagator jump probability per sweep point."""
    parameter, rows = _evaluate(cfg, _compare_point, jobs)
    return ResultTable(columns=(parameter,) + _COMPARE_COLUMNS, rows=rows, config=cfg)


def decompose_levels(cfg: ScenarioConfig) -> ResultTable:
    """Zeno levels (eigenvalue, rank) of the measurement operator at t=0."""
    if cfg.scenario == "spinchain":
        model = spin_chain_model(_chain_spec(cfg, {}))
    elif cfg.scenario == "custom-matrix":
        model = _custom_model(cfg, {})
    else:
        raise ConfigError(
            f"scenario {cfg.scenario!r} has no matrix model; "
            "decompose needs 'spinchain' or 'custom-matrix'"
        )
    t0 = model.horizon[0]
    dec = decompose(model.coupling * model.h_meas(t0), policy=cfg.policy)
    rows = tuple(
        (lvl, float(dec.eigenvalues[lvl]), int(dec.ranks[lvl])) for lvl in range(dec.n_levels)
    )
    return ResultTable(columns=_DECOMPOSE_COLUMNS, rows=rows, config=cfg)


def _check_finite(table: ResultTable) -> None:
    """Raise :class:`NumericalError` at the first non-finite float cell."""
    for row in table.rows:
        for column, value in zip(table.columns, row):
            if isinstance(value, (float, np.floating)) and not math.isfinite(value):
                raise NumericalError(
                    f"{table.columns[0]} = {_cell(row[0])}: {column} is not finite "
                    f"({_cell(value)})"
                )


def _write_output(text: str, path: str) -> None:
    if path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from None


def _plot_script(csv_path: str, table: ResultTable) -> str:
    x = table.columns[0]
    lines = [
        "# gnuplot script emitted by zenojump --emit-plot",
        'set datafile separator ","',
        "set key autotitle columnhead",
        f'set xlabel "{x}"',
    ]
    if "w_perturbative" in table.columns:
        lines += [
            'set ylabel "jump probability"',
            f'plot "{csv_path}" using 1:2 with linespoints, \\',
            f'     "{csv_path}" using 1:3 with linespoints',
        ]
    else:
        lines += [
            f'set ylabel "{table.columns[1]}"',
            f'plot "{csv_path}" using 1:2 with linespoints',
        ]
    return "\n".join(lines) + "\n"


def _strict_violations(command: str, table: ResultTable) -> list[str]:
    bad: list[str] = []
    cols = {name: i for i, name in enumerate(table.columns)}
    for row in table.rows:
        point = _cell(row[0])
        if "status" in cols and row[cols["status"]] != STATUS_PASS:
            bad.append(f"{table.columns[0]} = {point}: status {row[cols['status']]}")
            continue
        if "adiabatic" in cols and not row[cols["adiabatic"]]:
            bad.append(f"{table.columns[0]} = {point}: not adiabatic")
            continue
        if "flags" in cols and row[cols["flags"]] != "none":
            bad.append(f"{table.columns[0]} = {point}: {row[cols['flags']]}")
    return bad


def _schema_help() -> str:
    rows = ["scenario keys (defaults in parentheses):"]
    for scenario in SCENARIOS:
        keys = []
        for key, kind, default in _SCHEMAS[scenario]:
            if default is None:
                shown = "optional"
            elif isinstance(default, (int, float, str)):
                shown = repr(default)
            else:
                shown = "required"
            keys.append(f"{key} ({shown})")
        rows.append(f"  [{scenario}] " + ", ".join(keys))
        rows.append(f"    sweepable: {', '.join(sweepable_parameters(scenario))}")
    rows += [
        "",
        "CSV column order:",
        "  run:       <swept parameter>, " + ", ".join(_RUN_COLUMNS),
        "  compare:   <swept parameter>, " + ", ".join(_COMPARE_COLUMNS),
        "  decompose: " + ", ".join(_DECOMPOSE_COLUMNS),
        "",
        "other sections: [sweep] parameter/start/stop/count, [grid] intervals,",
        "  [quadrature] rel_tol/abs_floor, [tolerances] <numeric policy keys>,",
        "  [compare] bound/transport/exact_tol, [output] path ('-' = stdout)",
        "",
        f"environment: {ENV_VAR} overrides numeric tolerances, e.g.",
        f'  {ENV_VAR}="frame_tol=1e-5,adiabatic_margin=0.02"',
        "",
        "exit codes: 0 success, 2 config error (including an output path",
        "  that cannot be written), 3 numerical failure (including a",
        "  non-finite output value), 4 validity diagnostics failed under --strict",
    ]
    return "\n".join(rows)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zenojump",
        description="Jump probabilities between Zeno subspaces of a measured system.",
        epilog=_schema_help(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"zenojump {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "run": "Evaluate the configured scenario over its sweep.",
        "compare": "Check the second-order jump probability against exact propagation.",
        "decompose": "List the Zeno levels of the measurement operator at t=0.",
    }
    for name, desc in descriptions.items():
        sp = sub.add_parser(
            name,
            help=desc,
            description=desc + "\n\n" + _schema_help(),
            formatter_class=argparse.RawDescriptionHelpFormatter,
        )
        sp.add_argument("--config", required=True, metavar="PATH", help="scenario config file")
        sp.add_argument("--out", metavar="PATH", help="output path (overrides [output] path)")
        sp.add_argument(
            "--jobs",
            type=_positive_int,
            default=None,
            metavar="N",
            help="worker threads for sweep points (default: 1, serial; the "
            "per-point work holds the GIL, so more threads rarely help)",
        )
        sp.add_argument(
            "--strict",
            action="store_true",
            help="exit 4 when any row carries a validity diagnostic",
        )
        sp.add_argument(
            "--emit-plot",
            action="store_true",
            help="write a gnuplot script next to the output CSV",
        )
    sub.add_parser("info", help="print schemas, defaults and exit codes")
    return parser


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _info_text() -> str:
    return f"zenojump {__version__}\n\n" + _schema_help() + "\n"


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "info":
        sys.stdout.write(_info_text())
        return 0
    cfg = load_config(args.config, NumericPolicy.from_env())
    out_path = args.out if args.out else cfg.output_path
    if args.out:
        cfg = dataclasses.replace(cfg, output_path=args.out)
    if args.command == "run":
        table = run_scenario(cfg, jobs=args.jobs)
    elif args.command == "compare":
        table = oracle_compare(cfg, jobs=args.jobs)
    else:
        table = decompose_levels(cfg)
    if args.emit_plot and out_path == "-":
        raise ConfigError("--emit-plot needs a file output; set --out or [output] path")
    _check_finite(table)
    _write_output(table.csv_text(), out_path)
    if args.emit_plot:
        root, _ext = os.path.splitext(out_path)
        _write_output(_plot_script(out_path, table), root + ".gp")
    if args.strict:
        violations = _strict_violations(args.command, table)
        if violations:
            for line in violations:
                sys.stderr.write(f"strict: {line}\n")
            return 4
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return _dispatch(args)
    except (ConfigError, ValidationError) as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2
    except NumericalError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 3


def console_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_entry()
