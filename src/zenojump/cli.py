"""Command-line front end: scenario runs, oracle comparisons, CSV emission.

One parser reads a command (``run``, ``compare``, ``decompose`` or ``info``;
see ``_COMMANDS``) and its options in any order.  ``--config`` is required by
every command but ``info``, which refuses it and ignores the other options.
``--help`` shows the config schema once, as ``info`` prints it.

Every result file starts with the fully resolved configuration echoed as
``# ``-prefixed lines, followed by a CSV header row and one row per sweep
point.  Floats are written with 17 significant digits and ``\\n`` line
endings, so identical configurations produce byte-identical files.  Sweep
points run one after another; ``--jobs N`` is accepted (``N >= 1``) and has
no effect.  A ``spinchain`` sweep does its point-independent work once: a
frame carries no coupling, so the points of one sweep share one frame
whatever ``h * T``; the model is built once per exchange term and ``T``, so
an ``h`` sweep builds it once, and a ``run`` sweep forms the jump kernel once
per frame and model perturbation (see :func:`~zenojump.jump.general_jump`).

Exit codes: 0 success; 2 configuration error (including an output path that
cannot be written); 3 numerical failure (including a non-finite value in any
output cell, in which case nothing is written, and an array too large to
allocate); 4 validity-diagnostics failure under ``--strict``.
``python -m zenojump`` runs :func:`main` as well.
"""

from __future__ import annotations

import argparse
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
    _format_float,
    _REQUIRED,
    _SCHEMAS,
    _SHARED,
)
from .decomposition import decompose
from .errors import ConfigError, NumericalError, ValidationError
from .jump import MeasurementModel, _validity_flags, continuous_jump, general_jump, pulsed_jump
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
    "exact_steps",
    "exact_est_error",
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
        return _format_float(value)
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


def _level_state(basis: np.ndarray) -> np.ndarray:
    # maximally mixed state on the level spanned by basis: valid and confined for any rank
    return basis @ basis.conj().T / basis.shape[1]


def _model(
    cfg: ScenarioConfig, command: str, shared: dict | None = None
) -> tuple[MeasurementModel, SpinChainSpec | None]:
    """The matrix model of a sweep point's config, with its chain spec (``None`` off the chain).

    ``shared`` carries the chain model between the points of one sweep, keyed
    by the spec without ``h``: a point takes it at its own coupling ``h * T``.
    """
    get = lambda key: float(cfg.param(key))
    if cfg.scenario == "spinchain":
        spec = SpinChainSpec(
            n_sites=int(cfg.param("n_sites")),
            couplings=(get("lambda1"), get("lambda2"), get("lambda3")),
            h=get("h"),
            T=get("T"),
            boundary=str(cfg.param("boundary")),
        )
        if shared is None:
            return spin_chain_model(spec), spec
        key = ("model", spec.n_sites, spec.couplings, spec.T, spec.boundary)
        if key not in shared:
            shared[key] = spin_chain_model(spec)
        return dataclasses.replace(shared[key], coupling=spec.h * spec.T), spec
    if cfg.scenario == "custom-matrix":
        h0, h_meas = (_as_matrix(cfg.param(key)) for key in ("h0", "h_meas"))
        return time_independent_model(h0, h_meas, get("coupling"), get("tau")), None
    raise ConfigError(
        f"scenario {cfg.scenario!r} has no matrix model; "
        f"{command} needs 'spinchain' or 'custom-matrix'"
    )


def _frame_setup(cfg: ScenarioConfig, shared: dict | None = None):
    """Model, frame, initial state and level pair for a matrix-backed point.

    ``shared`` carries the chain model and frame between the points of one
    sweep (see :func:`_model` and :func:`spin_chain_frame`).  ``run`` answers
    the other scenarios in closed form, so only ``compare`` meets them here.
    """
    model, spec = _model(cfg, "compare", shared)
    if spec is not None:
        frame = spin_chain_frame(spec, n_intervals=cfg.intervals, policy=cfg.policy, shared=shared)
        extra = chain_validity_flags(spec.h, spec.T, spec.n_sites)
    else:
        frame = time_independent_frame(model, cfg.intervals, policy=cfg.policy)
        extra = ()
    n = _resolve_level(int(cfg.param("level_from")), frame.n_levels, "level_from")
    m = _resolve_level(int(cfg.param("level_to")), frame.n_levels, "level_to")
    if n == m:
        raise ValidationError(f"level_from and level_to resolve to the same level {n}")
    if cfg.scenario == "custom-matrix" and cfg.param("rho0") is not None:
        rho0 = _as_matrix(cfg.param("rho0"))
    else:
        rho0 = _level_state(frame.level_basis(n))
    return model, frame, rho0, n, m, extra


def _run_point(cfg: ScenarioConfig, shared: dict) -> tuple:
    """The ``run`` columns of the sweep point ``cfg``."""
    get = cfg.param
    if cfg.scenario == "pulsed":
        w = pulsed_jump(get("trace_factor"), get("coupling"), get("tau"), get("tau_free"))
    elif cfg.scenario == "continuous":
        w = continuous_jump(get("trace_factor"), get("coupling"), get("delta_eps"), get("tau"))
    else:
        model, frame, rho0, n, m, extra = _frame_setup(cfg, shared)
        # a chain sweep shares its frame, so its points can share the kernel too
        kernels = shared if cfg.scenario == "spinchain" else None
        res = general_jump(model, rho0, n, m, frame, quad=cfg.quadrature, policy=cfg.policy, shared=kernels)
        flags = ";".join(extra + res.warnings) or "none"
        return (res.value, res.est_error, res.adiabaticity.ratio, res.adiabaticity.adiabatic, flags)
    return (w, 0.0, 0.0, True, ";".join(_validity_flags(w)) or "none")


def _compare_point(cfg: ScenarioConfig, shared: dict) -> tuple:
    """The ``compare`` columns of the sweep point ``cfg``."""
    model, frame, rho0, n, m, _extra = _frame_setup(cfg, shared)
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
        shared=shared if cfg.scenario == "spinchain" else None,
    )
    return (
        comp.perturbative,
        comp.exact,
        comp.abs_gap,
        comp.rel_gap,
        comp.status,
        comp.adiabaticity.ratio,
        comp.adiabaticity.adiabatic,
        comp.exact_steps,
        comp.exact_est_error,
    )


def _sweep_axis(cfg: ScenarioConfig) -> tuple[str, list[float]]:
    if cfg.sweep is not None:
        return cfg.sweep.parameter, [float(v) for v in cfg.sweep.values()]
    primary = _PRIMARY_PARAMETER[cfg.scenario]
    return primary, [float(cfg.param(primary))]


def _evaluate(cfg: ScenarioConfig, worker) -> tuple[str, tuple]:
    parameter, values = _sweep_axis(cfg)
    shared: dict = {}  # what the sweep's points share; dropped with the sweep
    rows = []
    for value in values:
        try:
            rows.append((value, *worker(cfg.with_param(parameter, value), shared)))
        except NumericalError as exc:
            exc.args = (f"{exc} (at {parameter} = {_cell(value)})",)
            raise
    return parameter, tuple(rows)


def run_scenario(cfg: ScenarioConfig) -> ResultTable:
    """Scenario table: one row per sweep point, columns ``w`` + diagnostics."""
    parameter, rows = _evaluate(cfg, _run_point)
    return ResultTable(columns=(parameter,) + _RUN_COLUMNS, rows=rows, config=cfg)


def oracle_compare(cfg: ScenarioConfig) -> ResultTable:
    """Perturbative vs exact-propagator jump probability per sweep point."""
    parameter, rows = _evaluate(cfg, _compare_point)
    return ResultTable(columns=(parameter,) + _COMPARE_COLUMNS, rows=rows, config=cfg)


def decompose_levels(cfg: ScenarioConfig) -> ResultTable:
    """Zeno levels (eigenvalue, rank) of the measurement operator at t=0."""
    model = _model(cfg, "decompose")[0]
    with np.errstate(over="ignore"):  # an overflow raises below, by name
        scaled = model.coupling * model.h_meas(model.horizon[0])
    if not np.isfinite(scaled).all():
        raise NumericalError(f"coupling * h_meas leaves float range at coupling = {_cell(model.coupling)}")
    dec = decompose(scaled, policy=cfg.policy)
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


def _strict_violations(table: ResultTable) -> list[str]:
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


def _keys_help(schema) -> str:
    shown = {None: "optional", _REQUIRED: "required"}
    return ", ".join(f"{key} ({shown.get(default) or repr(default)})" for key, _, default in schema)


def _schema_help() -> str:
    rows = ["scenario keys (defaults in parentheses):"]
    for scenario in SCENARIOS:
        rows.append(f"  [{scenario}] " + _keys_help(_SCHEMAS[scenario]))
        rows.append(f"    sweepable: {', '.join(sweepable_parameters(scenario))}")
    rows += [
        "",
        "CSV column order:",
        "  run:       <swept parameter>, " + ", ".join(_RUN_COLUMNS),
        "  compare:   <swept parameter>, " + ", ".join(_COMPARE_COLUMNS),
        "  decompose: " + ", ".join(_DECOMPOSE_COLUMNS),
        "",
        "other sections (defaults in parentheses; [output] path '-' = stdout):",
    ]
    rows += [f"  [{section}] " + _keys_help(schema) for section, schema in _SHARED.items()]
    rows += [
        "",
        f"environment: {ENV_VAR} overrides numeric tolerances, e.g.",
        f'  {ENV_VAR}="frame_tol=1e-5,adiabatic_margin=0.02"',
        "",
        "exit codes: 0 success, 2 config error (including an output path that cannot",
        "  be written), 3 numerical failure (including a non-finite output value or an",
        "  array too large to allocate), 4 validity diagnostics failed under --strict",
    ]
    return "\n".join(rows)


# command -> (the table it writes, its help line); info prints the help's epilog
_COMMANDS = {
    "run": (run_scenario, "evaluate the configured scenario over its sweep"),
    "compare": (oracle_compare, "check the second-order jump probability against exact propagation"),
    "decompose": (decompose_levels, "list the Zeno levels of the measurement operator at t=0"),
    "info": (None, "print schemas, defaults and exit codes (takes no --config)"),
}


def _build_parser() -> argparse.ArgumentParser:
    """The one parser: options may come before or after the command."""
    commands = "".join(f"\n  {name:<10} {desc}" for name, (_, desc) in _COMMANDS.items())
    parser = argparse.ArgumentParser(
        prog="zenojump",
        description="Jump probabilities between Zeno subspaces of a measured system.\n\ncommands:"
        + commands,
        epilog=_schema_help(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"zenojump {__version__}")
    parser.add_argument("command", choices=tuple(_COMMANDS), metavar="COMMAND", help="one of the above")
    parser.add_argument("--config", metavar="PATH", help="scenario config file")
    parser.add_argument("--out", metavar="PATH", help="output path (overrides [output] path)")
    parser.add_argument(
        "--jobs",
        type=int,
        metavar="N",
        help="accepted (N >= 1) and ignored: sweep points always run one after another",
    )
    parser.add_argument(
        "--strict", action="store_true", help="exit 4 when any row carries a validity diagnostic"
    )
    parser.add_argument(
        "--emit-plot", action="store_true", help="write a gnuplot script next to the output CSV"
    )
    return parser


def _dispatch(args: argparse.Namespace) -> int:
    cfg = load_config(args.config, NumericPolicy.from_env())
    if args.out:
        cfg = dataclasses.replace(cfg, output_path=args.out)
    out_path = cfg.output_path
    plot_path = os.path.splitext(out_path)[0] + ".gp"
    if args.emit_plot and out_path == "-":
        raise ConfigError("--emit-plot needs a file output; set --out or [output] path")
    if args.emit_plot and plot_path == out_path:
        raise ConfigError(f"--emit-plot would write its script over the output {out_path}; name it other than *.gp")
    table = _COMMANDS[args.command][0](cfg)
    _check_finite(table)
    _write_output(table.csv_text(), out_path)
    if args.emit_plot:
        _write_output(_plot_script(out_path, table), plot_path)
    if args.strict:
        violations = _strict_violations(table)
        if violations:
            for line in violations:
                sys.stderr.write(f"strict: {line}\n")
            return 4
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if (args.config is None) != (args.command == "info"):
            parser.error("--config is required by run, compare and decompose, and refused by info")
        if args.jobs is not None and args.jobs < 1:
            parser.error(f"argument --jobs: must be >= 1, got {args.jobs}")
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    if args.command == "info":
        sys.stdout.write(f"zenojump {__version__}\n\n{parser.epilog}\n")
        return 0
    try:
        return _dispatch(args)
    except (ConfigError, ValidationError) as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2
    except NumericalError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 3
    except MemoryError as exc:  # numpy refuses an array too large to allocate
        sys.stderr.write(f"numerical failure: out of memory: {exc}\n")
        return 3


def console_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_entry()
