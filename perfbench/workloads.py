"""Seeded inputs for the benchmark workloads.

Each workload is one ``zenojump`` CLI invocation on an INI config that this
module writes.  The seed picks the sweep points (and, for ``static-run``, the
random matrices); the CLI reads only the written config.  Every seed gives
the same amount of work, so timings from different seeds are comparable:

* ``chain-run`` and ``chain-compare`` take two points from fixed grids of
  ``h`` values.  The grids are what ``reference.json`` covers, so every point
  has a seed reference row to be checked against.  The ``chain-compare`` grid
  holds only values where, at the default ``exact_tol``, the oracle accepts
  65536 steps for the full propagator and 32768 for the measurement-only
  one; elsewhere in [12, 24] either count can double or halve with ``h``,
  and the sweep time with it.  This class is the cheaper of the two common
  ones, which keeps a run within the benchmark's time budget.
* ``static-run`` draws a d=16 Hermitian ``h0`` and a measurement with a
  spread, non-degenerate spectrum in a random basis.  The 0 -> 1 gap stays
  in [0.2, 0.3] so that ``K * gap * tau / 2`` stays in (0, pi) over the
  ``tau`` range, and the 0 -> 1 matrix element of ``h0`` has modulus in
  [0.5, 1]: ``W`` is then never close to zero and a relative check is sound.

Usage::

    python3 perfbench/workloads.py --seed 7 --out perfbench/.work
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os

import numpy as np

WORKLOADS = ("chain-run", "static-run", "chain-compare")

#: ``h`` values that ``reference.json`` covers for each chain workload
CHAIN_RUN_H = tuple(9.0 + 0.5 * j for j in range(12))
CHAIN_COMPARE_H = (12.25, 12.5, 15.0, 15.25, 16.0)

#: sweep points per CLI invocation; two keep both default workers busy on a
#: two-core machine
POINTS = 2

STATIC_DIM = 16
STATIC_COUPLING = 10.0
INTERVALS = 2048


@dataclasses.dataclass(frozen=True)
class Workload:
    """One generated CLI invocation and what the correctness gate needs."""

    name: str
    seed: int
    command: str
    config_text: str
    output_path: str
    values: tuple[float, ...]
    #: static-run only: ``h0`` and ``h_meas``, with its eigenvalues and ``basis``
    matrices: dict | None = None

    @property
    def points(self) -> int:
        return len(self.values)


def _pair(rng: np.random.Generator, grid: tuple[float, ...]) -> tuple[float, float]:
    i, j = sorted(rng.choice(len(grid), size=2, replace=False))
    return grid[int(i)], grid[int(j)]


def _matrix_json(m: np.ndarray) -> str:
    return json.dumps([[[float(z.real), float(z.imag)] for z in row] for row in m])


def _haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _static_matrices(rng: np.random.Generator) -> dict:
    d = STATIC_DIM
    gaps = np.concatenate(([rng.uniform(0.2, 0.3)], rng.uniform(0.25, 0.55, d - 2)))
    eigenvalues = np.concatenate(([0.0], np.cumsum(gaps)))
    eigenvalues -= eigenvalues.mean()
    basis = _haar_unitary(rng, d)
    h_meas = (basis * eigenvalues) @ basis.conj().T
    h_meas = (h_meas + h_meas.conj().T) / 2.0

    g = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2.0 * d)
    b = (g + g.conj().T) / 2.0
    b[0, 1] = rng.uniform(0.5, 1.0) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    b[1, 0] = np.conj(b[0, 1])
    h0 = basis @ b @ basis.conj().T
    h0 = (h0 + h0.conj().T) / 2.0
    return {"h0": h0, "h_meas": h_meas, "eigenvalues": eigenvalues, "basis": basis}


def _config(sections: list[tuple[str, list[tuple[str, object]]]]) -> str:
    out = []
    for section, items in sections:
        out.append(f"[{section}]")
        out += [f"{key} = {value}" for key, value in items]
        out.append("")
    return "\n".join(out)


def _sweep_config(scenario, params, parameter, start, stop, count, out) -> str:
    sections = [("scenario", [("type", scenario)]), (scenario, params)]
    if count > 1:
        sections.append(("sweep", [("parameter", parameter), ("start", repr(start)),
                                   ("stop", repr(stop)), ("count", count)]))
    sections += [("grid", [("intervals", INTERVALS)]), ("output", [("path", out)])]
    return _config(sections)


def chain_config(name: str, start: float, stop: float, count: int, out: str) -> str:
    """Config of a chain workload sweeping ``h``; ``count = 1`` runs ``start`` alone."""
    if name == "chain-run":
        params = [("n_sites", 4), ("h", repr(start)), ("level_to", 2)]
    else:
        params = [("n_sites", 2), ("h", repr(start))]
    return _sweep_config("spinchain", params, "h", start, stop, count, out)


def make(name: str, seed: int, workdir: str) -> Workload:
    """Workload ``name`` for ``seed``; its CSV goes to ``workdir``."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    out = os.path.join(workdir, f"{name}-seed{seed}.csv")
    mats = None
    if name == "static-run":
        mats = _static_matrices(rng)
        start, stop = rng.uniform(0.5, 1.0), rng.uniform(1.5, 2.0)
        params = [
            ("h0", _matrix_json(mats["h0"])),
            ("h_meas", _matrix_json(mats["h_meas"])),
            ("coupling", repr(STATIC_COUPLING)),
            ("tau", repr(start)),
            ("level_from", 0),
            ("level_to", 1),
        ]
        text = _sweep_config("custom-matrix", params, "tau", start, stop, POINTS, out)
    else:
        start, stop = _pair(rng, CHAIN_RUN_H if name == "chain-run" else CHAIN_COMPARE_H)
        text = chain_config(name, start, stop, POINTS, out)
    command = "compare" if name == "chain-compare" else "run"
    values = tuple(float(v) for v in np.linspace(start, stop, POINTS))
    return Workload(name, seed, command, text, out, values, mats)


def coarse_config(text: str) -> str:
    """A cheap copy of a workload config: coarse grid, loose tolerances.

    It runs every code path of the workload in a fraction of its time, for
    the warm-up invocation and for the tracer's tests.
    """
    return text.replace(f"intervals = {INTERVALS}", "intervals = 256") + _COARSE_SECTIONS


_COARSE_SECTIONS = """
[quadrature]
rel_tol = 0.01

[tolerances]
frame_tol = 0.01

[compare]
exact_tol = 0.001
"""


def write(workload: Workload, workdir: str) -> str:
    """Write the workload's config into ``workdir``; return its path."""
    os.makedirs(workdir, exist_ok=True)
    path = os.path.join(workdir, f"{workload.name}-seed{workload.seed}.ini")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(workload.config_text)
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Write the seeded workload configs.")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", default=os.path.join("perfbench", ".work"))
    args = parser.parse_args(argv)
    for name in WORKLOADS:
        path = write(make(name, args.seed, args.out), args.out)
        print(f"seed {args.seed}: {name} -> {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
