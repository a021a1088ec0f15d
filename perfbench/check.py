"""Correctness gate applied to the CSV of every benchmark invocation.

* Every CSV's config echo must re-parse, through ``cli.parse_echo``, to the
  config the CLI was given.
* ``static-run``: each ``w`` is within rel 1e-6 of the closed form
  ``continuous_jump(transition_weight(h0, P0, P1), K, gap, tau)``, with the
  level projectors and gap taken from the generated matrices.
* ``chain-run`` and ``chain-compare``: every numeric column is finite;
  ``adiabatic``, ``flags`` and ``status`` equal the seed reference
  (``reference.json``); ``w`` is within the row's ``est_error + 1e-6 |w|`` of
  the reference (``compare`` rows carry no ``est_error``, so the reference
  row's is used); ``w_exact`` is within ``8 d exact_tol`` of the reference.
  The oracle stops once two refinements of each propagator differ by less
  than ``exact_tol`` in max norm, so each of its two ``d x d`` unitaries is
  off by at most about ``d exact_tol`` in operator norm, and ``W`` is bilinear
  in each: ``2 * 2 * d * exact_tol`` with a factor 2 of slack.

A point fails when its row is missing or misses any check.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

import workloads

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
STATIC_REL_TOL = 1e-6
W_REL_TOL = 1e-6


def read_rows(text: str) -> list[dict[str, str]]:
    """CSV rows as ``column -> cell`` maps (the CLI never quotes cells)."""
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    if not lines:
        return []
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _finite(row: dict[str, str], text_columns: tuple[str, ...]) -> bool:
    for key, cell in row.items():
        if key in text_columns:
            continue
        try:
            if not math.isfinite(float(cell)):
                return False
        except ValueError:
            return False
    return True


class Gate:
    """Checks the CSVs of one workload; counts attempted and failed points."""

    def __init__(self, workload: workloads.Workload, cli, expected_config):
        self.workload = workload
        self.cli = cli
        self.expected = expected_config
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        if workload.name == "static-run":
            self._check_row = self._static_row
        else:
            with open(REFERENCE_PATH, encoding="utf-8") as fh:
                self.reference = json.load(fh)[workload.name]
            self._check_row = self._chain_row

    def check(self, returncode, text: str | None) -> int:
        """Gate one invocation's output; return how many of its points failed."""
        wl = self.workload
        failed = wl.points
        if returncode != 0:
            self._note(f"CLI returned {returncode!r}")
        elif text is None:
            self._note("no CSV written")
        elif not self._echo_round_trips(text):
            self._note("config echo does not round-trip through parse_echo")
        elif len(rows := read_rows(text)) != wl.points:
            self._note(f"{len(rows)} rows for {wl.points} points")
        else:
            failed = 0
            for value, row in zip(wl.values, rows):
                problem = self._row_problem(value, row)
                if problem:
                    failed += 1
                    self._note(f"point {value!r}: {problem}")
        self.attempted += wl.points
        self.failed += failed
        return failed

    def _echo_round_trips(self, text: str) -> bool:
        try:
            return self.cli.parse_echo(text) == self.expected
        except ValueError:  # ConfigError: the echo does not parse
            return False

    def _note(self, message: str) -> None:
        if len(self.messages) < 20:
            self.messages.append(message)

    def _row_problem(self, value: float, row: dict[str, str]) -> str | None:
        first = next(iter(row.values()))
        try:
            swept = float(first)
        except ValueError:
            return f"swept value {first!r} is not a number"
        if swept != value:
            return f"swept value {swept!r} differs from {value!r}"
        return self._check_row(value, row)

    def _static_row(self, tau: float, row: dict[str, str]) -> str | None:
        from zenojump.jump import continuous_jump, transition_weight

        if not _finite(row, ("adiabatic", "flags")):
            return "non-finite numeric cell"
        m = self.workload.matrices
        v = m["basis"]
        p0 = np.outer(v[:, 0], v[:, 0].conj())
        p1 = np.outer(v[:, 1], v[:, 1].conj())
        gap = float(m["eigenvalues"][1] - m["eigenvalues"][0])
        expected = continuous_jump(
            transition_weight(m["h0"], p0, p1), workloads.STATIC_COUPLING, gap, tau
        )
        w = float(row["w"])
        if abs(w - expected) > STATIC_REL_TOL * abs(expected):
            return f"w {w!r} differs from the closed form {expected!r}"
        return None

    def _chain_row(self, h: float, row: dict[str, str]) -> str | None:
        refs = [r for r in self.reference if r["h"] == h]
        if not refs:
            return f"no reference row for h = {h!r}"
        ref = refs[0]
        if not _finite(row, ("adiabatic", "flags", "status")):
            return "non-finite numeric cell"
        for key in ("adiabatic", "flags", "status"):
            if key in row and row[key] != ref[key]:
                return f"{key} {row[key]!r} differs from the reference {ref[key]!r}"
        if "w" in row:
            w, ref_w, slack = float(row["w"]), ref["w"], float(row["est_error"])
        else:
            w, ref_w, slack = float(row["w_perturbative"]), ref["w_perturbative"], ref["est_error"]
        if abs(w - ref_w) > slack + W_REL_TOL * abs(w):
            return f"w {w!r} differs from the reference {ref_w!r} by more than {slack:.3g}"
        if "w_exact" in row:
            dim = 2 ** int(self.expected.param("n_sites"))
            tol = 8 * dim * self.expected.compare_exact_tol
            if abs(float(row["w_exact"]) - ref["w_exact"]) > tol:
                return f"w_exact {row['w_exact']} differs from the reference {ref['w_exact']!r}"
        return None
