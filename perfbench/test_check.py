"""Tests of the benchmark's correctness gate on hand-made CSVs.

The CSVs are built with ``cli.ResultTable`` from the workload's own config,
so the echo is genuine; only the rows are chosen.  No sweep runs.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import check  # noqa: E402
import numpy as np  # noqa: E402
import workloads  # noqa: E402

from zenojump import cli  # noqa: E402
from zenojump.config import parse_config  # noqa: E402
from zenojump.jump import continuous_jump, transition_weight  # noqa: E402


def _gate(name: str, tmp_path):
    wl = workloads.make(name, 3, str(tmp_path))
    return wl, check.Gate(wl, cli, parse_config(wl.config_text))


def _csv(gate, columns, rows) -> str:
    return cli.ResultTable(columns=tuple(columns), rows=tuple(rows), config=gate.expected).csv_text()


def _chain_rows(wl, gate, **change):
    rows = []
    for h in wl.values:
        ref = dict(next(r for r in gate.reference if r["h"] == h))
        ref.update(change)
        rows.append((h, ref["w"], ref["est_error"], ref["adiabaticity_ratio"],
                     ref["adiabatic"], ref["flags"]))
    return ("h", "w", "est_error", "adiabaticity_ratio", "adiabatic", "flags"), rows


def test_chain_rows_equal_to_the_reference_pass(tmp_path):
    wl, gate = _gate("chain-run", tmp_path)
    assert gate.check(0, _csv(gate, *_chain_rows(wl, gate))) == 0
    assert (gate.attempted, gate.failed) == (wl.points, 0)


def test_chain_rows_that_differ_from_the_reference_fail(tmp_path):
    wl, gate = _gate("chain-run", tmp_path)
    assert gate.check(0, _csv(gate, *_chain_rows(wl, gate, flags="rotation too fast"))) == 2
    assert gate.check(0, _csv(gate, *_chain_rows(wl, gate, w=1.0))) == 2
    assert gate.check(0, _csv(gate, *_chain_rows(wl, gate, adiabaticity_ratio=float("nan")))) == 2
    assert (gate.attempted, gate.failed) == (3 * wl.points, 6)


def test_missing_rows_bad_echo_and_exit_codes_fail_every_point(tmp_path):
    wl, gate = _gate("chain-run", tmp_path)
    columns, rows = _chain_rows(wl, gate)
    text = _csv(gate, columns, rows)
    assert gate.check(3, text) == wl.points
    assert gate.check(0, None) == wl.points
    assert gate.check(0, _csv(gate, columns, rows[:1])) == wl.points
    assert gate.check(0, text.replace("n_sites = 4", "n_sites = 3")) == wl.points
    assert gate.check(0, text.replace("[scenario]", "[nonsense]")) == wl.points


def test_static_rows_are_checked_against_the_closed_form(tmp_path):
    wl, gate = _gate("static-run", tmp_path)
    m = wl.matrices
    v = m["basis"]
    weight = transition_weight(m["h0"], np.outer(v[:, 0], v[:, 0].conj()),
                               np.outer(v[:, 1], v[:, 1].conj()))
    gap = m["eigenvalues"][1] - m["eigenvalues"][0]
    w = [continuous_jump(weight, workloads.STATIC_COUPLING, gap, tau) for tau in wl.values]
    columns = ("tau", "w", "est_error", "adiabaticity_ratio", "adiabatic", "flags")

    def rows(scale):
        return [(tau, x * scale, 0.0, 0.0, True, "none") for tau, x in zip(wl.values, w)]

    assert gate.check(0, _csv(gate, columns, rows(1 + 1e-9))) == 0
    assert gate.check(0, _csv(gate, columns, rows(1 + 1e-5))) == wl.points
