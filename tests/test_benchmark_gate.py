"""The benchmark's correctness gate on real CLI output.

Each benchmark workload's seed-1 config (``perfbench/workloads.py``, full
size) runs through ``cli.main`` and its CSV through ``perfbench/check.Gate``,
so a drift of the chain rows past the gate's band fails here, and not only in
a benchmark run.  The perfbench modules are imported, not changed.
"""

from __future__ import annotations

import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, PERFBENCH)

import check  # noqa: E402
import workloads  # noqa: E402

from zenojump import cli  # noqa: E402
from zenojump.config import load_config  # noqa: E402
from zenojump.policy import ENV_VAR, NumericPolicy  # noqa: E402


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_point_of_a_workload_passes_the_benchmark_gate(name, tmp_path, monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)
    wl = workloads.make(name, 1, str(tmp_path))
    path = workloads.write(wl, str(tmp_path))
    gate = check.Gate(wl, cli, load_config(path, NumericPolicy()))
    code = cli.main([wl.command, "--config", path])
    with open(wl.output_path, encoding="utf-8") as fh:
        failed = gate.check(code, fh.read())
    assert (failed, gate.attempted) == (0, wl.points), gate.messages
