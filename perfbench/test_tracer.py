"""Tests of the benchmark's tracer: wrapped sites, restoration, self time.

Run from the repository root with ``PYTHONPATH=src python3 -m pytest perfbench``.
Each workload runs once on its coarse copy (``workloads.coarse_config``), so
the whole file takes a few seconds.
"""

from __future__ import annotations

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import Span, Tracer, covered, self_times  # noqa: E402

from zenojump import cli  # noqa: E402

#: bindings the CLI calls on every workload
ALWAYS = ("zenojump.cli.load_config", "zenojump.jump.adiabaticity_report",
          "zenojump.decomposition.eigh", "zenojump.cli.ResultTable.csv_text")
#: binding -> workloads that reach it; every other workload must not
SOMETIMES = {
    "zenojump.cli._run_point": ("chain-run", "static-run"),
    "zenojump.cli.general_jump": ("chain-run", "static-run"),
    "zenojump.cli._compare_point": ("chain-compare",),
    "zenojump.cli.compare_jump": ("chain-compare",),
    "zenojump.compare.general_jump": ("chain-compare",),
    "zenojump.compare.exact_propagator": ("chain-compare",),
    "zenojump.propagators.matrix_exp_unitary": ("chain-compare",),
    "zenojump.operators.eigh": ("chain-compare",),
    "zenojump.cli.spin_chain_frame": ("chain-run", "chain-compare"),
    "zenojump.models.track_frame": ("chain-run", "chain-compare"),
    "zenojump.cli.time_independent_frame": ("static-run",),
}


def _traced_run(name: str, tmp_path) -> Tracer:
    wl = workloads.make(name, 1, str(tmp_path))
    path = tmp_path / "coarse.ini"
    path.write_text(workloads.coarse_config(wl.config_text))
    tracer = Tracer()
    tracer.install()
    try:
        code = tracer.call("cli.main", name, cli.main, [wl.command, "--config", str(path)])
    finally:
        tracer.restore()
    assert code == 0
    return tracer


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_wrapped_sites_are_reached_where_predicted(name, tmp_path):
    calls = _traced_run(name, tmp_path).site_calls()
    for site in ALWAYS:
        assert calls[site] > 0, site
    for site, reached_by in SOMETIMES.items():
        assert (calls[site] > 0) == (name in reached_by), (site, calls[site])


def test_layer_counts_match_the_workload_shape(tmp_path):
    tracer = _traced_run("chain-compare", tmp_path)
    m = layers.invocation_metrics(tracer, "chain-compare", workloads.POINTS, 257)
    assert m["propagators.exact_calls"] == 2 * workloads.POINTS
    assert m["models.frame_calls"] == workloads.POINTS
    assert m["decomposition.report_calls"] == workloads.POINTS
    assert m["cli.workers"] >= 1
    # every exponential feeds a product, accepted or not, and each takes one eigh
    assert 0 < m["propagators.steps_accepted"] < m["propagators.expm_calls"]
    assert m["operators.eigh_calls"] > m["propagators.expm_calls"]


def test_restore_puts_every_original_back():
    before = {name: dict(vars(mod)) for name, mod in sys.modules.items()
              if name.startswith("zenojump")}
    csv_text = cli.ResultTable.csv_text
    tracer = Tracer()
    tracer.install()
    assert cli.general_jump is not before["zenojump.cli"]["general_jump"]
    assert cli.ResultTable.csv_text is not csv_text
    tracer.restore()
    for name, attrs in before.items():
        for key, value in attrs.items():
            assert vars(sys.modules[name])[key] is value, f"{name}.{key}"
    assert cli.ResultTable.csv_text is csv_text


def _span(id, parent, start, end, thread=0, leaf_time=0.0):
    s = Span(id, f"s{id}", f"s{id}", "r", thread, parent, start, end)
    s.leaf_time = leaf_time
    return s


def test_self_time_on_a_synthetic_tree():
    spans = [
        _span(0, None, 0.0, 10.0),
        # two worker threads whose spans overlap in [3, 4]
        _span(1, 0, 1.0, 4.0, thread=1, leaf_time=0.5),
        _span(2, 0, 3.0, 6.0, thread=2),
        _span(3, 1, 1.5, 2.0, thread=1),
        _span(4, 2, 5.0, 7.0, thread=2),  # runs past its parent's end
    ]
    got = self_times(spans)
    assert got[0] == pytest.approx(10.0 - 5.0)
    assert got[1] == pytest.approx(3.0 - 0.5 - 0.5)
    assert got[2] == pytest.approx(3.0 - 1.0)
    assert got[3] == pytest.approx(0.5)
    assert got[4] == pytest.approx(2.0)


def test_covered_merges_nested_and_disjoint_intervals():
    assert covered([(0, 2), (1, 3), (5, 6), (5.5, 5.7)], 0, 10) == pytest.approx(4.0)
    assert covered([(-1, 1), (9, 11)], 0, 10) == pytest.approx(2.0)
    assert covered([], 0, 10) == 0.0


def test_nested_leaves_count_once_in_covered_time():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def inner():
        return None

    def outer():
        return wrapped_inner()

    wrapped_inner = tracer._wrap(inner, "leaf.inner", "site.inner", True)
    wrapped_outer = tracer._wrap(outer, "leaf.outer", "site.outer", True)
    tracer.call("root", "r", wrapped_outer)
    (root,) = tracer.spans
    # clock: root 0, outer 1, inner 2..3, outer ends 4, root ends 5
    assert root.leaves == {"site.outer": [1, 3.0], "site.inner": [1, 1.0]}
    assert root.leaf_time == 3.0
    assert self_times([root])[root.id] == pytest.approx(2.0)
