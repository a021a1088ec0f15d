"""Per-layer metrics of one traced CLI invocation, read off its spans.

Every value is for one invocation (one sweep of ``workloads.POINTS``
points); ``run.py`` reports the median over the traced invocations of a run.
Counts repeat exactly from run to run; times do not.
"""

from __future__ import annotations

from tracer import Span, Tracer, self_times

#: (metric, unit), in the order ``BENCHMARK.json`` lists them
METRICS = (
    ("config.load_s", "s"),
    ("cli.workers", "count"),
    ("cli.point_busy_s", "s"),
    ("cli.emit_s", "s"),
    ("models.frame_s", "s"),
    ("models.frame_calls", "count"),
    ("decomposition.track_frame_s", "s"),
    ("decomposition.track_frame_calls", "count"),
    ("decomposition.report_s", "s"),
    ("decomposition.report_calls", "count"),
    ("operators.eigh_calls", "count"),
    ("operators.eigh_s", "s"),
    ("decomposition.eigh_per_node", "ratio"),
    ("jump.general_jump_self_s", "s"),
    ("propagators.exact_s", "s"),
    ("propagators.exact_calls", "count"),
    ("propagators.expm_calls", "count"),
    ("propagators.steps_accepted", "count"),
    ("propagators.useful_step_ratio", "ratio"),
    ("compare.compare_self_s", "s"),
    ("trace.overhead_s", "s"),
)

_POINT = ("cli._run_point", "cli._compare_point")
_FRAME = ("models.spin_chain_frame", "models.time_independent_frame")
_ORACLE = "propagators.exact_propagator"


def invocation_metrics(tracer: Tracer, run: str, points: int, nodes: int) -> dict[str, float]:
    """Every metric of ``METRICS`` except ``trace.overhead_s`` for run ``run``.

    ``decomposition.eigh_per_node`` counts the ``eigh`` calls made outside
    the exact oracle, per sweep point and per frame grid node (``nodes``).
    """
    spans = [s for s in tracer.spans if s.run == run]
    by_id = {s.id: s for s in spans}
    selfs = self_times(spans)

    def named(*names) -> list[Span]:
        return [s for s in spans if s.name in names]

    def total(*names) -> float:
        return sum(s.duration for s in named(*names))

    def under_oracle(span: Span | None) -> bool:
        while span is not None:
            if span.name == _ORACLE:
                return True
            span = by_id.get(span.parent)
        return False

    leaf = {"operators.eigh": [0, 0.0], "operators.matrix_exp_unitary": [0, 0.0]}
    eigh_outside = 0
    for s in spans:
        for name, (calls, secs) in tracer.leaf_totals(s).items():
            leaf[name][0] += calls
            leaf[name][1] += secs
            if name == "operators.eigh" and not under_oracle(s):
                eigh_outside += calls

    oracle = named(_ORACLE)
    steps = sum(s.steps for s in oracle)
    expm_calls = leaf["operators.matrix_exp_unitary"][0]
    return {
        "config.load_s": total("config.load_config"),
        "cli.workers": len({s.thread for s in named(*_POINT)}),
        "cli.point_busy_s": total(*_POINT),
        "cli.emit_s": total("cli.ResultTable.csv_text"),
        "models.frame_s": total(*_FRAME),
        "models.frame_calls": len(named(*_FRAME)),
        "decomposition.track_frame_s": total("decomposition.track_frame"),
        "decomposition.track_frame_calls": len(named("decomposition.track_frame")),
        "decomposition.report_s": total("decomposition.adiabaticity_report"),
        "decomposition.report_calls": len(named("decomposition.adiabaticity_report")),
        "operators.eigh_calls": leaf["operators.eigh"][0],
        "operators.eigh_s": leaf["operators.eigh"][1],
        "decomposition.eigh_per_node": eigh_outside / (points * nodes),
        "jump.general_jump_self_s": sum(selfs[s.id] for s in named("jump.general_jump")),
        "propagators.exact_s": total(_ORACLE),
        "propagators.exact_calls": len(oracle),
        "propagators.expm_calls": expm_calls,
        "propagators.steps_accepted": steps,
        "propagators.useful_step_ratio": steps / expm_calls if expm_calls else 0.0,
        "compare.compare_self_s": sum(selfs[s.id] for s in named("compare.compare_jump")),
    }
