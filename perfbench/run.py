"""zenojump benchmark: CLI sweeps timed end to end, or traced per layer.

Usage, from the repository root::

    python3 perfbench/run.py --workload chain-run --seed 1 --seconds 10 --trace 0

The benchmark drives ``zenojump.cli.main([...])`` in this process as a user
would, with shipped defaults and no ``--jobs``.  One client runs one CLI
invocation at a time (a closed loop) for ``--seconds`` seconds, after a warm-up
invocation on a coarse copy of the config.  Every invocation's CSV passes
through the correctness gate (``check.py``).

``--trace 0`` reports the end-to-end metrics:

* ``sweep_s``: median wall time of one invocation, ``main`` entry to CSV
  written;
* ``cpu_s``: median process CPU time (user + sys, all threads) of one
  invocation;
* ``peak_rss_mb``: peak resident set of this process, which is fresh and
  runs nothing but the workload;
* ``setup_s``: median, over ``SETUP_SAMPLES`` fresh interpreters, of the time
  from process start to a parsed config (imports of numpy, scipy and
  ``zenojump.cli``, then ``load_config``).

``--trace 1`` alternates untraced and traced invocations and reports the
per-layer metrics of ``layers.py``; ``trace.overhead_s`` is the difference of
their median wall times.  Spans go to ``perfbench/.work/spans-*.jsonl``.

The last stdout line is the result JSON; the line before it, and
``perfbench/.work/result-*.json``, hold the machine record and the samples.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np

import check
import layers
import workloads
from tracer import POINT_TARGETS, Tracer

SETUP_SAMPLES = 5
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# A fresh interpreter up to a parsed config, as every CLI call pays it.
_SETUP_CODE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
import numpy, scipy, zenojump.cli
from zenojump.config import load_config
from zenojump.policy import NumericPolicy
load_config(sys.argv[2], NumericPolicy.from_env())
print(time.time())
"""



def _setup_seconds(src: str, config_path: str) -> list[float]:
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.time()
        done = subprocess.run(
            [sys.executable, "-c", _SETUP_CODE, src, config_path],
            capture_output=True, text=True, check=True, timeout=120,
        )
        samples.append(float(done.stdout.split()[-1]) - start)
    return samples


def _invoke(cli, argv: list[str]) -> tuple[object, float, float]:
    """Run ``cli.main(argv)``; return its exit code (or exception), wall and CPU time."""
    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    try:
        code = cli.main(argv)
    except Exception as exc:  # a raising point is a failed point, not a crash
        traceback.print_exc()
        code = exc
    wall = time.perf_counter() - wall0
    return code, wall, time.process_time() - cpu0


def _read(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return None


def _remove(path: str) -> None:
    """Delete a previous invocation's CSV, so that a failed one cannot pass on it."""
    try:
        os.remove(path)
    except FileNotFoundError:
        pass


def _git_commit(root: str) -> str | None:
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2:
        return None
    if os.path.realpath(lines[0]) != os.path.realpath(root):
        return None
    return lines[1]


def _machine(root: str, cli_workers: int) -> dict:
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: v for k, v in blas.items() if k in ("name", "version", "openblas configuration")},
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "cli_workers_observed": cli_workers,
        "git_commit": _git_commit(root),
    }


def _percentile_note(samples: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it, if any."""
    n = len(samples)
    if n < 20:
        return f"median of {n}; no percentile has ten samples beyond it"
    p = int(100 * (1 - 10 / n))
    q = statistics.quantiles(samples, n=100)[p - 1]
    return f"median of {n}; p{p} = {q:.6g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "zenojump", "cli.py")):
        sys.stderr.write("perfbench: no src/zenojump here; run from the repository root\n")
        return 2
    # the package is not installed; import it from the source tree (NOTES.md)
    sys.path.insert(0, src)
    workdir = os.path.join("perfbench", ".work")
    os.makedirs(workdir, exist_ok=True)
    wl = workloads.make(args.workload, args.seed, workdir)
    config_path = workloads.write(wl, workdir)
    tag = f"{wl.name}-seed{wl.seed}-trace{args.trace}"

    setup = [] if args.trace else _setup_seconds(src, config_path)

    from zenojump import cli
    from zenojump.config import load_config
    from zenojump.policy import NumericPolicy

    gate = check.Gate(wl, cli, load_config(config_path, NumericPolicy.from_env()))
    argv_cli = [wl.command, "--config", config_path]

    warm_path = os.path.join(workdir, f"warmup-{wl.name}.ini")
    with open(warm_path, "w", encoding="utf-8") as fh:
        fh.write(workloads.coarse_config(wl.config_text))
    observer = Tracer()
    observer.install(targets=POINT_TARGETS, method_targets=())
    try:
        code, _, _ = observer.call("cli.main", "warmup", _invoke, cli,
                                   [wl.command, "--config", warm_path, "--out",
                                    os.path.join(workdir, "warmup.csv")])
    finally:
        observer.restore()
    if code != 0:
        sys.stderr.write(f"perfbench: warm-up invocation exited {code!r}\n")
    cli_workers = len({s.thread for s in observer.spans if s.name != "cli.main"})

    tracer = Tracer()
    plain: list[tuple[float, float]] = []
    traced: list[float] = []
    invocations = []
    start = time.perf_counter()
    while True:
        use_trace = bool(args.trace) and len(traced) < len(plain)
        run_id = f"{tag}/{len(plain) + len(traced)}"
        _remove(wl.output_path)
        if use_trace:
            tracer.install()
            try:
                code, wall, cpu = tracer.call("cli.main", run_id, _invoke, cli, argv_cli)
            finally:
                tracer.restore()
            traced.append(wall)
        else:
            code, wall, cpu = _invoke(cli, argv_cli)
            plain.append((wall, cpu))
        failed = gate.check(code, _read(wl.output_path))
        invocations.append({"run": run_id, "traced": use_trace, "exit": repr(code),
                            "wall_s": wall, "cpu_s": cpu, "points_failed": failed})
        if time.perf_counter() - start >= args.seconds and (traced or not args.trace):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    walls = [w for w, _ in plain]
    if args.trace:
        nodes = gate.expected.intervals + 1
        per_run = [layers.invocation_metrics(tracer, inv["run"], wl.points, nodes)
                   for inv in invocations if inv["traced"]]
        values = {name: statistics.median(r[name] for r in per_run)
                  for name, _ in layers.METRICS if name != "trace.overhead_s"}
        values["trace.overhead_s"] = statistics.median(traced) - statistics.median(walls)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in layers.METRICS}
        tracer.dump(os.path.join(workdir, f"spans-{tag}.jsonl"))
    else:
        metrics = {
            "sweep_s": {"value": statistics.median(walls), "unit": "s"},
            "cpu_s": {"value": statistics.median(c for _, c in plain), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
        }

    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": metrics,
    }
    record = {
        "workload": wl.name,
        "seed": wl.seed,
        "trace": args.trace,
        "sweep_values": list(wl.values),
        "machine": _machine(root, cli_workers),
        "sweep_s_note": _percentile_note(walls),
        "setup_samples_s": setup,
        "invocations": invocations,
        "gate_messages": gate.messages,
        "result": result,
    }
    with open(os.path.join(workdir, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for message in gate.messages:
        sys.stderr.write(f"perfbench: {message}\n")
    print(json.dumps({k: record[k] for k in ("workload", "seed", "machine", "sweep_s_note")}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
