"""Write ``reference.json``: seed reference rows for the chain workloads.

Runs the CLI once per ``h`` value of each chain workload's grid
(``workloads.CHAIN_RUN_H``, ``workloads.CHAIN_COMPARE_H``), serially, and
stores the rows the correctness gate compares against.  ``chain-compare``
points also get a ``run`` row, for its ``est_error``.  The file is made once,
at the commit that defines the benchmark; regenerating it at a later commit
would compare that commit with itself.

Usage, from the repository root::

    python3 perfbench/reference.py
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import check  # noqa: E402
import workloads  # noqa: E402
from zenojump import cli  # noqa: E402

_NUMBERS = ("h", "w", "est_error", "adiabaticity_ratio", "w_perturbative", "w_exact")
_KEEP = _NUMBERS + ("adiabatic", "flags", "status")


def _row(command: str, name: str, h: float, workdir: str) -> dict:
    out = os.path.join(workdir, f"reference-{name}-{command}.csv")
    path = os.path.join(workdir, f"reference-{name}.ini")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(workloads.chain_config(name, h, h, 1, out))
    start = time.perf_counter()
    code = cli.main([command, "--config", path, "--jobs", "1"])
    if code != 0:
        raise SystemExit(f"{name} {command} at h = {h!r} exited {code}")
    with open(out, encoding="utf-8") as fh:
        (row,) = check.read_rows(fh.read())
    print(f"{name} {command} h={h!r}: {time.perf_counter() - start:.2f} s", flush=True)
    return {k: float(v) if k in _NUMBERS else v for k, v in row.items() if k in _KEEP}


def main() -> int:
    workdir = os.path.join(HERE, ".work")
    os.makedirs(workdir, exist_ok=True)
    reference = {"chain-run": [], "chain-compare": []}
    for h in workloads.CHAIN_RUN_H:
        reference["chain-run"].append(_row("run", "chain-run", h, workdir))
    for h in workloads.CHAIN_COMPARE_H:
        row = _row("compare", "chain-compare", h, workdir)
        row["est_error"] = _row("run", "chain-compare", h, workdir)["est_error"]
        reference["chain-compare"].append(row)
    with open(check.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
