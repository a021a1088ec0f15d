"""A seeded fuzz of the command line: hostile configs end in a typed exit.

Each scenario draws its configs from one seeded generator, so the table is
the same on every run.  Values mix ordinary numbers with edge values (0, +-1,
NaN, +-inf, 1e308, 5e-324, non-numbers) and edge matrices.  Sizes stay small:
at most 3 sites, 256 grid intervals and 3 sweep points, and no exact-oracle
tolerance below its default, so no config allocates much or runs long.

Every config must exit 0, 2, 3 or 4 with no traceback and no numpy warning
(the warning filter turns one into an exception out of ``main``); under
``--strict`` an exit 0 means every jump probability is finite and at most 0.5.
"""

import csv
import math
import random
import warnings

import pytest

from zenojump.cli import main
from zenojump.config import sweepable_parameters

CONFIGS_PER_SCENARIO = 50

EDGE = ["0", "1", "-1", "nan", "inf", "-inf", "1e308", "-1e308", "5e-324", "abc", ""]
NUMBERS = EDGE + ["0.5", "2", "12.5", "1e-3", "1e3", "1e-200", "1e200"]
INTS = ["0", "1", "-1", "2", "3", "-4", "x", "1e308", ""]
MATRICES = [
    "[[1, 0], [0, -1]]",
    "[[0, 1], [1, 0]]",
    "[[0, 0], [0, 1]]",
    "[[1, 0], [0, 1]]",
    "[[-1, 0, 0], [0, 0, 0], [0, 0, 1]]",
    "[[0, [0, 1]], [[0, -1], 0]]",
    "[[1e308, 0], [0, -1e308]]",
    "[[0, 1e200], [1e200, 0]]",
    "[[0, 1e308], [-1e308, 0]]",
    "[[1e308, 1e308], [1e308, 1e308]]",
    "[[1.7e308, 0, 0], [0, 1.7e308, 0], [0, 0, -1.7e308]]",
    "[[5e-324, 0], [0, 0]]",
    "[[1, 0.5], [0, -1]]",
    "[[NaN, 0], [0, 1]]",
    "[[1, 2, 3]]",
    "abc",
]
MATRIX_SCENARIOS = ("spinchain", "custom-matrix")  # compare and decompose need a matrix model
#: per scenario, the choices of an ordinary config; a fuzzed config then replaces a few values
BASE = {
    "pulsed": {"trace_factor": ["0.01", "1"], "coupling": ["10", "50"], "tau": ["1", "2"], "tau_free": ["0", "0.5"]},
    "continuous": {"trace_factor": ["0.01", "1"], "coupling": ["10", "50"], "delta_eps": ["1", "-2"], "tau": ["1", "2"]},
    "spinchain": {"n_sites": ["2", "3"], "h": ["9", "12.5"], "T": ["1", "0.5"], "boundary": ["open", "periodic"]},
    "custom-matrix": {
        "h0": ["[[0, 1], [1, 0]]", "[[0.5, 0], [0, 0]]"],
        "h_meas": ["[[1, 0], [0, -1]]", "[[0, 0], [0, 2]]"],
        "coupling": ["5", "20"],
    },
}
#: (section, key, choices) of the shared sections a fuzzed config may set
MUTATIONS = [
    ("grid", "intervals", ["0", "12", "-8", "x", "8"]),
    ("tolerances", "degeneracy_rel", ["0.9", "100", "1e-300"] + EDGE),
    ("tolerances", "frame_tol", ["1e-14", "1"] + EDGE),
    ("tolerances", "adiabatic_margin", ["1e-300", "1e300"] + EDGE),
    ("quadrature", "rel_tol", ["1e-12", "0.5"] + EDGE),
    ("compare", "exact_tol", ["1e-6", "0", "-1", "nan", "abc"]),
    ("compare", "bound", ["1e-300", "1"] + EDGE),
]
SCENARIO_KEYS = {
    "pulsed": [("trace_factor", NUMBERS), ("coupling", NUMBERS), ("tau", NUMBERS), ("tau_free", NUMBERS)],
    "continuous": [("trace_factor", NUMBERS), ("coupling", NUMBERS), ("delta_eps", NUMBERS), ("tau", NUMBERS)],
    "spinchain": [
        ("n_sites", INTS), ("h", NUMBERS), ("T", NUMBERS), ("lambda1", NUMBERS), ("lambda2", NUMBERS),
        ("lambda3", NUMBERS), ("level_from", INTS), ("level_to", INTS), ("boundary", ["closed", ""]),
    ],
    "custom-matrix": [
        ("h0", MATRICES), ("h_meas", MATRICES), ("rho0", MATRICES), ("coupling", NUMBERS), ("tau", NUMBERS),
        ("level_from", INTS), ("level_to", INTS),
    ],
}


def _config(rng, scenario):
    """``(command, config text)``: an ordinary config of ``scenario`` with up to three values fuzzed."""
    command = rng.choice(["run", "run", "compare", "decompose"] if scenario in MATRIX_SCENARIOS else ["run"])
    sections = {
        "scenario": {"type": scenario},
        scenario: {key: rng.choice(choices) for key, choices in BASE[scenario].items()},
        "grid": {"intervals": rng.choice(["64", "256"])},
    }
    for _ in range(rng.randint(0, 3)):
        if rng.random() < 0.6:
            key, choices = rng.choice(SCENARIO_KEYS[scenario])
            sections[scenario][key] = rng.choice(choices)
        elif rng.random() < 0.3:
            parameter = rng.choice(sweepable_parameters(scenario) + ("bogus",))
            start, stop = rng.choice(NUMBERS), rng.choice(NUMBERS)
            count = rng.choice(["2", "3", "1", "x"])
            sections["sweep"] = {"parameter": parameter, "start": start, "stop": stop, "count": count}
        else:
            section, key, choices = rng.choice(MUTATIONS)
            sections.setdefault(section, {})[key] = rng.choice(choices)
    text = "".join(
        f"[{name}]\n" + "".join(f"{key} = {value}\n" for key, value in values.items()) + "\n"
        for name, values in sections.items()
    )
    return command, text


def _jump_columns(path):
    """The values of every ``w`` column of a result file."""
    with open(path, encoding="utf-8") as fh:
        rows = list(csv.reader(line for line in fh if not line.startswith("#")))
    header, body = rows[0], rows[1:]
    cols = [i for i, name in enumerate(header) if name == "w" or name.startswith("w_")]
    return [float(row[i]) for row in body for i in cols]


@pytest.mark.parametrize("seed, scenario", enumerate(BASE), ids=list(BASE))
def test_fuzzed_configs_exit_with_a_typed_code(tmp_path, capsys, monkeypatch, seed, scenario):
    monkeypatch.delenv("ZENO_NUM_POLICY", raising=False)
    rng = random.Random(seed)
    cfg_path, out = tmp_path / "cfg.ini", tmp_path / "out.csv"
    for _ in range(CONFIGS_PER_SCENARIO):
        command, text = _config(rng, scenario)
        cfg_path.write_text(text, encoding="utf-8")
        out.unlink(missing_ok=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([command, "--config", str(cfg_path), "--out", str(out), "--strict"])
        err = capsys.readouterr().err
        where = f"{command}:\n{text}"
        assert code in (0, 2, 3, 4), where
        assert "Traceback" not in err and "RuntimeWarning" not in err, where
        if code == 0:
            for w in _jump_columns(out):
                assert math.isfinite(w) and w <= 0.5, where
