"""Pinned sha256 digests of the byte-compared files of short runs.

Every case runs ``mtopt run`` on a short config and hashes steps.csv,
affinity.csv, groups.csv and summary.json. The digests in
``pinned_rundirs.json`` cover every method on a triad and a 4-task quadratic
config plus the optimizer, order, tracking, repartition and preset variants,
so a change to the training loop, the set-up path or a config default that
moves one byte of a run directory fails here. Two 11-task regression cases
pin the places where label order (``task1, task10, task11, task2, ...``) and
task-id order differ: SINGLE's log order, the summary's loss maps and every
per-task walk. A csv case whose three tasks have target widths 1, 2 and 1
pins the order of the MLP's losses where its head widths interleave. The JSON report and stdout of
``mtopt verify`` at its default instances are pinned the same way, and so are
the JSON reports of two runs whose tightened margins make suites fail, which
pin the violation counts and residuals of T3, T4 and T5. Re-pin only for an
intended change of output.

Each pinned run directory is also checked against ``perfbench/replay.py``,
which reads only the CSV text: every run's forward and backward counts, and
for the tracked SELECTIVE cases every affinity row, bit for bit. Where the
grouping rule is ``components`` at stride 1, the only grouping the replay
knows, every logged partition is checked too.
"""

import hashlib
import json
import os
import sys

import numpy as np
import pytest

from mtopt.cli import main
from tests.test_perfbench_names import PERFBENCH

PINNED_FILES = ("steps.csv", "affinity.csv", "groups.csv", "summary.json")
VERIFY_REPORT_SHA256 = "202caa6fa5d928887f39e1c4249ae08e3a8e03176139ace5dca6b3392bfc3d37"
VERIFY_STDOUT = """\
T1 [affinity ordering implies gradient-alignment ordering]: pass, 200 instances, max residual 0.000e+00
T2 [gradient alignment ordering implies post-update loss ordering]: pass, 200 instances, max residual 0.000e+00
T3 [self-inclusion gap equals eta*||g||^2/loss to second order]: pass, 100 instances, max residual 1.018e-03
T4 [per-sub-step descent inequality inside step-size regime]: pass, 50 instances, max residual 0.000e+00
T5 [two-step vs joint update comparison]: pass, 100 instances, max residual 0.000e+00
A1 [task-update probes dominate shared-only probes]: pass, 100 instances, max residual 0.000e+00
"""
# (extra verify arguments, sha256 of the JSON report); both exit 1
FAILING_VERIFY_REPORTS = {
    "T3-T4-fail": (["--margin-scale", "0.3", "--instances", "10"],
                   "1a8e59eaf54ff50ad0bb6ba8659d0513c4c85abe59c9d9d610b279dcd7d7b797"),
    "T3-T5-fail": (["--suites", "T1,T2,T3,T5,A1", "--margin-scale", "1e-4", "--instances", "10"],
                   "78b778d6dba97ea13e8ca7e558ba46c5ab6e3f8c5cd9bca335cb870e4390d652"),
}

TRIAD = {"benchmark.kind": "regression", "regression.preset": "triad",
         "model.width": "8", "model.depth": "2", "batch.size": "16",
         "iters": "30", "eta": "0.05", "beta": "0.01", "seed": "1", "log.verbosity": "0"}
CSV_COLUMNS = ("x1", "x2", "x3", "a", "b1", "b2", "c")
CSV_WIDTHS_121 = {"benchmark.kind": "csv", "csv.inputs": "x1,x2,x3", "csv.targets.1": "a",
                  "csv.targets.2": "b1,b2", "csv.targets.3": "c", "model.width": "6",
                  "model.depth": "2", "batch.size": "8", "iters": "30", "eta": "0.05",
                  "beta": "0.05", "seed": "0", "log.verbosity": "0"}
QUAD4 = {"benchmark.kind": "quadratic", "quadratic.k": "4",
         "iters": "40", "eta": "0.05", "beta": "0.01", "seed": "2", "log.verbosity": "0"}

TRIAD_METHODS = {
    "SELECTIVE": {},
    "JOINT": {},
    "SEPARATE": {},
    "FIXED": {"fixed.partition": "1,2|3"},
    "RANDOM": {"random.groups": "2"},
    "SINGLE": {},
}
QUAD4_METHODS = {
    "SELECTIVE": {},
    "JOINT": {},
    "SEPARATE": {},
    "FIXED": {"fixed.partition": "1,4|2|3"},
    "RANDOM": {"random.groups": "2"},
}


def _cases() -> dict[str, dict[str, str]]:
    cases = {}
    for method, extra in TRIAD_METHODS.items():
        cases[f"triad-{method}"] = dict(TRIAD, method=method, **extra)
        cases[f"triad-adam-forward-{method}"] = dict(TRIAD, method=method, optimizer="adam",
                                                     order="FORWARD", **extra)
    for method, extra in QUAD4_METHODS.items():
        cases[f"quad4-{method}"] = dict(QUAD4, method=method, **extra)
    cases["triad-JOINT-tracked"] = dict(TRIAD, method="JOINT", **{"track.affinity": "true"})
    cases["triad-SELECTIVE-untracked"] = dict(TRIAD, method="SELECTIVE",
                                              **{"track.affinity": "false"})
    cases["quad4-SELECTIVE-stride3-cliques-backward"] = dict(
        QUAD4, method="SELECTIVE", order="BACKWARD",
        **{"repartition.stride": "3", "grouping.rule": "cliques"})
    no_preset = {k: v for k, v in TRIAD.items() if k != "regression.preset"}
    cases["triad-no-preset-SELECTIVE"] = dict(no_preset, method="SELECTIVE")
    for method in ("SELECTIVE", "SINGLE"):
        cases[f"regression-k11-{method}"] = dict(no_preset, method=method, **{"regression.k": "11"})
    cases["csv-widths-1-2-1-SELECTIVE"] = dict(CSV_WIDTHS_121, method="SELECTIVE")
    return cases


CASES = _cases()


def write_seeded_csv(path):
    """24 rows of seeded normal draws under ``CSV_COLUMNS``, at 17 digits."""
    rows = np.random.default_rng(11).standard_normal((24, len(CSV_COLUMNS)))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        fh.writelines(",".join(format(v, ".17g") for v in row) + "\n" for row in rows)


def rundir_digests(config: dict[str, str], workdir) -> dict[str, str]:
    """Run one config through the CLI and hash its byte-compared files. A
    csv config reads a seeded file written into ``workdir``; config.json,
    which echoes its path, is not hashed."""
    if config.get("benchmark.kind") == "csv":
        config = dict(config, **{"csv.path": os.path.join(workdir, "data.csv")})
        write_seeded_csv(config["csv.path"])
    cfg = os.path.join(workdir, "run.cfg")
    with open(cfg, "w", encoding="utf-8") as fh:
        fh.write("".join(f"{key} = {value}\n" for key, value in config.items()))
    out = os.path.join(workdir, "out")
    assert main(["run", "--config", cfg, "--out", out]) == 0
    digests = {}
    for name in PINNED_FILES:
        with open(os.path.join(out, name), "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def _pinned() -> dict[str, dict[str, str]]:
    path = os.path.join(os.path.dirname(__file__), "pinned_rundirs.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def test_pins_cover_every_case():
    assert sorted(_pinned()) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_rundir_bytes_match_pins(case, tmp_path, monkeypatch):
    config = CASES[case]
    assert rundir_digests(config, str(tmp_path)) == _pinned()[case]

    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    monkeypatch.syspath_prepend(PERFBENCH)
    import replay

    out = os.path.join(str(tmp_path), "out")
    steps = replay.iterations(replay.read_rows(os.path.join(out, "steps.csv")))
    assert replay.count_problems(steps, config["method"] in ("JOINT", "SINGLE")) == []
    if config["method"] != "SELECTIVE" or config.get("track.affinity") == "false":
        return
    with open(os.path.join(out, "summary.json"), encoding="utf-8") as fh:
        k = json.load(fh)["k"]
    rows, partitions = replay.replay_affinity(steps, k, float(config["beta"]))
    assert rows
    logged = replay.read_rows(os.path.join(out, "affinity.csv"))
    assert replay.compare_affinity(rows, logged, rel=0.0) == []
    if (config.get("grouping.rule", "components") == "components"
            and config.get("repartition.stride", "1") == "1"):
        groups = replay.read_rows(os.path.join(out, "groups.csv"))
        assert replay.compare_partitions(partitions, groups, k) == []


def _sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def test_verify_report_bytes_match_pin(tmp_path, capsys):
    out = str(tmp_path / "verify.json")
    assert main(["verify", "--out", out]) == 0
    assert _sha256(out) == VERIFY_REPORT_SHA256
    assert capsys.readouterr().out == VERIFY_STDOUT


@pytest.mark.parametrize("case", sorted(FAILING_VERIFY_REPORTS))
def test_failing_verify_report_bytes_match_pin(case, tmp_path, capsys):
    args, digest = FAILING_VERIFY_REPORTS[case]
    out = str(tmp_path / "verify.json")
    assert main(["verify", *args, "--out", out]) == 1
    assert _sha256(out) == digest
