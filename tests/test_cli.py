import csv
import json
import os
import subprocess
import sys
import tracemalloc
from concurrent.futures import Future

import pytest

import mtopt
from mtopt import cli
from mtopt.cli import main
from mtopt.config import parse_kv_text, validate_config
from mtopt.experiments import run_experiment
from mtopt.runio import read_summary
from tests.test_optim import Collector

TRIAD_CFG = """\
# quick triad run
benchmark.kind = regression
regression.preset = triad
method = SELECTIVE
iters = 25
eta = 0.05
beta = 0.01
model.width = 8
model.depth = 2
batch.size = 16
seed = 1
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_run_writes_four_log_files(tmp_path, capsys):
    cfg = write_cfg(tmp_path, TRIAD_CFG)
    out = str(tmp_path / "run1")
    assert main(["run", "--config", cfg, "--out", out]) == 0
    for name in ("steps.csv", "affinity.csv", "groups.csv", "summary.json", "config.json"):
        assert os.path.exists(os.path.join(out, name)), name
    with open(os.path.join(out, "steps.csv")) as fh:
        assert fh.readline().startswith("# schema=")


def test_run_rejects_bad_beta_naming_field(tmp_path, capsys):
    cfg = write_cfg(tmp_path, TRIAD_CFG + "\nbeta = 1.5\n")
    code = main(["run", "--config", cfg, "--out", str(tmp_path / "x")])
    assert code == 2
    # duplicate key also caught; rewrite without the original beta line
    cfg2 = write_cfg(tmp_path, TRIAD_CFG.replace("beta = 0.01", "beta = 1.5"), "b.cfg")
    code = main(["run", "--config", cfg2, "--out", str(tmp_path / "x")])
    assert code == 2
    assert "beta" in capsys.readouterr().err


def test_run_unknown_key_rejected(tmp_path, capsys):
    cfg = write_cfg(tmp_path, TRIAD_CFG + "\nnot.a.key = 1\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    assert "not.a.key" in capsys.readouterr().err


def test_run_numeric_blowup_exits_3_with_iteration(tmp_path, capsys):
    cfg = write_cfg(tmp_path, TRIAD_CFG.replace("eta = 0.05", "eta = 1e6")
                    .replace("iters = 25", "iters = 300"))
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "x")]) == 3
    assert "iteration" in capsys.readouterr().err


def test_rerun_reproduces_csv_bytes(tmp_path):
    cfg = write_cfg(tmp_path, TRIAD_CFG)
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["run", "--config", cfg, "--out", a]) == 0
    assert main(["run", "--config", cfg, "--out", b]) == 0
    for name in ("steps.csv", "affinity.csv", "groups.csv", "summary.json"):
        assert read(os.path.join(a, name)) == read(os.path.join(b, name)), name


def test_seed_and_method_overrides_reach_config_echo(tmp_path):
    cfg = write_cfg(tmp_path, TRIAD_CFG)
    out = str(tmp_path / "o")
    assert main(["run", "--config", cfg, "--out", out, "--seed", "7",
                 "--method", "JOINT"]) == 0
    echo = json.load(open(os.path.join(out, "config.json")))
    assert echo["config"]["seed"] == "7"
    assert echo["config"]["method"] == "JOINT"
    summary = json.load(open(os.path.join(out, "summary.json")))
    assert summary["method"] == "JOINT" and summary["seed"] == 7


SWEEP_CFG = TRIAD_CFG + """\
sweep.method = JOINT,SEPARATE,SELECTIVE
sweep.seed = 1,2,3
"""


def test_sweep_expands_grid_and_writes_index(tmp_path):
    cfg = write_cfg(tmp_path, SWEEP_CFG, "sweep.cfg")
    out = str(tmp_path / "sweep")
    assert main(["sweep", "--config", cfg, "--out", out]) == 0
    cells = [d for d in os.listdir(out) if os.path.isdir(os.path.join(out, d))]
    assert len(cells) == 9
    with open(os.path.join(out, "index.csv")) as fh:
        lines = fh.read().splitlines()
    assert lines[0].startswith("# schema=") and len(lines) == 2 + 9
    assert all(line.endswith(",ok") for line in lines[2:])


def test_sweep_resume_keeps_completed_cells(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SWEEP_CFG, "sweep.cfg")
    out = str(tmp_path / "sweep")
    assert main(["sweep", "--config", cfg, "--out", out]) == 0
    assert main(["sweep", "--config", cfg, "--out", out, "--resume"]) == 0
    with open(os.path.join(out, "index.csv")) as fh:
        body = fh.read()
    assert body.count(",kept") == 9


def test_sweep_without_axes_is_usage_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, TRIAD_CFG)
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "s")]) == 2
    assert "sweep" in capsys.readouterr().err


def test_report_run_against_itself_is_zero(tmp_path, capsys):
    cfg = write_cfg(tmp_path, TRIAD_CFG)
    out = str(tmp_path / "r")
    assert main(["run", "--config", cfg, "--out", out]) == 0
    rep = str(tmp_path / "rep")
    assert main(["report", out, "--baseline", out, "--out", rep]) == 0
    assert "delta_m +0.000%" in capsys.readouterr().out
    with open(os.path.join(rep, "report.csv")) as fh:
        lines = fh.read().splitlines()
    assert lines[2].split(",")[3] == "0"


def test_report_missing_directory_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, TRIAD_CFG)
    out = str(tmp_path / "r")
    assert main(["run", "--config", cfg, "--out", out]) == 0
    assert main(["report", out, "--baseline", str(tmp_path / "nope")]) == 2


BLOWUP_CFG = TRIAD_CFG.replace("eta = 0.05", "eta = 1e6").replace("iters = 25", "iters = 300")


def aborted_run(tmp_path, capsys, out):
    """Run the eta = 1e6 triad config into ``out``: exit 3; returns the iteration it named."""
    capsys.readouterr()
    assert main(["run", "--config", write_cfg(tmp_path, BLOWUP_CFG, "blowup.cfg"),
                 "--out", out]) == 3
    err = capsys.readouterr().err
    return int(err.split("iteration ", 1)[1].split(",", 1)[0])


def test_aborted_run_keeps_its_completed_iterations_and_no_summary(tmp_path, capsys):
    out = str(tmp_path / "r")
    assert main(["run", "--config", write_cfg(tmp_path, TRIAD_CFG), "--out", out]) == 0
    failed_at = aborted_run(tmp_path, capsys, out)  # over a finished directory
    assert failed_at > 1
    assert sorted(os.listdir(out)) == ["affinity.csv", "groups.csv", "steps.csv"]
    with open(os.path.join(out, "groups.csv")) as fh:
        iters = [int(line.split(",")[0]) for line in fh.read().splitlines()[2:]]
    assert iters == list(range(1, failed_at))
    with open(os.path.join(out, "steps.csv")) as fh:
        steps = [line.split(",") for line in fh.read().splitlines()[2:]]
    assert sorted({int(row[0]) for row in steps}) == iters
    assert all(row[4] for row in steps)  # SELECTIVE re-forwards: every row has a loss
    with open(os.path.join(out, "affinity.csv")) as fh:
        assert {int(line.split(",")[0]) for line in fh.read().splitlines()[2:]} == set(iters)


def test_report_on_an_unfinished_run_says_so(tmp_path, capsys):
    base, out = str(tmp_path / "base"), str(tmp_path / "r")
    assert main(["run", "--config", write_cfg(tmp_path, TRIAD_CFG), "--out", base]) == 0
    aborted_run(tmp_path, capsys, out)
    err = report_error(capsys, out, base)
    assert "did not finish" in err and "missing" not in err
    assert "missing run directory" in report_error(capsys, str(tmp_path / "nope"), base)


def test_sweep_resume_reruns_a_cell_whose_later_run_aborted(tmp_path, capsys):
    cfg = write_cfg(tmp_path, TRIAD_CFG + "sweep.seed = 1,2\n", "sweep.cfg")
    out = str(tmp_path / "sweep")
    assert main(["sweep", "--config", cfg, "--out", out]) == 0
    cell = os.path.join(out, "seed-1")
    finished = read(os.path.join(cell, "steps.csv"))
    aborted_run(tmp_path, capsys, cell)
    assert main(["sweep", "--config", cfg, "--out", out, "--resume"]) == 0
    with open(os.path.join(out, "index.csv")) as fh:
        assert fh.read().splitlines()[2:] == ["seed-1,seed-1,ok", "seed-2,seed-2,kept"]
    assert read(os.path.join(cell, "steps.csv")) == finished
    assert os.path.isfile(os.path.join(cell, "summary.json"))


def test_run_memory_is_flat_in_run_length(tmp_path):
    def peak(iters):
        out = str(tmp_path / f"q{iters}")
        cfg = write_cfg(tmp_path, "benchmark.kind = quadratic\nquadratic.k = 8\n"
                                  "quadratic.shared_dim = 64\nquadratic.rows = 128\n"
                                  f"method = SELECTIVE\neta = 0.05\niters = {iters}\n",
                        f"q{iters}.cfg")
        tracemalloc.start()
        try:
            assert main(["run", "--config", cfg, "--out", out]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1)  # one-time allocations (lazy imports, first-use caches) stay out of the ratio
    short = peak(30)
    assert peak(300) <= 1.2 * short


def quad_run(tmp_path, name, k):
    out = str(tmp_path / name)
    cfg = write_cfg(tmp_path, QUAD_CFG + f"quadratic.k = {k}\n", f"{name}.cfg")
    assert main(["run", "--config", cfg, "--out", out]) == 0
    return out


def cli_error(capsys, argv, code=2):
    """Run the CLI in process on bad input: the exit code, one stderr line and
    nothing on stdout."""
    capsys.readouterr()
    assert main(argv) == code
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("mtopt: "), err
    assert captured.out == ""
    return err[0]


def report_error(capsys, rundir, baseline):
    """Report a bad pair of run directories: exit 2 and one stderr line."""
    return cli_error(capsys, ["report", rundir, "--baseline", baseline])


def test_report_task_set_mismatch_exits_2(tmp_path, capsys):
    base, run = quad_run(tmp_path, "base", 2), quad_run(tmp_path, "run", 3)
    err = report_error(capsys, run, base)
    assert "task sets differ" in err and run in err


def test_report_summary_not_json_exits_2(tmp_path, capsys):
    base, run = quad_run(tmp_path, "base", 2), quad_run(tmp_path, "run", 2)
    with open(os.path.join(run, "summary.json"), "w") as fh:
        fh.write("{not json")
    err = report_error(capsys, run, base)
    assert "not JSON" in err and run in err


@pytest.mark.parametrize("losses", [None, {"x": 1.0, "y": 2.0}, {"1": "abc", "2": 1.0}],
                         ids=["missing", "not-task-ids", "not-numbers"])
def test_report_summary_with_bad_eval_losses_exits_2(tmp_path, capsys, losses):
    base, run = quad_run(tmp_path, "base", 2), quad_run(tmp_path, "run", 2)
    path = os.path.join(base, "summary.json")
    summary = json.load(open(path))
    del summary["eval_losses"]
    if losses is not None:
        summary["eval_losses"] = losses
    with open(path, "w") as fh:
        json.dump(summary, fh)
    err = report_error(capsys, run, base)
    assert "mtopt.summary.v1" in err and base in err


def test_verify_small_instances_pass(tmp_path, capsys):
    rep = str(tmp_path / "verify.json")
    code = main(["verify", "--suites", "T1,T3,A1", "--instances", "10",
                 "--seed", "0", "--out", rep])
    assert code == 0
    payload = json.load(open(rep))
    assert set(payload["suites"]) == {"T1", "T3", "A1"}
    assert all(s["violations"] == 0 for s in payload["suites"].values())


def test_verify_zero_instances_is_usage_error():
    assert main(["verify", "--instances", "0"]) == 2


def test_verify_corrupted_margin_exits_1(capsys):
    code = main(["verify", "--suites", "T3", "--instances", "5",
                 "--margin-scale", "1e-4"])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def test_verify_unknown_suite_is_usage_error(capsys):
    assert main(["verify", "--suites", "T7"]) == 2


@pytest.mark.parametrize("scale", ["0", "-1", "inf", "nan"])
def test_verify_bad_margin_scale_is_usage_error_before_any_suite(capsys, scale):
    err = cli_error(capsys, ["verify", "--instances", "2", "--margin-scale", scale])
    assert "margin scale must be finite and > 0" in err
    assert capsys.readouterr().out == ""


def test_verify_non_finite_suite_value_is_numeric_failure_without_warnings():
    done = run_cli_process("verify", "--suites", "T4", "--instances", "3",
                           "--margin-scale", "0.1")
    err = done.stderr.splitlines()
    assert done.returncode == 3, done.stderr
    assert err == ["mtopt: numeric failure: suite T4: task 1 quadratic loss is non-finite"]


def test_verify_unwritable_out_is_usage_error(tmp_path, capsys):
    out = str(tmp_path / "missing" / "dir" / "x.json")
    assert out in cli_error(capsys, ["verify", "--suites", "T1", "--instances", "2",
                                     "--out", out])


def test_report_out_on_existing_file_is_usage_error(tmp_path, capsys):
    run = quad_run(tmp_path, "run", 2)
    afile = tmp_path / "afile"
    afile.write_text("")
    assert str(afile) in cli_error(capsys, ["report", run, "--baseline", run,
                                            "--out", str(afile)])


def test_verify_out_on_a_directory_is_refused_before_any_suite(tmp_path, capsys):
    assert str(tmp_path) in cli_error(capsys, ["verify", "--suites", "T1", "--instances", "2",
                                               "--out", str(tmp_path)])


def test_report_out_on_a_file_is_refused_before_reading_run_directories(tmp_path, capsys):
    afile = tmp_path / "afile"
    afile.write_text("")
    missing = str(tmp_path / "missing")
    err = cli_error(capsys, ["report", missing, "--baseline", missing, "--out", str(afile)])
    assert str(afile) in err and missing not in err


@pytest.mark.parametrize("row", [b'1,"1;order=1",zz', b"7", b'1,"\xe9",1'],
                         ids=["bad-m", "one-field", "not-utf8"])
def test_report_malformed_groups_csv_is_usage_error(tmp_path, capsys, row):
    run = quad_run(tmp_path, "run", 2)
    with open(os.path.join(run, "groups.csv"), "ab") as fh:
        fh.write(row + b"\n")
    rep = str(tmp_path / "rep")
    err = cli_error(capsys, ["report", run, "--baseline", run, "--out", rep])
    assert run in err and "groups.csv" in err
    assert not os.path.exists(rep)


def test_single_method_produces_per_task_baselines(tmp_path):
    cfg = write_cfg(tmp_path, TRIAD_CFG.replace("method = SELECTIVE", "method = SINGLE"))
    out = str(tmp_path / "single")
    assert main(["run", "--config", cfg, "--out", out]) == 0
    summary = json.load(open(os.path.join(out, "summary.json")))
    assert summary["method"] == "SINGLE"
    assert sorted(summary["runs"]) == ["task1", "task2", "task3"]
    assert sorted(summary["eval_losses"]) == ["1", "2", "3"]


def collected_run(cfg):
    """run_experiment with one collecting sink per label: (result, {label: sink})."""
    sinks = {}
    return run_experiment(cfg, lambda label: sinks.setdefault(label, Collector())), sinks


def test_single_keeps_the_trained_tasks_own_weight():
    base = TRIAD_CFG.replace("iters = 25", "iters = 5")
    single, single_sinks = collected_run(validate_config(parse_kv_text(
        base.replace("method = SELECTIVE", "method = SINGLE") + "weights = 2,1,1\n")))
    joint_cfg = validate_config(parse_kv_text(base.replace("method = SELECTIVE", "method = JOINT")))
    joint_cfg.weights = {1: 2.0, 2: 0.0, 3: 0.0}  # the config refuses zero weights
    joint, joint_sinks = collected_run(joint_cfg)
    assert single.logs["task1"] == joint.logs["main"]
    assert len(single_sinks["task1"].steps) == 5
    assert single_sinks["task1"].steps == joint_sinks["main"].steps
    assert single_sinks["task1"].affinity_rows == joint_sinks["main"].affinity_rows


def test_single_with_eleven_tasks_writes_its_runs_in_label_order(tmp_path):
    cfg = write_cfg(tmp_path, "benchmark.kind = regression\nregression.k = 11\n"
                              "regression.train = 16\nregression.eval = 8\nmodel.width = 4\n"
                              "model.depth = 1\nbatch.size = 8\nmethod = SINGLE\niters = 2\n")
    out = str(tmp_path / "single")
    assert main(["run", "--config", cfg, "--out", out]) == 0
    labels = sorted(f"task{t}" for t in range(1, 12))
    assert labels[:4] == ["task1", "task10", "task11", "task2"]
    with open(os.path.join(out, "summary.json")) as fh:
        assert list(json.load(fh)["runs"]) == labels
    # each SINGLE training masks the other tasks to weight 0, so only the
    # trained task's head has a non-zero gradient norm in its steps.csv rows
    with open(os.path.join(out, "steps.csv")) as fh:
        rows = list(csv.DictReader(fh.read().splitlines()[1:]))
    trained = [int(r["task"]) for r in rows if r["grad_norm_task"] not in ("", "0")]
    assert trained == [int(label[4:]) for label in labels for _ in range(2)]
    with open(os.path.join(out, "groups.csv")) as fh:
        assert [line.split(",")[0] for line in fh.read().splitlines()[2:]] == ["1", "2"] * 11


QUAD_CFG = """\
benchmark.kind = quadratic
iters = 5
eta = 0.05
"""


def usage_error(tmp_path, capsys, text):
    """Run a config that must fail validation: exit 2, one stderr line, no run directory."""
    out = tmp_path / "x"
    err = cli_error(capsys, ["run", "--config", write_cfg(tmp_path, text), "--out", str(out)])
    assert not out.exists()
    return err


def test_too_few_quadratic_weights_is_usage_error(tmp_path, capsys):
    err = usage_error(tmp_path, capsys, QUAD_CFG + "quadratic.k = 3\nweights = 1,2\n")
    assert "weights" in err


def test_too_many_quadratic_weights_is_usage_error(tmp_path, capsys):
    err = usage_error(tmp_path, capsys, QUAD_CFG + "quadratic.k = 2\nweights = 1,2,3\n")
    assert "weights" in err


def test_fixed_partition_over_wrong_task_count_is_usage_error(tmp_path, capsys):
    err = usage_error(tmp_path, capsys, QUAD_CFG + "quadratic.k = 2\nmethod = FIXED\n"
                      "fixed.partition = 1,2|3\n")
    assert "fixed.partition" in err


def test_more_random_groups_than_tasks_is_usage_error(tmp_path, capsys):
    err = usage_error(tmp_path, capsys, QUAD_CFG + "quadratic.k = 2\nmethod = RANDOM\n"
                      "random.groups = 3\n")
    assert "random.groups" in err


def test_fixed_partition_repeating_a_task_is_usage_error(tmp_path, capsys):
    err = usage_error(tmp_path, capsys, "benchmark.kind = quadratic\nmethod = FIXED\n"
                                        "fixed.partition = 1,1\niters = 3\n")
    assert "fixed.partition" in err and "more than once" in err


@pytest.mark.parametrize("extra, field", [("eta = inf\n", "eta"), ("weights = nan,1\n", "weights"),
                                          ("regression.noise = inf\n", "regression.noise")])
def test_non_finite_number_is_usage_error(tmp_path, capsys, extra, field):
    base = QUAD_CFG.replace("eta = 0.05\n", "") if field == "eta" else QUAD_CFG
    err = usage_error(tmp_path, capsys, base.replace("iters = 5", "iters = 3") + extra)
    assert f"field '{field}'" in err


def test_single_on_quadratic_is_usage_error(tmp_path, capsys):
    err = usage_error(tmp_path, capsys, QUAD_CFG + "method = SINGLE\n")
    assert "SINGLE" in err


def test_triad_preset_rejects_other_regression_keys(tmp_path, capsys):
    err = usage_error(tmp_path, capsys, TRIAD_CFG + "regression.k = 5\n")
    assert "regression.k" in err


@pytest.mark.parametrize("key", ["seed", "quadratic.seed", "regression.seed"])
def test_negative_config_seed_is_usage_error(tmp_path, capsys, key):
    kind = key.split(".")[0] if "." in key else "quadratic"
    err = usage_error(tmp_path, capsys, f"benchmark.kind = {kind}\niters = 3\n{key} = -3\n")
    assert f"field '{key}'" in err


def test_negative_run_seed_flag_is_usage_error(tmp_path, capsys):
    out = tmp_path / "x"
    err = cli_error(capsys, ["run", "--config", write_cfg(tmp_path, QUAD_CFG), "--out", str(out),
                             "--seed", "-1"])
    assert "field 'seed'" in err
    assert not out.exists()


def test_negative_sweep_cell_seed_is_usage_error_before_any_cell_runs(tmp_path, capsys):
    cfg = write_cfg(tmp_path, QUAD_CFG + "sweep.seed = 1,-1\n", "sweep.cfg")
    out = tmp_path / "sweep"
    assert "field 'seed'" in cli_error(capsys, ["sweep", "--config", cfg, "--out", str(out)])
    assert not out.exists()


def test_negative_verify_seed_is_usage_error(capsys):
    err = cli_error(capsys, ["verify", "--suites", "T3", "--instances", "2", "--seed", "-1"])
    assert "seed must be >= 0" in err


def test_sweep_refuses_two_cells_with_one_name(tmp_path, monkeypatch, capsys):
    stub_cells(monkeypatch)
    cfg = write_cfg(tmp_path, QUAD_CFG + "sweep.eta = 0.1, 0.1\n", "sweep.cfg")
    out = tmp_path / "sweep"
    err = cli_error(capsys, ["sweep", "--config", cfg, "--out", str(out)])
    assert "eta-0.1" in err
    assert not out.exists()


def test_sweep_rejects_bad_cell_before_any_cell_runs(tmp_path, capsys):
    cfg = write_cfg(tmp_path, QUAD_CFG + "quadratic.k = 3\nsweep.weights = 1,2\n", "sweep.cfg")
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "weights" in err[0]
    assert not out.exists()


def csv_cfg(tmp_path, body):
    data = tmp_path / "data.csv"
    if body is not None:
        data.write_text(body)
    return ("benchmark.kind = csv\n"
            f"csv.path = {data}\n"
            "csv.inputs = x\n"
            "csv.targets.1 = y1\n"
            "csv.targets.2 = y2\n"
            "iters = 3\n")


def test_missing_csv_file_is_usage_error(tmp_path, capsys):
    err = usage_error(tmp_path, capsys, csv_cfg(tmp_path, None))
    assert "csv.path" in err and "data.csv" in err


def test_non_numeric_csv_cell_is_usage_error(tmp_path, capsys):
    err = usage_error(tmp_path, capsys, csv_cfg(tmp_path, "x,y1,y2\n1,2,3\n4,abc,6\n"))
    assert "not numeric" in err


@pytest.mark.parametrize("cell", ["inf", "nan", "-inf"])
def test_non_finite_csv_cell_is_usage_error(tmp_path, capsys, cell):
    body = f"x,y1,y2\n1,2,3\n4,{cell},6\n7,8,9\n1,2,3\n"
    err = usage_error(tmp_path, capsys, csv_cfg(tmp_path, body) + "batch.size = 2\n")
    assert "csv.path" in err and "data.csv" in err and "row 3, column 'y1'" in err


@pytest.mark.parametrize("value", [",", ""], ids=["comma", "empty"])
def test_csv_target_list_naming_no_column_is_usage_error(tmp_path, capsys, value):
    text = csv_cfg(tmp_path, "x,y1,y2\n1,2,3\n4,5,6\n").replace("csv.targets.2 = y2",
                                                                 f"csv.targets.2 = {value}")
    err = usage_error(tmp_path, capsys, text)
    assert "csv.targets.2" in err


def test_csv_header_repeating_a_named_column_is_usage_error(tmp_path, capsys):
    err = usage_error(tmp_path, capsys, csv_cfg(tmp_path, "x,x,y1,y2\n1,10,2,3\n2,20,3,4\n"))
    assert "field 'csv.path'" in err and "column 'x' appears 2 times" in err


def test_non_utf8_csv_is_usage_error(tmp_path, capsys):
    text = csv_cfg(tmp_path, None)
    (tmp_path / "data.csv").write_bytes(b"x,y1,y2\n1,2,3\n4,\xff,6\n")
    err = usage_error(tmp_path, capsys, text)
    assert "data.csv" in err and "UTF-8" in err


@pytest.mark.parametrize("cmd, axes", [("run", b""), ("sweep", b"sweep.seed = 1,2\n")])
def test_non_utf8_config_is_usage_error(tmp_path, capsys, cmd, axes):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(QUAD_CFG.encode() + axes + b"# \xff\n")
    out = tmp_path / "x"
    assert main([cmd, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("mtopt: ") and "bad.cfg" in err[0], err
    assert not out.exists()


def test_sweep_records_missing_csv_as_cell_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, csv_cfg(tmp_path, None) + "sweep.seed = 1,2\n", "sweep.cfg")
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 2
    with open(out / "index.csv") as fh:
        lines = fh.read().splitlines()
    assert len(lines) == 2 + 2
    assert all(",error:" in line for line in lines[2:])


def test_sweep_index_quotes_a_status_with_commas(tmp_path, capsys):
    text = csv_cfg(tmp_path, "x,y1\n1,2\n3,4\n") + "sweep.seed = 1,2\n"
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", write_cfg(tmp_path, text, "sweep.cfg"), "--out", str(out)]) == 2
    with open(out / "index.csv", newline="") as fh:
        rows = list(csv.reader(fh))[2:]
    assert [len(row) for row in rows] == [3, 3]
    assert all(row[2].startswith("error:") and "missing column 'y2'" in row[2] for row in rows)


def test_sweep_index_does_not_depend_on_the_out_path(tmp_path):
    cfg = write_cfg(tmp_path, QUAD_CFG + "sweep.seed = 1,2\n", "sweep.cfg")
    outs = [tmp_path / "a", tmp_path / "a-longer-name"]
    for out in outs:
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    assert read(outs[0] / "index.csv") == read(outs[1] / "index.csv")
    assert read(outs[0] / "index.csv").endswith(b"\nseed-2,seed-2,ok\n")


def stub_cells(monkeypatch):
    """Replace the cell worker so a sweep trains nothing; return the cells it got."""
    cells = []

    def run_cell(base, cell, outdir):
        cells.append(dict(base, **cell))
        return cli._cell_name(cell), "ok"

    monkeypatch.setattr(cli, "_run_cell", run_cell)
    return cells


def test_triad_ablation_preset_expands_to_thirty_valid_cells(tmp_path, monkeypatch, capsys):
    cells = stub_cells(monkeypatch)
    assert main(["sweep", "--preset", "triad-ablation", "--out", str(tmp_path / "s")]) == 0
    assert len({cli._cell_name(c) for c in cells}) == 30
    assert sorted({c["seed"] for c in cells}) == ["0", "1", "2", "3", "4"]
    for cell in cells:
        validate_config(cell)


def test_sweep_seed_is_refused_where_every_cell_sets_a_seed(tmp_path, monkeypatch, capsys):
    stub_cells(monkeypatch)
    out = tmp_path / "s"
    err = cli_error(capsys, ["sweep", "--preset", "triad-ablation", "--seed", "3", "--out", str(out)])
    assert "--seed" in err
    assert not out.exists()


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_sweep_needs_at_least_one_worker(tmp_path, monkeypatch, capsys, workers):
    stub_cells(monkeypatch)
    out = tmp_path / "s"
    cfg = write_cfg(tmp_path, QUAD_CFG + "sweep.seed = 1,2\n", "sweep.cfg")
    err = cli_error(capsys, ["sweep", "--config", cfg, "--out", str(out), "--workers", workers])
    assert "--workers" in err
    assert not out.exists()


def test_sweep_out_on_a_file_is_refused_before_any_cell_runs(tmp_path, monkeypatch, capsys):
    cells = stub_cells(monkeypatch)
    afile = tmp_path / "afile"
    afile.write_text("")
    cfg = write_cfg(tmp_path, QUAD_CFG + "sweep.seed = 1,2\n", "sweep.cfg")
    err = cli_error(capsys, ["sweep", "--config", cfg, "--out", str(afile)])
    assert str(afile) in err and "not a directory" in err
    assert cells == [] and afile.read_text() == ""


def test_sweep_index_that_cannot_be_written_is_usage_error(tmp_path, monkeypatch, capsys):
    stub_cells(monkeypatch)
    out = tmp_path / "s"
    (out / "index.csv").mkdir(parents=True)
    cfg = write_cfg(tmp_path, QUAD_CFG + "sweep.seed = 1,2\n", "sweep.cfg")
    assert "index.csv" in cli_error(capsys, ["sweep", "--config", cfg, "--out", str(out)])


def test_sweep_pool_has_no_more_workers_than_cells(tmp_path, monkeypatch, capsys):
    stub_cells(monkeypatch)
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(cli, "ProcessPoolExecutor", InlinePool)
    cfg = write_cfg(tmp_path, QUAD_CFG + "sweep.seed = 1,2,3\n", "sweep.cfg")
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "s"), "--workers", "500"]) == 0
    assert sizes == [3]


def test_python_dash_m_runs_the_cli():
    src = os.path.dirname(os.path.dirname(mtopt.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-m", "mtopt", "--help"], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0
    assert "usage: mtopt" in done.stdout


@pytest.mark.parametrize("extra, needle", [
    ("quadratic.k = 3\nquadratic.rho = -1\n", "infeasible"),
    ("quadratic.k = 4\nquadratic.rows = 2\nquadratic.rho = 0.5\n", "target rows"),
    ("quadratic.k = 6\nquadratic.shared_dim = 5\nquadratic.task_dim = 0\nquadratic.rows = 1\n"
     "seed = 4\n", "non-degenerate"),
], ids=["infeasible-rho", "too-few-rows", "degenerate-target"])
def test_quadratic_suite_the_generator_cannot_build_is_usage_error(tmp_path, capsys, extra,
                                                                   needle):
    err = usage_error(tmp_path, capsys, QUAD_CFG + extra)
    assert "quadratic" in err and needle in err


def run_cli_process(*args):
    """Run the CLI in a fresh interpreter, where numpy warnings reach stderr."""
    src = os.path.dirname(os.path.dirname(mtopt.__file__))
    return subprocess.run([sys.executable, "-m", "mtopt", *args],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)


def numeric_failure(tmp_path, text):
    """Run a config in a fresh interpreter that must go non-finite: exit 3 and
    exactly one stderr line, with no numpy warnings."""
    done = run_cli_process("run", "--config", write_cfg(tmp_path, text),
                           "--out", str(tmp_path / "x"))
    err = done.stderr.splitlines()
    assert done.returncode == 3, done.stderr
    assert len(err) == 1 and err[0].startswith("mtopt: numeric failure: "), err
    return err[0]


def test_non_finite_final_forward_is_numeric_failure(tmp_path):
    err = numeric_failure(tmp_path, "benchmark.kind = quadratic\nquadratic.k = 3\n"
                                    "method = JOINT\neta = 1e200\niters = 1\n")
    assert "iteration 1, substep 1, group 1 2 3:" in err


def test_overflowing_quadratic_is_numeric_failure_without_warnings(tmp_path):
    err = numeric_failure(tmp_path, "benchmark.kind = quadratic\nmethod = SEPARATE\n"
                                    "eta = 1e9\n")
    assert "quadratic loss is non-finite" in err


def test_numeric_failure_names_substep_and_group(tmp_path):
    err = numeric_failure(tmp_path, TRIAD_CFG.replace("eta = 0.05", "eta = 1e6")
                          .replace("iters = 25", "iters = 300"))
    assert ", group " in err and "substep -1" not in err
