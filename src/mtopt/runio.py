"""On-disk run logs: steps.csv, affinity.csv, groups.csv, summary.json, config.json.

Every CSV starts with a schema-version line, columns are fixed, and floats
are serialized with 17 significant digits, so re-running the same
config.json reproduces the files byte for byte. A :class:`RunWriter` appends
each iteration to the CSVs as soon as it ends, through open buffered
handles, so no run log is held in memory; :func:`write_run` then writes the
summary and the config echo. A directory without summary.json is a run that
did not finish.
"""

from __future__ import annotations

import csv
import json
import os
from typing import TextIO

from .affinity import affinity_rows, loss_ratios
from .analysis import summarize_run, task_keyed
from .experiments import RunResult
from .grouping import serialize_partition
from .optim import grad_norms

STEPS_SCHEMA = "# schema=mtopt.steps.v1"
STEPS_HEADER = "iter,substep,group,task,loss,grad_norm_shared,grad_norm_task,forwards,backwards"
AFFINITY_SCHEMA = "# schema=mtopt.affinity.v1"
AFFINITY_HEADER = "iter,substep,source,target,b_instant,b_decayed,verdict,skipped"
GROUPS_SCHEMA = "# schema=mtopt.groups.v1"
GROUPS_HEADER = "iter,partition,m"
INDEX_SCHEMA = "# schema=mtopt.index.v1"
INDEX_HEADER = "cell,dir,status"
SUMMARY_SCHEMA = "mtopt.summary.v1"
CSV_HEADERS = {"steps": f"{STEPS_SCHEMA}\n{STEPS_HEADER}\n",
               "affinity": f"{AFFINITY_SCHEMA}\n{AFFINITY_HEADER}\n",
               "groups": f"{GROUPS_SCHEMA}\n{GROUPS_HEADER}\n"}


def fmt(x: float) -> str:
    return format(x, ".17g")


def _steps_lines(report) -> list[str]:
    """Each sub-step's loss rows, from its tuple of k losses in task-id order.
    Its gradient norms are derived here, once per sub-step, from the gradient
    its record keeps; training computes none. The shared norm is formatted once."""
    it, counts = str(report.iteration), f"{report.forwards},{report.backwards}"
    initial = report.initial_losses
    lines = [f"{it},0,,{tid},{fmt(loss)},,,{counts}" for tid, loss in enumerate(initial, start=1)]
    for idx, sub in enumerate(report.substeps, start=1):
        head = f"{it},{idx},{' '.join(map(str, sub.group))}"
        shared, norms = grad_norms(sub.grads)
        shared = fmt(shared)
        losses = map(fmt, sub.losses_after) if sub.losses_after else [""] * len(initial)
        for tid, loss in enumerate(losses, start=1):
            gtask = fmt(norms[tid]) if tid in norms else ""
            lines.append(f"{head},{tid},{loss},{shared},{gtask},{counts}")
    return lines


def _affinity_lines(report) -> list[str]:
    """Each sub-step's affinity rows, led by the iteration and the sub-step
    index. Its ratios come from the losses before it and its own losses
    after, its decayed values from the tracker rows it wrote. Each ratio is
    formatted once per sub-step, not once per row. An untracked run has none."""
    lines, before = [], report.initial_losses
    for idx, sub in enumerate(report.substeps, start=1):
        if sub.rows is None:
            break
        ratios = loss_ratios(before, sub.losses_after)
        before = sub.losses_after
        head, texts = f"{report.iteration},{idx}", [fmt(r) for r in ratios]
        for src, tgt, _, dec, verdict, skipped in affinity_rows(sub.group, ratios, sub.rows):
            inst = "nan" if skipped else texts[tgt - 1]
            lines.append(f"{head},{src},{tgt},{inst},{fmt(dec)},{verdict},{1 if skipped else 0}")
    return lines


def write_csv(path, head: list[str], rows):
    """The ``head`` lines as they are, then ``rows`` through ``csv.writer``,
    which quotes a field only where it holds a comma, quote or newline."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("".join(f"{line}\n" for line in head))
        csv.writer(fh, lineterminator="\n").writerows(rows)


def write_json(path, payload: dict):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


class RunWriter:
    """Streams a run's CSVs into ``outdir`` while it trains.

    Nothing is created until the first :meth:`sink` call, which run_experiment
    makes only after set-up has succeeded. Opening removes a stale
    summary.json and config.json, so a directory whose run stops early does
    not look finished (``sweep --resume`` keeps a cell with a summary and the
    same config): its CSVs hold every completed iteration and it has neither
    file.
    :func:`write_run` finishes the directory.
    """

    def __init__(self, outdir):
        self.outdir = outdir
        self.paths = {name: os.path.join(outdir, f"{name}.csv") for name in CSV_HEADERS}
        self._files: dict[str, TextIO] = {}

    def sink(self, _label: str):
        """The sink of one run: every label appends to the same files, in call order."""
        if not self._files:
            os.makedirs(self.outdir, exist_ok=True)
            for name in ("summary.json", "config.json"):  # what write_run writes
                path = os.path.join(self.outdir, name)
                if os.path.exists(path):
                    os.remove(path)
            for name, header in CSV_HEADERS.items():  # close() releases them on any failure
                fh = self._files[name] = open(self.paths[name], "w", encoding="utf-8", newline="\n")
                fh.write(header)
        return self.append

    def append(self, report):
        """Format one finished iteration into the open CSVs."""
        self._files["steps"].write("\n".join(_steps_lines(report)) + "\n")
        self._files["affinity"].write("".join(f"{line}\n" for line in _affinity_lines(report)))
        self._files["groups"].write(f'{report.iteration},"{serialize_partition(report.partition)}",'
                                    f'{report.partition.m}\n')

    def close(self):
        files, self._files = self._files, {}
        for fh in files.values():
            fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def write_run(writer: RunWriter, result: RunResult, echo: dict) -> dict[str, str]:
    """Finish a run directory: close its CSVs, write summary.json and
    config.json, and return the paths of all five files."""
    writer.close()
    summary = {
        "schema": SUMMARY_SCHEMA,
        "method": result.method,
        "seed": result.seed,
        "k": result.k,
        "final_losses": task_keyed(result.final_losses),
        "eval_losses": task_keyed(result.eval_losses),
        "runs": {label: summarize_run(result.logs[label]) for label in sorted(result.logs)},
    }
    paths = dict(writer.paths, summary=os.path.join(writer.outdir, "summary.json"),
                 config=os.path.join(writer.outdir, "config.json"))
    write_json(paths["summary"], summary)
    write_json(paths["config"], {"schema": "mtopt.config.v1", "config": echo})
    return paths


class RunDirError(ValueError):
    pass


def _run_totals_ok(run: dict) -> bool:
    """Whether a run's totals hold what ``mtopt report`` reads: a number or
    null mean group count and a list of lists of numbers as frequencies."""
    number = (int, float)
    mean, freq = run.get("mean_group_count"), run.get("grouping_frequency", [])
    return ((mean is None or isinstance(mean, number)) and isinstance(freq, list)
            and all(isinstance(row, list) and all(isinstance(v, number) for v in row)
                    for row in freq))


def read_summary(rundir) -> dict:
    """A run directory's summary.json, checked for its schema, with its loss
    maps keyed by task id and its run totals checked for what ``mtopt
    report`` reads."""
    path = os.path.join(rundir, "summary.json")
    if not os.path.isfile(path):
        if os.path.isdir(rundir):
            raise RunDirError(f"{rundir}: the run did not finish (no summary.json)")
        raise RunDirError(f"missing run directory (no summary.json): {rundir}")
    try:
        with open(path, encoding="utf-8") as fh:
            summary = json.load(fh)
    except ValueError:
        raise RunDirError(f"{rundir}: summary.json is not JSON") from None
    try:
        ok = summary["schema"] == SUMMARY_SCHEMA and {"method", "seed"} <= summary.keys()
        for key in ("final_losses", "eval_losses"):
            summary[key] = {int(t): float(v) for t, v in summary[key].items()}
        runs = summary.get("runs", {})
        ok = ok and isinstance(runs, dict) and all(map(_run_totals_ok, runs.values()))
    except (AttributeError, KeyError, TypeError, ValueError):
        ok = False
    if not ok:
        raise RunDirError(f"{rundir}: summary.json is not a {SUMMARY_SCHEMA} summary "
                          "with losses and run totals")
    return summary


def read_group_series(rundir) -> list[tuple[int, int]]:
    """(iteration, group count) pairs from groups.csv."""
    try:
        with open(os.path.join(rundir, "groups.csv"), encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError:
        raise RunDirError(f"{rundir}: groups.csv is not UTF-8 text") from None
    out = []
    for n, line in enumerate(lines[2:], start=3):
        try:
            out.append((int(line.split(",", 1)[0]), int(line.rsplit(",", 1)[1])))
        except (IndexError, ValueError):
            raise RunDirError(f"{rundir}: groups.csv line {n} is not iter,partition,m: "
                              f"{line!r}") from None
    return out
