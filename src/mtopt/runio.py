"""On-disk run logs: steps.csv, affinity.csv, groups.csv, summary.json, config.json.

Every CSV starts with a schema-version line, columns are fixed, and floats
are serialized with 17 significant digits, so re-running the same
config.json reproduces the files byte for byte.
"""

from __future__ import annotations

import json
import os

from .analysis import summarize_run
from .experiments import RunResult
from .grouping import serialize_partition

STEPS_SCHEMA = "# schema=mtopt.steps.v1"
STEPS_HEADER = "iter,substep,group,task,loss,grad_norm_shared,grad_norm_task,forwards,backwards"
AFFINITY_SCHEMA = "# schema=mtopt.affinity.v1"
AFFINITY_HEADER = "iter,substep,source,target,b_instant,b_decayed,verdict,skipped"
GROUPS_SCHEMA = "# schema=mtopt.groups.v1"
GROUPS_HEADER = "iter,partition,m"
INDEX_SCHEMA = "# schema=mtopt.index.v1"
INDEX_HEADER = "cell,dir,status"
SUMMARY_SCHEMA = "mtopt.summary.v1"


def fmt(x: float) -> str:
    return format(x, ".17g")


def _steps_lines(log) -> list[str]:
    lines = []
    for report in log.steps:
        f, b = report.forwards, report.backwards
        for tid in sorted(report.initial_losses):
            lines.append(",".join([str(report.iteration), "0", "", str(tid),
                                   fmt(report.initial_losses[tid]), "", "", str(f), str(b)]))
        for idx, sub in enumerate(report.substeps, start=1):
            group = " ".join(str(t) for t in sub.group)
            tids = sorted(sub.losses_after) if sub.losses_after else sorted(report.initial_losses)
            for tid in tids:
                loss = fmt(sub.losses_after[tid]) if sub.losses_after else ""
                gtask = fmt(sub.grad_norm_task[tid]) if tid in sub.grad_norm_task else ""
                lines.append(",".join([str(report.iteration), str(idx), group, str(tid),
                                       loss, fmt(sub.grad_norm_shared), gtask, str(f), str(b)]))
    return lines


def write_lines(path, lines: list[str]):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_json(path, payload: dict):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def write_run(outdir, result: RunResult, echo: dict) -> dict[str, str]:
    os.makedirs(outdir, exist_ok=True)
    logs = [result.logs[label] for label in sorted(result.logs)]
    steps = [STEPS_SCHEMA, STEPS_HEADER]
    affinity = [AFFINITY_SCHEMA, AFFINITY_HEADER]
    groups = [GROUPS_SCHEMA, GROUPS_HEADER]
    for log in logs:
        steps.extend(_steps_lines(log))
        for it, sub, src, tgt, inst, dec, verdict, skipped in log.affinity_rows:
            affinity.append(",".join([str(it), str(sub), str(src), str(tgt),
                                      fmt(float(inst)), fmt(float(dec)), verdict,
                                      "1" if skipped else "0"]))
        groups.extend(f'{report.iteration},"{serialize_partition(report.partition)}",'
                      f'{report.partition.m}' for report in log.steps)
    summary = {
        "schema": SUMMARY_SCHEMA,
        "method": result.method,
        "seed": result.seed,
        "k": result.k,
        "final_losses": {str(t): v for t, v in sorted(result.final_losses.items())},
        "eval_losses": {str(t): v for t, v in sorted(result.eval_losses.items())},
        "runs": {label: summarize_run(result.logs[label]) for label in sorted(result.logs)},
    }
    paths = {name: os.path.join(outdir, f"{name}.csv") for name in ("steps", "affinity", "groups")}
    write_lines(paths["steps"], steps)
    write_lines(paths["affinity"], affinity)
    write_lines(paths["groups"], groups)
    paths["summary"] = os.path.join(outdir, "summary.json")
    write_json(paths["summary"], summary)
    paths["config"] = os.path.join(outdir, "config.json")
    write_json(paths["config"], {"schema": "mtopt.config.v1", "config": echo})
    return paths


class RunDirError(ValueError):
    pass


def read_summary(rundir) -> dict:
    """A run directory's summary.json, checked for its schema, with its loss
    maps keyed by task id."""
    path = os.path.join(rundir, "summary.json")
    if not os.path.isfile(path):
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
    except (AttributeError, KeyError, TypeError, ValueError):
        ok = False
    if not ok:
        raise RunDirError(f"{rundir}: summary.json is not a {SUMMARY_SCHEMA} summary with losses")
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
