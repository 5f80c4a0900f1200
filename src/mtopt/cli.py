"""Experiment runner: run / sweep / verify / report.

Exit codes: 0 success, 1 property violation (verify), 2 usage or validation
error, 3 numeric failure during training.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import os
import sys
from concurrent.futures import ProcessPoolExecutor

from .analysis import SUITES, AnalysisError, delta_m_from_losses, run_property_suite
from .config import ConfigError, echo_dict, parse_kv_text, read_kv_file, validate_config
from .experiments import run_experiment
from .optim import NumericAbort
from .runio import (INDEX_HEADER, INDEX_SCHEMA, RunDirError, RunWriter, fmt, read_group_series,
                    read_summary, write_json, write_lines, write_run)
from .tensor import NonFiniteValue

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3

TRIAD_ABLATION_BASE = """\
# triad ablation preset: grouping method and update order on the
# two-aligned-plus-one-conflicting regression suite
benchmark.kind = regression
regression.preset = triad
model.width = 8
model.depth = 2
batch.size = 32
iters = 2000
eta = 0.05
beta = 0.01
optimizer = sgd
"""

TRIAD_ABLATION_CELLS = [
    {"method": "SINGLE"},
    {"method": "JOINT"},
    {"method": "SEPARATE"},
    {"method": "SELECTIVE", "order": "RANDOM"},
    {"method": "SELECTIVE", "order": "FORWARD"},
    {"method": "SELECTIVE", "order": "BACKWARD"},
]
TRIAD_ABLATION_SEEDS = [0, 1, 2, 3, 4]


def _fail(msg: str, code: int) -> int:
    print(f"mtopt: {msg}", file=sys.stderr)
    return code


def _apply_overrides(raw: dict[str, str], args) -> dict[str, str]:
    out = dict(raw)
    if args.seed is not None:
        out["seed"] = str(args.seed)
    if getattr(args, "method", None):
        out["method"] = args.method
    if getattr(args, "order", None):
        out["order"] = args.order
    return out


def cmd_run(args) -> int:
    try:
        raw = read_kv_file(args.config)
        raw = _apply_overrides(raw, args)
        cfg = validate_config(raw)
    except (OSError, ConfigError) as e:
        return _fail(str(e), EXIT_USAGE)
    try:
        with RunWriter(args.out) as writer:
            result = run_experiment(cfg, writer.sink)
            paths = write_run(writer, result, echo_dict(cfg))
    except NumericAbort as e:
        return _fail(f"numeric failure: {e}", EXIT_NUMERIC)
    except (OSError, ConfigError) as e:
        return _fail(str(e), EXIT_USAGE)
    if cfg.verbosity:
        losses = " ".join(f"{t}={fmt(v)}" for t, v in sorted(result.eval_losses.items()))
        print(f"run {cfg.method} seed={cfg.seed}: eval losses {losses}")
        print(f"wrote {paths['summary']}")
    return EXIT_OK


def _cell_name(overrides: dict[str, str]) -> str:
    return "_".join(f"{k.replace('.', '-')}-{v}" for k, v in sorted(overrides.items()))


def _run_cell(base_raw: dict, overrides: dict, outdir: str) -> tuple[str, str]:
    """Worker for one sweep cell; returns (cell name, status)."""
    name = _cell_name(overrides)
    raw = dict(base_raw)
    raw.update(overrides)
    try:
        cfg = validate_config(raw)
        with RunWriter(os.path.join(outdir, name)) as writer:
            write_run(writer, run_experiment(cfg, writer.sink), echo_dict(cfg))
        return name, "ok"
    except NumericAbort as e:
        return name, f"numeric:{e.iteration}"
    except (OSError, ValueError) as e:
        return name, f"error:{e}"


def _expand_grid(raw: dict[str, str]) -> tuple[dict[str, str], list[dict[str, str]]]:
    base = {k: v for k, v in raw.items() if not k.startswith("sweep.")}
    axes = {k[len("sweep."):]: [x.strip() for x in v.split(",")]
            for k, v in raw.items() if k.startswith("sweep.")}
    if not axes:
        raise ConfigError("sweep config has no sweep.* axes")
    keys = sorted(axes)
    cells = [dict(zip(keys, combo)) for combo in itertools.product(*(axes[k] for k in keys))]
    return base, cells


def cmd_sweep(args) -> int:
    if os.path.exists(args.out) and not os.path.isdir(args.out):
        return _fail(f"--out {args.out} exists and is not a directory", EXIT_USAGE)
    try:
        if args.preset:
            if args.preset != "triad-ablation":
                raise ConfigError(f"unknown preset '{args.preset}'")
            base = parse_kv_text(TRIAD_ABLATION_BASE)
            cells = [dict(cell, seed=str(seed))
                     for seed in TRIAD_ABLATION_SEEDS for cell in TRIAD_ABLATION_CELLS]
        else:
            if not args.config:
                raise ConfigError("sweep needs --config or --preset")
            raw = read_kv_file(args.config)
            base, cells = _expand_grid(raw)
        if args.seed is not None:
            if any("seed" in cell for cell in cells):
                raise ConfigError("--seed would be ignored: every sweep cell sets its own seed")
            base["seed"] = str(args.seed)
        if args.workers < 1:
            raise ConfigError(f"--workers must be >= 1, got {args.workers}")
        names = set()
        for cell in cells:  # validate every cell before any compute
            name = _cell_name(cell)
            if name in names:
                raise ConfigError(f"sweep cell '{name}' appears twice")
            names.add(name)
            merged = dict(base)
            merged.update(cell)
            validate_config(merged)
        os.makedirs(args.out, exist_ok=True)
    except (OSError, ConfigError) as e:
        return _fail(str(e), EXIT_USAGE)

    pending, done = [], []
    for cell in cells:
        name = _cell_name(cell)
        if args.resume and os.path.exists(os.path.join(args.out, name, "summary.json")):
            done.append((name, "kept"))
        else:
            pending.append(cell)
    results = list(done)
    workers = min(args.workers, len(pending))  # the pool forks all its workers up front
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_run_cell, base, cell, args.out) for cell in pending]
            results.extend(f.result() for f in futures)
    else:
        results.extend(_run_cell(base, cell, args.out) for cell in pending)

    results.sort()
    try:
        with open(os.path.join(args.out, "index.csv"), "w", encoding="utf-8", newline="") as fh:
            fh.write(f"{INDEX_SCHEMA}\n{INDEX_HEADER}\n")  # each cell's dir is relative to the index
            csv.writer(fh, lineterminator="\n").writerows((n, n, status) for n, status in results)
    except OSError as e:
        return _fail(str(e), EXIT_USAGE)
    bad = [r for r in results if r[1].startswith(("numeric", "error"))]
    for name, status in bad:
        print(f"mtopt: cell {name}: {status}", file=sys.stderr)
    print(f"sweep: {len(results)} cells, {len(bad)} failed; index at {args.out}/index.csv")
    if any(status.startswith("numeric") for _, status in bad):
        return EXIT_NUMERIC
    return EXIT_USAGE if bad else EXIT_OK


def cmd_verify(args) -> int:
    suites = [s.strip() for s in args.suites.split(",")] if args.suites else list(SUITES)
    for s in suites:
        if s not in SUITES:
            return _fail(f"unknown suite '{s}' (have {', '.join(SUITES)})", EXIT_USAGE)
    if args.out and os.path.isdir(args.out):
        return _fail(f"--out {args.out} is a directory", EXIT_USAGE)
    if args.out and not os.path.isdir(os.path.dirname(args.out) or "."):
        return _fail(f"--out {args.out}: no directory {os.path.dirname(args.out)}", EXIT_USAGE)
    reports = []
    for s in suites:
        n = SUITES[s].instances if args.instances is None else args.instances
        try:  # a bad instance count or margin scale is refused before the first suite runs
            rep = run_property_suite(s, n, seed=args.seed, margin_scale=args.margin_scale)
        except AnalysisError as e:
            return _fail(str(e), EXIT_USAGE)
        except NonFiniteValue as e:
            return _fail(f"numeric failure: suite {s}: {e}", EXIT_NUMERIC)
        reports.append(rep)
        status = "pass" if rep.passed else f"FAIL ({rep.violations} violations)"
        print(f"{s} [{SUITES[s].title}]: {status}, {rep.instances} instances, "
              f"max residual {rep.max_residual:.3e}")
    if args.out:
        try:
            write_json(args.out, {
                "schema": "mtopt.verify.v1", "seed": args.seed,
                "suites": {r.suite: {"instances": r.instances, "violations": r.violations,
                                     "max_residual": r.max_residual, "regime": r.regime}
                           for r in reports}})
        except OSError as e:
            return _fail(str(e), EXIT_USAGE)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_VIOLATION


def cmd_report(args) -> int:
    if args.out and os.path.exists(args.out) and not os.path.isdir(args.out):
        return _fail(f"--out {args.out} exists and is not a directory", EXIT_USAGE)
    try:
        base = read_summary(args.baseline)
        summaries = [(d, read_summary(d)) for d in args.rundirs]
        series = ["# schema=mtopt.groupseries.v1", "dir,iter,m"]
        for d in args.rundirs if args.out else []:
            if os.path.exists(os.path.join(d, "groups.csv")):
                series.extend(f"{d},{it},{m}" for it, m in read_group_series(d))
    except (OSError, RunDirError) as e:
        return _fail(str(e), EXIT_USAGE)
    rows = []
    for d, s in summaries:
        try:
            dm = delta_m_from_losses(s["eval_losses"], base["eval_losses"])
        except AnalysisError as e:
            return _fail(f"{d} against baseline {args.baseline}: {e}", EXIT_USAGE)
        mean_m = None
        runs = s.get("runs", {})
        if "main" in runs:
            mean_m = runs["main"].get("mean_group_count")
        rows.append((d, s["method"], s["seed"], dm, mean_m))

    lines = ["# schema=mtopt.report.v1", "dir,method,seed,delta_m_pct,mean_group_count"]
    for d, method, seed, dm, mean_m in rows:
        lines.append(",".join([d, method, str(seed), fmt(dm),
                               "" if mean_m is None else fmt(float(mean_m))]))
    print(f"baseline: {args.baseline} ({base['method']})")
    for d, method, seed, dm, mean_m in rows:
        extra = "" if mean_m is None else f", mean groups {mean_m:.2f}"
        print(f"{method:10s} seed={seed} {d}: delta_m {dm:+.3f}%{extra}")
    if args.out:
        freq = ["# schema=mtopt.groupfreq.v1", "dir,task_i,task_j,frequency"]
        for d, s in summaries:
            main = s.get("runs", {}).get("main")
            if main and main.get("grouping_frequency"):
                mat = main["grouping_frequency"]
                for i, row in enumerate(mat, start=1):
                    freq.extend(f"{d},{i},{j},{fmt(float(v))}"
                                for j, v in enumerate(row, start=1))
        try:
            os.makedirs(args.out, exist_ok=True)
            write_lines(os.path.join(args.out, "report.csv"), lines)
            write_lines(os.path.join(args.out, "group_series.csv"), series)
            write_lines(os.path.join(args.out, "group_frequency.csv"), freq)
        except OSError as e:
            return _fail(str(e), EXIT_USAGE)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="mtopt",
                                description="multi-task optimization experiments")
    sub = p.add_subparsers(dest="cmd", required=True)

    pr = sub.add_parser("run", help="run one training configuration")
    pr.add_argument("--config", required=True, help="key=value config file")
    pr.add_argument("--out", required=True, help="run directory to write")
    pr.add_argument("--seed", type=int, help="override config seed (>= 0)")
    pr.add_argument("--method", help="override config method")
    pr.add_argument("--order", help="override group update order")
    pr.set_defaults(fn=cmd_run)

    ps = sub.add_parser("sweep", help="expand a grid and run every cell")
    ps.add_argument("--config", help="config with sweep.* axes")
    ps.add_argument("--preset", help="built-in sweep: triad-ablation")
    ps.add_argument("--out", required=True)
    ps.add_argument("--seed", type=int, help="override base seed (>= 0)")
    ps.add_argument("--resume", action="store_true", help="skip completed cells")
    ps.add_argument("--workers", type=int, default=1, help="parallel worker processes")
    ps.set_defaults(fn=cmd_sweep)

    pv = sub.add_parser("verify", help="run the analytic property suites")
    pv.add_argument("--suites", help=f"comma list from {','.join(SUITES)} (default all)")
    pv.add_argument("--instances", type=int, help="instances per suite (default per-suite)")
    pv.add_argument("--seed", type=int, default=0, help="first instance seed (>= 0)")
    pv.add_argument("--margin-scale", type=float, default=1.0,
                    help="margin multiplier, finite and > 0 (test hook; <1 tightens)")
    pv.add_argument("--out", help="write a JSON report here")
    pv.set_defaults(fn=cmd_verify)

    pp = sub.add_parser("report", help="compare runs against a baseline run")
    pp.add_argument("rundirs", nargs="+", help="run directories to score")
    pp.add_argument("--baseline", required=True, help="baseline run directory")
    pp.add_argument("--out", help="write report CSVs here")
    pp.set_defaults(fn=cmd_report)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code else EXIT_OK
    return args.fn(args)


def entrypoint():
    sys.exit(main())
