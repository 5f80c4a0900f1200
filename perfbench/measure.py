"""Measure one workload in this process and print its result line.

Untraced (``trace=0``), each round runs the workload's ``mtopt`` commands,
then trains every cell again, ``stamped_passes`` times, through the public
functions with a stamped batch stream (set-up, per-iteration times,
throughput). Those timings are taken from samples in the host's usual state
and scaled by the host-state probe (``hoststate.py``). Traced
(``trace=1``), each round runs the commands untraced and then once more
under a :class:`tracer.Tracer`, serially for a sweep, and derives the
per-layer metrics from the spans. Rounds repeat until ``seconds`` have
passed. The first round's run directories go through the output checks.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import shutil
import statistics
from time import perf_counter

import mtopt
from mtopt import cli
from mtopt.config import parse_kv_text, validate_config

from checks import CellChecks, digests, sweep_index_problems
from hoststate import NOMINAL_MS, USUAL_MS
from spec import END_TO_END, PER_LAYER, UNITS
from stamped import run_cell
from tracer import Tracer, assert_untraced, layer_metrics, write_spans
from workloads import SWEEP_WORKERS

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
REFERENCE_DIGESTS = os.path.join(HERE, "reference_digests.json")
SETUP_REPEATS = 9  # set-up-only passes per cell and round, besides the trained one
BLOCK = 10  # iterations per throughput sample


def _cli(cmd, rounddir: str, index: int, workers: int) -> tuple[float, int, str]:
    """Time one ``mtopt`` command through the CLI entry; returns (seconds, exit code, out dir)."""
    outdir = os.path.join(rounddir, f"cmd{index}")
    cfgpath = os.path.join(rounddir, f"cmd{index}.cfg")
    with open(cfgpath, "w", encoding="utf-8") as fh:
        fh.write(cmd.config)
    argv = ["run", "--config", cfgpath, "--out", outdir]
    if cmd.kind == "sweep":
        argv = ["sweep", "--config", cfgpath, "--out", outdir, "--workers", str(workers)]
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = perf_counter()
        code = cli.main(argv)  # looked up at call time, so a tracer's wrapper is what runs
        dt = perf_counter() - t0
    return dt, code, outdir


def _cli_pass(commands, rounddir: str, workers: int):
    os.makedirs(rounddir, exist_ok=True)
    total, runs = 0.0, []
    for i, cmd in enumerate(commands):
        dt, code, outdir = _cli(cmd, rounddir, i, workers)
        total += dt
        runs.append((cmd, code, outdir))
    return total, runs


def _bytes_under(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(path) for f in files)


def _peak_rss_mb() -> float:
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib * 1024 / 1e6


def _cell_dirs(runs):
    """(cell id, cell, run directory) for every cell of a CLI pass."""
    for i, (cmd, _, outdir) in enumerate(runs):
        for cell in cmd.cells:
            yield f"cmd{i}/{cell.subdir}" if cell.subdir else f"cmd{i}", cell, os.path.join(outdir, cell.subdir)


def _cell_iterations(cell) -> int:
    cfg = validate_config(parse_kv_text(cell.config))
    return cfg.iters * (cfg.regression["k"] if cfg.method == "SINGLE" else 1)


class Tally:
    """Operations attempted and failed: iterations, cells and output checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def ops(self, n: int, failed: int = 0):
        self.attempted += n
        self.failed += failed

    def check(self, name: str, problems: list[str]):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{name}: {p}" for p in problems[:5])

    def commands(self, runs):
        for cmd, code, outdir in runs:
            iters = sum(_cell_iterations(c) for c in cmd.cells)
            self.ops(iters + len(cmd.cells), 0 if code == 0 else len(cmd.cells))
            if cmd.kind == "sweep":
                self.check(f"{outdir} index", _guard(lambda: sweep_index_problems(outdir, cmd.cells)))


def _guard(fn):
    try:
        return fn()
    except (OSError, ValueError, KeyError, IndexError) as e:
        return [f"{type(e).__name__}: {e}"]


def _digest_lines(workload, seed, runs, update: bool) -> dict:
    got = {cid: _guard(lambda: digests(rundir)) for cid, _, rundir in _cell_dirs(runs)}
    for cid, files in got.items():
        for name, hexdigest in (files.items() if isinstance(files, dict) else []):
            print(f"sha256 {workload} {cid} {name} {hexdigest}")
    ref = {}
    if os.path.exists(REFERENCE_DIGESTS):
        with open(REFERENCE_DIGESTS, encoding="utf-8") as fh:
            ref = json.load(fh)
    if update:
        ref[workload] = {"seed": seed, "cells": got}
        with open(REFERENCE_DIGESTS, "w", encoding="utf-8") as fh:
            json.dump(ref, fh, indent=1, sort_keys=True)
            fh.write("\n")
    entry = ref.get(workload)
    if entry is None or entry["seed"] != seed:
        print(f"digests {workload}: no reference for seed {seed}")
    else:
        same = entry["cells"] == got
        print(f"digests {workload}: {'match' if same else 'DIFFER FROM'} the reference (seed {seed})")
    return got


def _run_dir_checks(runs, cfgs):
    """Count rule and replays on each cell; returns the CellChecks by cell id."""
    out = {}
    for cid, cell, rundir in _cell_dirs(runs):
        chk = CellChecks(rundir, cfgs[cid])
        chk.run_dir_checks()
        out[cid] = chk
    return out


def _finish(tally: Tally, checks_by_cell):
    for cid, chk in checks_by_cell.items():
        for name, problems in chk.results:
            tally.check(f"{cid} {name}", problems)


def _percentile(values, q):
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _at_usual_speed(samples, what: str, least: int, rate: bool = False):
    """(value, probe ms) samples taken in the host's usual state, scaled to the
    nominal probe time; all samples, scaled, when fewer than ``least`` are
    usual-state (README.md, "Noise on this host"). A rate scales inversely."""
    kept = [(x, probe) for x, probe in samples if probe >= USUAL_MS]
    print(f"info usual {what} {len(kept)} of {len(samples)}"
          + ("" if len(kept) >= least else ", too few: all are used"))
    if len(kept) < least:
        kept = samples
    return [x * probe / NOMINAL_MS if rate else x * NOMINAL_MS / probe for x, probe in kept]


def measure_untraced(workload, seed, seconds, base, tally, update_digests):
    commands = workload.commands(seed)
    run_s, rundir_mb, setups, intervals, rates, probes = [], [], [], [], [], []
    first = None
    start = perf_counter()
    r = 0
    while True:
        r += 1
        rounddir = os.path.join(base, f"r{r}")
        assert_untraced()
        t, runs = _cli_pass(commands, rounddir, SWEEP_WORKERS)
        run_s.append(t)
        rundir_mb.append(sum(_bytes_under(outdir) for _, _, outdir in runs) / 1e6)
        tally.commands(runs)
        passes = {}
        for cid, cell, _ in _cell_dirs(runs):
            for _ in range(SETUP_REPEATS):
                sp = run_cell(cell.config, workload.probe_every, setup_only=True)
                setups.append((sp.setup_s, sp.setup_probe_ms))
            for _ in range(workload.stamped_passes):
                cp = run_cell(cell.config, workload.probe_every)
                setups.append((cp.setup_s, cp.setup_probe_ms))
                intervals.extend(zip(cp.intervals_ms, cp.intervals_probe_ms))
                rates.extend((1e3 * BLOCK / sum(cp.intervals_ms[i:i + BLOCK]),
                              min(cp.intervals_probe_ms[i:i + BLOCK]))
                             for i in range(0, len(cp.intervals_ms) - BLOCK + 1, BLOCK))
                probes.extend(cp.probe_ms)
                tally.ops(cp.iterations)
            passes[cid] = cp
        if first is None:
            first = (runs, passes, _digest_lines(workload.name, seed, runs, update_digests))
        else:
            for cid, _, rundir in _cell_dirs(runs):
                tally.check(f"{cid} round {r} bytes equal round 1",
                            _guard(lambda: [] if digests(rundir) == first[2][cid]
                                   else ["run directory differs from round 1"]))
            shutil.rmtree(rounddir)
        if perf_counter() - start >= seconds:
            break
    peak = _peak_rss_mb()  # before the checks, which are the benchmark's own memory

    runs, passes, _ = first
    checks_by_cell = _run_dir_checks(runs, {cid: p.cfg for cid, p in passes.items()})
    for cid, chk in checks_by_cell.items():
        chk.loss_checks(passes[cid])
    _finish(tally, checks_by_cell)

    os.makedirs(os.path.join(OUT, "samples"), exist_ok=True)
    with open(os.path.join(OUT, "samples", f"{workload.name}-s{seed}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"setups": setups, "intervals": intervals, "rates": rates}, fh)
    setup_s = _at_usual_speed(setups, "setups", 10)
    iter_ms = _at_usual_speed(intervals, "iterations", 200)
    rate = _at_usual_speed(rates, "10-iteration blocks", 20, rate=True)
    # Printed for reference; too unsteady on a host whose speed changes in phases
    # to gate a change (README.md, "Noise on this host").
    print(f"info run_s {statistics.median(run_s):.6g} s (median command time over rounds)")
    print(f"info probe_ms {statistics.median(probes):.4g} (median host-state probe)")
    return {
        "setup_s": statistics.median(setup_s),
        "iter_ms_p95": _percentile(iter_ms, 0.95),
        "train_iters_per_s": _percentile(rate, 0.05),
        "peak_rss_mb": peak,
        "rundir_mb": statistics.median(rundir_mb),
    }, {"rounds": r}


def measure_traced(workload, seed, seconds, base, tally, update_digests):
    commands = workload.commands(seed)
    sweep = any(cmd.kind == "sweep" for cmd in commands)
    untraced, serial, traced, layers = [], [], [], []
    spans = None
    start = perf_counter()
    r = 0
    while True:
        r += 1
        rounddir = os.path.join(base, f"r{r}")
        assert_untraced()
        t, plain_runs = _cli_pass(commands, os.path.join(rounddir, "plain"), SWEEP_WORKERS)
        untraced.append(t)
        tally.commands(plain_runs)
        if sweep:
            t, serial_runs = _cli_pass(commands, os.path.join(rounddir, "serial"), 1)
            serial.append(t)
            tally.commands(serial_runs)
        tracer = Tracer()
        with tracer:
            t, traced_runs = _cli_pass(commands, os.path.join(rounddir, "traced"), 1)
        traced.append(t)
        tally.commands(traced_runs)
        layers.append(layer_metrics(tracer.spans))
        if spans is None:
            spans = tracer.spans
            plain = _digest_lines(workload.name, seed, plain_runs, update_digests)
            cfgs = {cid: validate_config(parse_kv_text(cell.config))
                    for cid, cell, _ in _cell_dirs(traced_runs)}
            _finish(tally, _run_dir_checks(traced_runs, cfgs))
            for cid, _, rundir in _cell_dirs(traced_runs):
                tally.check(f"{cid} traced bytes equal untraced",
                            _guard(lambda: [] if digests(rundir) == plain[cid]
                                   else ["traced run directory differs from the untraced one"]))
        shutil.rmtree(rounddir)
        if perf_counter() - start >= seconds:
            break
    os.makedirs(os.path.join(OUT, "traces"), exist_ok=True)
    write_spans(os.path.join(OUT, "traces", f"{workload.name}-s{seed}.csv"), spans)

    metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    comparable = serial if sweep else untraced
    metrics["cli.parallel_efficiency"] = (
        statistics.median(serial) / (SWEEP_WORKERS * statistics.median(untraced)) if sweep else 0.0)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(comparable)
    return metrics, {"rounds": r}


def main(workload, seed: int, seconds: float, trace: int, update_digests: bool) -> int:
    if not os.path.abspath(mtopt.__file__).startswith(os.path.abspath(os.path.join(HERE, "..", "src"))):
        raise SystemExit(f"perfbench: imported mtopt from {mtopt.__file__}, not this checkout")
    base = os.path.join(OUT, "runs", f"{workload.name}-s{seed}-t{trace}")
    shutil.rmtree(base, ignore_errors=True)
    tally = Tally()
    measure = measure_traced if trace else measure_untraced
    try:
        metrics, info = measure(workload, seed, seconds, base, tally, update_digests)
    finally:
        shutil.rmtree(base, ignore_errors=True)

    names = [m[0] for m in (PER_LAYER if trace else END_TO_END)]
    for problem in tally.problems:
        print(f"FAILED {workload.name}: {problem}")
    print(f"{workload.name} seed={seed} trace={trace}: {info['rounds']} rounds, "
          f"{tally.attempted} operations, {tally.failed} failed")
    for name in names:
        print(f"  {name:34s} {metrics[name]:14.6g} {UNITS[name]}")
    result = {"correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed,
              "metrics": {name: {"value": metrics[name], "unit": UNITS[name]} for name in names}}
    line = json.dumps(result)
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    with open(os.path.join(OUT, "results", f"{workload.name}-s{seed}-t{trace}.json"), "w",
              encoding="utf-8") as fh:
        fh.write(line + "\n")
    print(line)
    return 0 if tally.failed == 0 else 1
